"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS/FAIL line (run with `pytest -v -s` to see
them stream). Criterion 5 needs a real citation-benchmark dataset on disk
and is skipped, with instructions, when the files are absent.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

import gelato
from gelato import (EnhancerConfig, RankSummary, TrainConfig, auc,
                    average_precision, build_graph, hits_at_k,
                    negative_pool_size, positive_masking_batches,
                    precision_at_k, rank_summary, sample_negatives,
                    split_edges, train)
from gelato.enhancer import AugmentedPairs, assemble_enhanced
from gelato.evaluator import pair_scores
from gelato.scorers import AutocovarianceScorer, LocalHeuristicScorer
from gelato.splits import pair_codes

from conftest import (brute_force_counts, brute_force_metrics,
                      dense_autocovariance, enumerate_pool,
                      finite_difference_error, gradcheck_instance,
                      make_attribute_sbm, random_graph)


def _verdict(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_autocovariance_dense_oracle():
    """Blocked walk similarity vs dense reference on 200 random graphs."""
    rng = np.random.default_rng(101)
    worst = 0.0
    worst_mass = 0.0
    t0 = time.time()
    for trial in range(200):
        n = int(rng.integers(4, 51))
        m = int(rng.integers(n - 1, 3 * n))
        g = random_graph(rng, n, m, weighted=True)
        t = int(rng.integers(0, 6))
        scorer = AutocovarianceScorer(g, t)
        R = scorer.rows(np.arange(n))
        R_ref = dense_autocovariance(g, t)
        worst = max(worst, float(np.abs(R - R_ref).max()))
        worst_mass = max(worst_mass, abs(float(R.sum())))
        # pair interface must agree with the row interface it reuses
        pairs = np.column_stack([rng.integers(0, n, 10),
                                 rng.integers(0, n, 10)])
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        if len(pairs):
            got = pair_scores(scorer.rows, pairs, block_size=7)
            ref = R_ref[pairs[:, 0], pairs[:, 1]]
            worst = max(worst, float(np.abs(got - ref).max()))
    _verdict(1, "autocovariance matches dense oracle",
             worst < 1e-10 and worst_mass < 1e-9,
             f"max-abs {worst:.2e}, mass {worst_mass:.2e}, "
             f"{time.time() - t0:.1f}s")


def test_criterion_2_gradient_correctness():
    """Tape gradients vs central differences on 50 random configurations."""
    t0 = time.time()
    worst = 0.0
    for seed in range(50):
        loss_kind = "bce" if seed % 3 == 2 else "npair"
        parts = gradcheck_instance(seed + 1000, loss_kind)
        err = finite_difference_error(*parts, step=1e-5)
        worst = max(worst, err)
    _verdict(2, "gradients match finite differences", worst < 1e-4,
             f"max rel err {worst:.2e}, {time.time() - t0:.1f}s")


def test_criterion_3_imbalance_example_counts():
    """Analytic biased-vs-unbiased example via count arithmetic only.

    100k true edges all ranked below the same 1M of 99.9M negatives: the
    unbiased AUC stays ~0.99 while the unbiased AP collapses to ~0.047;
    sampling one negative per positive inflates AP back to ~0.95.
    """
    t0 = time.time()
    P = 100_000
    total_neg = 99_900_000
    false_pos = 1_000_000
    pos_scores = np.arange(P, 0, -1, dtype=np.float64)  # distinct scores
    rs = RankSummary(pos_scores, np.full(P, false_pos, dtype=np.int64),
                     np.zeros(P, dtype=np.int64), total_neg)
    got_auc = auc(rs)
    got_ap = average_precision(rs)
    # none of the positives reaches the top-100k under 1M false positives
    assert precision_at_k(rs, 1.0) == 0.0

    # biased universe: P sampled negatives; the number above all positives
    # is hypergeometric (drawing P of total_neg, false_pos of them high)
    k = int(np.random.default_rng(7).hypergeometric(
        false_pos, total_neg - false_pos, P))
    rs_biased = RankSummary(
        pos_scores, np.full(P, k, dtype=np.int64),
        np.zeros(P, dtype=np.int64), P)
    got_biased_ap = average_precision(rs_biased)

    ok = (abs(got_auc - 0.99) <= 0.001
          and abs(got_ap - 0.047) <= 0.003
          and abs(got_biased_ap - 0.95) <= 0.01)
    _verdict(3, "class-imbalance example reproduced", ok,
             f"AUC {got_auc:.4f}, unbiased AP {got_ap:.4f}, "
             f"biased AP {got_biased_ap:.4f}, {time.time() - t0:.2f}s")


def test_criterion_4_metric_oracle_equivalence():
    """Streamed metrics equal full-sort brute force exactly, ties included."""
    rng = np.random.default_rng(404)
    t0 = time.time()
    exact = True
    for trial in range(100):
        P = int(rng.integers(1, 120))
        N = int(rng.integers(1, 10_000 - P))
        if trial % 3 == 0:  # heavy ties
            pos = rng.integers(0, 8, P).astype(float)
            neg = rng.integers(0, 8, N).astype(float)
        else:
            pos = rng.normal(size=P)
            neg = rng.normal(size=N)
        above, tied = brute_force_counts(pos, neg)
        rs = RankSummary(pos, above, tied, N)
        fractions = (0.25, 0.5, 1.0)
        ks = (1, 10, 100)
        ref = brute_force_metrics(pos, neg, prec_fractions=fractions,
                                  hits_ks=ks)
        exact &= average_precision(rs) == ref["ap"]
        exact &= auc(rs) == ref["auc"]
        for f in fractions:
            if f in ref["prec"]:
                exact &= precision_at_k(rs, f) == ref["prec"][f]
        for k in ks:
            exact &= hits_at_k(rs, k) == ref["hits"][k]
        if not exact:
            break
    _verdict(4, "metrics equal brute-force full sort exactly", exact,
             f"100 instances, {time.time() - t0:.1f}s")


def _find_cora():
    root = os.environ.get("GELATO_CORA_DIR", "data/cora")
    edges = Path(root) / "cora.edges"
    attrs = Path(root) / "cora.attrs"
    if edges.exists() and attrs.exists():
        return edges, attrs
    return None


@pytest.mark.skipif(_find_cora() is None, reason=(
    "needs the citation benchmark on disk: set GELATO_CORA_DIR to a "
    "directory with cora.edges (edge-list format) and cora.attrs "
    "(CSV or GATR binary); see README for the conversion snippet"))
def test_criterion_5_citation_benchmark_ordering():
    """Heuristic ordering and trained-model gain on the real dataset."""
    edges_path, attrs_path = _find_cora()
    g = gelato.load_graph(edges_path)
    X = gelato.read_attributes(attrs_path)
    assert (g.n, g.num_edges) == (2708, 5278), "unexpected dataset shape"

    order_hits = 0
    ac_aps = []
    gelato_wins = 0
    for seed in range(1, 6):
        split = split_edges(g, (0.85, 0.05, 0.10), seed=seed)
        g_train = build_graph(split.train_pos, split.n)
        looped = gelato.add_self_loops(g_train, "all", 1.0)
        aps = {}
        for kind in ("CN", "AA", "RA"):
            rs = rank_summary(LocalHeuristicScorer(kind, g_train), g, split,
                              "test", workers=os.cpu_count())
            aps[kind] = average_precision(rs)
        rs = rank_summary(AutocovarianceScorer(looped, 3), g, split, "test",
                          workers=os.cpu_count())
        aps["AC"] = average_precision(rs)
        ac_aps.append(aps["AC"])
        if aps["AC"] > aps["AA"] >= aps["RA"] >= aps["CN"]:
            order_hits += 1

        enh = EnhancerConfig(eta=0.5, alpha=0.5, beta=0.25,
                             self_loop_mode="all")
        cfg = TrainConfig(loss="npair", regime="unbiased", lr=0.001,
                          epochs=30, batch_count=10, seed=seed, dropout=0.5,
                          ac_t=3, hidden=128)
        params, _ = train(g, X, split, enh, cfg)
        added, _ = gelato.select_augmentation_pairs(X, g_train, enh.eta)
        aug = AugmentedPairs(g, X, split.train_pos, added)
        eg = assemble_enhanced(aug, aug.ids(split.train_pos), params, enh)
        rs = rank_summary(AutocovarianceScorer(eg.graph, 3), g, split,
                          "test", workers=os.cpu_count())
        trained_ap = average_precision(rs)
        if trained_ap > aps["AC"]:
            gelato_wins += 1
        print(f"  split {seed}: CN {aps['CN']:.4f} AA {aps['AA']:.4f} "
              f"RA {aps['RA']:.4f} AC {aps['AC']:.4f} "
              f"trained {trained_ap:.4f}")

    in_band = sum(0.015 <= ap <= 0.035 for ap in ac_aps)
    ok = order_hits >= 4 and in_band == 5 and gelato_wins >= 4
    _verdict(5, "citation benchmark ordering reproduced", ok,
             f"order {order_hits}/5, AC in band {in_band}/5, "
             f"trained wins {gelato_wins}/5")


def test_criterion_6_loss_regime_ablation():
    """Ranking loss + unbiased negatives vs cross entropy + downsampling.

    Desk-scale proxy on a 400-node two-block SBM whose within-block edges
    follow an attribute-visible latent affinity; mirrors the ablation
    ordering (full model above the CE+downsampled variant).
    """
    t0 = time.time()
    results = []
    for seed in (1, 2, 3):
        g, X = make_attribute_sbm(400, seed)
        split = split_edges(g, (0.85, 0.05, 0.10), seed=seed)
        enh = EnhancerConfig(eta=0.0, alpha=0.0, beta=1.0,
                             self_loop_mode="all")
        aps = {}
        for name, loss_kind, regime in (("np_unbiased", "npair", "unbiased"),
                                        ("ce_biased", "bce", "biased")):
            cfg = TrainConfig(loss=loss_kind, regime=regime, lr=0.001,
                              epochs=15, batch_count=5, seed=seed,
                              dropout=0.5, ac_t=3, hidden=32, neg_cap=40)
            params, _ = train(g, X, split, enh, cfg)
            aug = AugmentedPairs(g, X, split.train_pos,
                                 np.empty((0, 2), dtype=np.int64))
            eg = assemble_enhanced(aug, aug.ids(split.train_pos), params,
                                   enh)
            rs = rank_summary(AutocovarianceScorer(eg.graph, 3), g, split,
                              "test")
            aps[name] = average_precision(rs)
        results.append(aps)
        print(f"  seed {seed}: np+unbiased {aps['np_unbiased']:.4f} "
              f"ce+biased {aps['ce_biased']:.4f}")
    ok = all(r["np_unbiased"] >= r["ce_biased"] for r in results)
    _verdict(6, "n-pair + unbiased training at or above CE + biased", ok,
             f"3 seeds, {time.time() - t0:.0f}s")


def test_criterion_7_protocol_invariants():
    """Randomized protocol properties: splits, pools, batches, metrics."""
    rng = np.random.default_rng(707)
    ok = True
    t0 = time.time()
    for trial in range(15):
        n = int(rng.integers(10, 30))
        g = random_graph(rng, n, int(rng.integers(n, 3 * n)),
                         ensure_positive_degree=False)
        seed = int(rng.integers(0, 10 ** 6))
        split = split_edges(g, (0.6, 0.2, 0.2), seed=seed)

        # partition + determinism
        again = split_edges(g, (0.6, 0.2, 0.2), seed=seed)
        ok &= np.array_equal(split.train_pos, again.train_pos)
        ok &= np.array_equal(split.test_pos, again.test_pos)
        edges = set(pair_codes(g.edge_pairs(), n).tolist())
        got = set(np.concatenate([
            pair_codes(split.train_pos, n), pair_codes(split.valid_pos, n),
            pair_codes(split.test_pos, n)]).tolist())
        ok &= got == edges and split.num_edges == len(edges)

        # sampled negatives stay inside the phase pool (brute force)
        for phase in ("train", "valid", "test"):
            pool = {tuple(p) for p in enumerate_pool(split, phase).tolist()}
            count = min(8, negative_pool_size(g, split, phase))
            negs = sample_negatives(g, split, phase, count, seed=trial)
            ok &= all(tuple(p) in pool for p in negs.tolist())
            # the pool never contains a true edge except later-phase positives
            legal_edges = {
                "train": set(pair_codes(split.valid_pos, n).tolist())
                | set(pair_codes(split.test_pos, n).tolist()),
                "valid": set(pair_codes(split.test_pos, n).tolist()),
                "test": set(),
            }[phase]
            pool_codes = {u * n + v for (u, v) in pool}
            ok &= (pool_codes & edges) <= legal_edges

        # masking batches partition the train positives
        bc = int(rng.integers(2, max(3, len(split.train_pos) // 2)))
        batches = positive_masking_batches(split, bc, seed=trial)
        union = np.vstack([b.batch_pos for b in batches])
        ok &= len(union) == len(split.train_pos)
        ok &= set(pair_codes(union, n).tolist()) == \
            set(pair_codes(split.train_pos, n).tolist())
        for b in batches:
            ok &= not (set(pair_codes(b.batch_pos, n).tolist())
                       & set(pair_codes(b.residual_edges, n).tolist()))

        # monotone-transform invariance of every metric
        P, N = int(rng.integers(2, 20)), int(rng.integers(5, 200))
        pos, neg = rng.normal(size=P), rng.normal(size=N)
        for fn in (lambda x: 10 * x - 3, lambda x: np.arctan(x)):
            a1, t1 = brute_force_counts(pos, neg)
            a2, t2 = brute_force_counts(fn(pos), fn(neg))
            r1 = RankSummary(pos, a1, t1, N)
            r2 = RankSummary(fn(pos), a2, t2, N)
            ok &= abs(average_precision(r1) - average_precision(r2)) < 1e-12
            ok &= abs(auc(r1) - auc(r2)) < 1e-12
            ok &= precision_at_k(r1, 1.0) == precision_at_k(r2, 1.0)
            ok &= hits_at_k(r1, 3) == hits_at_k(r2, 3)
        if not ok:
            break
    _verdict(7, "protocol invariants hold on randomized instances", ok,
             f"15 instances, {time.time() - t0:.1f}s")
