import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse

import gelato
from gelato import (RankSummary, auc, average_precision, biased_sample_metrics,
                    build_graph, compute_report, hits_at_k, precision_at_k,
                    rank_summary, report_to_json, split_edges, write_pr_csv)
from gelato import scorers
from gelato.errors import ConfigError, DataError, NumericError
from gelato.evaluator import (counts_against, pr_curve, sampled_rank_summary,
                              top_k)
from gelato.scorers import AutocovarianceScorer, LocalHeuristicScorer
from gelato.splits import (PHASES, EdgeSplit, excluded_codes,
                           negative_pool_size, sample_negatives, train_graph)

from conftest import (brute_force_counts, brute_force_metrics, enumerate_pool,
                      make_attribute_sbm, random_graph)


class _TableScorer:
    """Scorer backed by an explicit score matrix (tests only)."""

    def __init__(self, table):
        self.table = np.asarray(table, dtype=np.float64)

    def rows(self, sources):
        return self.table[np.asarray(sources, dtype=np.int64)]


class _SparseTableScorer(_TableScorer):
    """Score matrix that is a constant `fill` off a `stored` mask, with
    the matching sparse rows, background and one class (tests only)."""

    def __init__(self, table, stored, fill):
        super().__init__(np.where(stored, table, fill))
        self.stored = stored
        self.fill = fill

    def sparse_rows(self, sources):
        r, c = np.nonzero(self.stored[sources])
        return sparse.csr_matrix((self.table[sources][r, c], (r, c)),
                                 shape=(len(sources), len(self.table)))

    def background(self, u, v):
        return np.full(len(u), self.fill)

    def classes(self):
        return np.zeros(1, dtype=np.int64), np.array([len(self.table)])


class _Streamed:
    """A scorer's dense rows alone, so that rank_summary streams them."""

    def __init__(self, scorer):
        self.rows = scorer.rows


def _brute_force_summary(scorer, split, phase):
    """(pos_scores, above, tied) from the dense rows of every node."""
    table = scorer.rows(np.arange(split.n))
    pool = enumerate_pool(split, phase)
    pos = split.positives(phase)
    pos_scores = table[pos[:, 0], pos[:, 1]]
    return (pos_scores,) + brute_force_counts(
        pos_scores, table[pool[:, 0], pool[:, 1]])


def _assert_same_summary(a, b):
    assert a.pos_scores.tobytes() == b.pos_scores.tobytes()
    np.testing.assert_array_equal(a.neg_above, b.neg_above)
    np.testing.assert_array_equal(a.neg_tied, b.neg_tied)
    assert a.total_negatives == b.total_negatives


def _symmetric_table(rng, n, quantize=None):
    t = rng.normal(size=(n, n))
    t = t + t.T
    if quantize:
        t = np.round(t * quantize) / quantize  # force ties
    return t


class TestRankSummaryStreaming:
    def _random_instance(self, seed, n=16, m=26):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n, m, ensure_positive_degree=False)
        split = split_edges(g, (0.6, 0.2, 0.2), seed=seed)
        table = _symmetric_table(rng, n, quantize=4 if seed % 2 else None)
        return g, split, _TableScorer(table)

    def test_counts_match_brute_force(self):
        for seed in range(12):
            g, split, scorer = self._random_instance(seed)
            for phase in ("train", "valid", "test"):
                pool = enumerate_pool(split, phase)
                pos = split.positives(phase)
                if len(pos) == 0:
                    continue
                pos_scores = scorer.table[pos[:, 0], pos[:, 1]]
                neg_scores = scorer.table[pool[:, 0], pool[:, 1]]
                above, tied = brute_force_counts(pos_scores, neg_scores)
                rs = rank_summary(scorer, g, split, phase, block_size=5)
                np.testing.assert_array_equal(rs.neg_above, above)
                np.testing.assert_array_equal(rs.neg_tied, tied)
                assert rs.total_negatives == len(pool)

    def test_blocked_equals_single_block(self):
        g, split, scorer = self._random_instance(3)
        a = rank_summary(scorer, g, split, "test", block_size=3)
        b = rank_summary(scorer, g, split, "test", block_size=1000)
        np.testing.assert_array_equal(a.neg_above, b.neg_above)
        np.testing.assert_array_equal(a.neg_tied, b.neg_tied)

    def test_block_streams_bounded_rows(self, monkeypatch):
        g, split, scorer = self._random_instance(3)
        whole = rank_summary(scorer, g, split, "test", block_size=1000)
        sizes = []

        class Recording(_TableScorer):
            def rows(self, sources):
                sizes.append(len(sources))
                return super().rows(sources)

        monkeypatch.setattr(gelato.evaluator, "_DENSE_ROWS", 2)
        rs = rank_summary(Recording(scorer.table), g, split, "test",
                          block_size=1000)
        _assert_same_summary(rs, whole)
        # rows come at most two sources per call, whatever the block
        assert max(sizes) == 2

    def test_workers_equal_serial(self):
        g, split, scorer = self._random_instance(4)
        a = rank_summary(scorer, g, split, "test", block_size=4, workers=1)
        b = rank_summary(scorer, g, split, "test", block_size=4, workers=4)
        np.testing.assert_array_equal(a.neg_above, b.neg_above)
        np.testing.assert_array_equal(a.neg_tied, b.neg_tied)

    def test_nonfinite_scorer_rejected(self):
        g, split, scorer = self._random_instance(5)
        scorer.table[0, :] = np.nan
        with pytest.raises(NumericError):
            rank_summary(scorer, g, split, "test")

    @pytest.mark.parametrize("block_size", [0, -3])
    def test_block_size_below_one_is_refused(self, block_size):
        g, split, scorer = self._random_instance(5)

        class NoRows(_TableScorer):
            def rows(self, sources):
                raise AssertionError("rows() called")

        with pytest.raises(ConfigError, match="block_size"):
            rank_summary(NoRows(scorer.table), g, split, "test",
                         block_size=block_size)


class TestRankSummarySupport:
    """The support path: sparse rows plus a background counted by class."""

    def test_table_counts_match_brute_force(self):
        # quantized scores tie with each other and with the background
        for seed in range(12):
            rng = np.random.default_rng(seed)
            n = 16
            g = random_graph(rng, n, 26, ensure_positive_degree=False)
            split = split_edges(g, (0.6, 0.2, 0.2), seed=seed)
            stored = rng.random((n, n)) < 0.3
            scorer = _SparseTableScorer(_symmetric_table(rng, n, quantize=2),
                                        stored, 0.5 * (seed % 3 - 1))
            for phase in PHASES:
                rs = rank_summary(scorer, g, split, phase, block_size=5,
                                  workers=1 + seed % 2)
                _assert_same_summary(rs, RankSummary(
                    *_brute_force_summary(scorer, split, phase),
                    len(enumerate_pool(split, phase))))
                _assert_same_summary(rs, rank_summary(
                    _Streamed(scorer), g, split, phase, block_size=5))

    @pytest.mark.parametrize("where", ["pool", "positive"])
    def test_nonfinite_support_rejected(self, where):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 16, 26, ensure_positive_degree=False)
        split = split_edges(g, (0.6, 0.2, 0.2), seed=5)
        table = _symmetric_table(rng, 16)
        u, v = split.test_pos[0] if where == "positive" else \
            enumerate_pool(split, "test")[0]
        table[u, v] = np.nan
        scorer = _SparseTableScorer(table, np.isnan(table), 0.0)
        with pytest.raises(NumericError):
            rank_summary(scorer, g, split, "test")

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(5, 22), density=st.floats(0.1, 0.5),
           weighted=st.booleans(), graph_seed=st.integers(0, 2 ** 16),
           kind=st.sampled_from(["AC", "CN", "AA", "RA"]),
           t=st.integers(0, 4), phase=st.sampled_from(PHASES),
           block_size=st.integers(1, 6), workers=st.sampled_from([1, 2]))
    def test_scorers_match_streaming_and_brute_force(
            self, n, density, weighted, graph_seed, kind, t, phase,
            block_size, workers):
        g = random_graph(np.random.default_rng(graph_seed), n,
                         max(5, int(density * n * (n - 1) / 2)),
                         weighted=weighted)
        split = split_edges(g, (0.6, 0.2, 0.2), seed=graph_seed)
        looped = gelato.add_self_loops(train_graph(g, split), "isolated-only")
        scorer = AutocovarianceScorer(looped, t) if kind == "AC" \
            else LocalHeuristicScorer(kind, looped)
        positives = split.positives(phase)
        negatives = sample_negatives(
            g, split, phase, min(negative_pool_size(g, split, phase), 40),
            graph_seed)
        # take the support path whatever the number of distinct degrees
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scorers.AutocovarianceScorer, "classes",
                       lambda self: np.unique(self.graph.degrees,
                                              return_index=True,
                                              return_counts=True)[1:])
            assert scorer.classes() is not None
            rs = rank_summary(scorer, g, split, phase, block_size=block_size,
                              workers=workers)
            sampled = sampled_rank_summary(scorer, positives, negatives)
        streamed = rank_summary(_Streamed(scorer), g, split, phase,
                                block_size=block_size, workers=workers)
        _assert_same_summary(rs, streamed)
        _assert_same_summary(sampled, sampled_rank_summary(
            _Streamed(scorer), positives, negatives))
        _assert_same_summary(rs, RankSummary(
            *_brute_force_summary(scorer, split, phase),
            len(enumerate_pool(split, phase))))

    @pytest.mark.parametrize("kind", ["CN", "AA", "RA"])
    def test_no_common_neighbour_ties_with_the_zero_background(self, kind):
        # pool of 8 pairs: (1, 3) has common neighbour 2, the rest score 0;
        # positive (0, 2) has common neighbour 1, positive (0, 5) none
        split = EdgeSplit(
            n=6, train_pos=np.array([[0, 1], [1, 2], [2, 3], [4, 5]]),
            valid_pos=np.array([[2, 4]]), test_pos=np.array([[0, 5], [0, 2]]),
            seed=0, ratios=(0.6, 0.2, 0.2))
        g = build_graph(np.vstack([split.train_pos, split.valid_pos,
                                   split.test_pos]), 6)
        scorer = LocalHeuristicScorer(kind, train_graph(g, split))
        assert scorer.classes() is not None
        rs = rank_summary(scorer, g, split, "test", block_size=2)
        assert rs.pos_scores[0] == 0.0
        assert rs.neg_above.tolist() == [1, 0]
        assert rs.neg_tied.tolist() == [7, 1]
        _assert_same_summary(rs, rank_summary(_Streamed(scorer), g, split,
                                              "test"))
        # pessimistic: (0, 5) ranks below all 8 negatives, (0, 2) below 1
        assert hits_at_k(rs, 8) == 0.5
        assert average_precision(rs) == pytest.approx(
            (1 / 2 + 2 / 10) / 2, abs=1e-15)

    def test_many_distinct_degrees_stream(self):
        class CountingAc(AutocovarianceScorer):
            calls = 0

            def rows(self, sources):
                CountingAc.calls += 1
                return super().rows(sources)

        rng = np.random.default_rng(0)
        g = random_graph(rng, 40, 120, weighted=True)
        split = split_edges(g, (0.6, 0.2, 0.2), seed=0)
        assert len(np.unique(g.degrees)) * g.n >= g.n * (g.n - 1) // 2
        assert AutocovarianceScorer(g).classes() is None
        rank_summary(CountingAc(g), g, split, "test", block_size=8)
        assert CountingAc.calls >= 40 // 8        # the pool was streamed
        CountingAc.calls = 0
        # few distinct degrees, and a P^3 sparse enough for the view
        unweighted = random_graph(rng, 300, 300)
        assert AutocovarianceScorer(unweighted).classes() is not None
        u_split = split_edges(unweighted, (0.6, 0.2, 0.2), seed=0)
        rank_summary(CountingAc(unweighted), unweighted, u_split, "test")
        # sampled negatives are scored from the view too
        biased_sample_metrics(CountingAc(unweighted), unweighted, u_split,
                              5, seed=0)
        assert CountingAc.calls == 0
        assert LocalHeuristicScorer("RA", g).classes() is not None

        class NoRowsRa(LocalHeuristicScorer):
            def rows(self, sources):
                raise AssertionError("rows() called")

        biased_sample_metrics(NoRowsRa("RA", g), g, split, 5, seed=0)


class TestAutocovarianceKernels:
    """One estimate of the fill of P^t, that of its rows for _FILL_ROWS
    evenly spaced sources, picks the rows kernel and whether classes() is
    offered; every choice gives the same bits."""

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("n,m", [(300, 300), (60, 600)])
    def test_summaries_equal_across_kernels(self, n, m, weighted):
        g = random_graph(np.random.default_rng(n), n, m, weighted=weighted)
        split = split_edges(g, (0.6, 0.2, 0.2), seed=0)
        looped = gelato.add_self_loops(train_graph(g, split), "all")
        picked = AutocovarianceScorer(looped, 3)
        # the two graphs lie on either side of the crossover
        assert (picked._fill <= scorers._SPARSE_FILL) == (n == 300)
        assert (picked.classes() is not None) == (n == 300 and not weighted)
        negatives = sample_negatives(g, split, "valid", 500, seed=1)
        want = rank_summary(picked, g, split, "valid", block_size=64,
                            workers=2)
        want_sampled = sampled_rank_summary(picked, split.valid_pos,
                                            negatives)
        for fill in (0.0, 1.0):
            forced = AutocovarianceScorer(looped, 3)
            forced._fill = fill
            _assert_same_summary(want, rank_summary(
                _Streamed(forced), g, split, "valid", block_size=64))
            _assert_same_summary(want_sampled, sampled_rank_summary(
                _Streamed(forced), split.valid_pos, negatives))

    def test_choice_follows_the_fill(self):
        def picks(g):
            scorer = AutocovarianceScorer(gelato.add_self_loops(g, "all"), 3)
            return (scorer._fill <= scorers._SPARSE_FILL,
                    scorer.classes() is not None)

        rng = np.random.default_rng(0)
        # Cora-shaped with augmentation and distinct weights, like a
        # trained train-sparse graph: P^3 about 9% full, streamed from
        # rows built from sparse rows
        assert picks(random_graph(rng, 2708, 7917, weighted=True)) == \
            (True, False)
        # P^3 nearly full with few distinct degrees (SBM-400, n = 1000 of
        # average degree 60): the dense walk, streamed
        assert picks(make_attribute_sbm(400, 0)[0]) == (False, False)
        assert picks(random_graph(rng, 1000, 30000)) == (False, False)
        # n = 20,000 of average degree 4, unweighted: P^3 under 1% full,
        # counted from the sparse rows and the background classes
        sparse_pool = random_graph(rng, 20000, 40000)
        assert picks(sparse_pool) == (True, True)
        assert AutocovarianceScorer(gelato.add_self_loops(sparse_pool, "all"),
                                    3)._fill < 0.01


class TestMetricOracle:
    def test_full_sort_equivalence_random_scores(self):
        # streamed metrics equal brute-force full-sort values exactly
        rng = np.random.default_rng(0)
        for trial in range(100):
            P = int(rng.integers(1, 40))
            N = int(rng.integers(1, 250))
            if rng.random() < 0.5:
                pos = rng.normal(size=P)
                neg = rng.normal(size=N)
            else:  # heavy ties
                pos = rng.integers(0, 6, P).astype(float)
                neg = rng.integers(0, 6, N).astype(float)
            above, tied = brute_force_counts(pos, neg)
            rs = RankSummary(pos, above, tied, N)
            fr = [round(f, 2) for f in rng.uniform(0.1, 1.0, 2)] + [1.0]
            ks = [1, int(rng.integers(1, N + 2))]
            ref = brute_force_metrics(pos, neg, prec_fractions=fr, hits_ks=ks)
            assert average_precision(rs) == ref["ap"]
            assert auc(rs) == ref["auc"]
            for f in fr:
                if int(np.floor(f * P + 0.5)) >= 1:
                    assert precision_at_k(rs, f) == ref["prec"][f]
            for k in ks:
                assert hits_at_k(rs, k) == ref["hits"][k]

    # few distinct levels make heavy ties; any finite float otherwise
    _SCORES = st.integers(0, 3).map(float) | st.floats(-1e6, 1e6)

    @settings(max_examples=200, deadline=None)
    @example(pos=[1.0], neg=[1.0, 0.0, 2.0], ks=[1, 2, 50],
             fractions=[0.5, 1.0])  # P = 1, k beyond N
    @example(pos=[0.0] * 5, neg=[0.0] * 3, ks=[4, 9, 100],
             fractions=[0.1, 1.0])  # all tied, k beyond P and N
    @given(pos=st.lists(_SCORES, min_size=1, max_size=25),
           neg=st.lists(_SCORES, min_size=1, max_size=60),
           ks=st.lists(st.integers(1, 100), min_size=1, max_size=3),
           fractions=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=3))
    def test_metrics_match_brute_force_property(self, pos, neg, ks,
                                                fractions):
        pos, neg = np.asarray(pos), np.asarray(neg)
        rs = RankSummary(pos, *brute_force_counts(pos, neg), len(neg))
        ref = brute_force_metrics(pos, neg, prec_fractions=fractions,
                                  hits_ks=ks)
        assert average_precision(rs) == ref["ap"]
        assert auc(rs) == ref["auc"]
        for f in fractions:
            if int(np.floor(f * len(pos) + 0.5)) >= 1:
                assert precision_at_k(rs, f) == ref["prec"][f]
        for k in ks:
            assert hits_at_k(rs, k) == ref["hits"][k]

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            P, N = 15, 80
            pos = rng.normal(size=P)
            neg = rng.normal(size=N)
            for fn in (lambda x: 3 * x + 2, np.tanh,
                       lambda x: np.exp(x / 4)):
                a1, t1 = brute_force_counts(pos, neg)
                a2, t2 = brute_force_counts(fn(pos), fn(neg))
                rs1 = RankSummary(pos, a1, t1, N)
                rs2 = RankSummary(fn(pos), a2, t2, N)
                assert average_precision(rs1) == pytest.approx(
                    average_precision(rs2), abs=1e-12)
                assert auc(rs1) == pytest.approx(auc(rs2), abs=1e-12)
                assert precision_at_k(rs1, 1.0) == precision_at_k(rs2, 1.0)
                assert hits_at_k(rs1, 5) == hits_at_k(rs2, 5)

    def test_perfect_ranking(self):
        rs = RankSummary(np.array([3.0, 2.0, 1.0]), np.zeros(3, int),
                         np.zeros(3, int), 100)
        assert average_precision(rs) == 1.0
        assert auc(rs) == 1.0
        assert precision_at_k(rs, 1.0) == 1.0
        assert hits_at_k(rs, 1) == 1.0

    def test_all_tied_auc_half(self):
        rs = RankSummary(np.array([1.0, 1.0]), np.zeros(2, int),
                         np.full(2, 50, dtype=int), 50)
        assert auc(rs) == 0.5

    def test_hits_monotone_in_k(self):
        rng = np.random.default_rng(2)
        pos = rng.normal(size=10)
        neg = rng.normal(size=60)
        above, tied = brute_force_counts(pos, neg)
        rs = RankSummary(pos, above, tied, 60)
        values = [hits_at_k(rs, k) for k in range(1, 62)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_hits_definition_boundary(self):
        # a positive with 3 negatives above counts iff k >= 4
        rs = RankSummary(np.array([1.0]), np.array([3]), np.array([0]), 10)
        assert hits_at_k(rs, 3) == 0.0
        assert hits_at_k(rs, 4) == 1.0

    def test_prec_at_k_rejects_k_zero(self):
        rs = RankSummary(np.array([1.0]), np.array([0]), np.array([0]), 5)
        with pytest.raises(ConfigError):
            precision_at_k(rs, 0.2)

    def test_three_positives_two_in_top_three(self):
        # hand-built: scores pos [10, 9, 1], negs [8, 7, ...] -> top-3 has 2 pos
        pos = np.array([10.0, 9.0, 1.0])
        neg = np.array([8.0, 7.0, 0.5, 0.25, 0.1])
        above, tied = brute_force_counts(pos, neg)
        rs = RankSummary(pos, above, tied, len(neg))
        assert precision_at_k(rs, 1.0) == pytest.approx(2.0 / 3.0)


class TestPessimisticTies:
    def test_tied_negatives_rank_above_positive(self):
        pos = np.array([1.0])
        neg = np.array([1.0, 1.0, 0.0])
        above, tied = brute_force_counts(pos, neg)
        rs = RankSummary(pos, above, tied, 3)
        # rank = 0 above + 2 tied + 1 = 3
        assert precision_at_k(rs, 1.0) == 0.0  # k=1, rank 3 > 1
        assert hits_at_k(rs, 2) == 0.0
        assert hits_at_k(rs, 3) == 1.0
        assert average_precision(rs) == pytest.approx(1.0 / 3.0)

    def test_tied_positives_serialize(self):
        pos = np.array([1.0, 1.0])
        neg = np.array([0.0])
        above, tied = brute_force_counts(pos, neg)
        rs = RankSummary(pos, above, tied, 1)
        # ranks 1 and 2; AP groups ties: both get i=2 -> 2/2 = 1.0
        assert precision_at_k(rs, 1.0) == 1.0
        assert average_precision(rs) == 1.0


class TestReports:
    def test_report_json_round_trip_fields(self):
        rng = np.random.default_rng(3)
        pos = rng.normal(size=8)
        neg = rng.normal(size=50)
        above, tied = brute_force_counts(pos, neg)
        rs = RankSummary(pos, above, tied, 50)
        report = compute_report(rs, prec_fractions=(0.5, 1.0),
                                hits_ks=(10, 20))
        payload = json.loads(report_to_json(report))
        assert payload["ap"] == average_precision(rs)
        assert payload["auc"] == auc(rs)
        assert payload["prec_at"]["1.0"] == precision_at_k(rs, 1.0)
        assert payload["hits_at"]["10"] == hits_at_k(rs, 10)
        assert payload["biased"] is False
        assert payload["meta"]["tie_policy"] == "pessimistic"
        assert payload["meta"]["k_rounding"] == "half-up"

    def test_pr_curve_csv(self, tmp_path):
        pos = np.array([3.0, 2.0, 1.0])
        neg = np.array([2.5, 0.5])
        above, tied = brute_force_counts(pos, neg)
        rs = RankSummary(pos, above, tied, 2)
        report = compute_report(rs, prec_fractions=(1.0,), hits_ks=(1,))
        path = tmp_path / "pr.csv"
        write_pr_csv(path, report)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "recall,precision"
        assert len(lines) == 1 + len(report.pr_curve)
        # recall hits 1.0 at the last point
        assert report.pr_curve[-1, 0] == 1.0

    def test_pr_curve_groups_ties(self):
        pos = np.array([1.0, 1.0, 0.5])
        neg = np.array([0.75])
        above, tied = brute_force_counts(pos, neg)
        rs = RankSummary(pos, above, tied, 1)
        curve = pr_curve(rs)
        assert len(curve) == 2  # two distinct positive score levels


class TestBiasedMode:
    def test_perfect_scorer_all_ones(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, 14, 24, ensure_positive_degree=False)
        split = split_edges(g, (0.6, 0.2, 0.2), seed=0)
        # perfect: edges of the graph score 1, everything else 0
        table = g.adjacency().toarray()
        scorer = _TableScorer(table)
        report = biased_sample_metrics(scorer, g, split, neg_per_pos=1,
                                       seed=0)
        assert report.biased
        assert report.ap == 1.0
        assert report.auc == 1.0
        assert report.prec_at[1.0] == 1.0

    def test_biased_universe_size(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 16, 30, ensure_positive_degree=False)
        split = split_edges(g, (0.6, 0.2, 0.2), seed=1)
        scorer = _TableScorer(_symmetric_table(rng, 16))
        report = biased_sample_metrics(scorer, g, split, neg_per_pos=3,
                                       seed=2)
        P = len(split.test_pos)
        assert report.meta["num_negatives"] == 3 * P

    def test_counts_against_helper(self):
        neg_sorted = np.array([0.0, 1.0, 1.0, 2.0])
        above, tied = counts_against(neg_sorted, np.array([1.0, 3.0, -1.0]))
        assert above.tolist() == [1, 0, 4]
        assert tied.tolist() == [2, 0, 0]


class TestEndToEndScorers:
    def test_heuristic_scorer_through_evaluator(self):
        rng = np.random.default_rng(6)
        g = random_graph(rng, 15, 30, ensure_positive_degree=False)
        split = split_edges(g, (0.6, 0.2, 0.2), seed=0)
        g_train = build_graph(split.train_pos, split.n)
        scorer = LocalHeuristicScorer("CN", g_train)
        rs = rank_summary(scorer, g, split, "test")
        pool = enumerate_pool(split, "test")
        pos = split.test_pos
        pos_scores = scorer.rows(np.arange(split.n))[pos[:, 0], pos[:, 1]]
        neg_scores = scorer.rows(np.arange(split.n))[pool[:, 0], pool[:, 1]]
        ref = brute_force_metrics(pos_scores, neg_scores,
                                  prec_fractions=(1.0,), hits_ks=(5,))
        assert average_precision(rs) == ref["ap"]
        assert auc(rs) == ref["auc"]

    def test_autocovariance_scorer_on_looped_graph(self):
        rng = np.random.default_rng(7)
        g = random_graph(rng, 12, 20, ensure_positive_degree=False)
        split = split_edges(g, (0.6, 0.2, 0.2), seed=0)
        g_train = gelato.add_self_loops(build_graph(split.train_pos, split.n),
                                        "all")
        scorer = AutocovarianceScorer(g_train, t=3)
        rs = rank_summary(scorer, g, split, "test")
        assert rs.total_negatives == gelato.negative_pool_size(g, split, "test")
        assert 0.0 <= average_precision(rs) <= 1.0


class _MiscountedRa(LocalHeuristicScorer):
    """RA whose one background class leaves a node out (tests only)."""

    def classes(self):
        return np.zeros(1, dtype=np.int64), np.array([self.graph.n - 1])


class _NanSelfPairRa(LocalHeuristicScorer):
    """RA whose background is nan at u == v, a pair that only the class
    pairs of the background query (tests only)."""

    def background(self, u, v):
        return np.where(np.asarray(u) == np.asarray(v), np.nan, 0.0)


def _ra_summary(cls):
    g = random_graph(np.random.default_rng(0), 30, 60)
    split = split_edges(g, (0.6, 0.2, 0.2), seed=0)
    return rank_summary(cls("RA", train_graph(g, split)), g, split, "test")


def _biased_with_no_negatives():
    g = random_graph(np.random.default_rng(0), 30, 60)
    split = split_edges(g, (0.6, 0.2, 0.2), seed=0)
    return biased_sample_metrics(LocalHeuristicScorer("RA", g), g, split, 0,
                                 seed=0)


@pytest.mark.parametrize("call, error, match", [
    (lambda: RankSummary([0.5], [2], [0], 1), DataError, "exceed"),
    (lambda: _ra_summary(_MiscountedRa), NumericError, "counted"),
    (lambda: _ra_summary(_NanSelfPairRa), NumericError, "non-finite pool"),
    (lambda: top_k(1.5, 10), ConfigError, "k_fraction"),
    (lambda: hits_at_k(RankSummary([0.5], [0], [0], 1), 0), ConfigError,
     "hits@k"),
    (lambda: average_precision(RankSummary([], [], [], 5)), DataError,
     "average precision"),
    (lambda: auc(RankSummary([0.5], [0], [0], 0)), DataError, "AUC"),
    (_biased_with_no_negatives, ConfigError, "neg_per_pos"),
], ids=["counts-beyond-pool", "pool-miscounted", "nan-class-background",
        "k-fraction-above-1", "hits-at-0", "ap-of-no-positives",
        "auc-of-no-negatives", "no-sampled-negatives"])
def test_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()


def _path_scorer(n):
    """Autocovariance of the n-node path with a loop on every node."""
    path = build_graph([(i, i + 1) for i in range(n - 1)], n)
    return AutocovarianceScorer(gelato.add_self_loops(path, "all"), 3)


def _mlp_scorer(n):
    """An MLP scorer over the attributes of n nodes."""
    X = gelato.AttributeMatrix(np.random.default_rng(0).normal(size=(n, 8)))
    return gelato.MlpScorer(gelato.init_mlp_params(8, 4), X)


@pytest.mark.parametrize("scorer, mode, match", [
    (lambda: _mlp_scorer(50), "pool", "50 nodes, the split 40"),
    (lambda: _path_scorer(50), "pool", "50 nodes, the split 40"),
    (lambda: _path_scorer(30), "pool", "30 nodes, the split 40"),
    (lambda: _path_scorer(30), "sampled", "beyond the scorer's 30 nodes"),
    (lambda: _path_scorer(50), "biased", "50 nodes, the split 40"),
], ids=["mlp-50-rows", "ac-50-nodes", "ac-30-nodes", "ac-30-nodes-sampled",
        "ac-50-nodes-biased"])
def test_a_scorer_of_another_node_count_is_refused(scorer, mode, match):
    g, _ = make_attribute_sbm(40, seed=0)
    split = split_edges(g, (0.7, 0.1, 0.2), 0)
    with pytest.raises(DataError, match=match):
        if mode == "sampled":
            sampled_rank_summary(scorer(), split.test_pos, sample_negatives(
                g, split, "test", 3 * len(split.test_pos), 0))
        elif mode == "biased":
            biased_sample_metrics(scorer(), g, split, 3, seed=0)
        else:
            rank_summary(scorer(), g, split, "test")


def test_a_negative_node_id_is_refused_by_the_sampled_summary():
    # numpy indexing would wrap node -1 to node 4: pair (4, 1) scores 1
    cycle = build_graph([(i, (i + 1) % 5) for i in range(5)], 5)
    with pytest.raises(DataError, match="negative"):
        sampled_rank_summary(LocalHeuristicScorer("CN", cycle), [[-1, 1]],
                             [[0, 2]])
