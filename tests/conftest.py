"""Shared test fixtures and independent oracles.

The oracles here deliberately take the slow, obvious route (dense matrix
powers, full sorts, explicit pool enumeration) so they share no code with
the streamed/blocked implementations they check.
"""

import numpy as np
from hypothesis import settings
from scipy.special import expit

import gelato
from gelato import AttributeMatrix, build_graph

# `pytest --hypothesis-profile=ci` prints, with a failing example, the
# blob that replays it through @reproduce_failure
settings.register_profile("ci", print_blob=True)


def dense_autocovariance(g, t):
    """Dense n x n reference for the random-walk similarity."""
    A = g.adjacency().toarray()
    d = A.sum(axis=1)
    vol = d.sum()
    P = A / d[:, None]
    Pt = np.linalg.matrix_power(P, t)
    return np.diag(d) / vol @ Pt - np.outer(d, d) / vol ** 2


def random_graph(rng, n, m, weighted=False, ensure_positive_degree=True):
    """Random simple undirected graph with m edges (or fewer if dense)."""
    pairs = set()
    attempts = 0
    while len(pairs) < m and attempts < 50 * m:
        u, v = rng.integers(0, n, 2)
        attempts += 1
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    pairs = sorted(pairs)
    if weighted:
        w = rng.uniform(0.1, 2.0, len(pairs))
        edges = [(u, v, ww) for (u, v), ww in zip(pairs, w)]
    else:
        edges = list(pairs)
    g = build_graph(edges, n)
    if ensure_positive_degree:
        g = gelato.add_self_loops(g, "isolated-only", 1.0)
    return g


def random_attributes(rng, n, r, nonneg=False):
    if nonneg:
        values = rng.uniform(0.1, 1.0, (n, r))
    else:
        values = rng.normal(0.0, 1.0, (n, r))
    return AttributeMatrix(values)


def enumerate_pool(split, phase):
    """Explicit negative pool of a phase (test graphs only: O(n^2))."""
    n = split.n
    excluded = set()
    sets = {"train": ["train_pos"],
            "valid": ["train_pos", "valid_pos"],
            "test": ["train_pos", "valid_pos", "test_pos"]}[phase]
    for name in sets:
        for u, v in getattr(split, name):
            excluded.add((int(u), int(v)))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)
            if (u, v) not in excluded]
    return np.asarray(pool, dtype=np.int64).reshape(-1, 2)


def reference_sample_negatives(split, phase, count, seed):
    """splits.sample_negatives as it drew before its rounds were read in
    chunks: each round takes its k first ids, then its k second ids, by
    sequential reads of the stream, and one argsort of the candidate
    codes groups the repeats; a group whose code is neither excluded
    nor chosen before keeps its earliest draw."""
    from gelato.rng import Stream, derive
    from gelato.splits import _NEG_TAG, excluded_codes
    n = split.n
    excl = excluded_codes(split, phase)
    stream = Stream(derive(seed, _NEG_TAG))
    chosen = np.empty(0, dtype=np.int64)
    while len(chosen) < count:
        k = max(64, int((count - len(chosen)) * 1.4) + 16)
        us = stream.below(n, k)
        vs = stream.below(n, k)
        lo, hi = np.minimum(us, vs), np.maximum(us, vs)
        codes = (lo * n + hi)[lo != hi]
        order = np.argsort(codes)
        ranked = codes[order]
        starts = np.flatnonzero(np.diff(ranked, prepend=-1))
        fresh = ~(np.isin(ranked[starts], excl)
                  | np.isin(ranked[starts], chosen))
        keep = np.zeros(len(codes), dtype=bool)
        keep[np.minimum.reduceat(order, starts)[fresh]] = True
        chosen = np.concatenate([chosen, codes[keep][:count - len(chosen)]])
    return np.column_stack([chosen // n, chosen % n])


def brute_force_counts(pos_scores, neg_scores):
    """(above, tied) per positive from explicit negative scores."""
    pos_scores = np.asarray(pos_scores)
    neg_scores = np.asarray(neg_scores)
    above = np.array([(neg_scores > s).sum() for s in pos_scores])
    tied = np.array([(neg_scores == s).sum() for s in pos_scores])
    return above.astype(np.int64), tied.astype(np.int64)


def brute_force_metrics(pos_scores, neg_scores, prec_fractions=(1.0,),
                        hits_ks=(1,)):
    """All four metrics from a full sort of the candidate universe.

    Pessimistic ties: candidates sort by (-score, negatives first,
    positive input order). AP/prec/hits are read off the sorted list;
    AUC uses half credit for ties. Term summation mirrors the streamed
    implementation's order so equality is exact, not approximate.
    """
    pos_scores = np.asarray(pos_scores, dtype=np.float64)
    neg_scores = np.asarray(neg_scores, dtype=np.float64)
    P, N = len(pos_scores), len(neg_scores)
    scores = np.concatenate([pos_scores, neg_scores])
    is_pos = np.concatenate([np.ones(P, bool), np.zeros(N, bool)])
    pos_index = np.concatenate([np.arange(P), np.zeros(N, dtype=np.int64)])
    # negatives before positives within a tie; positives keep input order
    order = np.lexsort((pos_index, is_pos, -scores))
    sorted_pos = is_pos[order]
    ranks_of_pos = np.flatnonzero(sorted_pos) + 1       # serialized ranks

    # per-positive counts in sorted-positive order
    pos_sorted_scores = scores[order][sorted_pos]
    at_or_above = np.searchsorted(-pos_sorted_scores, -pos_sorted_scores,
                                  side="right")
    negs_at_or_above = np.array(
        [(neg_scores >= s).sum() for s in pos_sorted_scores])
    ap_terms = at_or_above / (at_or_above + negs_at_or_above)
    ap = float(np.mean(ap_terms))

    below = np.array([(neg_scores < s).sum() for s in pos_sorted_scores])
    tied = np.array([(neg_scores == s).sum() for s in pos_sorted_scores])
    auc = float(np.sum(below + 0.5 * tied) / (P * N))

    prec = {}
    for f in prec_fractions:
        k = int(np.floor(f * P + 0.5))
        if k >= 1:
            prec[f] = float((ranks_of_pos <= k).sum() / k)
    hits = {}
    for k in hits_ks:
        hits[k] = float(np.mean(negs_at_or_above < k))
    return {"ap": ap, "auc": auc, "prec": prec, "hits": hits}


def gradcheck_instance(seed, loss_kind, with_aug=True):
    """Random small pipeline configuration for gradient verification."""
    from gelato.enhancer import (EnhancerConfig, init_mlp_params,
                                 select_augmentation_pairs)
    from gelato.splits import MaskedBatch
    from gelato.trainer import TrainConfig

    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 20))
    r = int(rng.integers(2, 5))
    hidden = int(rng.integers(3, 7))
    g = random_graph(rng, n, int(rng.integers(n, 2 * n)), weighted=True,
                     ensure_positive_degree=False)
    X = random_attributes(rng, n, r, nonneg=True)
    alpha = float(rng.uniform(0.0, 0.9))
    beta = float(rng.uniform(0.1, 1.0))
    eta = float(rng.choice([0.0, 0.3])) if with_aug else 0.0
    t = int(rng.integers(0, 4))
    enh = EnhancerConfig(eta=eta, alpha=alpha, beta=beta,
                         self_loop_mode="all")
    cfg = TrainConfig(loss=loss_kind, dropout=0.0, ac_t=t, hidden=hidden,
                      epochs=1)
    params = init_mlp_params(r, hidden, seed=seed)
    pairs = g.edge_pairs()
    k = max(2, len(pairs) // 4)
    pos, residual = pairs[:k], pairs[k:]
    edge_set = {tuple(p) for p in pairs.tolist()}
    negs = []
    while len(negs) < 3 * k:
        u, v = rng.integers(0, n, 2)
        if u != v and (min(u, v), max(u, v)) not in edge_set:
            negs.append((min(u, v), max(u, v)))
    batch = MaskedBatch(batch_pos=pos, residual_edges=residual,
                        negatives=np.asarray(negs))
    added = np.empty((0, 2), dtype=np.int64)
    if eta > 0:
        added, _ = select_augmentation_pairs(X, g, eta)
    head = np.array([0.8, -0.1]) if loss_kind == "bce" else None
    return g, X, params, enh, cfg, batch, added, head


def finite_difference_error(g, X, params, enh, cfg, batch, added, head,
                            step=1e-5):
    """Worst relative error of tape gradients vs central differences.

    Relative error is |analytic - fd| / max(|analytic|, |fd|, 1e-6); the
    floor covers components at the resolution of the difference quotient
    itself (machine epsilon / step).
    """
    from gelato.enhancer import MlpParams
    from gelato.trainer import (compute_gradients, flatten_params,
                                forward_loss, grads_finite, unflatten_params)

    loss, grads = compute_gradients(g, X, params, enh, cfg, batch,
                                    added_pairs=added, head=head,
                                    training=False)
    assert grads_finite(loss, grads)
    hvec = np.array([grads["head_a"], grads["head_b"]]) \
        if head is not None else None
    analytic = flatten_params(
        MlpParams(grads["W1"], grads["b1"], grads["W2"], grads["b2"]), hvec)
    flat = flatten_params(params, head)

    def f(vec):
        if head is not None:
            p, hd = unflatten_params(vec, X.r, cfg.hidden, with_head=True)
        else:
            p, hd = unflatten_params(vec, X.r, cfg.hidden), None
        return forward_loss(g, X, p, enh, cfg, batch, added_pairs=added,
                            head=hd, training=False)

    fd = np.zeros_like(flat)
    for i in range(len(flat)):
        up, down = flat.copy(), flat.copy()
        up[i] += step
        down[i] -= step
        fd[i] = (f(up) - f(down)) / (2 * step)
    denom = np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), 1e-6)
    return float((np.abs(fd - analytic) / denom).max())


def make_attribute_sbm(n, seed, p_in=0.25, p_out=0.005, latent=2,
                       noise_dims=4, kappa=3.0, block_signal=1.5):
    """Two-block SBM whose within-block edges follow a latent affinity.

    Attributes expose both the block membership and the latent positions,
    so a pairwise model can learn which within-block pairs are likely
    edges rather than only which block a node is in.
    """
    rng = np.random.default_rng(seed)
    block = (np.arange(n) >= n // 2).astype(int)
    Z = rng.normal(0, 1, (n, latent))
    iu, iv = np.triu_indices(n, 1)
    same = block[iu] == block[iv]
    affinity = 2.0 * expit(kappa * np.einsum("ij,ij->i", Z[iu], Z[iv]))
    p = np.where(same, np.clip(p_in * affinity, 0.0, 0.9), p_out)
    keep = rng.random(len(p)) < p
    edges = np.column_stack([iu[keep], iv[keep]])
    X = np.hstack([
        (2 * block[:, None] - 1) * np.ones((n, 2)) * block_signal,
        Z,
        rng.normal(0, 0.5, (n, noise_dims)),
    ])
    return build_graph(edges, n), AttributeMatrix(X)
