"""Unbiased rank-based evaluation over the full candidate space.

The negative pool of a phase (all disconnected pairs, possibly plus
later-phase positives) is reduced to a sufficient statistic per test
positive: how many pool negatives score strictly above it and how many
tie it. All four metrics derive from these counts, so the O(n^2) pool is
never materialized. Two exact paths count it, with the same result:

* Support: when the scorer's classes() returns node classes (see
  gelato.scorers for sparse_rows, background and classes). Two kinds of
  job: the background is counted once over all unordered pairs, as
  pairs of node classes weighted by their multiplicities; each block of
  source nodes counts the pool pairs among its sparse rows, less the
  background of those entries and of its excluded pairs. The work
  follows the support and the number of classes, not n^2, and every
  count stays an integer.
* Streaming: for every other scorer. Each block of source nodes
  materializes the dense rows(sources) and counts its pool pairs. This
  path is the reference.

Explicit pairs (positives, sampled negatives) are scored as the pool is,
from the sparse rows and background or else from the dense rows
(pair_scores), so pair and pool scores agree bitwise.

Tie policy: prec@k, hits@k, and AP rank positives *below* equal-scored
negatives (pessimistic, deterministic); equal-scored positives are
serialized in their input order where an integer rank is needed. AUC uses
the standard Mann-Whitney half credit for ties. prec@k receives k as a
fraction of the positive count, rounded half-up.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .graph import _in_sorted, _values_at
from .splits import EdgeSplit, excluded_codes, negative_pool_size, \
    sample_negatives


@dataclass
class RankSummary:
    """Per-positive ranking counts against a negative pool."""

    pos_scores: np.ndarray      # (P,)
    neg_above: np.ndarray       # (P,) strictly higher-scored negatives
    neg_tied: np.ndarray        # (P,) equal-scored negatives
    total_negatives: int

    def __post_init__(self):
        self.pos_scores = np.asarray(self.pos_scores, dtype=np.float64)
        self.neg_above = np.asarray(self.neg_above, dtype=np.int64)
        self.neg_tied = np.asarray(self.neg_tied, dtype=np.int64)
        if np.any(self.neg_above + self.neg_tied > self.total_negatives):
            raise DataError("tie/above counts exceed the pool size")

    @property
    def num_positives(self) -> int:
        return len(self.pos_scores)


def counts_against(sorted_neg_scores: np.ndarray,
                   pos_scores: np.ndarray):
    """(above, tied) counts of each positive vs an ascending score array."""
    right = np.searchsorted(sorted_neg_scores, pos_scores, side="right")
    left = np.searchsorted(sorted_neg_scores, pos_scores, side="left")
    above = len(sorted_neg_scores) - right
    return above.astype(np.int64), (right - left).astype(np.int64)


def pair_scores(rows, pairs, block_size: int = 256,
                background=None) -> np.ndarray:
    """Scores of explicit pairs from a rows(sources) function.

    One rows() call is shared by all pairs with the same source, in
    blocks of `block_size` distinct sources, which bounds the rows at
    block_size * n. rows() returns dense (len(sources), n) rows; with a
    `background`, CSR rows instead, and a pair (u, v) that its row does
    not store scores background(u, v).
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    uniq, inverse = np.unique(pairs[:, 0], return_inverse=True)
    out = np.empty(len(pairs))
    for start in range(0, len(uniq), block_size):
        block = uniq[start:start + block_size]
        sel = np.flatnonzero((inverse >= start)
                             & (inverse < start + len(block)))
        row, v = inverse[sel] - start, pairs[sel, 1]
        M = rows(block)
        if background is None:
            out[sel] = M[row, v]
        else:
            M.sort_indices()
            out[sel] = _values_at(M, row * M.shape[1] + v,
                                  fill=background(pairs[sel, 0], v))
    return out


# Sources per call of a scorer's dense rows, for explicit pairs and for
# each streamed block of the pool: a call returns a _DENSE_ROWS x n
# array, so a worker holds a few of them whatever the block size, and
# 256 took less time than fewer, larger calls.
_DENSE_ROWS = 256


def _score_pairs(scorer, pairs: np.ndarray, classes=None) -> np.ndarray:
    """Scores of explicit pairs, grouped by source: from the sparse rows
    and background where there are `classes`, in blocks of 1024 sources,
    else from the scorer's dense rows, _DENSE_ROWS sources at a time."""
    out = (pair_scores(scorer.rows, pairs, _DENSE_ROWS) if classes is None
           else pair_scores(scorer.sparse_rows, pairs, 1024,
                            scorer.background))
    if not np.isfinite(out).all():
        raise NumericError("scorer returned non-finite pair scores")
    return out


def _counts(vals, pos_scores):
    """(above, tied) counts of each positive vs the negative scores
    `vals`, which must be finite; sorts `vals` in place."""
    if not np.isfinite(vals).all():
        raise NumericError("scorer returned non-finite pool scores")
    vals.sort()
    return counts_against(vals, pos_scores)


def sampled_rank_summary(scorer, positives, negatives) -> RankSummary:
    """Rank positives against an explicit (sampled) negative set; a
    negative node id or one beyond the scorer's n is refused."""
    top = max(np.max(positives, initial=-1), np.max(negatives, initial=-1))
    if top >= getattr(scorer, "n", np.inf):
        raise DataError(f"node {top} is beyond the scorer's {scorer.n} nodes")
    if min(np.min(positives, initial=0), np.min(negatives, initial=0)) < 0:
        raise DataError("a node id is negative")
    classes = scorer.classes() if hasattr(scorer, "classes") else None
    pos_scores = _score_pairs(scorer, positives, classes)
    above, tied = _counts(_score_pairs(scorer, negatives, classes),
                          pos_scores)
    return RankSummary(pos_scores, above, tied, len(negatives))


def rank_summary(scorer, g, split: EdgeSplit, phase: str,
                 block_size: int = 1024, workers: int = 1) -> RankSummary:
    """Count (above, tied) per positive over the phase's negative pool.

    Pool pairs are split into blocks of `block_size` source nodes. With
    classes (see gelato.scorers) each block counts its sparse rows and
    other jobs count the background over class pairs;
    otherwise each block streams the scorer's dense rows(sources) ->
    (len(sources), n) float64, _DENSE_ROWS sources at a time. Block
    results are combined by integer addition, so counts are
    deterministic under any worker schedule.
    """
    if block_size < 1:
        raise ConfigError("block_size must be >= 1")
    positives = split.positives(phase)
    n = split.n
    if getattr(scorer, "n", n) != n:
        raise DataError(f"the scorer has {scorer.n} nodes, the split {n}")
    excl = excluded_codes(split, phase)
    pool = negative_pool_size(g, split, phase)
    classes = scorer.classes() if hasattr(scorer, "classes") else None
    pos_scores = _score_pairs(scorer, positives, classes)
    block = partial(_stream_block if classes is None else _support_block,
                    scorer)
    # the blocks count against the positives in ascending order: sorted
    # keys make each block's searches several times faster
    order = np.argsort(pos_scores)
    ranked = pos_scores[order]
    jobs = [partial(block, ranked, excl, n, start, block_size)
            for start in range(0, n, block_size)]
    if classes is not None:
        jobs += [partial(_background_classes, scorer, classes, ranked,
                         start, block_size)
                 for start in range(0, len(classes[0]), block_size)]

    if workers and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool_exec:
            results = list(pool_exec.map(lambda job: job(), jobs))
    else:
        results = [job() for job in jobs]

    above = np.zeros(len(positives), dtype=np.int64)
    tied = np.zeros(len(positives), dtype=np.int64)
    counted = 0
    for a, t, c in results:
        above[order] += a
        tied[order] += t
        counted += c
    if counted != pool:
        raise NumericError(
            f"counted {counted} pool pairs but expected {pool}")
    return RankSummary(pos_scores, above, tied, pool)


def _excluded_in(excl, rows, n):
    """The excluded codes whose source lies in `rows` (consecutive)."""
    return excl[np.searchsorted(excl, rows[0] * n):
                np.searchsorted(excl, (rows[-1] + 1) * n)]


def _stream_block(scorer, pos_scores, excl, n, start, block_size):
    """Counts over the pool pairs of one block of sources, from the
    scorer's dense rows, _DENSE_ROWS sources at a time."""
    above = tied = counted = 0
    stop = min(start + block_size, n)
    for lo in range(start, stop, _DENSE_ROWS):
        rows = np.arange(lo, min(lo + _DENSE_ROWS, stop))
        block = scorer.rows(rows)
        mask = np.arange(n)[None, :] > rows[:, None]
        ex = _excluded_in(excl, rows, n)
        mask[ex // n - rows[0], ex % n] = False
        vals = block[mask]
        del block, mask
        a, t = _counts(vals, pos_scores)
        above, tied, counted = above + a, tied + t, counted + len(vals)
    return above, tied, counted


def _support_block(scorer, pos_scores, excl, n, start, block_size):
    """Counts over the pool pairs stored in one block's sparse rows, less
    their background and that of the block's excluded pairs, both of
    which _background_classes counts."""
    rows = np.arange(start, min(start + block_size, n))
    M = scorer.sparse_rows(rows)
    u = np.repeat(rows, np.diff(M.indptr))
    v = M.indices.astype(np.int64)
    keep = v > u
    ex = _excluded_in(excl, rows, n)
    keep[keep] = ~_in_sorted(ex, u[keep] * n + v[keep])
    above, tied = _counts(M.data[keep], pos_scores)
    bg_above, bg_tied = _counts(np.concatenate([
        scorer.background(u[keep], v[keep]),
        scorer.background(ex // n, ex % n)]), pos_scores)
    return above - bg_above, tied - bg_tied, -len(ex)


def _background_classes(scorer, classes, pos_scores, start, block_size):
    """Counts of the background over every unordered pair of distinct
    nodes, as pairs of node classes from `start` on (class a against
    classes b >= a) weighted by how many node pairs each stands for."""
    nodes, sizes = classes[0], classes[1].astype(np.int64)
    first = np.arange(start, min(start + block_size, len(sizes)))
    a, b = np.nonzero(first[:, None] <= np.arange(len(sizes)))
    a = first[a]
    vals = scorer.background(nodes[a], nodes[b])
    if not np.isfinite(vals).all():
        raise NumericError("scorer returned non-finite pool scores")
    weights = np.where(a == b, sizes[a] * (sizes[a] - 1) // 2,
                       sizes[a] * sizes[b])
    order = np.argsort(vals)
    vals = vals[order]
    cum = np.r_[0, np.cumsum(weights[order])]    # pairs up to each value
    right = np.searchsorted(vals, pos_scores, side="right")
    left = np.searchsorted(vals, pos_scores, side="left")
    return cum[-1] - cum[right], cum[right] - cum[left], int(cum[-1])


# -- metrics ----------------------------------------------------------------

def _sorted_order(rs: RankSummary) -> np.ndarray:
    """Positives by descending score, ties kept in input order."""
    return np.argsort(-rs.pos_scores, kind="stable")


def top_k(k_fraction: float, num_positives: int) -> int:
    """k = round(k_fraction * num_positives), half-up; refuses k = 0."""
    if not 0.0 < k_fraction <= 1.0:
        raise ConfigError("k_fraction must be in (0, 1]")
    k = int(np.floor(k_fraction * num_positives + 0.5))
    if k < 1:
        raise ConfigError(f"k_fraction={k_fraction} rounds to k=0 positives")
    return k


def precision_at_k(rs: RankSummary, k_fraction: float) -> float:
    """Fraction of the top-k globally ranked candidates that are positive.

    k = top_k(k_fraction, |positives|). A positive's global rank counts
    every higher-scored candidate, all tied negatives, and tied positives
    that precede it in input order.
    """
    k = top_k(k_fraction, rs.num_positives)
    order = _sorted_order(rs)
    ranks = (rs.neg_above[order] + rs.neg_tied[order]
             + np.arange(rs.num_positives) + 1)
    return float(np.count_nonzero(ranks <= k) / k)


def hits_at_k(rs: RankSummary, k: int) -> float:
    """Fraction of positives individually ranked above the k-th negative."""
    if k < 1:
        raise ConfigError("hits@k needs k >= 1")
    return float(np.mean(rs.neg_above + rs.neg_tied < k))


def _precision_at_positives(rs: RankSummary):
    """(scores, i, precision) at each positive by descending score, with i
    the positives scoring at or above it (itself and ties included) and
    the precision there i / (i + negatives at or above), ties pessimistic."""
    order = _sorted_order(rs)
    s = rs.pos_scores[order]
    at_or_above = np.searchsorted(-s, -s, side="right")
    return s, at_or_above, at_or_above / (
        at_or_above + rs.neg_above[order] + rs.neg_tied[order])


def average_precision(rs: RankSummary) -> float:
    """Mean precision at each positive, pessimistic ties.

    For a positive with i positives scoring at-or-above it (itself and
    any ties included), the precision there is i / (i + negatives at or
    above). Equals the area under the step-interpolated PR curve.
    """
    if rs.num_positives == 0:
        raise DataError("average precision needs at least one positive")
    return float(np.mean(_precision_at_positives(rs)[2]))


def auc(rs: RankSummary) -> float:
    """Mann-Whitney AUC with half credit for ties."""
    if rs.num_positives == 0 or rs.total_negatives == 0:
        raise DataError("AUC needs at least one positive and one negative")
    below = rs.total_negatives - rs.neg_above - rs.neg_tied
    credit = below + 0.5 * rs.neg_tied
    return float(credit.sum() / (rs.num_positives * rs.total_negatives))


def pr_curve(rs: RankSummary) -> np.ndarray:
    """(recall, precision) step points, one per distinct positive score."""
    s, at_or_above, prec = _precision_at_positives(rs)
    last_of_group = np.r_[s[1:] != s[:-1], True]
    recall = at_or_above / rs.num_positives
    return np.column_stack([recall[last_of_group], prec[last_of_group]])


# -- reports ------------------------------------------------------------------

@dataclass
class MetricsReport:
    ap: float
    auc: float
    prec_at: dict
    hits_at: dict
    pr_curve: np.ndarray
    biased: bool = False
    meta: dict = field(default_factory=dict)


def compute_report(rs: RankSummary, prec_fractions=(0.25, 0.5, 1.0),
                   hits_ks=(100, 1000), biased: bool = False,
                   meta: dict | None = None) -> MetricsReport:
    meta = dict(meta or {})
    meta.setdefault("tie_policy", "pessimistic")
    meta.setdefault("k_rounding", "half-up")
    meta.setdefault("num_positives", rs.num_positives)
    meta.setdefault("num_negatives", rs.total_negatives)
    return MetricsReport(
        ap=average_precision(rs),
        auc=auc(rs),
        prec_at={float(f): precision_at_k(rs, f) for f in prec_fractions},
        hits_at={int(k): hits_at_k(rs, k) for k in hits_ks},
        pr_curve=pr_curve(rs),
        biased=biased,
        meta=meta,
    )


def biased_sample_metrics(scorer, g, split: EdgeSplit, neg_per_pos: int,
                          seed: int, phase: str = "test",
                          prec_fractions=(0.25, 0.5, 1.0),
                          hits_ks=(100, 1000)) -> MetricsReport:
    """Metrics on a downsampled negative universe (the comparison mode).

    Samples neg_per_pos negatives per positive from the phase pool and
    ranks positives against the sampled set only. Reports are flagged
    BIASED: they overestimate performance relative to the full pool.
    """
    if neg_per_pos < 1:
        raise ConfigError("neg_per_pos must be >= 1")
    if getattr(scorer, "n", split.n) != split.n:
        raise DataError(f"the scorer has {scorer.n} nodes, the split {split.n}")
    positives = split.positives(phase)
    negatives = sample_negatives(g, split, phase,
                                 neg_per_pos * len(positives), seed)
    rs = sampled_rank_summary(scorer, positives, negatives)
    return compute_report(rs, prec_fractions, hits_ks, biased=True,
                          meta={"neg_per_pos": neg_per_pos, "seed": seed,
                                "phase": phase})


def report_to_json(report: MetricsReport) -> str:
    payload = {
        "ap": report.ap,
        "auc": report.auc,
        "prec_at": {repr(k): v for k, v in sorted(report.prec_at.items())},
        "hits_at": {str(k): v for k, v in sorted(report.hits_at.items())},
        "biased": report.biased,
        "meta": {k: report.meta[k] for k in sorted(report.meta)},
        "pr_curve_points": len(report.pr_curve),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_pr_csv(path, report: MetricsReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("recall,precision\n")
        for rec, prec in report.pr_curve:
            fh.write(f"{rec!r},{prec!r}\n")
