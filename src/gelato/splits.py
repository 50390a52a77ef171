"""Unbiased edge splits, negative pools, and positive-masking batches.

Positive edges are partitioned into train/valid/test sets. Negative pools
are defined set-theoretically per phase and never materialized:

* test negatives  = all disconnected non-self pairs of the input graph
* valid negatives = test negatives + test positives
* train negatives = valid negatives + valid positives

i.e. positives of a later phase are legal negatives for an earlier phase,
which mirrors the fact that they are unobserved at that point.

Reproducibility contract: the split permutation is the stable argsort of
SplitMix64 outputs for the split seed (see :mod:`gelato.rng`); the
shuffled canonical edge list is consumed as [train | valid | test]
segments with sizes (m - v - t, v = floor(valid_ratio*m),
t = floor(test_ratio*m)). Floors are taken with 1e-9 slack to absorb
float representation error in the ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .graph import Graph, _pair_graph, check_node_count, pair_codes
from .rng import Stream, derive

PHASES = ("train", "valid", "test")

_NEG_TAG = 0x6E656773  # stream namespace for negative sampling
_BATCH_TAG = 0x62617463  # stream namespace for batch partitions


@dataclass
class EdgeSplit:
    """Positive-edge partition plus the metadata the pools derive from."""

    n: int
    train_pos: np.ndarray
    valid_pos: np.ndarray
    test_pos: np.ndarray
    seed: int
    ratios: tuple

    @property
    def num_edges(self) -> int:
        return len(self.train_pos) + len(self.valid_pos) + len(self.test_pos)

    def positives(self, phase: str) -> np.ndarray:
        _check_phase(phase)
        return getattr(self, f"{phase}_pos")


@dataclass
class MaskedBatch:
    """One positive-masking batch: scored positives vs residual structure."""

    batch_pos: np.ndarray
    residual_edges: np.ndarray
    negatives: np.ndarray | None = None


def _check_phase(phase):
    if phase not in PHASES:
        raise ConfigError(f"unknown phase {phase!r}; expected one of {PHASES}")


def train_graph(g: Graph, split: EdgeSplit) -> Graph:
    """The graph of the training positives, with their weights in `g`."""
    check_split(g, split)
    return _pair_graph(split.n, *split.train_pos.T,
                       g.pair_weights(split.train_pos))[0]


def check_ratios(ratios) -> tuple:
    """The train/valid/test ratios as floats, refused unless they are three
    positive numbers that sum to 1."""
    ratios = tuple(float(x) for x in ratios)
    # `not ok` form, so that nan fails the checks too
    if len(ratios) != 3 or not all(x > 0 for x in ratios):
        raise ConfigError(f"ratios must be three positive numbers, got {ratios}")
    if not abs(sum(ratios) - 1.0) <= 1e-9:
        raise ConfigError(f"ratios must sum to 1, got {ratios}")
    return ratios


def split_edges(g: Graph, ratios=(0.85, 0.05, 0.10), seed: int = 0) -> EdgeSplit:
    """Randomly partition the canonical edges of `g` into an EdgeSplit.

    Deterministic for a fixed (graph, ratios, seed); the remainder after
    flooring the valid/test sizes goes to train.
    """
    ratios = check_ratios(ratios)
    pairs = g.edge_pairs()
    m = len(pairs)
    if m < 3:
        raise DataError(f"graph too small to split: {m} edges")
    n_valid = int(math.floor(ratios[1] * m + 1e-9))
    n_test = int(math.floor(ratios[2] * m + 1e-9))
    if n_valid == 0 or n_test == 0:
        raise DataError(f"graph too small to split: ratios {ratios} give "
                        f"{n_valid} valid and {n_test} test of {m} edges")
    n_train = m - n_valid - n_test
    shuffled = Stream(seed).shuffled(pairs)
    return EdgeSplit(
        n=g.n,
        train_pos=shuffled[:n_train],
        valid_pos=shuffled[n_train:n_train + n_valid],
        test_pos=shuffled[n_train + n_valid:],
        seed=seed,
        ratios=ratios,
    )


def _excluded(split: EdgeSplit, phase: str) -> list:
    """The positives left out of the phase's pool: those of the phase and
    of every earlier phase in PHASES."""
    _check_phase(phase)
    return [split.positives(p) for p in PHASES[:PHASES.index(phase) + 1]]


def check_split(g: Graph, split: EdgeSplit) -> None:
    """Refuse a graph that the split does not partition: the pools come
    from the split alone, so it must list exactly g's non-loop edges."""
    if g.n != split.n or not np.array_equal(excluded_codes(split, "test"),
                                            g.edge_codes):
        raise DataError(
            f"the split ({split.n} nodes, {split.num_edges} edges) does not "
            f"describe the graph ({g.n} nodes, {len(g.edge_codes)} edges): "
            "it must list exactly the graph's edges")


def negative_pool_size(g: Graph, split: EdgeSplit, phase: str) -> int:
    """Exact size of the phase's negative pool, never materialized."""
    check_split(g, split)
    n = split.n
    return n * (n - 1) // 2 - sum(map(len, _excluded(split, phase)))


def excluded_codes(split: EdgeSplit, phase: str) -> np.ndarray:
    """Sorted codes of the positive pairs excluded from the phase's pool."""
    return np.sort(np.concatenate(
        [pair_codes(s, split.n) for s in _excluded(split, phase)]))


def sample_negatives(g: Graph, split: EdgeSplit, phase: str, count: int,
                     seed: int) -> np.ndarray:
    """Sample `count` pairs uniformly without replacement from the pool.

    Rejection sampling against the excluded positive set: candidate pairs
    are drawn as two node ids from the seed's stream, canonicalized, and
    kept in draw order after dropping self-pairs, excluded positives, and
    repeats. Deterministic per seed. Pools are O(n^2) and never built.
    """
    _check_phase(phase)
    pool = negative_pool_size(g, split, phase)
    if count < 0:
        raise ConfigError(f"requested {count} negatives; need at least 0")
    if count > pool:
        raise ConfigError(f"requested {count} negatives but the {phase} "
                          f"pool only has {pool}")
    if count == 0:
        return np.empty((0, 2), dtype=np.int64)
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
        # one unstable sort groups the repeats; each group whose code is
        # neither excluded nor chosen before keeps its first draw position
        order = np.argsort(codes)
        ranked = codes[order]
        starts = np.flatnonzero(np.diff(ranked, prepend=-1))
        fresh = ~(_found(ranked[starts], excl)
                  | _found(ranked[starts], chosen))
        keep = np.zeros(len(codes), dtype=bool)
        keep[np.minimum.reduceat(order, starts)[fresh]] = True
        chosen = np.concatenate([chosen, codes[keep][:count - len(chosen)]])
    return np.column_stack([chosen // n, chosen % n])


def _found(distinct, codes):
    """Mask of the ascending `distinct` codes that occur in `codes`,
    found by searching each of `codes` in `distinct`, which needs no
    sort of `codes`."""
    pos = np.searchsorted(distinct, codes)
    hit = np.zeros(len(distinct), dtype=bool)
    hit[pos[np.r_[distinct, -1][pos] == codes]] = True
    return hit


def positive_masking_batches(split: EdgeSplit, batch_count: int = 10,
                             seed: int = 0) -> list:
    """Partition train positives into shuffled near-equal masked batches.

    Each batch pairs its positives with the residual structure
    train_pos minus batch_pos; a batch_count that would leave an empty
    residual (batch_count=1 with >= 2 train edges) is rejected because
    the model needs some structure to score against.
    """
    m = len(split.train_pos)
    if not 1 <= batch_count <= m:
        raise ConfigError(f"batch_count must be in [1, {m}], got {batch_count}")
    if batch_count == 1 and m >= 2:
        raise ConfigError("batch_count=1 leaves an empty residual graph")
    perm = Stream(derive(seed, _BATCH_TAG)).permutation(m)
    shuffled = split.train_pos[perm]
    # batch i holds bounds[i]:bounds[i + 1]; the first m % batch_count
    # batches hold one more positive than the rest
    i = np.arange(batch_count + 1)
    bounds = i * (m // batch_count) + np.minimum(i, m % batch_count)
    return [MaskedBatch(batch_pos=shuffled[a:b],
                        residual_edges=np.delete(shuffled, np.s_[a:b], 0))
            for a, b in zip(bounds[:-1], bounds[1:])]


# -- split file format ----------------------------------------------------

_SECTIONS = ("TRAIN", "VALID", "TEST")  # each once in a split file


def write_split(path, split: EdgeSplit) -> None:
    """Write the split as text: header (n, seed, ratios), then sections."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# gelato edge split\n")
        fh.write(f"n {split.n}\n")
        fh.write(f"seed {split.seed}\n")
        fh.write("ratios {!r} {!r} {!r}\n".format(*split.ratios))
        for name in _SECTIONS:
            pairs = split.positives(name.lower())
            fh.write(f"{name} {len(pairs)}\n")
            np.savetxt(fh, pairs, fmt="%d")


def read_split(path) -> EdgeSplit:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.split("#", 1)[0].strip() for ln in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read split file {path}: {exc}") from exc
    lines = [ln for ln in lines if ln]
    header = {}
    i = 0
    while i < len(lines) and lines[i].split()[0] not in _SECTIONS:
        key, *rest = lines[i].split()
        header[key] = rest
        i += 1
    try:
        n = int(header["n"][0])
        seed = int(header["seed"][0])
        ratios = tuple(float(x) for x in header["ratios"])
    except (KeyError, IndexError, ValueError) as exc:
        raise DataError(f"bad split header in {path}: {exc}") from exc
    check_node_count(n)
    sections = {}
    try:
        while i < len(lines):
            name, count = lines[i].split()
            count = int(count)
            if name not in _SECTIONS or name in sections:
                raise DataError(f"{path}: section {name} is unknown or "
                                "given twice")
            if count < 0 or i + 1 + count > len(lines):
                raise DataError(f"{path}: section {name} declares {count} "
                                f"pairs but {len(lines) - i - 1} lines follow")
            pairs = np.empty((0, 2), dtype=np.int64)
            if count:  # loadtxt warns on an empty input
                pairs = np.loadtxt(lines[i + 1:i + 1 + count],
                                   dtype=np.int64, ndmin=2)
            if pairs.shape[1] != 2:
                raise DataError(f"{path}: section {name} has a line that is "
                                "not two ids")
            sections[name] = pairs
            i += 1 + count
    except ValueError as exc:
        raise DataError(f"bad split section in {path}: {exc}") from exc
    for name in _SECTIONS:
        if name not in sections:
            raise DataError(f"split file {path} missing section {name}")
    pairs = np.vstack([sections[s] for s in _SECTIONS])
    if len(pairs) and (pairs.min() < 0 or pairs.max() >= n):
        raise DataError(f"{path}: a node id lies outside [0, {n})")
    if (pairs[:, 0] >= pairs[:, 1]).any():
        raise DataError(f"{path}: a pair (u, v) has u >= v")
    # a sort, not np.unique: on numpy 2.4 unique of 40k codes costs ~20x
    codes = np.sort(pair_codes(pairs, n))
    if (codes[1:] == codes[:-1]).any():
        raise DataError(f"{path}: a pair is listed twice")
    return EdgeSplit(n=n, train_pos=sections["TRAIN"],
                     valid_pos=sections["VALID"], test_pos=sections["TEST"],
                     seed=seed, ratios=ratios)
