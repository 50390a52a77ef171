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

import io
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .graph import (Graph, _code_order, _pair_graph, check_node_count,
                    pair_codes)
from .rng import Stream, derive

PHASES = ("train", "valid", "test")

_NEG_TAG = 0x6E656773  # stream namespace for negative sampling
_BATCH_TAG = 0x62617463  # stream namespace for batch partitions
_DRAW_CHUNK = 65536  # stream words per piece of a negative draw


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
    shuffled = pairs[Stream(seed).permutation(m)]
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

    Rejection sampling against the excluded positive set, in rounds of k =
    max(64, int(1.4 * still needed) + 16) candidates: candidate i is words
    i and k + i of the round's next 2k stream words, modulo n, and is kept
    in draw order, canonicalized, unless it is a self-pair, an excluded
    positive or a repeat. Deterministic per seed; pools are never built.
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
    word = 0  # the stream position of the round's first word
    chosen = np.empty(0, dtype=np.int64)
    while len(chosen) < count:
        k = max(64, int((count - len(chosen)) * 1.4) + 16)
        parts = []
        for a in range(0, k, _DRAW_CHUNK):  # chunk-sized temporaries
            us = stream.at(word + a).below(n, min(_DRAW_CHUNK, k - a))
            vs = stream.at(word + k + a).below(n, len(us))
            lo, hi = np.minimum(us, vs), np.maximum(us, vs)
            parts.append((lo * n + hi)[lo != hi])
        codes = np.concatenate(parts)
        word += 2 * k
        # each code's first draw leads its group in the stable order; it is
        # kept unless a search of the excluded and chosen codes finds it
        ranked, order = _code_order(codes)
        fresh = np.diff(ranked, prepend=-1) != 0
        old = np.r_[excl, chosen]
        at = np.searchsorted(ranked, old)
        fresh[at[np.r_[ranked, -1][at] == old]] = False
        keep = np.zeros(len(codes), dtype=bool)
        keep[order[fresh]] = True
        chosen = np.concatenate([chosen, codes[keep][:count - len(chosen)]])
    return np.column_stack([chosen // n, chosen % n])


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
# splits a split file at each line whose first word names a section
_SECTION_LINE = re.compile(
    r"\n([^\S\n]*(?:TRAIN|VALID|TEST)(?=[\s#]|\Z)[^\n]*)")


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
    """Read a split file; `#` starts a comment and blank lines may stand
    anywhere. The rows of each section are read by one numpy text read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = "\n" + fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read split file {path}: {exc}") from exc
    head, *parts = _SECTION_LINE.split(text)
    lines = [ln.split("#", 1)[0].split() for ln in head.split("\n")]
    header = {key: rest for key, *rest in filter(None, lines)}
    try:
        n = int(header["n"][0])
        seed = int(header["seed"][0])
        ratios = tuple(float(x) for x in header["ratios"])
    except (KeyError, IndexError, ValueError) as exc:
        raise DataError(f"bad split header in {path}: {exc}") from exc
    check_node_count(n)
    sections = {}
    try:
        for line, rows in zip(parts[::2], parts[1::2]):
            name, count = line.split("#", 1)[0].split()
            count = int(count)
            if name in sections:
                raise DataError(f"{path}: section {name} is given twice")
            # a last row "0 0", dropped: loadtxt warns where no row
            # follows, and refuses any row that is not two ids
            pairs = np.loadtxt(io.StringIO(rows + "\n0 0"), np.int64,
                               ndmin=2)[:-1]
            if len(pairs) != count:
                raise DataError(f"{path}: section {name} declares {count} "
                                f"pairs but {len(pairs)} rows follow")
            sections[name] = pairs
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
