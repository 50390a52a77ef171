"""Sparse graph and node-attribute containers plus elementary quantities.

Graphs are stored in compressed-row (CSR) form and are immutable after
construction. Graphs are undirected: both arcs (u, v) and (v, u) are
stored with equal weight, self-loops as a single diagonal entry, and the
weighted degree of a node is the sum of its row. Every Graph is built
by `_pair_graph`, which also adds the self-loops of `add_self_loops`.
Both containers are safe to share across concurrent readers: a Graph
keeps each derived array from its first read, and readers racing on
that read may compute it twice, with the same value.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy import sparse

from .errors import DataError


class AttributeMatrix:
    """Dense n x r node-attribute matrix, one row per node."""

    def __init__(self, values):
        values = np.array(values, dtype=np.float64, copy=True, order="C")
        if values.ndim != 2:
            raise DataError("attribute matrix must be 2-dimensional")
        if values.shape[1] == 0:
            raise DataError("attribute matrix has no columns")
        if not np.isfinite(values).all():
            raise DataError("attribute matrix contains non-finite entries")
        values.flags.writeable = False
        self.values = values
        self._unit = None

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def r(self) -> int:
        return self.values.shape[1]

    def check_rows(self, n: int) -> None:
        """Refuse, as a DataError, a row count other than the node count."""
        if self.n != n:
            raise DataError(f"attribute rows ({self.n}) != node count ({n})")

    def unit_rows(self) -> np.ndarray:
        """Row-normalized copy; all-zero rows stay zero (cosine 0 convention)."""
        if self._unit is None:
            norms = np.linalg.norm(self.values, axis=1)
            safe = np.where(norms > 0.0, norms, 1.0)
            unit = self.values / safe[:, None]
            unit.flags.writeable = False
            self._unit = unit
        return self._unit


def cosine_pairs(X: AttributeMatrix, pairs: np.ndarray) -> np.ndarray:
    """Cosine of the attribute rows of each (k, 2) pair; 0 at a zero row."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    unit = X.unit_rows()
    return np.einsum("ij,ij->i", unit[pairs[:, 0]], unit[pairs[:, 1]])


class Graph:
    """Immutable weighted graph in CSR form.

    Use :func:`build_graph` to construct from an edge list; the raw
    constructor expects already-sorted CSR arrays.
    """

    def __init__(self, n, indptr, indices, data):
        self.n = int(n)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        for arr in (self.indptr, self.indices, self.data):
            arr.flags.writeable = False

    # -- elementary quantities -------------------------------------------

    @property
    def num_arcs(self) -> int:
        return len(self.indices)

    @cached_property
    def edge_codes(self) -> np.ndarray:
        """Ascending codes u * n + v of the pairs edge_pairs() lists."""
        codes = pair_codes(self.edge_pairs(), self.n)
        codes.flags.writeable = False
        return codes

    @property
    def num_edges(self) -> int:
        """Number of edges: a pair of arcs counts once, a loop once."""
        return self.num_arcs - len(self.edge_codes)

    @cached_property
    def degrees(self) -> np.ndarray:
        """Weighted degrees d_u = sum of row u."""
        d = np.bincount(self.row_of_arcs(), weights=self.data,
                        minlength=self.n).astype(np.float64)
        d.flags.writeable = False
        return d

    @cached_property
    def volume(self) -> float:
        return float(self.degrees.sum())

    def row_of_arcs(self) -> np.ndarray:
        """Row index of every stored arc, aligned with `indices`/`data`."""
        return np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))

    @cached_property
    def _csr(self) -> sparse.csr_matrix:
        return sparse.csr_matrix((self.data, self.indices, self.indptr),
                                 shape=(self.n, self.n))

    def adjacency(self) -> sparse.csr_matrix:
        """Zero-copy scipy CSR view of the adjacency matrix."""
        return self._csr

    # -- lookups -----------------------------------------------------------

    def edge_pairs(self, return_weights=False):
        """Canonical (u < v) non-loop edge pairs as an (m, 2) array."""
        rows = self.row_of_arcs()
        keep = rows < self.indices
        pairs = np.column_stack([rows[keep], self.indices[keep]])
        if return_weights:
            return pairs, self.data[keep].copy()
        return pairs

    def pair_weights(self, pairs: np.ndarray) -> np.ndarray:
        """Weights of canonical pairs, 0.0 where absent, looked up sorted."""
        ranked, order = _code_order(pair_codes(pairs, self.n))
        out = np.empty(len(order))
        out[order] = _values_at(self.adjacency(), ranked)
        return out


def pair_codes(pairs: np.ndarray, n: int) -> np.ndarray:
    """Encode pairs as u * n + v for set arithmetic and lookups."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return pairs[:, 0] * n + pairs[:, 1]


def _code_order(codes):
    """(`codes` ascending, their stable argsort): one in-place sort of the
    keys code * len + position where they fit in int64, else argsort."""
    k = len(codes)
    if not k or codes.min() < 0 or codes.max() > (2 ** 63 - k) // k:
        order = np.argsort(codes, kind="stable")
        return codes[order], order
    keys = codes * k
    keys += np.arange(k)
    keys.sort()
    return np.divmod(keys, k, out=(keys, np.empty_like(keys)))


def _values_at(M, codes, fill=0.0):
    """Entries of the sorted CSR matrix M at flat codes u * n + v, and
    `fill` (a scalar or one value per code) where M stores none."""
    if not M.nnz:
        return np.full(len(codes), fill, dtype=np.float64)
    n = M.shape[1]
    own = (np.repeat(np.arange(M.shape[0], dtype=np.int64),
                     np.diff(M.indptr)) * n + M.indices)
    pos = np.minimum(np.searchsorted(own, codes), len(own) - 1)
    return np.where(own[pos] == codes, M.data[pos], fill)


def _in_sorted(ranked, codes):
    """Mask of the nonnegative `codes` found in the ascending `ranked`."""
    return np.r_[ranked, -1][np.searchsorted(ranked, codes)] == codes


def _pair_graph(n, u, v, w, loops=None):
    """The Graph of the distinct weighted pairs (u, v, w) on n nodes, each
    stored as two arcs (a loop u == v as one), and the CSR positions of
    each pair's arcs as a (k, 2) array. With `loops` = (mode, weight), a
    loop of that weight goes on each node without a loop of positive
    weight: under "all" on every such node, under "isolated-only" where
    the weighted degree from `w` is 0. It replaces a loop of weight 0.
    Pairs must be distinct (a repeat, also as (v, u), is a DataError) and
    loops go only where none is stored, so one sort of the unique arc
    keys row * n + col sorts arcs as a lexsort would, in any pair order."""
    two = u != v
    rows, cols, data = np.r_[u, v[two]], np.r_[v, u[two]], np.r_[w, w[two]]
    if loops is not None:
        add = (np.ones(n, dtype=bool) if loops[0] == "all"
               else np.bincount(rows, weights=data, minlength=n) == 0.0)
        add[u[~two & (w > 0.0)]] = False
        data[np.flatnonzero(~two & add[u])] = loops[1]
        add[u[~two]] = False
        nodes = np.flatnonzero(add)
        rows, cols = np.r_[rows, nodes], np.r_[cols, nodes]
        data = np.r_[data, np.full(len(nodes), float(loops[1]))]
    keys, order = _code_order(rows.astype(np.int64) * n + cols)
    if (np.diff(keys) == 0).any():
        raise DataError("duplicate edges in input")
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    arcs = np.column_stack([position[:len(u)], position[:len(u)]])
    arcs[two, 1] = position[len(u):len(u) + two.sum()]
    indptr = np.r_[0, np.cumsum(np.bincount(rows, minlength=n))]
    return Graph(n, indptr, cols[order], data[order]), arcs


# The largest n whose pair codes u * n + v fit in int64; below 2^53, so
# node ids read as float64 are exact up to it.
MAX_NODES = 3_037_000_499


def check_node_count(n: int) -> None:
    """Refuse a node count whose pair codes do not fit in int64."""
    if not 0 <= n <= MAX_NODES:
        raise DataError(f"node count {n} is outside [0, {MAX_NODES}], where "
                        "pair codes fit in 64 bits")


def build_graph(edges, n: int, undirected: bool = True) -> Graph:
    """Build an undirected Graph from an edge list of (u, v) or (u, v, w)
    entries; a (u, v) entry weighs 1. `undirected` must be True.

    Node ids must lie in [0, n); weights must be finite and nonnegative.
    Duplicate edges (including an edge listed in both directions) are
    rejected rather than merged so that downstream edge splits operate
    on an unambiguous edge set.
    """
    if not undirected:
        raise DataError("directed graphs are not supported")
    check_node_count(n)
    arr = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
    if len(arr) == 0:
        arr = np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] not in (2, 3):
        raise DataError("edges must be (u, v) or (u, v, w) entries")
    u, v = arr[:, 0].astype(np.int64), arr[:, 1].astype(np.int64)
    if (arr[:, 0] != u).any() or (arr[:, 1] != v).any():
        raise DataError("node ids must be integers")
    w = arr[:, 2].astype(np.float64) if arr.shape[1] == 3 else np.ones(len(u))

    if len(u) and (u.min() < 0 or v.min() < 0 or u.max() >= n or v.max() >= n):
        raise DataError("node id out of range [0, n)")
    if not np.isfinite(w).all():
        raise DataError("edge weights must be finite")
    if len(w) and w.min() < 0:
        raise DataError("edge weights must be nonnegative")

    try:  # its O(n) arrays may not fit for a huge node count
        return _pair_graph(n, u, v, w)[0]
    except MemoryError as exc:
        raise DataError(f"node count {n}: not enough memory for the "
                        "graph's arrays") from exc


def add_self_loops(g: Graph, mode: str = "isolated-only",
                   weight: float = 1.0) -> Graph:
    """Return a copy of `g` with self-loops added.

    mode="all" adds a loop of the given weight to every node;
    mode="isolated-only" only to nodes of weighted degree 0. Every row of
    the result has positive degree. Existing loops of positive weight
    keep it (no loop is added on top of one); a loop of weight 0 counts
    as none and takes the given weight.
    """
    if not 0 < weight < np.inf:  # also rejects nan
        raise DataError("self-loop weight must be positive and finite")
    if mode not in ("all", "isolated-only"):
        raise DataError(f"unknown self-loop mode: {mode!r}")
    rows = g.row_of_arcs()
    upper = rows <= g.indices
    return _pair_graph(g.n, rows[upper], g.indices[upper], g.data[upper],
                       (mode, weight))[0]
