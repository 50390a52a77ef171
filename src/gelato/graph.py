"""Sparse graph and node-attribute containers plus elementary quantities.

Graphs are stored in compressed-row (CSR) form and are immutable after
construction. Graphs are undirected: both arcs (u, v) and (v, u) are
stored with equal weight, self-loops as a single diagonal entry, and the
weighted degree of a node is the sum of its row. Both containers are safe
to share across concurrent readers.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .errors import DataError


class AttributeMatrix:
    """Dense n x r node-attribute matrix, one row per node."""

    def __init__(self, values):
        values = np.array(values, dtype=np.float64, copy=True, order="C")
        if values.ndim != 2:
            raise DataError("attribute matrix must be 2-dimensional")
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

    def unit_rows(self) -> np.ndarray:
        """Row-normalized copy; all-zero rows stay zero (cosine 0 convention)."""
        if self._unit is None:
            norms = np.linalg.norm(self.values, axis=1)
            safe = np.where(norms > 0.0, norms, 1.0)
            unit = self.values / safe[:, None]
            unit.flags.writeable = False
            self._unit = unit
        return self._unit


def cosine_similarity(X: AttributeMatrix, pair) -> float:
    """Cosine of the attribute rows of a node pair; 0 if either row is zero."""
    u, v = int(pair[0]), int(pair[1])
    unit = X.unit_rows()
    return float(unit[u] @ unit[v])


def cosine_pairs(X: AttributeMatrix, pairs: np.ndarray) -> np.ndarray:
    """Vectorized cosine_similarity over a (k, 2) pair array."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    unit = X.unit_rows()
    return np.einsum("ij,ij->i", unit[pairs[:, 0]], unit[pairs[:, 1]])


class Graph:
    """Immutable weighted graph in CSR form.

    Use :func:`build_graph` to construct from an edge list; the raw
    constructor expects already-sorted CSR arrays.
    """

    __slots__ = ("n", "indptr", "indices", "data",
                 "_degrees", "_volume", "_num_edges", "_csr")

    def __init__(self, n, indptr, indices, data):
        self.n = int(n)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        for arr in (self.indptr, self.indices, self.data):
            arr.flags.writeable = False
        self._degrees = None
        self._volume = None
        self._num_edges = None
        self._csr = None

    # -- elementary quantities -------------------------------------------

    @property
    def num_arcs(self) -> int:
        return len(self.indices)

    @property
    def num_edges(self) -> int:
        """Number of edges: a pair of arcs counts once, a loop once."""
        if self._num_edges is None:
            loops = int(np.sum(self.row_of_arcs() == self.indices))
            self._num_edges = (self.num_arcs - loops) // 2 + loops
        return self._num_edges

    @property
    def degrees(self) -> np.ndarray:
        """Weighted degrees d_u = sum of row u."""
        if self._degrees is None:
            d = np.bincount(self.row_of_arcs(), weights=self.data,
                            minlength=self.n).astype(np.float64)
            d.flags.writeable = False
            self._degrees = d
        return self._degrees

    @property
    def volume(self) -> float:
        if self._volume is None:
            self._volume = float(self.degrees.sum())
        return self._volume

    def row_of_arcs(self) -> np.ndarray:
        """Row index of every stored arc, aligned with `indices`/`data`."""
        return np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))

    def adjacency(self) -> sparse.csr_matrix:
        """Zero-copy scipy CSR view of the adjacency matrix."""
        if self._csr is None:
            self._csr = sparse.csr_matrix(
                (self.data, self.indices, self.indptr), shape=(self.n, self.n))
        return self._csr

    # -- lookups -----------------------------------------------------------

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def edge_pairs(self, return_weights=False):
        """Canonical (u < v) non-loop edge pairs as an (m, 2) array."""
        rows = self.row_of_arcs()
        keep = rows < self.indices
        pairs = np.column_stack([rows[keep], self.indices[keep]])
        if return_weights:
            return pairs, self.data[keep].copy()
        return pairs

    def pair_weights(self, pairs: np.ndarray) -> np.ndarray:
        """Weights of canonical pairs (0.0 where absent), vectorized."""
        return _values_at(self.adjacency(), pair_codes(pairs, self.n))


def pair_codes(pairs: np.ndarray, n: int) -> np.ndarray:
    """Encode pairs as u * n + v for set arithmetic and lookups."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return pairs[:, 0] * n + pairs[:, 1]


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


def _assemble_csr(n, rows, cols, weights):
    """Build sorted CSR arrays from arc arrays (already symmetrized)."""
    order = np.lexsort((cols, rows))
    rows, cols, weights = rows[order], cols[order], weights[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return Graph(n, indptr, cols, weights), order


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
    edges = list(edges) if not isinstance(edges, np.ndarray) else edges
    if len(edges) == 0:
        u = v = np.empty(0, dtype=np.int64)
        w = np.empty(0, dtype=np.float64)
    else:
        arr = np.asarray(edges)
        if arr.ndim != 2 or arr.shape[1] not in (2, 3):
            raise DataError("edges must be (u, v) or (u, v, w) entries")
        u = arr[:, 0].astype(np.int64)
        v = arr[:, 1].astype(np.int64)
        if not np.allclose(arr[:, 0], u) or not np.allclose(arr[:, 1], v):
            raise DataError("node ids must be integers")
        w = (arr[:, 2].astype(np.float64) if arr.shape[1] == 3
             else np.ones(len(arr)))

    if len(u) and (u.min() < 0 or v.min() < 0 or u.max() >= n or v.max() >= n):
        raise DataError("node id out of range [0, n)")
    if not np.isfinite(w).all():
        raise DataError("edge weights must be finite")
    if len(w) and w.min() < 0:
        raise DataError("edge weights must be nonnegative")

    codes = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
    if (codes[1:] == codes[:-1]).any():
        raise DataError("duplicate edges in input")

    loops = u == v
    rows = np.concatenate([u[~loops], v[~loops], u[loops]])
    cols = np.concatenate([v[~loops], u[~loops], u[loops]])
    weights = np.concatenate([w[~loops], w[~loops], w[loops]])
    g, _ = _assemble_csr(n, rows, cols, weights)
    return g


def add_self_loops(g: Graph, mode: str = "isolated-only",
                   weight: float = 1.0) -> Graph:
    """Return a copy of `g` with self-loops added.

    mode="all" adds a loop of the given weight to every node;
    mode="isolated-only" only to nodes of degree 0. Every row of the
    result has positive degree. Existing loops keep their weight
    (no loop is added on top of one).
    """
    if not weight > 0:  # also rejects nan
        raise DataError("self-loop weight must be positive")
    if mode not in ("all", "isolated-only"):
        raise DataError(f"unknown self-loop mode: {mode!r}")
    has_loop = np.zeros(g.n, dtype=bool)
    rows = g.row_of_arcs()
    has_loop[rows[rows == g.indices]] = True
    if mode == "all":
        targets = np.flatnonzero(~has_loop)
    else:
        targets = np.flatnonzero((g.degrees == 0.0) & ~has_loop)
    if len(targets) == 0:
        return g
    new_rows = np.concatenate([rows, targets])
    new_cols = np.concatenate([g.indices, targets])
    new_w = np.concatenate([g.data, np.full(len(targets), float(weight))])
    out, _ = _assemble_csr(g.n, new_rows, new_cols, new_w)
    return out
