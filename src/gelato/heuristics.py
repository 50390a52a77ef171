"""Topological link-prediction scorers.

Local heuristics (Common Neighbors, Adamic-Adar, Resource Allocation) use
the unweighted structure: Adamic-Adar weights common neighbors by
1/ln(d_z) (natural log; a common neighbor always has degree >= 2, so the
ln 1 singularity cannot arise) and Resource Allocation by 1/d_z.

The Autocovariance similarity of a graph with degree vector d, volume
vol, and transition matrix P = D^-1 A is

    R = diag(d)/vol @ P^t - d d^T / vol^2

the gap between the t-step and stationary co-visit probabilities of a
random walk. Every path forms R_uv from its walk term T = (P^t)_uv
with autocovariance_from_walk. Rows of P^t come from repeated
vector-times-sparse-matrix products per block of sources, so the n x n
matrix is never materialized; training batches on sparse structure look
their pairs up in the sparse matrix P^t (see `gelato.trainer`). Off the
support of P^t, T = 0 and R is the rank-1 term -d_u d_v / vol^2, so the
evaluator can also take R as sparse rows plus that background
(autocovariance_support), as it takes CN/AA/RA as sparse rows plus 0.
All arithmetic is float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import ConfigError, NumericError
from .graph import Graph, _values_at


@dataclass(frozen=True)
class AcParams:
    t: int = 3

    def __post_init__(self):
        if self.t < 0:
            raise ConfigError("walk length t must be >= 0")


def transition_matrix(g: Graph) -> sparse.csr_matrix:
    """Row-stochastic P = D^-1 A; every row must have positive degree.

    Shares the graph's CSR index structure, so P.data[k] scales
    g.data[k]; the reverse-mode walk replay relies on this alignment.
    """
    d = g.degrees
    if np.any(d <= 0.0):
        bad = int(np.argmax(d <= 0.0))
        raise NumericError(
            f"node {bad} has zero degree: no valid transition distribution "
            "(add self-loops first)")
    data = g.data / d[g.row_of_arcs()]
    return sparse.csr_matrix((data, g.indices, g.indptr), shape=(g.n, g.n))


def _walk_hits(P: sparse.csr_matrix, sources: np.ndarray, t: int):
    """Rows of P^t for the given sources: (len(sources), n) dense."""
    X = np.zeros((len(sources), P.shape[0]))
    X[np.arange(len(sources)), sources] = 1.0
    for _ in range(t):
        X = X @ P
    return X


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


def autocovariance_from_walk(g: Graph, u, v, T):
    """R_uv = (d_u / vol) * T - d_u * d_v / vol^2 from the walk term
    T = (P^t)_uv, for broadcastable node arrays u, v."""
    d, vol = g.degrees, g.volume
    return (d[u] / vol) * T - d[u] * d[v] / vol ** 2


def autocovariance_rows(g: Graph, sources, params: AcParams) -> np.ndarray:
    """Autocovariance rows R[u, :] for each source u: (len(sources), n)."""
    sources = np.asarray(sources, dtype=np.int64).reshape(-1)
    T = _walk_hits(transition_matrix(g), sources, params.t)
    return autocovariance_from_walk(g, sources[:, None], np.arange(g.n), T)


def autocovariance_support(g: Graph, params: AcParams):
    """rows(sources) -> the entries of autocovariance_rows on the support
    of P^t's rows, as a sparse (len(sources), n) matrix.

    Rows of P^t come from sparse products, indices sorted before each
    step so that every entry sums the same terms in the same order as
    the dense walk. Off these entries a row holds the rank-1 background
    (autocovariance_background).
    """
    P = transition_matrix(g)

    def rows(sources):
        sources = np.asarray(sources, dtype=np.int64).reshape(-1)
        if params.t == 0:
            T = sparse.csr_matrix(
                (np.ones(len(sources)), sources, np.arange(len(sources) + 1)),
                shape=(len(sources), g.n))
        else:
            T = P[sources]
            for _ in range(params.t - 1):
                T.sort_indices()
                T = T @ P
        u = np.repeat(sources, np.diff(T.indptr))
        T.data = autocovariance_from_walk(g, u, T.indices, T.data)
        return T

    return rows


def autocovariance_background(g: Graph, u, v) -> np.ndarray:
    """Autocovariance of pairs off the support of P^t: a walk term of 0,
    which gives exactly -d_u * d_v / vol^2, symmetric in u, v."""
    return autocovariance_from_walk(g, u, v, 0.0)


def autocovariance_pairs(g: Graph, pairs, params: AcParams,
                         block_size: int = 256) -> np.ndarray:
    """Autocovariance scores for explicit pairs, grouped by source node."""
    return pair_scores(lambda s: autocovariance_rows(g, s, params), pairs,
                       block_size)


# -- local heuristics -------------------------------------------------------

def _unweighted(g: Graph):
    """Binary non-loop adjacency and unweighted degrees."""
    rows = g.row_of_arcs()
    keep = rows != g.indices
    adj = sparse.csr_matrix(
        (np.ones(int(keep.sum())), (rows[keep], g.indices[keep])),
        shape=(g.n, g.n))
    deg = np.asarray(adj.sum(axis=1)).ravel()
    return adj, deg


def _neighbor_weights(kind: str, deg: np.ndarray) -> np.ndarray:
    """Per-node weight of serving as a common neighbor.

    Nodes of unweighted degree <= 1 cannot be common neighbors, so their
    weight is set to 0 rather than hitting 1/ln(1) or 1/0.
    """
    w = np.zeros_like(deg)
    ok = deg > 1
    if kind == "CN":
        w[deg > 0] = 1.0
    elif kind == "AA":
        w[ok] = 1.0 / np.log(deg[ok])
    elif kind == "RA":
        w[deg > 0] = 1.0 / deg[deg > 0]
    else:
        raise ConfigError(f"unknown heuristic kind {kind!r}")
    return w


def local_heuristic(kind: str, g: Graph, pair) -> float:
    """CN/AA/RA score of one node pair."""
    u, v = int(pair[0]), int(pair[1])
    nu = g.neighbors(u)
    nv = g.neighbors(v)
    common = np.intersect1d(nu[nu != u], nv[nv != v], assume_unique=True)
    if len(common) == 0:
        return 0.0
    _, deg = _unweighted(g)
    if kind == "CN":
        return float(len(common))
    return float(_neighbor_weights(kind, deg)[common].sum())


def local_heuristic_support(kind: str, g: Graph):
    """rows(sources) -> CN/AA/RA rows as a sparse (len(sources), n)
    matrix: the pairs with a common neighbour; every other score is
    exactly 0."""
    adj, deg = _unweighted(g)
    w = _neighbor_weights(kind, deg)
    weighted_t = adj.multiply(w[None, :]).tocsr().T.tocsr()
    return lambda sources: (
        adj[np.asarray(sources, dtype=np.int64).reshape(-1)] @ weighted_t)


def local_heuristic_rows(kind: str, g: Graph, sources) -> np.ndarray:
    """Dense (len(sources), n) block of CN/AA/RA scores."""
    return local_heuristic_support(kind, g)(sources).toarray()
