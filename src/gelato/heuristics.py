"""The primitives of the topological link-prediction scores.

Local heuristics (Common Neighbors, Adamic-Adar, Resource Allocation) use
the unweighted structure: Adamic-Adar weights common neighbors by
1/ln(d_z) (natural log; a common neighbor always has degree >= 2, so the
ln 1 singularity cannot arise) and Resource Allocation by 1/d_z.

The Autocovariance similarity of a graph with degree vector d, volume
vol, and transition matrix P = D^-1 A is

    R = diag(d)/vol @ P^t - d d^T / vol^2

the gap between the t-step and stationary co-visit probabilities of a
random walk. Every path forms R_uv from its walk term T = (P^t)_uv
with autocovariance_from_walk. Rows of P^t come per block of sources
from their rows of P times t - 1 more factors of P, so the n x n
matrix is never materialized: dense rows from _walk_hits, or sparse
rows whose products sum the same terms in the same order, which
`gelato.scorers` picks between from an estimate of the fill of P^t.
Training batches on sparse structure look their pairs up in the sparse
matrix P^t (see `gelato.trainer`). All arithmetic is float64. The rows
themselves belong to `gelato.scorers`.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .errors import ConfigError, NumericError
from .graph import Graph, _values_at


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
    """Rows of P^t for the given sources: (len(sources), n) dense. The
    walk starts from P's rows, the same bits as t steps from identity
    rows: scipy's products start each sum at 0 and add terms in index
    order, so that first step would only multiply by 1 and add +0."""
    X = (P if t else sparse.identity(P.shape[0], format="csr"))[sources]
    X = X.toarray()
    for _ in range(t - 1):
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

