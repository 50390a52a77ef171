"""The random walk's transition matrix P = D^-1 A and the forms of P^t.

Three forms of P^t serve the scorers and the trainer, all float64:
_walk_hits gives dense rows for a block of sources, _pt_rows sparse rows
for a block of sources, and _pt_matrix the whole sparse matrix. The n x n
dense matrix is never formed.

Every form holds the same bits at every entry it stores. scipy's
products start each sum at 0 and add its terms in index order. Each form
starts from its sources' rows of P, the same bits as a first step from
identity rows, which would only multiply by 1 and add +0; the sparse
forms keep the rows of every left factor sorted, so each entry sums the
same terms in the same order as the dense walk. A sparse form stores no
sum that is exactly 0, where the dense rows hold 0. The row forms' column
start `first` slices only the last product, as P[:, first:], which keeps
each sum's terms and their order; every earlier product is whole.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .errors import NumericError
from .graph import Graph


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


def _walk_hits(P: sparse.csr_matrix, sources: np.ndarray, t: int, first=0):
    """Rows of P^t for the given sources, from column `first` on: dense."""
    X = (P if t else sparse.identity(P.shape[0], format="csr"))[sources]
    X = (X if t > 1 else X[:, first:]).toarray()
    for step in range(1, t):
        X = X @ (P[:, first:] if first and step == t - 1 else P)
    return X


def _pt_rows(P: sparse.csr_matrix, sources: np.ndarray, t: int, first=0):
    """Rows of P^t for the given sources, from column `first` on: CSR."""
    T = (P if t else sparse.eye(*P.shape, format="csr"))[sources]
    T = T if t > 1 else T[:, first:]
    for step in range(1, t):
        T.sort_indices()
        T = T @ (P[:, first:] if first and step == t - 1 else P)
    return T


def _product(A, B):
    """A @ B as CSR with sorted rows: scipy's product leaves rows unsorted,
    and forming it column-major then converting sorts them in linear time."""
    return (A.tocsc() @ B.tocsc()).tocsr()


def _pt_matrix(P: sparse.csr_matrix, t: int) -> sparse.csr_matrix:
    """P^t as CSR, the identity at t = 0."""
    Pt = sparse.identity(P.shape[0], format="csr") if t == 0 else P
    for _ in range(t - 1):
        Pt = _product(Pt, P)
    return Pt
