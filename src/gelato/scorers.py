"""The scores the evaluator and the trainer's validation rank pairs by.

A scorer exposes its node count n and rows(sources) -> dense
(len(sources), n) float64 block: Autocovariance of a random walk,
CN/AA/RA, attribute cosine, or the trained MLP. It may also offer
rows_from(sources, first), equal to rows(sources)[:, first:] bit for
bit, which the evaluator's stream calls where it exists (Autocovariance).

A scorer whose rows are sparse over a closed-form background also has
three methods that hold the same scores in two parts:
* sparse_rows(sources) -> CSR (len(sources), n), equal to rows(sources)
  at its stored entries (Autocovariance's takes `first` as rows_from);
* background(u, v) for node arrays, symmetric, equal to rows() at every
  other pair;
* classes() -> (class_nodes, class_sizes), one node and the size of
  each class of a partition through which alone background(u, v)
  depends on the pair; or None where streaming the dense rows is
  cheaper.
The scorer decides which path pays, through classes(); the evaluator
follows it. Autocovariance (background -d_u d_v / vol^2, one class per
distinct degree) and CN/AA/RA (background 0, one class) have them;
cosine and MLP scores are dense and do not.

Autocovariance has two rows kernels with the same bits, each one
autocovariance_from_walk call: the dense walk, or the background (a walk
of 0) with the sparse rows written over it. The fill of P^t over a few
sampled rows picks the kernel and whether classes() is offered.
"""

from __future__ import annotations

from contextlib import suppress
from functools import cached_property

import numpy as np
from scipy import sparse

from . import heuristics
from .enhancer import MlpParams, mlp_forward, pair_features
from .errors import ConfigError, NumericError
from .graph import AttributeMatrix, Graph, cosine_rows


# The estimate of the fill of P^t reads this many evenly spaced rows.
# Fitted on random graphs of n = 400 to 10,000 at t = 3 (one thread):
# rows built from sparse rows beat the dense walk up to a fill of
# 15-30%, and the support path beats the faster streaming up to 13-27%;
# one crossover serves both choices.
_FILL_ROWS = 16
_SPARSE_FILL = 0.25


def autocovariance_from_walk(g: Graph, u, v, T):
    """Autocovariance R = diag(d)/vol @ P^t - d d^T / vol^2 of a graph of
    degrees d and volume vol, the gap between the t-step and stationary
    co-visit probabilities of a random walk: R_uv = (d_u / vol) * T -
    d_u * d_v / vol^2 from the walk term T = (P^t)_uv, left unwritten, for
    broadcastable node arrays u, v; the result is the outer term's array."""
    d, vol, vol2 = g.degrees, g.volume, _volume_power(g, 2)
    walk, outer = (d[u] / vol) * T, d[u] * d[v]
    outer /= vol2
    return np.subtract(walk, outer, out=outer)


def _volume_power(g: Graph, k: int) -> float:
    """vol^k of g, a NumericError where it is not a positive finite float64."""
    with suppress(OverflowError):  # Python's float ** raises it, not inf
        if 0.0 < (out := g.volume ** k) < np.inf:
            return out
    word = "underflows" if g.volume < 1.0 else "overflows"
    raise NumericError(f"the graph's volume {g.volume:.3g} ** {k} {word}")


class AutocovarianceScorer:
    """Autocovariance rows of a (possibly enhanced) graph from the walk
    P^t; P is formed at the first rows, not at construction."""

    def __init__(self, graph: Graph, t: int = 3):
        if t < 0:
            raise ConfigError("walk length t must be >= 0")
        self.graph, self.n = graph, graph.n
        self.t = t

    @cached_property
    def _P(self):
        return heuristics.transition_matrix(self.graph)

    @cached_property
    def _fill(self) -> float:
        """Estimated fill of P^t: that of its rows for _FILL_ROWS evenly
        spaced sources. It picks the rows kernel and whether classes() is
        offered; every choice gives the same bits, so a wrong estimate
        costs time only."""
        n = self.graph.n
        sources = np.linspace(0, n - 1, min(n, _FILL_ROWS)).astype(np.int64)
        T = heuristics._pt_rows(self._P, sources, self.t)
        return T.nnz / max(1, len(sources) * n)

    def rows(self, sources) -> np.ndarray:
        """Dense rows R[u, :] for each source u: (len(sources), n)."""
        return self.rows_from(sources, 0)

    def rows_from(self, sources, first: int) -> np.ndarray:
        """rows(sources)[:, first:], no column before `first` made: one
        autocovariance_from_walk call on the dense walk, or where P^t is
        sparse on a walk of 0, with the sparse rows written over it.
        _walk_hits is looked up at each call, for a tracer replacing it."""
        sources = np.asarray(sources, dtype=np.int64).reshape(-1)
        dense = self._fill > _SPARSE_FILL
        walk = heuristics._walk_hits(self._P, sources, self.t,
                                     first) if dense else 0.0
        out = autocovariance_from_walk(self.graph, sources[:, None],
                                       np.arange(first, self.n), walk)
        if not dense:
            S = self.sparse_rows(sources, first)
            out[np.repeat(np.arange(len(sources)), np.diff(S.indptr)),
                S.indices] = S.data
        return out

    def sparse_rows(self, sources, first: int = 0) -> sparse.csr_matrix:
        """rows(sources)[:, first:] on the support of P^t's rows, as sparse
        (len(sources), n - first); off them a row holds background()."""
        sources = np.asarray(sources, dtype=np.int64).reshape(-1)
        T = heuristics._pt_rows(self._P, sources, self.t, first)
        u, v = np.repeat(sources, np.diff(T.indptr)), T.indices + first
        T.data = autocovariance_from_walk(self.graph, u, v, T.data)
        return T

    def background(self, u, v) -> np.ndarray:
        """R of pairs off the support of P^t: a walk term of 0, which
        gives exactly -d_u * d_v / vol^2, symmetric in u, v."""
        return autocovariance_from_walk(self.graph, u, v, 0.0)

    def classes(self):
        """(class_nodes, class_sizes), one background class per distinct
        degree, or None where streaming is cheaper: where P^t fills more
        than _SPARSE_FILL (see _fill), or where the D(D+1)/2 pairs of the
        D classes, over which the evaluator counts the background, reach
        n^2 / 8 (2D >= n - 1). A graph of learned weights has nearly n
        distinct degrees and streams."""
        _, nodes, sizes = np.unique(self.graph.degrees, return_index=True,
                                    return_counts=True)
        if 2 * len(nodes) >= self.graph.n - 1 or self._fill > _SPARSE_FILL:
            return None
        return nodes, sizes


class LocalHeuristicScorer:
    """Common Neighbors / Adamic-Adar / Resource Allocation rows of the
    unweighted structure without loops: a common neighbour z of degree
    d_z adds 1, 1/ln(d_z) (natural log) or 1/d_z. A node of degree 0, or
    under AA of degree 1, weighs 0 rather than 1/0 or 1/ln(1); it cannot
    be a common neighbour, so no score moves. The factors are formed at
    the first rows, not at construction."""

    def __init__(self, kind: str, graph: Graph):
        self.kind = kind.upper()
        self.graph, self.n = graph, graph.n

    @cached_property
    def _factors(self):
        """A and (A diag(w))^T: their product sums w over common neighbours."""
        g = self.graph
        rows = g.row_of_arcs()
        keep = rows != g.indices
        adj = sparse.csr_matrix(
            (np.ones(int(keep.sum())), (rows[keep], g.indices[keep])),
            shape=(g.n, g.n))
        deg = np.asarray(adj.sum(axis=1)).ravel()
        w, has, ok = np.zeros_like(deg), deg > 0, deg > 1
        if self.kind == "CN":
            w[has] = 1.0
        elif self.kind == "AA":
            w[ok] = 1.0 / np.log(deg[ok])
        elif self.kind == "RA":
            w[has] = 1.0 / deg[has]
        else:
            raise ConfigError(f"unknown heuristic kind {self.kind!r}")
        return adj, adj.multiply(w[None, :]).tocsr().T.tocsr()

    def sparse_rows(self, sources) -> sparse.csr_matrix:
        """The rows as sparse (len(sources), n): the pairs with a common
        neighbour; every other score is exactly 0."""
        adj, weighted_t = self._factors
        sources = np.asarray(sources, dtype=np.int64).reshape(-1)
        return adj[sources] @ weighted_t

    def rows(self, sources) -> np.ndarray:
        return self.sparse_rows(sources).toarray()

    def background(self, u, v) -> np.ndarray:
        """Pairs without a common neighbour score 0."""
        return np.zeros(len(u))

    def classes(self):
        """One background class holding every node."""
        return np.zeros(1, dtype=np.int64), np.array([self.graph.n])


class CosineScorer:
    """Attribute cosine similarity rows."""

    def __init__(self, X: AttributeMatrix):
        self.X, self.n = X, X.n

    def rows(self, sources) -> np.ndarray:
        return cosine_rows(self.X, sources)


class MlpScorer:
    """Trained pairwise MLP weight as the ranking score (evaluation mode)."""

    def __init__(self, params: MlpParams, X: AttributeMatrix):
        self.params = params
        self.X, self.n = X, X.n

    def rows(self, sources) -> np.ndarray:
        sources = np.asarray(sources, dtype=np.int64).reshape(-1)
        n = self.X.n
        out = np.empty((len(sources), n))
        cols = np.arange(n, dtype=np.int64)
        for i, u in enumerate(sources):
            pairs = np.column_stack([np.full(n, u, dtype=np.int64), cols])
            out[i] = mlp_forward(self.params, pair_features(self.X, pairs))
        return out
