"""Scorer adapters for the evaluator.

A scorer exposes rows(sources) -> dense (len(sources), n) float64 block.
The evaluator scores explicit pairs from the same rows or support view
as the pool (heuristics.pair_scores): pair and pool scores agree bitwise.

A scorer whose rows are sparse over a closed-form background may also
offer support() -> SupportView, or None where streaming the dense rows
is cheaper. The view holds the same scores in two parts: sparse rows
whose stored entries equal rows() there, and a symmetric background
function that gives rows() everywhere else and depends on a pair only
through the classes of its two nodes. The evaluator then counts the
pool exactly without visiting every pair (see gelato.evaluator).
Autocovariance (background -d_u d_v / vol^2, one class per distinct
degree) and CN/AA/RA (background 0, one class) offer it; cosine and MLP
scores are dense and do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .enhancer import MlpParams, mlp_forward, pair_features
from .graph import AttributeMatrix, Graph
from .heuristics import (AcParams, autocovariance_background,
                         autocovariance_rows, autocovariance_support,
                         local_heuristic_rows, local_heuristic_support)


@dataclass(frozen=True)
class SupportView:
    """A scorer's rows as sparse rows plus a background by node class."""

    rows: Callable          # sources -> CSR (len(sources), n)
    background: Callable    # (u, v) node arrays -> scores off the rows
    class_nodes: np.ndarray  # one node of each class
    class_sizes: np.ndarray  # nodes in each class


class AutocovarianceScorer:
    """Random-walk similarity rows of a (possibly enhanced) graph."""

    def __init__(self, graph: Graph, t: int = 3):
        self.graph = graph
        self.params = AcParams(t=t)

    def rows(self, sources) -> np.ndarray:
        return autocovariance_rows(self.graph, sources, self.params)

    def support(self) -> SupportView | None:
        """The sparse view, with one background class per distinct
        degree, or None when streaming is cheaper (see _support_pays)."""
        g = self.graph
        _, nodes, sizes = np.unique(g.degrees, return_index=True,
                                    return_counts=True)
        if not _support_pays(len(nodes), g.n):
            return None
        return SupportView(
            rows=autocovariance_support(g, self.params),
            background=lambda u, v: autocovariance_background(g, u, v),
            class_nodes=nodes, class_sizes=sizes)


def _support_pays(classes: int, n: int) -> bool:
    """Whether a view with `classes` background classes beats streaming.

    The evaluator counts the background over the D(D+1)/2 pairs of the D
    classes. D n < n(n-1)/2 keeps those under an eighth of n^2, leaving
    the sparse rows room within the pool's n^2/2 pairs. A graph of
    learned weights has nearly n distinct degrees and streams. The count
    leaves out the fill of P^t, which is not known before the products
    are formed: where P^t is nearly full, the sparse rows cost more than
    the dense ones.
    """
    return classes * n < n * (n - 1) // 2


class LocalHeuristicScorer:
    """Common Neighbors / Adamic-Adar / Resource Allocation rows."""

    def __init__(self, kind: str, graph: Graph):
        self.kind = kind.upper()
        self.graph = graph

    def rows(self, sources) -> np.ndarray:
        return local_heuristic_rows(self.kind, self.graph, sources)

    def support(self) -> SupportView:
        """The sparse view: pairs without a common neighbour score 0."""
        n = self.graph.n
        return SupportView(
            rows=local_heuristic_support(self.kind, self.graph),
            background=lambda u, v: np.zeros(len(u)),
            class_nodes=np.zeros(1, dtype=np.int64),
            class_sizes=np.array([n]))


class CosineScorer:
    """Attribute cosine similarity rows."""

    def __init__(self, X: AttributeMatrix):
        self.unit = X.unit_rows()

    def rows(self, sources) -> np.ndarray:
        sources = np.asarray(sources, dtype=np.int64).reshape(-1)
        return self.unit[sources] @ self.unit.T


class MlpScorer:
    """Trained pairwise MLP weight as the ranking score (evaluation mode)."""

    def __init__(self, params: MlpParams, X: AttributeMatrix):
        self.params = params
        self.X = X

    def rows(self, sources) -> np.ndarray:
        sources = np.asarray(sources, dtype=np.int64).reshape(-1)
        n = self.X.n
        out = np.empty((len(sources), n))
        cols = np.arange(n, dtype=np.int64)
        for i, u in enumerate(sources):
            pairs = np.column_stack([np.full(n, u, dtype=np.int64), cols])
            out[i] = mlp_forward(self.params, pair_features(self.X, pairs))
        return out
