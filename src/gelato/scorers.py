"""Scorer adapters for the streaming evaluator.

A scorer exposes rows(sources) -> dense (len(sources), n) float64 block.
The evaluator scores explicit pairs by slicing these rows
(heuristics.pair_scores), so pair and pool scores are bitwise consistent.
"""

from __future__ import annotations

import numpy as np

from .enhancer import MlpParams, mlp_forward, pair_features
from .graph import AttributeMatrix, Graph
from .heuristics import AcParams, autocovariance_rows, local_heuristic_rows


class AutocovarianceScorer:
    """Random-walk similarity rows of a (possibly enhanced) graph."""

    def __init__(self, graph: Graph, t: int = 3):
        self.graph = graph
        self.params = AcParams(t=t)

    def rows(self, sources) -> np.ndarray:
        return autocovariance_rows(self.graph, sources, self.params)


class LocalHeuristicScorer:
    """Common Neighbors / Adamic-Adar / Resource Allocation rows."""

    def __init__(self, kind: str, graph: Graph):
        self.kind = kind.upper()
        self.graph = graph

    def rows(self, sources) -> np.ndarray:
        return local_heuristic_rows(self.kind, self.graph, sources)


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
