"""Attribute-driven graph enhancement.

Three stages produce the enhanced adjacency that feeds the random-walk
scorer:

1. Augmentation: the ceil(eta * m) most cosine-similar non-edges are
   added to the edge set. Selection uses untrained attribute similarity
   only and is frozen for the rest of a run.
2. A small MLP maps the permutation-invariant pair encoding
   [x_u + x_v ; |x_u - x_v|] to a trained weight w_uv in (0, 1)
   (sigmoid output, so trained weights keep the transition matrix valid).
3. Combination: for every pair in the augmented edge set,

       weight(u, v) = alpha * A_uv + (1 - alpha) * (beta * w_uv
                      + (1 - beta) * cos(x_u, x_v))

   clamped at zero from below (the cosine term can be negative); exact
   zeros are dropped from the structure. The graph module's builder then
   stores the pairs and adds self-loops by the rule of add_self_loops
   (`self_loop_mode`), so every row has a valid transition distribution.

A run freezes its pair set once (AugmentedPairs): the training edges
plus the augmentation, sorted by pair code, each with its structural
weight and cosine. Every enhanced graph of the run is assembled from row
ids into that set and encodes those rows for the MLP, and a pair's row
keys its dropout mask, drawn once per key over all rows of the set: a
pair has the same mask in every graph built with the same key.

Checkpoint format (binary): magic "GPAR", little-endian 64-bit unsigned
r and hidden, then the float64 little-endian values of flatten_params:
W1 (hidden x 2r, row-major), b1, W2, b2.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import ConfigError, DataError, NumericError
from .graph import (AttributeMatrix, Graph, _code_order, _pair_graph,
                    _values_at, cosine_pairs, pair_codes)
from .rng import Stream, counter_words, derive

PARAM_MAGIC = b"GPAR"

_INIT_TAG = 0x696E6974


@dataclass
class EnhancerConfig:
    eta: float = 0.0
    alpha: float = 0.0
    beta: float = 1.0
    self_loop_mode: str = "isolated-only"
    self_loop_weight: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.eta < math.inf:  # `not` form: nan fails too
            raise ConfigError("eta must be finite and >= 0")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha must be in [0, 1]")
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError("beta must be in [0, 1]")
        if self.self_loop_mode not in ("all", "isolated-only"):
            raise ConfigError(
                f"unknown self-loop mode {self.self_loop_mode!r}")
        if not 0 < self.self_loop_weight < math.inf:
            raise ConfigError("self-loop weight must be positive and finite")


@dataclass
class MlpParams:
    """One-hidden-layer MLP weights for pairwise edge scoring."""

    W1: np.ndarray  # (hidden, 2r)
    b1: np.ndarray  # (hidden,)
    W2: np.ndarray  # (hidden,)
    b2: float

    @property
    def hidden(self) -> int:
        return self.W1.shape[0]

    @property
    def r(self) -> int:
        return self.W1.shape[1] // 2

    @property
    def count(self) -> int:
        """Total trainable parameters: 2r*h + h + h + 1, graph-size free."""
        return self.W1.size + self.b1.size + self.W2.size + 1

    def copy(self) -> "MlpParams":
        return MlpParams(self.W1.copy(), self.b1.copy(), self.W2.copy(),
                         float(self.b2))


def flatten_params(params: MlpParams, head=None) -> np.ndarray:
    """Flat layout for Adam and checkpoints: W1 (row-major), b1, W2, b2,
    then the BCE head (a, b) if given."""
    parts = [params.W1.ravel(), params.b1, params.W2, [params.b2]]
    if head is not None:
        parts.append(head)
    return np.concatenate(parts)


def unflatten_params(flat: np.ndarray, r: int, hidden: int, with_head=False):
    """MlpParams (and the head with `with_head`) from flatten_params."""
    k = hidden * 2 * r
    W1 = flat[:k].reshape(hidden, 2 * r).copy()
    b1 = flat[k:k + hidden].copy()
    W2 = flat[k + hidden:k + 2 * hidden].copy()
    b2 = float(flat[k + 2 * hidden])
    params = MlpParams(W1, b1, W2, b2)
    if with_head:
        return params, flat[k + 2 * hidden + 1:].copy()
    return params


def init_mlp_params(r: int, hidden: int = 128, seed: int = 0) -> MlpParams:
    """Uniform symmetric init scaled by 1/sqrt(fan-in), seed-controlled;
    a size numpy cannot allocate is a ConfigError."""
    stream = Stream(derive(seed, _INIT_TAG))
    s1 = 1.0 / math.sqrt(2 * r)
    s2 = 1.0 / math.sqrt(hidden)
    try:  # the largest array; the others hold `hidden` values
        W1 = (stream.uniforms(hidden * 2 * r).reshape(hidden, 2 * r) * 2
              - 1) * s1
    except (MemoryError, ValueError) as exc:
        raise ConfigError(f"an MLP of hidden={hidden} on r={r} attributes "
                          f"cannot be allocated ({exc})") from exc
    b1 = (stream.uniforms(hidden) * 2 - 1) * s1
    W2 = (stream.uniforms(hidden) * 2 - 1) * s2
    b2 = float((stream.uniforms(1)[0] * 2 - 1) * s2)
    return MlpParams(W1, b1, W2, b2)


def save_params(path, params: MlpParams) -> None:
    """Write a checkpoint; non-finite values, which load_params refuses,
    are a NumericError before `path` is opened."""
    flat = flatten_params(params)
    if not np.isfinite(flat).all():
        raise NumericError(f"non-finite parameter values; {path} not written")
    with open(path, "wb") as fh:
        fh.write(PARAM_MAGIC)
        fh.write(struct.pack("<QQ", params.r, params.hidden))
        fh.write(flat.astype("<f8").tobytes())


def load_params(path) -> MlpParams:
    try:
        with open(path, "rb") as fh:
            if fh.read(4) != PARAM_MAGIC:
                raise DataError(f"{path}: not a parameter checkpoint")
            r, hidden = struct.unpack("<QQ", fh.read(16))
            payload = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    except struct.error as exc:
        raise DataError(f"{path}: truncated checkpoint header") from exc
    need = hidden * 2 * r + hidden + hidden + 1
    if len(payload) != 8 * need:
        raise DataError(f"{path}: expected {need} float64 values, got "
                        f"{len(payload)} bytes")
    payload = np.frombuffer(payload, dtype="<f8")
    if not np.isfinite(payload).all():
        raise DataError(f"{path}: non-finite parameter values")
    return unflatten_params(payload, r, hidden)


# -- augmentation -----------------------------------------------------------

def select_augmentation_pairs(X: AttributeMatrix, g: Graph, eta: float,
                              block_size: int = 512):
    """Top ceil(eta * m) most cosine-similar non-edges of `g`.

    Returns (pairs, threshold) where threshold is the smallest selected
    similarity (+inf when nothing is selected). Ties at the cutoff are
    broken toward lexicographically smaller (u, v). The similarity matrix
    is scanned in row blocks, never materialized in full.
    """
    if not 0.0 <= eta < math.inf:
        raise ConfigError("eta must be finite and >= 0")
    X.check_rows(g.n)
    n = g.n
    m = g.num_edges
    count = int(math.ceil(eta * m))
    if count == 0:
        return np.empty((0, 2), dtype=np.int64), math.inf
    non_edges = n * (n - 1) // 2 - len(g.edge_pairs())
    if count > non_edges:
        raise ConfigError(
            f"eta={eta} asks for {count} pairs but only {non_edges} "
            "non-edges exist")
    unit = X.unit_rows()
    cand_s, cand_u, cand_v = [], [], []
    cols = np.arange(n)
    arc_rows = g.row_of_arcs()
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        rows = np.arange(start, stop)
        sims = unit[rows] @ unit.T
        mask = cols[None, :] > rows[:, None]
        arcs = slice(g.indptr[start], g.indptr[stop])  # the block's arcs
        mask[arc_rows[arcs] - start, g.indices[arcs]] = False
        ru, cu = np.nonzero(mask)
        s = sims[ru, cu]
        if len(s) > count:
            kth = np.partition(s, len(s) - count)[len(s) - count]
            keep = s >= kth
            ru, cu, s = ru[keep], cu[keep], s[keep]
        cand_s.append(s)
        cand_u.append(rows[ru])
        cand_v.append(cu)
    s = np.concatenate(cand_s)
    u = np.concatenate(cand_u)
    v = np.concatenate(cand_v)
    order = np.lexsort((v, u, -s))[:count]
    threshold = float(s[order].min())
    pairs = np.column_stack([u[order], v[order]])
    pairs = pairs[_code_order(pair_codes(pairs, n))[1]]
    return pairs, threshold


# -- MLP edge weights -------------------------------------------------------

def pair_features(X: AttributeMatrix, pairs: np.ndarray) -> np.ndarray:
    """Permutation-invariant encoding [x_u + x_v ; |x_u - x_v|], written
    straight into one (k, 2r) array; a node id outside [0, n) is a
    DataError."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if pairs.size and not 0 <= pairs.min() <= pairs.max() < X.n:
        raise DataError(f"node ids must lie in [0, {X.n})")
    xu, xv = X.values[pairs].swapaxes(0, 1)  # one gather of both ends
    Z = np.empty((len(pairs), 2 * X.r))
    np.add(xu, xv, out=Z[:, :X.r])
    np.abs(np.subtract(xu, xv, out=Z[:, X.r:]), out=Z[:, X.r:])
    return Z


def dropout_masks(hidden: int, ids: np.ndarray, rate: float,
                  key: int) -> np.ndarray:
    """Inverted-dropout keep masks, keyed by (stream key, id, unit).

    Counter-based, so a mask depends only on its id, not on the batch or
    worker. The ids are rows of the run's pair set (AugmentedPairs draws
    all of them once per key), or positions in the batch on the trainer's
    direct-MLP path (so there a pair's mask follows its batch position).
    A unit is kept where its uniform is >= rate (rng.counter_words).
    """
    if not 0.0 <= rate < 1.0:  # `not` form: nan fails too
        raise ConfigError(f"dropout rate {rate} is not in [0, 1)")
    ids = np.asarray(ids, dtype=np.int64).reshape(-1)
    counters = ids[:, None] * hidden + np.arange(hidden)[None, :]
    words = counter_words(key, counters.reshape(-1)).reshape(len(ids), hidden)
    return words >= np.uint64(math.ceil(rate * 2.0 ** 53))


def mlp_forward(params: MlpParams, Z: np.ndarray,
                mask: np.ndarray | None = None, rate: float = 0.0,
                cache: dict | None = None) -> np.ndarray:
    """Batched forward pass: w = sigmoid(W2 . relu(W1 z + b1) + b2).

    With a keep `mask` from dropout_masks (one row per row of Z) the
    hidden units it clears are dropped and the rest scaled by
    1 / (1 - rate). With `cache` given, the intermediates mlp_backward
    needs are stored in it.
    """
    if Z.shape[1] != 2 * params.r:
        raise DataError(f"pair encoding width {Z.shape[1]} != 2 * r of the "
                        f"parameters ({2 * params.r})")
    Hpre = Z @ params.W1.T + params.b1
    H = np.maximum(Hpre, 0.0)
    Hd = H if mask is None else H * (mask / (1.0 - rate))
    w = expit(Hd @ params.W2 + params.b2)
    if cache is not None:
        cache.update(Z=Z, relu_support=Hpre > 0.0, Hd=Hd, keep_mask=mask,
                     rate=rate, w=w)
    return w


def mlp_backward(params: MlpParams, cache: dict | None, g_w) -> dict:
    """Gradients of W1, b1, W2 and b2 for the loss gradient g_w w.r.t. the
    weights mlp_forward returned, from its cache and with its dropout
    masks. With no cache the MLP did not feed the scores (alpha=1 or
    beta=0), so every gradient is zero."""
    if cache is None:
        return {"W1": np.zeros_like(params.W1),
                "b1": np.zeros_like(params.b1),
                "W2": np.zeros_like(params.W2), "b2": 0.0}
    Z, relu_support, Hd = cache["Z"], cache["relu_support"], cache["Hd"]
    mask, rate, w = cache["keep_mask"], cache["rate"], cache["w"]
    gpre = g_w * w * (1.0 - w)
    gHd = np.outer(gpre, params.W2)
    gH = gHd if mask is None else gHd * (mask / (1.0 - rate))
    gHpre = gH * relu_support
    return {"W1": gHpre.T @ Z, "b1": gHpre.sum(axis=0), "W2": Hd.T @ gpre,
            "b2": float(gpre.sum())}


# -- enhanced graph ---------------------------------------------------------

class AugmentedPairs:
    """The frozen pair set of a run, sorted by pair code: the pairs `base`
    of `g` plus the augmentation `added`, with each pair's weight in `g`
    (0 for an added pair, even a held-out edge of `g`) and cosine. Their
    encodings are not kept: each enhanced graph encodes its own rows."""

    def __init__(self, g: Graph, X: AttributeMatrix, base, added):
        X.check_rows(g.n)
        base = np.asarray(base, dtype=np.int64).reshape(-1, 2)
        added = np.asarray(added, dtype=np.int64).reshape(-1, 2)
        pairs = np.vstack([base, added])
        self.codes, order = _code_order(pair_codes(pairs, g.n))
        self.n, self.X = g.n, X
        if (self.codes[1:] == self.codes[:-1]).any():
            raise ConfigError("the augmentation repeats a base pair")
        self.pairs = pairs[order]
        self.added_rows = np.argsort(order)[len(base):]
        self.weights = _values_at(g.adjacency(), self.codes)
        self.weights[self.added_rows] = 0.0
        self.cos = cosine_pairs(X, self.pairs)
        self._masks = None, None  # (hidden, rate, key), the last draw

    def ids(self, base) -> np.ndarray:
        """Rows of the pairs `base`, then those of the augmentation."""
        codes = pair_codes(base, self.n)
        rows = np.searchsorted(self.codes, codes)
        if (np.r_[self.codes, -1][rows] != codes).any():
            raise ConfigError("a base pair is not in the frozen pair set")
        return np.concatenate([rows, self.added_rows])

    def dropout_masks(self, hidden, ids, rate, key) -> np.ndarray:
        """dropout_masks of the rows `ids`, gathered from one draw over all
        rows, kept while (hidden, rate, key) repeat: an epoch's batches."""
        if self._masks[0] != (hidden, rate, key):
            self._masks = (hidden, rate, key), dropout_masks(
                hidden, np.arange(len(self.codes)), rate, key)
        return self._masks[1][ids]


@dataclass
class EnhancedGraph:
    """Learned adjacency over the augmented edge set, self-loops applied.

    `pairs` lists the canonical augmented edge set (original edges first,
    then added pairs); the remaining fields record enough of the forward
    pass for reverse-mode replay.
    """

    graph: Graph
    pairs: np.ndarray
    active: np.ndarray            # combined weight > 0 (kept in structure)
    arc_positions: np.ndarray     # (n_active, 2) data indices of both arcs
    alpha: float
    beta: float
    mlp_cache: dict | None = None  # Z, Hpre mask, Hd kept for backward


def assemble_enhanced(aug: AugmentedPairs, ids: np.ndarray,
                      params: MlpParams | None, cfg: EnhancerConfig,
                      dropout_rate: float = 0.0, dropout_key: int = 0,
                      keep_cache: bool = False) -> EnhancedGraph:
    """Combine weights over the rows `ids` (from `aug.ids`) of `aug` and
    build CSR. With a `dropout_rate` other than 0 the MLP drops hidden
    units by masks keyed by (`dropout_key`, row id), from one draw over
    `aug` per key (aug.dropout_masks); with keep_cache its intermediates
    are kept for reverse-mode replay."""
    pairs = aug.pairs[ids]
    mlp_cache = {} if keep_cache else None
    if cfg.beta > 0.0 and cfg.alpha < 1.0:
        if params is None:
            raise ConfigError("MLP parameters required when beta > 0")
        mask = (aug.dropout_masks(params.hidden, ids, dropout_rate,
                                  dropout_key) if dropout_rate else None)
        w = mlp_forward(params, pair_features(aug.X, pairs), mask,
                        dropout_rate, cache=mlp_cache)
    else:
        w = np.zeros(len(pairs))

    combined = (cfg.alpha * aug.weights[ids] + (1.0 - cfg.alpha)
                * (cfg.beta * w + (1.0 - cfg.beta) * aug.cos[ids]))
    weights = np.maximum(combined, 0.0)
    active = weights > 0.0

    act = pairs[active]
    graph, arc_positions = _pair_graph(
        aug.n, act[:, 0], act[:, 1], weights[active],
        (cfg.self_loop_mode, cfg.self_loop_weight))  # after the zero-drop
    return EnhancedGraph(
        graph=graph, pairs=pairs, active=active,
        arc_positions=arc_positions, alpha=cfg.alpha, beta=cfg.beta,
        mlp_cache=mlp_cache or None)


def build_enhanced_graph(g: Graph, X: AttributeMatrix,
                         params: MlpParams | None, cfg: EnhancerConfig,
                         training: bool = False) -> EnhancedGraph:
    """Evaluation-mode enhanced graph over the edges of `g` plus their
    augmentation from the untrained similarities; `training` must be
    False."""
    if training:
        raise ConfigError("training graphs are built by gelato.trainer")
    base = g.edge_pairs()
    aug = AugmentedPairs(g, X, base,
                         select_augmentation_pairs(X, g, cfg.eta)[0])
    return assemble_enhanced(aug, aug.ids(base), params, cfg)
