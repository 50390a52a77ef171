"""End-to-end optimization of the enhancement MLP.

The forward pass per masked batch is

    residual edges + frozen augmentation
        -> enhanced adjacency (MLP weights, combination, self-loops)
        -> Autocovariance of the batch positives and sampled negatives
           (scorers.autocovariance_from_walk, as in evaluation)
        -> joint score standardization
        -> ranking loss (N-pair softmax contrast, or cross entropy
           through a trainable affine+sigmoid head)

The pairs of every enhanced graph are rows of the run's frozen pair set
(enhancer.AugmentedPairs), and an epoch draws one dropout mask over it,
keyed by the seed, the epoch and the row, which its batches share. The
Tape records enough of the forward pass to replay backward analytically:
gradients flow through the similarity entries, the transition matrix,
the degree vector and volume (all functions of the learned weights), the
zero-clamp (subgradient 0 where clamped), and the MLP.

The walk of a batch, T = P^t at its scored pairs and its gradient w.r.t.
P, is one whole-batch kernel chosen from the fill of P. While P is
sparse, pairs are looked up in the sparse matrix P^t, and the gradient
is formed by sparse products sampled on P's arcs from the pairs on the
support of P^t alone (a pair off it has no t-step path and feeds no
arc), so its work follows the on-support pairs and the support of the
products, not n. Once P fills 1.5% of n^2, the walk runs as dense rows
per block of evaluator._DENSE_ROWS sources, and the gradient per block
of as many columns; memory stays at a few block x n arrays.

Adam steps on the flat layout of enhancer.flatten_params, followed by the
BCE head (a, b), which N-pair gives no gradient and so leaves at (1, 0)
(an Adam coordinate moves only by its own gradients). Batches whose
loss or gradient has any non-finite component are skipped and counted
rather than applied. The best epoch is selected by prec@100% counted
exactly over the whole unbiased validation pool, as `gelato eval --phase
valid` counts it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.special import expit

from .enhancer import (AugmentedPairs, EnhancerConfig, MlpParams,
                       assemble_enhanced, dropout_masks, flatten_params,
                       init_mlp_params, mlp_backward, mlp_forward,
                       pair_features, select_augmentation_pairs,
                       unflatten_params)
from .errors import ConfigError, NumericError
from .evaluator import _DENSE_ROWS, pair_scores, precision_at_k, rank_summary
from .graph import AttributeMatrix, Graph, _code_order, _values_at, pair_codes
from .heuristics import _product, _pt_matrix, transition_matrix, _walk_hits
from .rng import derive
from .scorers import (AutocovarianceScorer, MlpScorer, _volume_power,
                      autocovariance_from_walk)
from .splits import (EdgeSplit, MaskedBatch, negative_pool_size,
                     positive_masking_batches, sample_negatives, train_graph)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_STD_FLOOR = 1e-12

_EPOCH_TAG = 0x65706F63
_NEG_TAG = 0x6E626174
_DROP_TAG = 0x64726F70


@dataclass
class TrainConfig:
    loss: str = "npair"            # npair | bce
    regime: str = "unbiased"       # unbiased | biased
    lr: float = 0.001
    epochs: int = 100              # 250 for the larger benchmark graphs
    batch_count: int = 10
    neg_cap: int = 0               # per-positive negative cap; 0 = uncapped
    seed: int = 1
    dropout: float = 0.5
    ac_t: int = 3
    hidden: int = 128
    direct_mlp: bool = False       # score pairs by w_uv directly, skip AC

    def __post_init__(self):
        if self.loss not in ("npair", "bce"):
            raise ConfigError(f"unknown loss {self.loss!r}")
        if self.regime not in ("unbiased", "biased"):
            raise ConfigError(f"unknown regime {self.regime!r}")
        if not 0 < self.lr < np.inf:  # also rejects nan
            raise ConfigError("lr must be positive and finite")
        if min(self.epochs, self.batch_count) < 1:
            raise ConfigError("epochs and batch_count must be >= 1")
        if self.neg_cap < 0:
            raise ConfigError("neg_cap must be >= 0")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")
        if self.ac_t < 0:
            raise ConfigError("ac_t must be >= 0")
        if self.hidden < 1:
            raise ConfigError("hidden must be >= 1")


class EpochRecord(NamedTuple):
    epoch: int
    loss: float
    valid_prec: float
    skipped: int


# -- losses -------------------------------------------------------------------

def _npair(pos, negs):
    """N-pair loss of P positives against a (P, k) negative matrix, and
    its gradients w.r.t. both: a row-wise max-shifted softmax."""
    if negs.shape[1] == 0:
        return 0.0, np.zeros_like(pos), np.zeros_like(negs)
    m = np.maximum(pos, negs.max(axis=1))
    e_pos = np.exp(pos - m)
    e_neg = np.exp(negs - m[:, None])
    denom = e_pos + e_neg.sum(axis=1)
    loss = float(np.sum(np.log(denom) - (pos - m)))
    return loss, e_pos / denom - 1.0, e_neg / denom[:, None]


def _bce(z, labels, a, b):
    """Mean cross entropy of sigmoid(a * z + b) vs labels; returns the loss
    and its gradients w.r.t. z, a and b."""
    x = a * z + b
    # stable form: max(x, 0) - x*y + log(1 + exp(-|x|))
    loss = np.maximum(x, 0.0) - x * labels + np.log1p(np.exp(-np.abs(x)))
    gx = (expit(x) - labels) / len(z)
    return (float(loss.mean()), a * gx,
            {"head_a": float(gx @ z), "head_b": float(gx.sum())})


def _standardize(scores):
    """(z-scores, population std); the divisor is floored at 1e-12."""
    std = float(scores.std())
    return (scores - scores.mean()) / max(std, _STD_FLOOR), std


# -- Adam ---------------------------------------------------------------------

@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, size: int) -> "AdamState":
        return cls(np.zeros(size), np.zeros(size))


def adam_update(state: AdamState, params: np.ndarray, grads: np.ndarray,
                lr: float) -> np.ndarray:
    """One bias-corrected Adam step on flat parameter/gradient vectors."""
    state.step += 1
    state.m = ADAM_BETA1 * state.m + (1 - ADAM_BETA1) * grads
    state.v = ADAM_BETA2 * state.v + (1 - ADAM_BETA2) * grads ** 2
    mhat = state.m / (1 - ADAM_BETA1 ** state.step)
    vhat = state.v / (1 - ADAM_BETA2 ** state.step)
    return params - lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


# -- the training walk --------------------------------------------------------
#
# A batch needs T_uv = (P^t)_uv at its scored pairs and, for a loss gradient
# g_p at each pair, the gradient w.r.t. P's entries
#
#     dL/dP = sum_{k<t} (P^T)^k G (P^T)^(t-1-k),   sampled on P's arcs,
#
# where G holds g_p at (u_p, v_p), duplicates summed. Both kernels compute
# exactly this; they differ in where the work goes.

# P filling more than this share of n^2 sends a batch to the dense side.
# The sparse side's cost follows the support of the products and the
# scored pairs on the support of P^t, the dense side's n times the arcs
# of P, so P's fill alone misplaces the crossover: at 2708 nodes and
# 1.2% fill, where P^3 holds nearly every pair, this picks sparse, but
# a batch took 0.99 s dense against 2.07 s sparse with 45k pairs, and
# 2.02 against 2.75 s with 366k. A cost estimate from n, the arcs of P,
# t and the scored pairs is to replace it (ROADMAP item 7).
_DENSE_FILL = 0.015


class _SparseWalk:
    """The walk on the support of P^t: scored pairs are looked up in the
    sparse matrix P^t, and the gradient is built meet-in-the-middle from
    sparse products with G, touching only the support of each product.

    G holds only the pairs at which P^t stores an entry: P has no
    negative entries, so any other pair has no t-step path and feeds
    nothing that an arc's gradient reads. But scipy's product drops sums
    that are exactly 0, so a pair whose every t-step product underflows
    scores 0 (as on the dense side) and also gets no gradient.
    """

    def __init__(self, P, pairs, t, Pt):
        n = P.shape[0]
        self.P, self.t, self.n = P, t, n
        ranked, order = _code_order(pair_codes(pairs, n))
        first = np.diff(ranked, prepend=-1) != 0  # each code's first pair
        self.keys, self.inverse = ranked[first], np.empty_like(order)
        self.inverse[order] = np.cumsum(first) - 1
        # P has no negative entries, so -inf marks the codes P^t lacks
        at = _values_at(Pt, self.keys, fill=-np.inf)
        self.stored = at != -np.inf
        self.values = np.where(self.stored, at, 0.0)[self.inverse]

    def grad(self, g):
        """dL/dP on P's arcs for the loss gradient g at the pairs; G sums
        g over repeated pairs and keeps only the pairs on P^t's support.

        With M_k = (P^T)^k G (P^T)^(t-2-k), term k < t-1 of the sum at arc
        (i, j) is sum_l M_k[i, l] P[j, l], and the last term is
        sum_l P[l, i] M_{t-2}[l, j]: each visits row j or column i of P,
        and M_{t-2} is read once, for both of its terms.
        """
        P, t, n = self.P, self.t, self.n
        if t == 0:
            return np.zeros(P.nnz)
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(P.indptr))
        cols = P.indices.astype(np.int64)
        keys = self.keys[self.stored]
        G = sparse.csr_matrix(
            (np.bincount(self.inverse, weights=g)[self.stored], keys % n,
             np.searchsorted(keys, np.arange(n + 1) * n)), shape=(n, n))
        if t == 1:
            return _values_at(G, rows * n + cols)
        PT = P.T
        # (arc, code looked up, P's entry): row j of P meets M_k at (i, l),
        # column i of P meets M_{t-2} at (l, j); in code order, the
        # searches of _values_at walk the matrix forward
        R = P[cols]                           # row j of P for arc (i, j)
        arc = np.repeat(np.arange(P.nnz), np.diff(R.indptr))
        code, order = _code_order(rows[arc] * n + R.indices)
        by_row = arc[order], code, R.data[order]
        R = PT.tocsr()[rows]                  # column i of P for arc (i, j)
        arc = np.repeat(np.arange(P.nnz), np.diff(R.indptr))
        code, order = _code_order(R.indices.astype(np.int64) * n + cols[arc])
        by_col = arc[order], code, R.data[order]
        out = np.zeros(P.nnz)
        L = G                                 # (P^T)^k G
        for k in range(t - 2):
            Lc = L.tocsc()                    # both products take L
            M = _product(Lc, PT)
            for _ in range(t - 3 - k):
                M = _product(M, PT)
            out += np.bincount(by_row[0], minlength=P.nnz, weights=(
                _values_at(M, by_row[1]) * by_row[2]))
            L = _product(PT, Lc)
        at = np.split(_values_at(L, np.r_[by_row[1], by_col[1]]),
                      [len(by_row[1])])
        for (arcs, _, entries), vals in zip((by_row, by_col), at):
            out += np.bincount(arcs, minlength=P.nnz, weights=vals * entries)
        return out


class _DenseWalk:
    """The walk as dense rows per block of the evaluator's _DENSE_ROWS
    nodes, for a P too full for the sparse side. Scored pairs are read
    off rows of P^t, walked from each block of sources; the gradient is
    built one block of columns at a time and needs no n x n array."""

    def __init__(self, P, pairs, t):
        self.P, self.t, self.pairs = P, t, pairs
        self.values = pair_scores(lambda blk: _walk_hits(P, blk, t), pairs)

    def grad(self, g):
        """dL/dP on P's arcs for the loss gradient g at the pairs.

        Columns C of G (P^T)^m are G times the transposed rows C of P^m,
        so the columns C of the sum come right to left: acc = G W_0^T,
        then acc = P^T acc + G W_m^T for m = 1 .. t-1, with W_m the rows
        C of P^m; G W_0^T is G's columns C and W_1 P's rows C, bit for bit
        as if multiplied out from identity rows (see gelato.heuristics).
        """
        P, t = self.P, self.t
        n = P.shape[0]
        out = np.zeros(P.nnz)
        if t == 0:
            return out
        G = sparse.csr_matrix((g, (self.pairs[:, 0], self.pairs[:, 1])),
                              shape=(n, n))
        PT = P.T.tocsr()
        rows = np.repeat(np.arange(n), np.diff(P.indptr))
        by_col = _code_order(P.indices.astype(np.int64) * n + rows)[1]
        col_start = np.r_[0, np.cumsum(np.bincount(P.indices, minlength=n))]
        for lo in range(0, n, _DENSE_ROWS):
            hi = min(n, lo + _DENSE_ROWS)
            acc = G[:, lo:hi].toarray()
            for m in range(1, t):
                W = P[lo:hi].toarray() if m == 1 else W @ P
                acc = PT @ acc + G @ W.T
            arcs = by_col[col_start[lo]:col_start[hi]]
            out[arcs] = acc[rows[arcs], P.indices[arcs] - lo]
        return out


def _walk(P, pairs, t):
    """The batch's walk kernel: dense when P fills more than _DENSE_FILL
    of n^2, otherwise sparse on the whole sparse P^t."""
    n = P.shape[0]
    if P.nnz > _DENSE_FILL * n * n:
        return _DenseWalk(P, pairs, t)
    return _SparseWalk(P, pairs, t, _pt_matrix(P, t))


# -- forward + tape -----------------------------------------------------------

class Tape:
    """Reverse-mode record of one batch forward pass.

    Holds the loss gradient w.r.t. the raw scores, which the forward pass
    computes with the loss, and the stage outputs needed to replay the
    structure and the MLP backward; `backward()` returns the gradient of
    the loss w.r.t. every trainable parameter. The walk's share of the
    backward pass is the gradient kernel of the batch's `_SparseWalk` or
    `_DenseWalk` (see `_walk`).
    """

    def __init__(self, *, params, eg, scored, g_raw, head_grads, walk,
                 mlp_cache):
        self.params = params
        self.eg = eg
        self.scored = scored
        self.g_raw = g_raw            # loss gradient w.r.t. the raw scores
        self.head_grads = head_grads  # head_a/head_b under BCE, else empty
        self.walk = walk              # the batch's walk kernel, None if direct
        self.mlp_cache = mlp_cache    # mlp_forward intermediates, if it ran

    def _ac_backward(self, g_raw):
        """Gradient w.r.t. the per-pair combined weights of the structure."""
        eg = self.eg
        graph = eg.graph
        n, d, vol = graph.n, graph.degrees, graph.volume
        vol2, vol3 = _volume_power(graph, 2), _volume_power(graph, 3)
        u, v = self.scored[:, 0], self.scored[:, 1]
        du, dv, T = d[u], d[v], self.walk.values

        g_d = (np.bincount(u, weights=g_raw * (T / vol - dv / vol2),
                           minlength=n)
               + np.bincount(v, weights=g_raw * (-du / vol2),
                             minlength=n))
        g_vol = float(np.sum(g_raw * (-du * T / vol2
                                      + 2.0 * du * dv / vol3)))
        gP_data = self.walk.grad(g_raw * du / vol)

        arc_rows = graph.row_of_arcs()
        gA = gP_data / d[arc_rows]
        row_dot = np.bincount(arc_rows, weights=gP_data * self.walk.P.data,
                              minlength=n)
        g_d -= row_dot / d
        g_d += g_vol
        gA += g_d[arc_rows]

        # arcs -> canonical pairs (loop arcs are constants and drop out)
        gpair = np.zeros(len(eg.pairs))
        ap = eg.arc_positions
        gpair[eg.active] = gA[ap[:, 0]] + gA[ap[:, 1]]
        return gpair * (1.0 - eg.alpha) * eg.beta

    def _mlp_backward(self, g_w):
        return mlp_backward(self.params, self.mlp_cache, g_w)

    def backward(self) -> dict:
        g_w = self.g_raw if self.walk is None else self._ac_backward(
            self.g_raw)
        return {**self._mlp_backward(g_w), **self.head_grads}


def _forward(g: Graph, X: AttributeMatrix, params: MlpParams,
             enh_cfg: EnhancerConfig, cfg: TrainConfig, batch: MaskedBatch,
             aug: AugmentedPairs | None, epoch: int, head, training: bool):
    """(loss, Tape) of a batch; `aug` is the run's pair set."""
    pos = np.asarray(batch.batch_pos, dtype=np.int64).reshape(-1, 2)
    negs = np.asarray([] if batch.negatives is None else batch.negatives,
                      dtype=np.int64).reshape(-1, 2)
    if not len(pos) or len(negs) % len(pos):
        raise ConfigError(f"{len(negs)} negatives do not split evenly over "
                          f"{len(pos)} positives")
    k = len(negs) // len(pos)  # positive i vs negatives i*k .. (i+1)*k - 1
    scored = np.vstack([pos, negs])
    rate = cfg.dropout if training else 0.0
    drop_key = derive(cfg.seed, _DROP_TAG, epoch)

    if cfg.direct_mlp:
        mlp_cache = {}
        mask = dropout_masks(params.hidden, np.arange(len(scored)), rate,
                             drop_key) if rate else None
        raw = mlp_forward(params, pair_features(X, scored), mask, rate,
                          cache=mlp_cache)
        eg, walk = None, None
    else:
        eg = assemble_enhanced(aug, aug.ids(batch.residual_edges), params,
                               enh_cfg, dropout_rate=rate,
                               dropout_key=drop_key, keep_cache=True)
        walk = _walk(transition_matrix(eg.graph), scored, cfg.ac_t)
        raw = autocovariance_from_walk(eg.graph, scored[:, 0], scored[:, 1],
                                       walk.values)
        mlp_cache = eg.mlp_cache

    z, std = _standardize(raw)
    if cfg.loss == "npair":
        loss, g_pos, g_neg = _npair(z[:len(pos)],
                                    z[len(pos):].reshape(len(pos), k))
        gz, head_grads = np.concatenate([g_pos, g_neg.ravel()]), {}
    else:
        labels = (np.arange(len(z)) < len(pos)).astype(np.float64)
        a, b = head if head is not None else (1.0, 0.0)
        loss, gz, head_grads = _bce(z, labels, a, b)

    # through the z-score; a floored sigma is a constant
    g_raw = gz - gz.mean()
    if std >= _STD_FLOOR:
        g_raw = g_raw - z * np.mean(gz * z)
    return loss, Tape(params=params, eg=eg, scored=scored,
                      g_raw=g_raw / max(std, _STD_FLOOR),
                      head_grads=head_grads, walk=walk, mlp_cache=mlp_cache)


def _batch_forward(g, X, params, enh_cfg, cfg, batch, added_pairs, *args):
    """_forward (epoch, head, training) over train()'s pair set, rebuilt
    from the batch: its residual edges and distinct positives plus
    `added_pairs`, so each pair keeps train()'s row and dropout mask."""
    aug = None if cfg.direct_mlp else AugmentedPairs(g, X, np.vstack(
        [batch.residual_edges, np.unique(batch.batch_pos, axis=0)]),
        added_pairs)
    return _forward(g, X, params, enh_cfg, cfg, batch, aug, *args)


def forward_loss(g, X, params, enh_cfg, cfg, batch, *, added_pairs=(),
                 epoch: int = 1, head=None, training: bool = False) -> float:
    """Loss of one batch without gradients (finite-difference probes)."""
    return _batch_forward(g, X, params, enh_cfg, cfg, batch, added_pairs,
                          epoch, head, training)[0]


def compute_gradients(g, X, params, enh_cfg, cfg, batch, *, added_pairs=(),
                      epoch: int = 1, head=None, training: bool = False):
    """Loss and parameter gradients for one masked batch, its enhanced
    graph built from the batch's residual edges plus `added_pairs`; with
    train()'s parameters, epoch and `added_pairs`, train()'s step.

    Returns (loss, grads) where grads maps W1/b1/W2/b2 (and head_a/head_b
    under the cross-entropy loss) to arrays. Non-finite values are
    returned as-is; callers decide whether to skip the update.
    """
    loss, tape = _batch_forward(g, X, params, enh_cfg, cfg, batch,
                                added_pairs, epoch, head, training)
    return loss, tape.backward()


def grads_finite(loss: float, grads: dict) -> bool:
    if not np.isfinite(loss):
        return False
    return all(np.isfinite(np.atleast_1d(v)).all() for v in grads.values())


# -- training loop ------------------------------------------------------------

def _validation_prec(g, X, split, enh_cfg, cfg, params, aug):
    """Exact validation prec@100%, scored over all training edges."""
    if len(split.valid_pos) == 0:
        return float("nan")
    if cfg.direct_mlp:
        scorer = MlpScorer(params, X)
    else:
        eg = assemble_enhanced(aug, aug.ids(split.train_pos), params, enh_cfg)
        scorer = AutocovarianceScorer(eg.graph, cfg.ac_t)
    return precision_at_k(rank_summary(scorer, g, split, "valid"), 1.0)


def train(g: Graph, X: AttributeMatrix, split: EdgeSplit,
          enh_cfg: EnhancerConfig, cfg: TrainConfig):
    """Optimize the MLP end-to-end; returns (best params, history).

    The unbiased regime pairs each positive with round(pool / |train
    positives|) fresh negatives per epoch (capped by neg_cap); the biased
    regime with exactly one. Model selection: highest validation
    prec@100%, earliest epoch on ties; when the validation set is empty
    the lowest epoch loss is used instead. An Adam step that leaves a
    non-finite parameter, or one whose MLP overflows, raises NumericError.
    """
    if not cfg.direct_mlp and (enh_cfg.alpha >= 1.0 or enh_cfg.beta <= 0.0):
        raise ConfigError(
            "alpha=1 or beta=0 leaves no trainable influence on the "
            "scores; use the ac-only/cos-ac modes instead of training")
    X.check_rows(g.n)  # the direct-MLP path builds no AugmentedPairs

    aug = None
    if not cfg.direct_mlp:
        added_pairs = () if enh_cfg.eta == 0.0 else select_augmentation_pairs(
            X, train_graph(g, split), enh_cfg.eta)[0]
        aug = AugmentedPairs(g, X, split.train_pos, added_pairs)

    params = init_mlp_params(X.r, cfg.hidden, cfg.seed)
    head = (1.0, 0.0)
    flat = flatten_params(params, head)
    adam = AdamState.zeros(len(flat))

    pool = negative_pool_size(g, split, "train")
    if cfg.regime == "unbiased":
        npp = max(1, int(np.floor(pool / max(len(split.train_pos), 1) + 0.5)))
        if cfg.neg_cap > 0:
            npp = min(npp, cfg.neg_cap)
    else:
        npp = 1

    history = []
    best_key = None
    best_params = params
    for epoch in range(1, cfg.epochs + 1):
        batches = positive_masking_batches(
            split, cfg.batch_count, derive(cfg.seed, _EPOCH_TAG, epoch))
        losses = []
        skipped = 0
        for bi, batch in enumerate(batches):
            batch.negatives = sample_negatives(
                g, split, "train", npp * len(batch.batch_pos),
                derive(cfg.seed, _NEG_TAG, epoch, bi))
            loss, tape = _forward(g, X, params, enh_cfg, cfg, batch, aug,
                                  epoch, head, True)
            grads = tape.backward()
            # free the walk, MLP cache and negatives before the next batch
            del tape
            batch.negatives = None
            if not grads_finite(loss, grads):
                skipped += 1
                continue
            gflat = flatten_params(
                MlpParams(grads["W1"], grads["b1"], grads["W2"], grads["b2"]),
                [grads.get("head_a", 0.0), grads.get("head_b", 0.0)])
            with np.errstate(over="ignore", invalid="ignore"):  # refused below
                flat = adam_update(adam, flat, gflat, cfg.lr)
            if not np.isfinite(flat).all():
                raise NumericError(f"epoch {epoch}, batch {bi + 1}: the Adam "
                                   "step left a non-finite parameter")
            params, head = unflatten_params(flat, X.r, cfg.hidden,
                                            with_head=True)
            losses.append(loss)

        mean_loss = float(np.mean(losses)) if losses else float("nan")
        vprec = _validation_prec(g, X, split, enh_cfg, cfg, params, aug)
        history.append(EpochRecord(epoch, mean_loss, vprec, skipped))
        if np.isnan(vprec):
            key = -mean_loss if np.isfinite(mean_loss) else -np.inf
        else:
            key = vprec
        if best_key is None or key > best_key:
            best_key = key
            best_params = params
    return best_params, history
