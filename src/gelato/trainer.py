"""End-to-end optimization of the enhancement MLP.

The forward pass per masked batch is

    residual edges + frozen augmentation
        -> enhanced adjacency (MLP weights, combination, self-loops)
        -> random-walk similarity of the batch positives and sampled
           negatives
        -> joint score standardization
        -> ranking loss (N-pair softmax contrast, or cross entropy
           through a trainable affine+sigmoid head)

and the Tape records enough of it to replay backward analytically:
gradients flow through the similarity entries, the transition matrix,
the degree vector and volume (all functions of the learned weights), the
zero-clamp (subgradient 0 where clamped), and the MLP. Batches whose
loss or gradient has any non-finite component are skipped and counted
rather than applied. The best epoch is selected by prec@100% on the
unbiased validation pool (streamed exactly when small, otherwise a
fixed-seed subsample shared by all epochs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import expit

from .enhancer import (EnhancerConfig, MlpParams, assemble_enhanced,
                       dropout_masks, init_mlp_params, mlp_forward,
                       pair_features, select_augmentation_pairs)
from .errors import ConfigError
from .evaluator import precision_at_k, rank_summary, sampled_rank_summary
from .graph import AttributeMatrix, Graph
from .heuristics import (pair_scores, source_blocks, transition_matrix,
                         _walk_hits)
from .rng import derive
from .splits import (EdgeSplit, MaskedBatch, negative_pool_size, pair_codes,
                     positive_masking_batches, sample_negatives, train_graph)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_STD_FLOOR = 1e-12

_EPOCH_TAG = 0x65706F63
_NEG_TAG = 0x6E626174
_DROP_TAG = 0x64726F70
_VALID_TAG = 0x766E6567


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
    valid_subsample: int = 1_000_000
    direct_mlp: bool = False       # score pairs by w_uv directly, skip AC

    def __post_init__(self):
        if self.loss not in ("npair", "bce"):
            raise ConfigError(f"unknown loss {self.loss!r}")
        if self.regime not in ("unbiased", "biased"):
            raise ConfigError(f"unknown regime {self.regime!r}")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")
        if self.ac_t < 0:
            raise ConfigError("ac_t must be >= 0")


class EpochRecord(NamedTuple):
    epoch: int
    loss: float
    valid_prec: float
    skipped: int


# -- losses -------------------------------------------------------------------

def npair_loss(pos_scores, neg_scores_per_pos) -> float:
    """Softmax contrast of each positive against its negative set.

    L = -sum_i log(exp(s_i) / (exp(s_i) + sum_j exp(s_ij))), evaluated
    with the max-shift trick; a positive with no negatives contributes 0.
    """
    total = 0.0
    for s, negs in zip(pos_scores, neg_scores_per_pos):
        negs = np.asarray(negs, dtype=np.float64)
        if negs.size == 0:
            continue
        m = max(float(s), float(negs.max()))
        denom = np.exp(s - m) + np.exp(negs - m).sum()
        total += -(s - m) + np.log(denom)
    return float(total)


def bce_loss(scores, labels, a: float = 1.0, b: float = 0.0) -> float:
    """Mean binary cross entropy of sigmoid(a * score + b) vs labels."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    x = a * scores + b
    # stable form: max(x, 0) - x*y + log(1 + exp(-|x|))
    loss = np.maximum(x, 0.0) - x * labels + np.log1p(np.exp(-np.abs(x)))
    return float(loss.mean())


def standardize_scores(scores) -> np.ndarray:
    """Z-score over the given batch; population std, floored at 1e-12."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ConfigError("cannot standardize an empty score list")
    mu = scores.mean()
    sigma = max(float(scores.std()), _STD_FLOOR)
    return (scores - mu) / sigma


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


def flatten_params(params: MlpParams, head=None) -> np.ndarray:
    parts = [params.W1.ravel(), params.b1, params.W2, [params.b2]]
    if head is not None:
        parts.append(head)
    return np.concatenate(parts)


def unflatten_params(flat: np.ndarray, r: int, hidden: int, with_head=False):
    k = hidden * 2 * r
    W1 = flat[:k].reshape(hidden, 2 * r).copy()
    b1 = flat[k:k + hidden].copy()
    W2 = flat[k + hidden:k + 2 * hidden].copy()
    b2 = float(flat[k + 2 * hidden])
    params = MlpParams(W1, b1, W2, b2)
    if with_head:
        return params, flat[k + 2 * hidden + 1:].copy()
    return params


# -- forward + tape -----------------------------------------------------------

class Tape:
    """Reverse-mode record of one batch forward pass.

    Holds the stage outputs needed to replay the pass backward;
    `backward()` returns the gradient of the loss w.r.t. every trainable
    parameter. Walk vectors are recomputed per source block rather than
    stored, which bounds memory at block_size * n per step.
    """

    def __init__(self, *, params, cfg, eg, scored, group_sizes, labels,
                 head, z, sigma, floored, ac, mlp_cache):
        self.params = params
        self.cfg = cfg
        self.eg = eg
        self.scored = scored
        self.group_sizes = group_sizes
        self.labels = labels
        self.head = head
        self.z = z
        self.sigma = sigma
        self.floored = floored
        self.ac = ac                  # dict of AC-stage records, None if direct
        self.mlp_cache = mlp_cache    # mlp_forward intermediates, if it ran

    # gradient of the loss w.r.t. the standardized scores
    def _loss_backward(self):
        z = self.z
        head_grads = {}
        if self.cfg.loss == "npair":
            P = len(self.group_sizes)
            pos, negs = z[:P], z[P:]
            offsets = np.concatenate([[0], np.cumsum(self.group_sizes)])
            gz = np.zeros_like(z)
            nonempty = self.group_sizes > 0
            gmax = pos.copy()
            if negs.size:
                seg = np.maximum.reduceat(negs, offsets[:-1][nonempty])
                gmax[nonempty] = np.maximum(gmax[nonempty], seg)
            e_pos = np.exp(pos - gmax)
            group_of_neg = np.repeat(np.arange(P), self.group_sizes)
            e_neg = np.exp(negs - gmax[group_of_neg])
            denom = e_pos.copy()
            if negs.size:
                denom[nonempty] += np.add.reduceat(e_neg, offsets[:-1][nonempty])
            gz[:P] = np.where(nonempty, e_pos / denom - 1.0, 0.0)
            gz[P:] = e_neg / denom[group_of_neg]
        else:
            a, b = self.head
            x = a * z + b
            p = expit(x)
            gx = (p - self.labels) / len(z)
            gz = a * gx
            head_grads = {"head_a": float(gx @ z), "head_b": float(gx.sum())}
        return gz, head_grads

    def _standardize_backward(self, gz):
        if self.floored:
            return (gz - gz.mean()) / self.sigma
        return (gz - gz.mean() - self.z * np.mean(gz * self.z)) / self.sigma

    def _ac_backward(self, g_raw):
        """Gradient w.r.t. the per-pair combined weights of the structure."""
        rec = self.ac
        eg = self.eg
        graph = eg.graph
        d = graph.degrees
        vol = graph.volume
        u, v = self.scored[:, 0], self.scored[:, 1]
        du, dv, T = d[u], d[v], rec["T"]

        gT = g_raw * du / vol
        g_d = np.zeros(graph.n)
        np.add.at(g_d, u, g_raw * (T / vol - dv / vol ** 2))
        np.add.at(g_d, v, g_raw * (-du / vol ** 2))
        g_vol = float(np.sum(g_raw * (-du * T / vol ** 2
                                      + 2.0 * du * dv / vol ** 3)))

        P = rec["P"]
        arc_rows = rec["arc_rows"]
        gP_data = np.zeros(len(graph.data))
        t = self.cfg.ac_t
        # an n x n temp for the sparse one-hop shortcut is fine up to here
        dense_ok = graph.n <= 4096
        if t >= 1:
            for blk, sel, row in rec["blocks"]:
                one_hop = P[blk] if t > 1 else None
                if t > 2 or (t == 2 and not dense_ok):
                    steps = [None, one_hop.toarray()]
                    for _ in range(t - 2):
                        steps.append(steps[-1] @ P)
                Y = np.zeros((len(blk), graph.n))
                np.add.at(Y, (row, v[sel]), gT[sel])
                for k in range(t, 0, -1):
                    if k == 1:
                        # X_0 is the source selector: only arcs leaving a
                        # source in this block receive mass
                        pos = np.minimum(np.searchsorted(blk, arc_rows),
                                         len(blk) - 1)
                        hit = blk[pos] == arc_rows
                        gP_data[hit] += Y[pos[hit], graph.indices[hit]]
                    elif k == 2 and dense_ok:
                        # X_1 rows are sparse: sample X_1^T Y at the pattern
                        D = one_hop.T @ Y
                        gP_data += D[arc_rows, graph.indices]
                    else:
                        Xk = steps[k - 1]
                        gP_data += np.einsum("bi,bi->i", Xk[:, arc_rows],
                                             Y[:, graph.indices])
                    if k > 1:
                        Y = Y @ P.T

        gA = gP_data / d[arc_rows]
        row_dot = np.bincount(arc_rows, weights=gP_data * P.data,
                              minlength=graph.n)
        g_d -= row_dot / d
        g_d += g_vol
        gA += g_d[arc_rows]

        # arcs -> canonical pairs (loop arcs are constants and drop out)
        gpair = np.zeros(len(eg.pairs))
        ap = eg.arc_positions
        gpair[eg.active] = gA[ap[:, 0]] + gA[ap[:, 1]]
        return gpair * (1.0 - eg.alpha) * eg.beta

    def _mlp_backward(self, g_w):
        """Backprop g_w through the MLP from its forward cache. With no
        cache the MLP did not feed the scores (alpha=1 or beta=0), so
        every gradient is zero."""
        params = self.params
        cache = self.mlp_cache
        if cache is None:
            return {"W1": np.zeros_like(params.W1),
                    "b1": np.zeros_like(params.b1),
                    "W2": np.zeros_like(params.W2), "b2": 0.0}
        Z, relu_support, Hd = cache["Z"], cache["relu_support"], cache["Hd"]
        mask, rate, w = cache["keep_mask"], cache["rate"], cache["w"]
        gpre = g_w * w * (1.0 - w)
        gW2 = Hd.T @ gpre
        gb2 = float(gpre.sum())
        gHd = np.outer(gpre, params.W2)
        if mask is not None:
            gH = gHd * (mask / (1.0 - rate))
        else:
            gH = gHd
        gHpre = gH * relu_support
        gW1 = gHpre.T @ Z
        gb1 = gHpre.sum(axis=0)
        return {"W1": gW1, "b1": gb1, "W2": gW2, "b2": gb2}

    def backward(self) -> dict:
        gz, head_grads = self._loss_backward()
        g_raw = self._standardize_backward(gz)
        g_w = self._ac_backward(g_raw) if self.ac is not None else g_raw
        grads = self._mlp_backward(g_w)
        grads.update(head_grads)
        return grads


def _forward(g: Graph, X: AttributeMatrix, params: MlpParams,
             enh_cfg: EnhancerConfig, cfg: TrainConfig, batch: MaskedBatch,
             added_pairs, pair_ids, epoch: int, head,
             training: bool, want_tape: bool, cos=None, Z=None):
    pos = np.asarray(batch.batch_pos, dtype=np.int64).reshape(-1, 2)
    negs = batch.negatives
    negs = (np.empty((0, 2), dtype=np.int64) if negs is None
            else np.asarray(negs, dtype=np.int64).reshape(-1, 2))
    scored = np.vstack([pos, negs])
    if len(scored) == 0:
        raise ConfigError("empty batch: nothing to score")
    group_sizes = np.array([len(c) for c in
                            np.array_split(np.arange(len(negs)), len(pos))]) \
        if len(pos) else np.zeros(0, dtype=np.int64)
    labels = np.concatenate([np.ones(len(pos)), np.zeros(len(negs))])
    drop_key = derive(cfg.seed, _DROP_TAG, epoch)

    if cfg.direct_mlp:
        mask = None
        if training and cfg.dropout > 0.0:
            mask = dropout_masks(params.hidden, np.arange(len(scored)),
                                 cfg.dropout, drop_key)
        mlp_cache = {} if want_tape else None
        raw = mlp_forward(params, pair_features(X, scored), mask,
                          cfg.dropout, cache=mlp_cache)
        eg, ac = None, None
    else:
        residual = np.asarray(batch.residual_edges, dtype=np.int64).reshape(-1, 2)
        res_w = g.pair_weights(residual)
        eg = assemble_enhanced(
            X, params, enh_cfg, g.n, residual, res_w, added_pairs,
            training=training, dropout_rate=cfg.dropout if training else 0.0,
            dropout_key=drop_key, pair_ids=pair_ids, cos=cos, Z=Z,
            keep_cache=want_tape)
        P = transition_matrix(eg.graph)
        d = eg.graph.degrees
        vol = eg.graph.volume
        # grouped once; the backward replays the walk over the same blocks
        blocks = list(source_blocks(scored[:, 0]))
        T = pair_scores(lambda blk: _walk_hits(P, blk, cfg.ac_t), scored,
                        blocks=blocks)
        raw = ((d[scored[:, 0]] / vol) * T
               - d[scored[:, 0]] * d[scored[:, 1]] / vol ** 2)
        ac = {"T": T, "P": P, "blocks": blocks,
              "arc_rows": eg.graph.row_of_arcs()}
        mlp_cache = eg.mlp_cache

    std = float(raw.std())
    floored = std < _STD_FLOOR
    sigma = max(std, _STD_FLOOR)
    z = (raw - raw.mean()) / sigma

    P_cnt = len(pos)
    if cfg.loss == "npair":
        offsets = np.concatenate([[0], np.cumsum(group_sizes)]).astype(int)
        neg_groups = [z[P_cnt + offsets[i]:P_cnt + offsets[i + 1]]
                      for i in range(P_cnt)]
        loss = npair_loss(z[:P_cnt], neg_groups)
    else:
        a, b = head if head is not None else (1.0, 0.0)
        loss = bce_loss(z, labels, a, b)

    if not want_tape:
        return loss, None
    tape = Tape(params=params, cfg=cfg, eg=eg, scored=scored,
                group_sizes=group_sizes, labels=labels,
                head=head if head is not None else (1.0, 0.0),
                z=z, sigma=sigma, floored=floored, ac=ac,
                mlp_cache=mlp_cache)
    return loss, tape


def forward_loss(g, X, params, enh_cfg, cfg, batch, *, added_pairs=None,
                 pair_ids=None, epoch: int = 1, head=None,
                 training: bool = False, cos=None, Z=None) -> float:
    """Loss of one batch without gradients (finite-difference probes)."""
    added = added_pairs if added_pairs is not None \
        else np.empty((0, 2), dtype=np.int64)
    loss, _ = _forward(g, X, params, enh_cfg, cfg, batch, added, pair_ids,
                       epoch, head, training, want_tape=False, cos=cos, Z=Z)
    return loss


def compute_gradients(g, X, params, enh_cfg, cfg, batch, *, added_pairs=None,
                      pair_ids=None, epoch: int = 1, head=None,
                      training: bool = False, cos=None, Z=None):
    """Loss and parameter gradients for one masked batch.

    Returns (loss, grads) where grads maps W1/b1/W2/b2 (and head_a/head_b
    under the cross-entropy loss) to arrays. Non-finite values are
    returned as-is; callers decide whether to skip the update.
    """
    added = added_pairs if added_pairs is not None \
        else np.empty((0, 2), dtype=np.int64)
    loss, tape = _forward(g, X, params, enh_cfg, cfg, batch, added, pair_ids,
                          epoch, head, training, want_tape=True, cos=cos,
                          Z=Z)
    return loss, tape.backward()


def grads_finite(loss: float, grads: dict) -> bool:
    if not np.isfinite(loss):
        return False
    return all(np.isfinite(np.atleast_1d(v)).all() for v in grads.values())


# -- training loop ------------------------------------------------------------

def _eval_scorer(g, X, split, enh_cfg, cfg, params, added_pairs,
                 cos=None, Z=None):
    """Evaluation-mode scorer over the full training structure."""
    from .scorers import AutocovarianceScorer, MlpScorer
    if cfg.direct_mlp:
        return MlpScorer(params, X)
    res_w = g.pair_weights(split.train_pos)
    eg = assemble_enhanced(X, params, enh_cfg, g.n, split.train_pos, res_w,
                           added_pairs, training=False, cos=cos, Z=Z)
    return AutocovarianceScorer(eg.graph, cfg.ac_t)


def _validation_prec(g, X, split, enh_cfg, cfg, params, added_pairs,
                     valid_negs, cos=None, Z=None):
    if len(split.valid_pos) == 0:
        return float("nan")
    scorer = _eval_scorer(g, X, split, enh_cfg, cfg, params, added_pairs,
                          cos=cos, Z=Z)
    if valid_negs is None:
        rs = rank_summary(scorer, g, split, "valid")
    else:
        rs = sampled_rank_summary(scorer, split.valid_pos, valid_negs)
    return precision_at_k(rs, 1.0)


def train(g: Graph, X: AttributeMatrix, split: EdgeSplit,
          enh_cfg: EnhancerConfig, cfg: TrainConfig):
    """Optimize the MLP end-to-end; returns (best params, history).

    The unbiased regime pairs each positive with round(pool / |train
    positives|) fresh negatives per epoch (capped by neg_cap); the biased
    regime with exactly one. Model selection: highest validation
    prec@100%, earliest epoch on ties; when the validation set is empty
    the lowest epoch loss is used instead.
    """
    if not cfg.direct_mlp and (enh_cfg.alpha >= 1.0 or enh_cfg.beta <= 0.0):
        raise ConfigError(
            "alpha=1 or beta=0 leaves no trainable influence on the "
            "scores; use the ac-only/cos-ac modes instead of training")

    added_pairs = np.empty((0, 2), dtype=np.int64)
    if not cfg.direct_mlp and enh_cfg.eta > 0.0:
        added_pairs, _ = select_augmentation_pairs(
            X, train_graph(g, split), enh_cfg.eta)

    # lexsorted pairs have ascending codes, so ids are a searchsorted away
    full_pairs = np.vstack([split.train_pos, added_pairs])
    order = np.lexsort((full_pairs[:, 1], full_pairs[:, 0]))
    full_pairs = full_pairs[order]
    full_codes = pair_codes(full_pairs, split.n)

    # per-pair inputs are static across batches; gather them once when the
    # footprint is reasonable (pairs x 2r float64)
    full_cos = full_Z = None
    if not cfg.direct_mlp:
        from .graph import cosine_pairs
        full_cos = cosine_pairs(X, full_pairs)
        if full_pairs.size and len(full_pairs) * 2 * X.r * 8 < 500 * 2 ** 20:
            full_Z = pair_features(X, full_pairs)
    eval_ids = np.searchsorted(full_codes, pair_codes(
        np.vstack([split.train_pos, added_pairs]), split.n))

    params = init_mlp_params(X.r, cfg.hidden, cfg.seed)
    head = np.array([1.0, 0.0]) if cfg.loss == "bce" else None
    flat = flatten_params(params, head)
    adam = AdamState.zeros(len(flat))

    pool = negative_pool_size(g, split, "train")
    if cfg.regime == "unbiased":
        npp = max(1, int(np.floor(pool / max(len(split.train_pos), 1) + 0.5)))
        if cfg.neg_cap > 0:
            npp = min(npp, cfg.neg_cap)
    else:
        npp = 1

    valid_negs = None
    vpool = negative_pool_size(g, split, "valid")
    if len(split.valid_pos) and vpool > cfg.valid_subsample:
        valid_negs = sample_negatives(g, split, "valid", cfg.valid_subsample,
                                      derive(cfg.seed, _VALID_TAG))

    history = []
    best_key = None
    best_params = params.copy()
    for epoch in range(1, cfg.epochs + 1):
        batches = positive_masking_batches(
            split, cfg.batch_count, derive(cfg.seed, _EPOCH_TAG, epoch))
        losses = []
        skipped = 0
        for bi, batch in enumerate(batches):
            batch.negatives = sample_negatives(
                g, split, "train", npp * len(batch.batch_pos),
                derive(cfg.seed, _NEG_TAG, epoch, bi))
            ids = cos = Z = None
            if not cfg.direct_mlp:
                ids = np.searchsorted(full_codes, pair_codes(
                    np.vstack([batch.residual_edges, added_pairs]), split.n))
                cos = full_cos[ids]
                Z = full_Z[ids] if full_Z is not None else None
            loss, grads = compute_gradients(
                g, X, params, enh_cfg, cfg, batch, added_pairs=added_pairs,
                pair_ids=ids, epoch=epoch, head=head, training=True,
                cos=cos, Z=Z)
            if not grads_finite(loss, grads):
                skipped += 1
                continue
            gflat = flatten_params(
                MlpParams(grads["W1"], grads["b1"], grads["W2"], grads["b2"]),
                np.array([grads["head_a"], grads["head_b"]])
                if head is not None else None)
            flat = adam_update(adam, flat, gflat, cfg.lr)
            if head is not None:
                params, head = unflatten_params(flat, X.r, cfg.hidden,
                                                with_head=True)
            else:
                params = unflatten_params(flat, X.r, cfg.hidden)
            losses.append(loss)

        mean_loss = float(np.mean(losses)) if losses else float("nan")
        vprec = _validation_prec(
            g, X, split, enh_cfg, cfg, params, added_pairs, valid_negs,
            cos=None if full_cos is None else full_cos[eval_ids],
            Z=None if full_Z is None else full_Z[eval_ids])
        history.append(EpochRecord(epoch, mean_loss, vprec, skipped))
        if np.isnan(vprec):
            key = -mean_loss if np.isfinite(mean_loss) else -np.inf
        else:
            key = vprec
        if best_key is None or key > best_key:
            best_key = key
            best_params = params.copy()
    return best_params, history
