from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

import gelato
from gelato import (AdamState, EnhancerConfig, MlpParams, TrainConfig,
                    adam_update, build_graph, compute_gradients,
                    forward_loss, init_mlp_params, split_edges, train)
from gelato.enhancer import select_augmentation_pairs
from gelato.errors import ConfigError, NumericError
from gelato.evaluator import _DENSE_ROWS, pair_scores
from gelato.heuristics import transition_matrix
from gelato.scorers import autocovariance_from_walk
from gelato.splits import MaskedBatch
from gelato.trainer import (_bce, _npair, _standardize, flatten_params,
                            grads_finite, unflatten_params)

from conftest import (dense_autocovariance, make_attribute_sbm,
                      random_attributes, random_graph)


def _npair_loss(pos, negs):
    return _npair(np.array(pos, dtype=np.float64),
                  np.array(negs, dtype=np.float64))[0]


class TestNpairLoss:
    def test_equal_scores(self):
        assert _npair_loss([0.0], [[0.0]]) == pytest.approx(np.log(2.0))

    def test_empty_negatives(self):
        assert _npair_loss([1.5], [[]]) == 0.0

    def test_dominant_positive(self):
        assert _npair_loss([10.0], [[0.0]]) == pytest.approx(
            np.log(1 + np.exp(-10.0)), rel=1e-9)
        assert _npair_loss([10.0], [[0.0]]) == pytest.approx(4.54e-5,
                                                              rel=1e-2)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        pos = rng.normal(size=4)
        negs = rng.normal(size=(4, 3))
        base = _npair_loss(pos, negs)
        shifted = _npair_loss(pos + 7.5, negs + 7.5)
        assert shifted == pytest.approx(base, rel=1e-12)

    def test_overflow_safety(self):
        assert np.isfinite(_npair_loss([1000.0], [[990.0, 995.0]]))
        assert np.isfinite(_npair_loss([-1000.0], [[-990.0]]))


def _bce_loss(scores, labels, a=1.0, b=0.0):
    return _bce(np.array(scores, dtype=np.float64),
                np.array(labels, dtype=np.float64), a, b)[0]


class TestBceLoss:
    def test_half_probability(self):
        # a=0 head: sigmoid(0) = 0.5 against label 1
        assert _bce_loss([0.0], [1.0], a=1.0, b=0.0) == pytest.approx(
            np.log(2.0))

    def test_perfect_separation_limit(self):
        loss = _bce_loss([30.0, -30.0], [1.0, 0.0], a=1.0, b=0.0)
        assert loss < 1e-12

    def test_constant_probability_closed_form(self):
        # labels all 1, probability p = sigmoid(x) -> mean loss = -ln p
        x = 0.7
        p = 1 / (1 + np.exp(-x))
        got = _bce_loss([x, x, x], [1.0, 1.0, 1.0])
        assert got == pytest.approx(-np.log(p), rel=1e-12)


class TestStandardize:
    def test_hand_computed(self):
        z, std = _standardize(np.array([1.0, 2.0, 3.0]))
        expected = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0 / 3.0)
        np.testing.assert_allclose(z, expected, atol=1e-12)
        assert z[0] == pytest.approx(-1.2247, abs=1e-4)
        assert std == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-15)

    def test_constant_list(self):
        z, std = _standardize(np.array([4.2, 4.2, 4.2]))
        np.testing.assert_array_equal(z, [0.0, 0.0, 0.0])
        assert std < 1e-12  # floored: the divisor is 1e-12, not 0

    def test_single_element(self):
        np.testing.assert_array_equal(_standardize(np.array([7.0]))[0],
                                      [0.0])


class TestAdam:
    def test_zero_gradient_no_move(self):
        state = AdamState.zeros(3)
        p = np.array([1.0, -2.0, 0.5])
        p2 = adam_update(state, p, np.zeros(3), lr=0.1)
        np.testing.assert_array_equal(p, p2)
        # over many steps, coordinates whose gradient is always exactly 0
        # (the BCE head under N-pair) come back bit for bit with m = v = 0,
        # and the others step as if the zero ones were not there
        rng = np.random.default_rng(0)
        zero = np.array([False, True, False, False, True])
        p = rng.normal(size=5)
        state, alone = AdamState.zeros(5), AdamState.zeros(3)
        x, y = p, p[~zero]
        for _ in range(20):
            g = np.where(zero, 0.0, rng.normal(size=5) * 10.0)
            x = adam_update(state, x, g, lr=0.01)
            y = adam_update(alone, y, g[~zero], lr=0.01)
        assert x[zero].tobytes() == p[zero].tobytes()
        assert not state.m[zero].any() and not state.v[zero].any()
        assert x[~zero].tobytes() == y.tobytes()

    def test_first_step_is_signed_lr(self):
        state = AdamState.zeros(2)
        p = np.zeros(2)
        g = np.array([0.3, -7.0])
        p2 = adam_update(state, p, g, lr=0.01)
        np.testing.assert_allclose(p2, -0.01 * np.sign(g), rtol=1e-6)

    def test_quadratic_descent(self):
        # f(x) = 0.5 * (x - 3)^2, two identical-gradient evaluations
        state = AdamState.zeros(1)
        x = np.array([0.0])
        f = lambda x: 0.5 * float((x[0] - 3.0) ** 2)
        values = [f(x)]
        for _ in range(50):
            x = adam_update(state, x, x - 3.0, lr=0.1)
            values.append(f(x))
        assert values[-1] < values[0]
        assert values[1] < values[0] and values[2] < values[1]

    def test_flatten_round_trip(self):
        params = init_mlp_params(3, hidden=4, seed=0)
        flat = flatten_params(params)
        back = unflatten_params(flat, 3, 4)
        np.testing.assert_array_equal(back.W1, params.W1)
        assert back.b2 == params.b2


from conftest import finite_difference_error as _fd_check
from conftest import gradcheck_instance as _gradcheck_instance


class TestGradients:
    def test_finite_difference_spot_checks(self):
        for seed, loss_kind in ((11, "npair"), (12, "bce")):
            parts = _gradcheck_instance(seed, loss_kind)
            assert _fd_check(*parts) < 1e-4

    def test_alpha_one_gives_zero_gradients(self):
        g, X, params, enh, cfg, batch, added, head = \
            _gradcheck_instance(13, "npair", with_aug=False)
        enh = EnhancerConfig(eta=0.0, alpha=1.0, beta=0.5,
                             self_loop_mode="all")
        _, grads = compute_gradients(g, X, params, enh, cfg, batch,
                                     added_pairs=added, training=False)
        for name in ("W1", "b1", "W2", "b2"):
            assert np.all(np.asarray(grads[name]) == 0.0)

    def test_duplicated_batch_doubles_loss_and_gradients(self):
        g, X, params, enh, cfg, batch, added, _ = \
            _gradcheck_instance(14, "npair")
        loss1, grads1 = compute_gradients(g, X, params, enh, cfg, batch,
                                          added_pairs=added, training=False)
        doubled = MaskedBatch(
            batch_pos=np.vstack([batch.batch_pos, batch.batch_pos]),
            residual_edges=batch.residual_edges,
            negatives=np.vstack([batch.negatives, batch.negatives]))
        # interleave so each copy keeps the same negative group
        P = len(batch.batch_pos)
        order = np.r_[np.arange(P), np.arange(P)]
        doubled.batch_pos = batch.batch_pos[order % P]
        loss2, grads2 = compute_gradients(g, X, params, enh, cfg, doubled,
                                          added_pairs=added, training=False)
        assert loss2 == pytest.approx(2 * loss1, rel=1e-9)
        for name in ("W1", "b1", "W2", "b2"):
            np.testing.assert_allclose(grads2[name], 2 * np.asarray(grads1[name]),
                                       rtol=1e-8, atol=1e-12)

    @pytest.mark.parametrize("loss_kind", ["npair", "bce"])
    def test_uneven_negatives_rejected(self, loss_kind):
        g, X, params, enh, cfg, batch, added, head = \
            _gradcheck_instance(17, loss_kind)
        uneven = [MaskedBatch(batch.batch_pos, batch.residual_edges,
                              batch.negatives[:-1]),
                  MaskedBatch(batch.batch_pos[:0], batch.residual_edges,
                              batch.negatives)]
        for bad in uneven:
            for fn in (compute_gradients, forward_loss):
                with pytest.raises(ConfigError, match="split evenly"):
                    fn(g, X, params, enh, cfg, bad, added_pairs=added,
                       head=head)

    def test_gradients_with_dropout_match_fd(self):
        # counter-keyed masks are deterministic, so FD stays consistent
        g, X, params, enh, cfg, batch, added, _ = \
            _gradcheck_instance(15, "npair")
        cfg = TrainConfig(loss="npair", dropout=0.4, ac_t=cfg.ac_t,
                          hidden=cfg.hidden, epochs=1)
        loss, grads = compute_gradients(g, X, params, enh, cfg, batch,
                                        added_pairs=added, training=True)
        flat = flatten_params(params)
        analytic = flatten_params(
            MlpParams(grads["W1"], grads["b1"], grads["W2"], grads["b2"]))

        def f(vec):
            return forward_loss(g, X, unflatten_params(vec, X.r, cfg.hidden),
                                enh, cfg, batch, added_pairs=added,
                                training=True)

        idx = np.random.default_rng(0).choice(len(flat), 12, replace=False)
        for i in idx:
            up, down = flat.copy(), flat.copy()
            up[i] += 1e-5
            down[i] -= 1e-5
            fd = (f(up) - f(down)) / 2e-5
            denom = max(abs(fd), abs(analytic[i]), 1e-6)
            assert abs(fd - analytic[i]) / denom < 1e-4

    def test_compute_gradients_reproduces_a_train_step(self, monkeypatch):
        # with dropout, a pair's mask follows its row in the run's pair
        # set, so compute_gradients must rebuild train()'s set exactly
        import gelato.trainer as trainer_mod
        g, X = make_attribute_sbm(60, 0)
        split = split_edges(g, (0.8, 0.1, 0.1), seed=0)
        enh = EnhancerConfig()
        cfg = TrainConfig(batch_count=3, hidden=8, neg_cap=3, dropout=0.5)
        real, seen = trainer_mod._forward, {}

        class FirstStep(Exception):
            pass

        def first_step(*args):
            loss, tape = real(*args)
            seen.update(params=args[2], batch=args[5], loss=loss,
                        grads=tape.backward())
            raise FirstStep

        monkeypatch.setattr(trainer_mod, "_forward", first_step)
        with pytest.raises(FirstStep):
            train(g, X, split, enh, cfg)
        monkeypatch.undo()
        loss, grads = compute_gradients(g, X, seen["params"], enh, cfg,
                                        seen["batch"], training=True)
        assert loss == seen["loss"]
        for name in ("W1", "b1", "W2", "b2"):
            assert np.array_equal(grads[name], seen["grads"][name]), name

    def test_direct_mlp_path_fd(self):
        g, X, params, enh, cfg, batch, added, _ = \
            _gradcheck_instance(16, "npair")
        cfg = TrainConfig(loss="npair", dropout=0.0, hidden=cfg.hidden,
                          epochs=1, direct_mlp=True)
        assert _fd_check(g, X, params, enh, cfg, batch, added, None) < 1e-4


def _ring(n=300, seed=0, loops=True):
    """Weighted ring; with a loop on every node P fills 3 / n of n^2, so
    its batches take the sparse walk."""
    w = np.random.default_rng(seed).uniform(0.5, 2.0, n)
    g = build_graph([(i, (i + 1) % n, w[i]) for i in range(n)], n)
    return gelato.add_self_loops(g, "all") if loops else g


def _dense_graph(n=12, seed=0, loops=True):
    """Two thirds of all pairs: P fills more than half of n^2, so its
    batches take the dense walk."""
    g = random_graph(np.random.default_rng(seed), n, n * (n - 1) // 3,
                     weighted=True)
    return gelato.add_self_loops(g, "all") if loops else g


def _kernels(P, pairs, t):
    """Both walk kernels on the same input, whatever its density."""
    from gelato.trainer import _DenseWalk, _SparseWalk, _product
    Pt = sparse.identity(P.shape[0], format="csr")
    for _ in range(t):
        Pt = _product(Pt, P)
    return _SparseWalk(P, pairs, t, Pt), _DenseWalk(P, pairs, t)


def _walk_case(graph, seed=0, count=400):
    g = {"ring": _ring, "dense": _dense_graph}[graph](seed=seed)
    rng = np.random.default_rng(seed + 1)
    pairs = rng.integers(0, g.n, (count, 2))
    pairs[count // 2:] = pairs[:count - count // 2]  # repeated pairs sum
    return g, transition_matrix(g), pairs, rng.normal(size=count)


class TestWalkKernels:
    """The sparse and dense sides of the training walk (trainer._walk)."""

    def test_selection_follows_the_fill_of_P(self):
        from gelato.trainer import _DenseWalk, _SparseWalk, _walk
        for graph, side in (("ring", _SparseWalk), ("dense", _DenseWalk)):
            _, P, pairs, _ = _walk_case(graph)
            for t in (1, 2, 3, 4):
                assert type(_walk(P, pairs, t)) is side

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_sparse_gradient_reads_each_product_once(self, monkeypatch, t):
        # M_k for k < t - 2 once each, then (P^T)^(t-2) G once for both
        # its row and its column term
        from gelato import trainer
        _, P, pairs, gvals = _walk_case("ring")
        walk = trainer._walk(P, pairs, t)
        assert isinstance(walk, trainer._SparseWalk)
        lookup, calls = trainer._values_at, []

        def counted(*args, **kwargs):
            calls.append(args)
            return lookup(*args, **kwargs)

        monkeypatch.setattr(trainer, "_values_at", counted)
        walk.grad(gvals)
        assert len(calls) == t - 1

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 9), t=st.integers(0, 4))
    def test_sparse_gradient_follows_the_support_of_Pt(self, data, n, t):
        # a pair off the support of P^t has no t-step path, so it feeds
        # no arc's gradient: the walk equals one given only the pairs
        # on support, and G stores exactly their distinct codes
        from gelato import trainer
        node = st.integers(0, n - 1)
        edges = data.draw(st.sets(st.tuples(node, node).filter(
            lambda e: e[0] < e[1]), max_size=2 * n))
        weights = data.draw(st.lists(st.floats(0.1, 10.0), min_size=len(
            edges), max_size=len(edges)))
        g = gelato.add_self_loops(build_graph(
            [(u, v, w) for (u, v), w in zip(sorted(edges), weights)], n),
            "all")
        P = transition_matrix(g)
        pairs = np.array(data.draw(st.lists(st.tuples(node, node),
                                            min_size=1, max_size=30)))
        pairs = np.vstack([pairs, pairs[::2]])  # repeats sum
        gvals = np.array(data.draw(st.lists(
            st.floats(-1.0, 1.0), min_size=len(pairs), max_size=len(pairs))))
        pattern = (P.toarray() != 0).astype(float)
        for s in (t, 2):
            # on the support of P^s: some path of s steps
            on = np.linalg.matrix_power(pattern, s)[pairs[:, 0],
                                                    pairs[:, 1]] > 0
            with mock.patch.object(trainer, "_DENSE_FILL", 1.0):
                walk = trainer._walk(P, pairs, s)
                sub = trainer._walk(P, pairs[on], s)
            assert isinstance(walk, trainer._SparseWalk)
            assert walk.values.tobytes() == np.where(
                on, walk.values, 0.0).tobytes()
            assert walk.values[on].tobytes() == sub.values.tobytes()
            lookup, seen = trainer._values_at, []

            def spy(M, *args, **kwargs):
                seen.append(M)
                return lookup(M, *args, **kwargs)

            with mock.patch.object(trainer, "_values_at", spy):
                got = walk.grad(gvals)
            assert got.tobytes() == sub.grad(gvals[on]).tobytes()
            if s == 2:  # (P^T)^0 G is looked up once: G itself
                G = seen[0].tocoo()
                assert np.array_equal(np.sort(G.row * n + G.col), np.unique(
                    pairs[on, 0] * n + pairs[on, 1]))

    def test_an_underflowed_pair_gets_no_gradient(self):
        # the only 2-step path from 0 to 2 multiplies two entries of
        # 1e-200; the product underflows to 0, so P^2 stores no entry
        # there and the pair scores 0 and, off support, adds no gradient,
        # where the exact gradient would be 1e-200 at both arcs
        g = gelato.add_self_loops(build_graph(
            [(0, 1, 1e-200), (1, 2, 1e-200)], 3), "all")
        P = transition_matrix(g)
        sp, dn = _kernels(P, np.array([[0, 2]]), 2)
        assert sp.values[0] == 0.0 and dn.values[0] == 0.0
        assert not sp.grad(np.array([1.0])).any()
        arcs = {(0, 1): P[1, 2], (1, 2): P[0, 1]}
        got = dn.grad(np.array([1.0]))
        rows = np.repeat(np.arange(3), np.diff(P.indptr))
        for k, (i, j) in enumerate(zip(rows, P.indices)):
            assert got[k] == arcs.get((i, j), 0.0)

    @pytest.mark.parametrize("graph", ["ring", "dense"])
    @pytest.mark.parametrize("t", [0, 1, 2, 3, 4])
    def test_values_match_dense_oracle(self, graph, t):
        g, P, pairs, _ = _walk_case(graph)
        R = dense_autocovariance(g, t)
        u, v = pairs[:, 0], pairs[:, 1]
        d, vol = g.degrees, g.volume
        for walk in _kernels(P, pairs, t):
            got = d[u] / vol * walk.values - d[u] * d[v] / vol ** 2
            np.testing.assert_allclose(got, R[u, v], rtol=1e-12,
                                       atol=1e-12 * np.abs(R).max())

    @pytest.mark.parametrize("graph", ["ring", "dense"])
    @pytest.mark.parametrize("t", [0, 1, 2, 3, 4])
    def test_raw_scores_equal_autocovariance_pairs(self, graph, t):
        # training scores a pair as evaluation does, bit for bit
        g, P, pairs, _ = _walk_case(graph)
        want = pair_scores(gelato.AutocovarianceScorer(g, t).rows, pairs)
        for walk in _kernels(P, pairs, t):
            np.testing.assert_array_equal(autocovariance_from_walk(
                g, pairs[:, 0], pairs[:, 1], walk.values), want)

    @pytest.mark.parametrize("graph", ["ring", "dense"])
    @pytest.mark.parametrize("t", [0, 1, 2, 3, 4])
    def test_gradients_match_finite_differences(self, graph, t):
        # L(P) = sum_p g_p (P^t)[u_p, v_p] through dense matrix powers
        _, P, pairs, gvals = _walk_case(graph)

        def loss(data):
            M = sparse.csr_matrix((data, P.indices, P.indptr), shape=P.shape)
            Mt = np.linalg.matrix_power(M.toarray(), t)
            return float(gvals @ Mt[pairs[:, 0], pairs[:, 1]])

        arcs = np.random.default_rng(2).choice(P.nnz, 40, replace=False)
        fd = []
        for a in arcs:
            up, down = P.data.copy(), P.data.copy()
            up[a] += 1e-5
            down[a] -= 1e-5
            fd.append((loss(up) - loss(down)) / 2e-5)
        fd = np.asarray(fd)
        for walk in _kernels(P, pairs, t):
            np.testing.assert_allclose(walk.grad(gvals)[arcs], fd, rtol=1e-6,
                                       atol=1e-9 * max(np.abs(fd).max(), 1))

    @pytest.mark.parametrize("t", [0, 1, 2, 3, 4])
    def test_sparse_and_dense_kernels_agree(self, t):
        rng = np.random.default_rng(t)
        g = random_graph(rng, 150, 300, weighted=True)
        g = gelato.add_self_loops(g, "all")
        P = transition_matrix(g)
        pairs = rng.integers(0, g.n, (2000, 2))
        gvals = rng.normal(size=len(pairs))
        sp, dn = _kernels(P, pairs, t)
        for a, b in ((sp.values, dn.values), (sp.grad(gvals), dn.grad(gvals))):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    @pytest.mark.parametrize("graph,t", [("ring", t) for t in range(5)]
                             + [("dense", t) for t in range(1, 5)])
    def test_training_gradients_match_finite_differences(self, graph, t):
        from gelato.enhancer import AugmentedPairs
        from gelato.trainer import _DenseWalk, _SparseWalk, _forward
        rng = np.random.default_rng(30 + t)
        g = {"ring": _ring, "dense": _dense_graph}[graph](seed=t, loops=False)
        X = random_attributes(rng, g.n, 3, nonneg=True)
        enh = EnhancerConfig(eta=0.2, alpha=0.4, beta=0.8,
                             self_loop_mode="all")
        added, _ = select_augmentation_pairs(X, g, enh.eta)
        pairs = g.edge_pairs()[rng.permutation(g.num_edges)]
        k = 8 if graph == "dense" else 20
        edges = {tuple(p) for p in pairs.tolist()}
        negs = []
        while len(negs) < 3 * k:
            u, v = sorted(rng.integers(0, g.n, 2).tolist())
            if u != v and (u, v) not in edges:
                negs.append((u, v))
        batch = MaskedBatch(batch_pos=pairs[:k], residual_edges=pairs[k:],
                            negatives=np.asarray(negs))
        params = init_mlp_params(X.r, 4, seed=t)
        for loss_kind, head in (("npair", None),
                                ("bce", np.array([0.8, -0.1]))):
            cfg = TrainConfig(loss=loss_kind, dropout=0.0, ac_t=t, hidden=4,
                              epochs=1)
            aug = AugmentedPairs(g, X, batch.residual_edges, added)
            _, tape = _forward(g, X, params, enh, cfg, batch, aug, 1, head,
                               False)
            side = _SparseWalk if graph == "ring" else _DenseWalk
            assert type(tape.walk) is side
            assert _fd_check(g, X, params, enh, cfg, batch, added, head) < 1e-4


def _identity_walk_hits(P, sources, t, first=0):
    """heuristics._walk_hits walking t steps from identity rows: the
    oracle of the bits of its start from P's rows, sliced to the columns
    from `first` on."""
    X = np.zeros((len(sources), P.shape[0]))
    X[np.arange(len(sources)), sources] = 1.0
    for _ in range(t):
        X = X @ P
    return X[:, first:]


def _identity_dense_grad(walk, g):
    """_DenseWalk.grad multiplying out identity rows: the oracle of the
    bits of its start from G's columns and P's rows."""
    P, t = walk.P, walk.t
    n = P.shape[0]
    out = np.zeros(P.nnz)
    if t == 0:
        return out
    G = sparse.csr_matrix((g, (walk.pairs[:, 0], walk.pairs[:, 1])),
                          shape=(n, n))
    PT = P.T.tocsr()
    rows = np.repeat(np.arange(n), np.diff(P.indptr))
    by_col = np.lexsort((rows, P.indices))
    col_start = np.r_[0, np.cumsum(np.bincount(P.indices, minlength=n))]
    for lo in range(0, n, _DENSE_ROWS):
        hi = min(n, lo + _DENSE_ROWS)
        W = np.zeros((hi - lo, n))
        W[np.arange(hi - lo), np.arange(lo, hi)] = 1.0
        acc = G @ W.T
        for _ in range(t - 1):
            W = W @ P
            acc = PT @ acc + G @ W.T
        arcs = by_col[col_start[lo]:col_start[hi]]
        out[arcs] = acc[rows[arcs], P.indices[arcs] - lo]
    return out


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


class TestDenseWalkStart:
    """The dense walk starts from P's rows and G's columns, with the bits
    of the identity-row products it skips."""

    @pytest.mark.parametrize("loops", ["all", "isolated-only"])
    @pytest.mark.parametrize("t", [0, 1, 2, 3, 4])
    def test_bits_equal_the_identity_start(self, loops, t):
        from gelato.heuristics import _walk_hits
        from gelato.trainer import _DenseWalk
        rng = np.random.default_rng(40 + t)
        # 300 nodes: two column blocks of 256
        g = random_graph(rng, 300, 700, weighted=True,
                         ensure_positive_degree=False)
        isolated = g.degrees == 0.0
        g = gelato.add_self_loops(g, loops)
        P = transition_matrix(g)
        loop_rows = np.flatnonzero(P[np.arange(g.n), np.arange(g.n)])
        want = np.arange(g.n) if loops == "all" else np.flatnonzero(isolated)
        assert len(want) and np.array_equal(loop_rows, want)
        # unsorted sources, each repeated; pairs repeated so G sums them
        sources = rng.integers(0, g.n, 400)
        sources[200:] = sources[:200][::-1]
        assert (sources >= 256).any() and (sources < 256).any()
        np.testing.assert_array_equal(
            _bits(_walk_hits(P, sources, t)),
            _bits(_identity_walk_hits(P, sources, t)))
        pairs = np.column_stack([sources, rng.integers(0, g.n, 400)])
        pairs[300:] = pairs[:100]
        gvals = rng.normal(size=len(pairs))
        walk = _DenseWalk(P, pairs, t)
        want_values = pair_scores(lambda blk: _identity_walk_hits(P, blk, t),
                                  pairs, _DENSE_ROWS)
        np.testing.assert_array_equal(_bits(walk.values), _bits(want_values))
        np.testing.assert_array_equal(_bits(walk.grad(gvals)),
                                      _bits(_identity_dense_grad(walk, gvals)))


def _sbm_setup(seed=0, n=60):
    g, X = make_attribute_sbm(n, seed, p_in=0.3, p_out=0.02)
    split = split_edges(g, (0.7, 0.15, 0.15), seed=seed)
    enh = EnhancerConfig(eta=0.0, alpha=0.0, beta=1.0, self_loop_mode="all")
    return g, X, split, enh


class TestTrainLoop:
    def test_history_bookkeeping(self):
        g, X, split, enh = _sbm_setup(0)
        cfg = TrainConfig(epochs=2, batch_count=3, seed=1, dropout=0.0,
                          ac_t=2, hidden=8, neg_cap=5)
        params, history = train(g, X, split, enh, cfg)
        assert [rec.epoch for rec in history] == [1, 2]
        for rec in history:
            assert np.isfinite(rec.loss)
            assert rec.skipped == 0
            assert 0.0 <= rec.valid_prec <= 1.0
        assert isinstance(params, MlpParams)

    def test_loss_decreases_on_separable_sbm(self):
        # net decrease over the first 10 epochs at the default rate
        g, X, split, enh = _sbm_setup(1, n=80)
        cfg = TrainConfig(epochs=10, batch_count=3, seed=2, lr=0.001,
                          dropout=0.0, ac_t=2, hidden=16, neg_cap=20)
        _, history = train(g, X, split, enh, cfg)
        assert history[-1].loss < history[0].loss

    def test_deterministic_histories(self):
        g, X, split, enh = _sbm_setup(2)
        cfg = TrainConfig(epochs=3, batch_count=3, seed=5, dropout=0.5,
                          ac_t=2, hidden=8, neg_cap=5)
        p1, h1 = train(g, X, split, enh, cfg)
        p2, h2 = train(g, X, split, enh, cfg)
        assert h1 == h2
        np.testing.assert_array_equal(p1.W1, p2.W1)
        np.testing.assert_array_equal(p1.W2, p2.W2)

    def test_one_dropout_draw_per_epoch(self):
        # the epoch's batches gather their masks from one draw over the
        # pair set; validation draws none
        from gelato import enhancer
        g, X, split, enh = _sbm_setup(2)
        cfg = TrainConfig(epochs=3, batch_count=4, seed=5, dropout=0.5,
                          ac_t=2, hidden=8, neg_cap=5)
        with mock.patch.object(enhancer, "dropout_masks",
                               wraps=enhancer.dropout_masks) as draw:
            train(g, X, split, enh, cfg)
        assert draw.call_count == cfg.epochs

    @pytest.mark.parametrize("loss,regime", [("npair", "unbiased"),
                                             ("bce", "biased")])
    def test_training_equals_the_identity_walk_and_batch_draws(
            self, loss, regime):
        # the walk from identity rows, per-batch masks compared as
        # doubles: trained parameters and histories bit for bit
        from gelato import enhancer, heuristics, trainer
        from gelato.rng import counter_words
        g, X, split, enh = _sbm_setup(4)
        cfg = TrainConfig(loss=loss, regime=regime, epochs=2, batch_count=3,
                          seed=3, dropout=0.5, ac_t=3, hidden=8, neg_cap=5)
        got = train(g, X, split, enh, cfg)

        def float_masks(hidden, ids, rate, key):
            ids = np.asarray(ids, dtype=np.int64).reshape(-1)
            counters = ids[:, None] * hidden + np.arange(hidden)
            u = counter_words(key, counters.ravel()) * 2.0 ** -53
            return u.reshape(len(ids), hidden) >= rate

        with mock.patch.object(trainer, "_walk_hits", _identity_walk_hits), \
                mock.patch.object(heuristics, "_walk_hits",
                                  _identity_walk_hits), \
                mock.patch.object(trainer._DenseWalk, "grad",
                                  _identity_dense_grad), \
                mock.patch.object(
                    enhancer.AugmentedPairs, "dropout_masks",
                    lambda self, hidden, ids, rate, key: float_masks(
                        hidden, ids, rate, key)):
            want = train(g, X, split, enh, cfg)
        assert got[1] == want[1]
        np.testing.assert_array_equal(_bits(flatten_params(got[0])),
                                      _bits(flatten_params(want[0])))

    def test_no_trainable_parameters_rejected(self):
        g, X, split, _ = _sbm_setup(3)
        cfg = TrainConfig(epochs=1, batch_count=3, hidden=8)
        with pytest.raises(ConfigError, match="trainable"):
            train(g, X, split, EnhancerConfig(alpha=1.0, beta=0.5), cfg)
        with pytest.raises(ConfigError, match="trainable"):
            train(g, X, split, EnhancerConfig(alpha=0.5, beta=0.0), cfg)

    def test_empty_validation_selects_the_lowest_loss(self):
        g, X, split, enh = _sbm_setup(6)
        split = gelato.EdgeSplit(
            n=split.n,
            train_pos=np.vstack([split.train_pos, split.valid_pos]),
            valid_pos=np.empty((0, 2), np.int64), test_pos=split.test_pos,
            seed=split.seed, ratios=split.ratios)
        cfg = TrainConfig(epochs=6, batch_count=3, seed=1, lr=0.05,
                          dropout=0.5, ac_t=2, hidden=8, neg_cap=5)
        params, history = train(g, X, split, enh, cfg)
        assert all(np.isnan(rec.valid_prec) for rec in history)
        losses = [rec.loss for rec in history]
        best = losses.index(min(losses)) + 1  # the first lowest epoch
        assert best < cfg.epochs  # so the last epoch is not the pick
        again, _ = train(g, X, split, enh, replace(cfg, epochs=best))
        for name in ("W1", "b1", "W2", "b2"):
            np.testing.assert_array_equal(getattr(params, name),
                                          getattr(again, name))

    def test_epochs_zero_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)

    def test_invalid_gradient_batches_skipped(self, monkeypatch):
        import gelato.trainer as trainer_mod
        g, X, split, enh = _sbm_setup(4)
        cfg = TrainConfig(epochs=2, batch_count=3, seed=1, dropout=0.0,
                          ac_t=1, hidden=8, neg_cap=3)
        real = trainer_mod.Tape.backward
        state = {"calls": 0}

        def poisoned(tape):
            grads = real(tape)
            state["calls"] += 1
            if state["calls"] % 2 == 1:  # every other batch goes bad
                grads["W1"] = grads["W1"] + np.nan
            return grads

        monkeypatch.setattr(trainer_mod.Tape, "backward", poisoned)
        _, history = train(g, X, split, enh, cfg)
        assert [rec.skipped for rec in history] == [2, 1]
        assert all(np.isfinite(rec.loss) for rec in history)

    def test_grads_finite_detects_poison(self):
        assert grads_finite(1.0, {"W1": np.zeros(3), "b2": 0.5})
        assert not grads_finite(np.nan, {"W1": np.zeros(3)})
        assert not grads_finite(1.0, {"W1": np.array([1.0, np.inf])})
        assert not grads_finite(1.0, {"b2": float("nan")})

    def test_biased_regime_runs(self):
        g, X, split, enh = _sbm_setup(5)
        cfg = TrainConfig(loss="npair", regime="biased", epochs=2,
                          batch_count=3, seed=3, dropout=0.0, ac_t=2,
                          hidden=8)
        _, history = train(g, X, split, enh, cfg)
        assert len(history) == 2

    def test_bce_regime_runs(self):
        g, X, split, enh = _sbm_setup(6)
        cfg = TrainConfig(loss="bce", regime="unbiased", epochs=2,
                          batch_count=3, seed=3, dropout=0.0, ac_t=2,
                          hidden=8, neg_cap=5)
        _, history = train(g, X, split, enh, cfg)
        assert len(history) == 2

    def test_direct_mlp_training_runs(self):
        g, X, split, enh = _sbm_setup(7)
        cfg = TrainConfig(epochs=2, batch_count=3, seed=4, dropout=0.0,
                          hidden=8, neg_cap=5, direct_mlp=True)
        _, history = train(g, X, split, enh, cfg)
        assert len(history) == 2

    def test_best_epoch_selection(self):
        g, X, split, enh = _sbm_setup(8)
        cfg = TrainConfig(epochs=4, batch_count=3, seed=6, dropout=0.0,
                          ac_t=2, hidden=8, neg_cap=10)
        params, history = train(g, X, split, enh, cfg)
        best = max(history, key=lambda rec: rec.valid_prec)
        # the returned parameters reproduce the best epoch's validation score
        from gelato.enhancer import AugmentedPairs
        from gelato.trainer import _validation_prec
        aug = AugmentedPairs(g, X, split.train_pos,
                             np.empty((0, 2), dtype=np.int64))
        got = _validation_prec(g, X, split, enh, cfg, params, aug)
        assert got == pytest.approx(best.valid_prec)

    def test_validation_counts_the_whole_pool(self):
        # a validation pool of over a million pairs is still counted
        # exactly: the recorded prec@100% is the one `rank_summary` gives
        from gelato.enhancer import AugmentedPairs, assemble_enhanced
        from gelato.evaluator import precision_at_k, rank_summary
        from gelato.scorers import AutocovarianceScorer
        from gelato.splits import negative_pool_size, train_graph
        g, X = make_attribute_sbm(1700, 0, p_in=0.02, p_out=0.0005)
        split = split_edges(g, (0.85, 0.05, 0.10), seed=0)
        assert negative_pool_size(g, split, "valid") > 1_000_000
        enh = EnhancerConfig(eta=0.5, alpha=0.5, beta=0.5,
                             self_loop_mode="all")
        cfg = TrainConfig(epochs=1, batch_count=3, seed=1, dropout=0.0,
                          hidden=4, neg_cap=3)
        params, history = train(g, X, split, enh, cfg)
        added = select_augmentation_pairs(X, train_graph(g, split),
                                          enh.eta)[0]
        aug = AugmentedPairs(g, X, split.train_pos, added)
        eg = assemble_enhanced(aug, aug.ids(split.train_pos), params, enh)
        rs = rank_summary(AutocovarianceScorer(eg.graph, cfg.ac_t), g, split,
                          "valid")
        assert history[0].valid_prec == precision_at_k(rs, 1.0)


def test_benchmark_layer_hooks_resolve():
    """perfbench/spans.py wraps trainer, heuristics and evaluator attributes
    by name; each must still exist and take the arguments the hooks read.
    A subprocess keeps the patched modules away from the other tests."""
    import json
    import os
    import subprocess
    import sys
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    code = """
import json, sys
sys.path[:0] = sys.argv[1:]
import gelato, gelato.evaluator, gelato.heuristics, gelato.trainer, spans
from conftest import make_attribute_sbm
tracer, notes = spans.Tracer(), []
spans.install(tracer, {"trainer": gelato.trainer,
                       "heuristics": gelato.heuristics,
                       "evaluator": gelato.evaluator}, notes)
g, X = make_attribute_sbm(30, seed=0, p_in=0.4, p_out=0.05)
split = gelato.split_edges(g, (0.7, 0.1, 0.2), 0)
with tracer.span(spans.TRAIN_PHASE):
    gelato.train(g, X, split, gelato.EnhancerConfig(eta=0.2, alpha=0.5),
                 gelato.TrainConfig(epochs=1, batch_count=3, hidden=4,
                                    neg_cap=3))
# a scorer's walk is counted too: scorers reach heuristics._walk_hits
# through the module, where the hook replaced it
scorer = gelato.AutocovarianceScorer(gelato.add_self_loops(g, "all"), 3)
with tracer.span(spans.TRAIN_PHASE):
    before = tracer.counters["heuristics.walk_rows"]
    scorer.rows([0, 5, 9, 5])
    scorer_rows = tracer.counters["heuristics.walk_rows"] - before
print(json.dumps({"notes": notes, "counters": tracer.counters,
                  "layers": sorted(tracer.layer_totals()[0]),
                  "scorer_rows": scorer_rows}))
"""
    done = subprocess.run(
        [sys.executable, "-c", code, os.path.join(root, "src"),
         os.path.join(root, "perfbench"), here],
        capture_output=True, text=True, check=True)
    out = json.loads(done.stdout)
    assert out["notes"] == []
    assert out["counters"]["trainer.batches"] == 3
    assert out["counters"]["heuristics.walk_rows"] > 0
    assert out["scorer_rows"] == 4
    assert out["counters"]["enhancer.active_pairs"] > 0
    assert {"trainer.ac_backward", "trainer.mlp_backward", "trainer.adam",
            "trainer.validation", "enhancer.augment",
            "splits.sample_negatives"} <= set(out["layers"])


def test_a_non_finite_adam_step_is_refused():
    # the first step at lr 1e308 overflows to inf; the error names the
    # step instead of returning the parameters it left
    g, X = make_attribute_sbm(40, seed=0)
    split = split_edges(g, (0.7, 0.1, 0.2), 0)
    with pytest.raises(NumericError, match="epoch 1, batch 1: the Adam step"):
        train(g, X, split, EnhancerConfig(), TrainConfig(epochs=2, lr=1e308))
