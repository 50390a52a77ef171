import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit

import gelato
from gelato import (AcParams, AttributeMatrix, EnhancerConfig, MlpParams,
                    autocovariance_rows, build_enhanced_graph, build_graph,
                    init_mlp_params, load_params, mlp_edge_weight,
                    save_params, select_augmentation_pairs)
from gelato.enhancer import (AugmentedPairs, assemble_enhanced,
                             dropout_masks, flatten_params, pair_features)
from gelato.errors import ConfigError
from gelato.trainer import TrainConfig, compute_gradients

from conftest import gradcheck_instance, random_attributes, random_graph


class TestAugmentation:
    def test_eta_zero_is_empty(self):
        g = build_graph([(0, 1), (1, 2)], 4)
        X = random_attributes(np.random.default_rng(0), 4, 3)
        pairs, threshold = select_augmentation_pairs(X, g, 0.0)
        assert len(pairs) == 0
        assert threshold == np.inf

    def test_ceil_rule(self):
        g = build_graph([(0, 1), (1, 2), (2, 3), (3, 4)], 6)
        X = random_attributes(np.random.default_rng(1), 6, 3)
        pairs, _ = select_augmentation_pairs(X, g, 0.5)  # ceil(0.5 * 4) = 2
        assert len(pairs) == 2

    def test_identical_attributes_tie_break(self):
        g = build_graph([(0, 1)], 4)
        X = AttributeMatrix(np.ones((4, 2)))
        pairs, threshold = select_augmentation_pairs(X, g, 2.0)
        assert threshold == pytest.approx(1.0)
        got = [tuple(p) for p in pairs.tolist()]
        # lexicographically smallest non-edges win the all-tied contest
        assert got == [(0, 2), (0, 3)]

    def test_pairs_are_non_edges(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng, 12, 20, ensure_positive_degree=False)
        X = random_attributes(rng, 12, 4)
        pairs, threshold = select_augmentation_pairs(X, g, 1.0)
        edges = {tuple(e) for e in g.edge_pairs().tolist()}
        sims = gelato.cosine_pairs(X, pairs)
        for (u, v), s in zip(pairs.tolist(), sims):
            assert (u, v) not in edges
            assert u < v
            assert s >= threshold - 1e-12

    def test_threshold_is_min_selected(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 10, 12, ensure_positive_degree=False)
        X = random_attributes(rng, 10, 4)
        pairs, threshold = select_augmentation_pairs(X, g, 0.5)
        sims = gelato.cosine_pairs(X, pairs)
        assert threshold == pytest.approx(sims.min(), abs=1e-15)

    def test_blockwise_matches_single_block(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, 25, 40, ensure_positive_degree=False)
        X = random_attributes(rng, 25, 5)
        a, ta = select_augmentation_pairs(X, g, 0.75, block_size=3)
        b, tb = select_augmentation_pairs(X, g, 0.75, block_size=1000)
        np.testing.assert_array_equal(a, b)
        assert ta == tb

    def test_count_exceeds_non_edges(self):
        g = build_graph([(0, 1)], 3)
        X = random_attributes(np.random.default_rng(5), 3, 2)
        with pytest.raises(ConfigError):
            select_augmentation_pairs(X, g, 10.0)


class TestMlpEdgeWeight:
    def test_symmetric_in_pair(self):
        rng = np.random.default_rng(6)
        X = random_attributes(rng, 8, 5)
        params = init_mlp_params(5, hidden=7, seed=1)
        for _ in range(10):
            u, v = rng.integers(0, 8, 2)
            w_uv = mlp_edge_weight(params, X, (u, v))
            w_vu = mlp_edge_weight(params, X, (v, u))
            assert w_uv == w_vu  # bit-identical

    def test_zero_params_give_half(self):
        X = AttributeMatrix(np.zeros((3, 4)))
        params = MlpParams(np.zeros((6, 8)), np.zeros(6), np.zeros(6), 0.0)
        assert mlp_edge_weight(params, X, (0, 1)) == 0.5

    def test_matches_straight_line_reimplementation(self):
        rng = np.random.default_rng(7)
        X = random_attributes(rng, 6, 3)
        params = init_mlp_params(3, hidden=4, seed=9)
        u, v = 1, 4
        xu, xv = X.values[u], X.values[v]
        z = np.concatenate([xu + xv, np.abs(xu - xv)])
        h = np.maximum(params.W1 @ z + params.b1, 0.0)
        expected = float(expit(params.W2 @ h + params.b2))
        assert mlp_edge_weight(params, X, (u, v)) == pytest.approx(
            expected, abs=1e-15)

    def test_output_in_open_unit_interval(self):
        rng = np.random.default_rng(8)
        X = random_attributes(rng, 10, 4)
        params = init_mlp_params(4, hidden=8, seed=0)
        pairs = np.column_stack([rng.integers(0, 10, 50),
                                 rng.integers(0, 10, 50)])
        from gelato.enhancer import mlp_forward
        w = mlp_forward(params, pair_features(X, pairs))
        assert (w > 0).all() and (w < 1).all()

    def test_param_count_independent_of_graph(self):
        params = init_mlp_params(10, hidden=16, seed=0)
        assert params.count == 2 * 10 * 16 + 16 + 16 + 1

    def test_dropout_mask_keyed_by_pair_id(self):
        m1 = dropout_masks(8, np.array([3, 5]), 0.5, key=42)
        m2 = dropout_masks(8, np.array([5, 3]), 0.5, key=42)
        np.testing.assert_array_equal(m1[0], m2[1])
        np.testing.assert_array_equal(m1[1], m2[0])
        m3 = dropout_masks(8, np.array([3, 5]), 0.5, key=43)
        assert not np.array_equal(m1, m3)


class TestEnhancedGraph:
    def _setup(self, seed=0, n=10, m=15, r=4):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n, m, weighted=True,
                         ensure_positive_degree=False)
        X = random_attributes(rng, n, r, nonneg=True)
        params = init_mlp_params(r, hidden=6, seed=seed)
        return g, X, params

    def test_alpha_one_reproduces_input_weights(self):
        g, X, params = self._setup()
        cfg = EnhancerConfig(eta=0.5, alpha=1.0, beta=0.5,
                             self_loop_mode="isolated-only")
        eg = build_enhanced_graph(g, X, params, cfg)
        # added pairs get weight 0 and are dropped; original weights kept
        base = g.adjacency().toarray()
        got = eg.graph.adjacency().toarray()
        iso = g.degrees == 0
        np.testing.assert_allclose(got[~iso][:, ~iso], base[~iso][:, ~iso],
                                   atol=1e-15)

    def test_alpha_one_autocovariance_matches_raw(self):
        g, X, params = self._setup(seed=1)
        g = gelato.add_self_loops(g, "isolated-only")
        cfg = EnhancerConfig(eta=0.0, alpha=1.0, beta=0.5,
                             self_loop_mode="isolated-only")
        eg = build_enhanced_graph(g, X, params, cfg)
        t = AcParams(3)
        R1 = autocovariance_rows(g, np.arange(g.n), t)
        R2 = autocovariance_rows(eg.graph, np.arange(g.n), t)
        np.testing.assert_allclose(R1, R2, atol=1e-15)

    def test_alpha_zero_beta_one_pure_mlp(self):
        g, X, params = self._setup(seed=2)
        cfg = EnhancerConfig(eta=0.0, alpha=0.0, beta=1.0,
                             self_loop_mode="isolated-only")
        eg = build_enhanced_graph(g, X, params, cfg)
        for i, (u, v) in enumerate(eg.pairs.tolist()):
            assert eg.pair_weights[i] == pytest.approx(
                mlp_edge_weight(params, X, (u, v)), abs=1e-15)

    def test_combination_arithmetic(self):
        # alpha=0.5, beta=0.5, A=1, w=0.6, s=0.8 -> 0.85
        combined = 0.5 * 1.0 + 0.5 * (0.5 * 0.6 + 0.5 * 0.8)
        assert combined == pytest.approx(0.85)

    def test_nonnegative_weights_after_clamp(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 12, 18, ensure_positive_degree=False)
        X = random_attributes(rng, 12, 4)  # signed attrs: cosine can be < 0
        params = init_mlp_params(4, hidden=5, seed=3)
        cfg = EnhancerConfig(eta=0.3, alpha=0.2, beta=0.1,
                             self_loop_mode="all")
        eg = build_enhanced_graph(g, X, params, cfg)
        assert (eg.pair_weights >= 0).all()
        assert (eg.graph.data > 0).all()
        assert (eg.graph.degrees > 0).all()

    def test_self_loop_modes(self):
        g, X, params = self._setup(seed=4, n=8, m=6)
        for mode in ("all", "isolated-only"):
            cfg = EnhancerConfig(eta=0.0, alpha=0.0, beta=1.0,
                                 self_loop_mode=mode)
            eg = build_enhanced_graph(g, X, params, cfg)
            assert (eg.graph.degrees > 0).all()
            if mode == "all":
                diag = eg.graph.adjacency().diagonal()
                assert (diag > 0).all()

    def test_evaluation_mode_deterministic(self):
        g, X, params = self._setup(seed=5)
        cfg = EnhancerConfig(eta=0.25, alpha=0.3, beta=0.7,
                             self_loop_mode="all")
        a = build_enhanced_graph(g, X, params, cfg, training=False)
        b = build_enhanced_graph(g, X, params, cfg, training=False)
        np.testing.assert_array_equal(a.pair_weights, b.pair_weights)

    def test_training_mode_is_refused(self):
        g, X, params = self._setup(seed=5)
        with pytest.raises(ConfigError, match="trainer"):
            build_enhanced_graph(g, X, params, EnhancerConfig(),
                                 training=True)

    def test_checkpoint_round_trip(self, tmp_path):
        params = init_mlp_params(7, hidden=11, seed=6)
        path = tmp_path / "params.gpar"
        save_params(path, params)
        loaded = load_params(path)
        np.testing.assert_array_equal(loaded.W1, params.W1)
        np.testing.assert_array_equal(loaded.b1, params.b1)
        np.testing.assert_array_equal(loaded.W2, params.W2)
        assert loaded.b2 == params.b2

    def test_checkpoint_bytes_are_the_flat_layout(self, tmp_path):
        params = init_mlp_params(5, hidden=3, seed=2)
        path = tmp_path / "params.gpar"
        save_params(path, params)
        assert path.read_bytes() == (
            b"GPAR" + struct.pack("<QQ", 5, 3)
            + flatten_params(params).astype("<f8").tobytes())

    def test_checkpoint_bad_magic(self, tmp_path):
        path = tmp_path / "bad.gpar"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(gelato.DataError):
            load_params(path)

    def test_checkpoint_non_finite_values(self, tmp_path):
        params = init_mlp_params(3, hidden=4, seed=0)
        params.W1[1, 2] = np.inf
        path = tmp_path / "inf.gpar"
        save_params(path, params)
        with pytest.raises(gelato.DataError, match="non-finite"):
            load_params(path)


def _assert_same_enhanced(a, b):
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(a.graph, name),
                                      getattr(b.graph, name))
    for name in ("pairs", "pair_weights", "active", "arc_positions"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


class TestAugmentedPairs:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(6, 30),
           eta=st.sampled_from([0.0, 0.3, 1.0]),
           alpha=st.sampled_from([0.0, 0.5]),
           beta=st.sampled_from([0.25, 1.0]),
           loops=st.sampled_from(["all", "isolated-only"]))
    def test_batch_graph_equals_one_from_its_own_pair_set(
            self, seed, n, eta, alpha, beta, loops):
        # a run's training edges, a batch's residual among them, and an
        # augmentation that may hold held-out edges of g
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n, n, weighted=True,
                         ensure_positive_degree=False)
        pairs = g.edge_pairs()
        train = pairs[rng.random(len(pairs)) < 0.8]
        residual = train[rng.random(len(train)) < 0.7]
        X = random_attributes(rng, n, 3)
        g_train = build_graph(
            np.column_stack([train, g.pair_weights(train)]), n)
        added, _ = select_augmentation_pairs(X, g_train, eta)
        params = init_mlp_params(3, hidden=5, seed=seed % 97)
        cfg = EnhancerConfig(eta=eta, alpha=alpha, beta=beta,
                             self_loop_mode=loops)
        run = AugmentedPairs(g, X, train, added)
        own = AugmentedPairs(g, X, residual, added)
        _assert_same_enhanced(
            assemble_enhanced(run, run.ids(residual), params, cfg),
            assemble_enhanced(own, own.ids(residual), params, cfg))

    def test_rows_weights_and_dropout_keys(self):
        # (0, 1) is an edge of g but held out of the run: as an added pair
        # it weighs 0
        g = build_graph([(0, 1, 2.0), (1, 2, 0.5), (2, 3, 1.5), (0, 3, 3.0)],
                        5)
        X = random_attributes(np.random.default_rng(0), 5, 3)
        train, added = np.array([[2, 3], [1, 2], [0, 3]]), np.array([[0, 1]])
        aug = AugmentedPairs(g, X, train, added)
        np.testing.assert_array_equal(aug.pairs, [[0, 1], [0, 3], [1, 2],
                                                  [2, 3]])
        np.testing.assert_array_equal(aug.weights, [0.0, 3.0, 0.5, 1.5])
        np.testing.assert_array_equal(aug.ids(train), [3, 2, 1, 0])
        np.testing.assert_array_equal(aug.ids(train[1:]), [2, 1, 0])
        # a pair's dropout mask follows its row, whatever the batch
        params = init_mlp_params(3, hidden=16, seed=0)
        cfg = EnhancerConfig(alpha=0.0, beta=1.0)
        masks = [assemble_enhanced(aug, aug.ids(base), params, cfg,
                                   dropout_rate=0.5, dropout_key=7,
                                   keep_cache=True).mlp_cache["keep_mask"]
                 for base in (train, train[1:])]
        np.testing.assert_array_equal(masks[0][1:], masks[1])
        with pytest.raises(ConfigError, match="not in the frozen"):
            aug.ids([[0, 2]])
        with pytest.raises(ConfigError, match="repeats"):
            AugmentedPairs(g, X, train, [[1, 2]])

    def test_encoding_fallback_equals_the_cache(self, monkeypatch):
        g, X, params, enh, _, batch, added, _ = gradcheck_instance(21, "npair")
        cfg = TrainConfig(loss="npair", dropout=0.4, ac_t=2,
                          hidden=params.hidden, epochs=1)
        base = batch.residual_edges

        def outputs():
            aug = AugmentedPairs(g, X, base, added)
            egs = [assemble_enhanced(aug, aug.ids(base), params, enh,
                                     dropout_rate=rate, dropout_key=3,
                                     keep_cache=True) for rate in (0.0, 0.4)]
            return aug, egs, compute_gradients(g, X, params, enh, cfg, batch,
                                               added_pairs=added,
                                               training=True)

        cached, cached_egs, (loss, grads) = outputs()
        monkeypatch.setattr(gelato.enhancer, "_Z_CACHE_BYTES", 0)
        fallback, fallback_egs, (loss2, grads2) = outputs()
        assert cached.Z is not None and fallback.Z is None
        for a, b in zip(cached_egs, fallback_egs):
            _assert_same_enhanced(a, b)
            np.testing.assert_array_equal(a.mlp_cache["Z"], b.mlp_cache["Z"])
            np.testing.assert_array_equal(a.mlp_cache["w"], b.mlp_cache["w"])
        assert loss == loss2
        for name in grads:
            np.testing.assert_array_equal(grads[name], grads2[name])
