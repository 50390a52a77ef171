import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import expit

import gelato
from gelato import (AttributeMatrix, AutocovarianceScorer, EnhancerConfig,
                    MlpParams, build_enhanced_graph, build_graph,
                    init_mlp_params, load_params, mlp_edge_weight,
                    save_params, select_augmentation_pairs)
from gelato.enhancer import (AugmentedPairs, assemble_enhanced,
                             dropout_masks, flatten_params, pair_features)
from gelato.errors import ConfigError
from gelato.rng import Stream

from conftest import random_attributes, random_graph

# dropout rates next to the ends of [0, 1) and two in the middle
_RATES = [2.0 ** -53, 0.1, 0.5, 1.0 - 2.0 ** -53]


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

    @pytest.mark.parametrize("pair", [(-1, 0), (0, -1), (4, 0), (0, 4)])
    def test_node_ids_outside_the_matrix_rejected(self, pair):
        # -1 would wrap to node 3 and 4 escape as a raw IndexError
        X = random_attributes(np.random.default_rng(9), 4, 3)
        params = init_mlp_params(3, hidden=4, seed=0)
        with pytest.raises(gelato.DataError, match=r"\[0, 4\)"):
            mlp_edge_weight(params, X, pair)

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

    @settings(max_examples=60, deadline=None)
    @given(key=st.integers(0, 2 ** 64 - 1), hidden=st.integers(1, 9),
           ids=st.lists(st.integers(0, 999), max_size=30),
           rate=st.sampled_from(_RATES) | st.floats(0.0, 1.0,
                                                    exclude_max=True))
    def test_dropout_mask_keeps_the_uniforms_at_or_above_rate(
            self, key, hidden, ids, rate):
        # the documented uniform: position c of the stream `key`
        ids = np.asarray(ids, dtype=np.int64)
        counters = ids[:, None] * hidden + np.arange(hidden)
        u = Stream(key).uniforms(1000 * hidden)[counters]
        np.testing.assert_array_equal(
            dropout_masks(hidden, ids, rate, key), u >= rate)

    @settings(max_examples=60, deadline=None)
    @given(rate=st.sampled_from(_RATES) | st.floats(0.0, 1.0,
                                                    exclude_max=True))
    def test_dropout_threshold_is_exact_at_its_boundary(self, rate):
        # words next to ceil(rate * 2**53), against the double comparison
        edge = int(np.ceil(rate * 2.0 ** 53))
        words = np.array([0, edge - 1, edge, edge + 1, 2 ** 53 - 1])
        words = np.clip(words, 0, 2 ** 53 - 1).astype(np.uint64)
        with mock.patch("gelato.enhancer.counter_words",
                        lambda key, counters: words):
            mask = dropout_masks(1, np.arange(len(words)), rate, 0)
        want = words.astype(np.float64) * 2.0 ** -53 >= rate
        np.testing.assert_array_equal(mask[:, 0], want)

    @pytest.mark.parametrize("rate", [1.0, 1.5, -0.5, float("nan")])
    def test_dropout_rate_outside_unit_interval_refused(self, rate):
        # 1.0 divided by zero (NaN weights); 1.5 dropped every unit and
        # -0.5 rescaled every one, without an error
        with pytest.raises(ConfigError, match=r"dropout rate .* \[0, 1\)"):
            dropout_masks(4, np.arange(3), rate, key=0)
        g = build_graph([(0, 1), (1, 2), (2, 3)], 4)
        X = random_attributes(np.random.default_rng(0), 4, 3)
        aug = AugmentedPairs(g, X, g.edge_pairs(), [[0, 2]])
        with pytest.raises(ConfigError, match=r"dropout rate .* \[0, 1\)"):
            assemble_enhanced(aug, aug.ids(g.edge_pairs()),
                              init_mlp_params(3, 4, 0),
                              EnhancerConfig(alpha=0.0, beta=1.0),
                              dropout_rate=rate, dropout_key=7)

    def test_pair_set_draws_each_mask_once(self):
        # rows gathered from one draw over the set equal a draw of the
        # rows themselves; the draw is kept until the key changes
        g = build_graph([(0, 1), (1, 2), (2, 3), (0, 3)], 5)
        X = random_attributes(np.random.default_rng(0), 5, 3)
        aug = AugmentedPairs(g, X, g.edge_pairs(), [[0, 2], [1, 4]])
        ids = np.array([4, 0, 2, 2])
        with mock.patch("gelato.enhancer.dropout_masks",
                        wraps=dropout_masks) as draw:
            for key in (7, 7, 8, 8):
                np.testing.assert_array_equal(
                    aug.dropout_masks(16, ids, 0.5, key),
                    dropout_masks(16, ids, 0.5, key))
        assert draw.call_count == 2


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
        R1 = AutocovarianceScorer(g, 3).rows(np.arange(g.n))
        R2 = AutocovarianceScorer(eg.graph, 3).rows(np.arange(g.n))
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

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(6, 30),
           r=st.integers(1, 5), rate=st.sampled_from([0.0, 0.5]))
    def test_graph_encodes_its_rows(self, seed, n, r, rate):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n, n, weighted=True,
                         ensure_positive_degree=False)
        base = g.edge_pairs()
        base = base[rng.random(len(base)) < 0.8]
        X = random_attributes(rng, n, r)
        added, _ = select_augmentation_pairs(
            X, build_graph(np.column_stack([base, g.pair_weights(base)]), n),
            0.5)
        aug = AugmentedPairs(g, X, base, added)
        ids = aug.ids(base)
        eg = assemble_enhanced(aug, ids, init_mlp_params(r, 4, seed % 97),
                               EnhancerConfig(alpha=0.5, beta=0.5),
                               dropout_rate=rate, dropout_key=seed,
                               keep_cache=True)
        want = pair_features(X, aug.pairs[ids])
        assert eg.mlp_cache["Z"].tobytes() == want.tobytes()


class TestPairFeatures:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8), r=st.integers(1, 6))
    def test_equals_the_stacked_sum_and_distance(self, data, n, r):
        # any finite values, subnormals and -0.0 included; pairs with
        # u == v, repeats, either order, or none at all
        values = data.draw(arrays(np.float64, (n, r), elements=st.floats(
            -1e300, 1e300, allow_nan=False)))
        pairs = np.array(data.draw(st.lists(st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12)),
            dtype=np.int64).reshape(-1, 2)
        X = AttributeMatrix(values)
        before = X.values.tobytes()
        xu, xv = values[pairs[:, 0]], values[pairs[:, 1]]
        want = np.hstack([xu + xv, np.abs(xu - xv)])
        got = pair_features(X, pairs)
        assert got.dtype == want.dtype and got.shape == (len(pairs), 2 * r)
        assert got.tobytes() == want.tobytes()
        assert X.values.tobytes() == before

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_node_ids_outside_the_matrix_rejected(self, bad):
        X = AttributeMatrix(np.arange(10.0).reshape(5, 2))
        pairs = np.array([[0, 1], [2, bad], [3, 4]])
        with pytest.raises(gelato.DataError, match=r"\[0, 5\)"):
            pair_features(X, pairs)
        with pytest.raises(gelato.DataError):
            pair_features(X, pairs[:, ::-1])
