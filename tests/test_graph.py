import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gelato
from gelato import (AttributeMatrix, AutocovarianceScorer, add_self_loops,
                    build_graph, cosine_pairs)
from gelato.errors import DataError

from conftest import random_graph


class TestBuildGraph:
    def test_path_graph_degrees_and_volume(self):
        g = build_graph([(0, 1), (1, 2)], 3)
        assert g.degrees.tolist() == [1.0, 2.0, 1.0]
        assert g.volume == 4.0
        assert g.num_arcs == 4

    def test_empty_graph(self):
        g = build_graph([], 5)
        assert g.volume == 0.0
        assert g.degrees.tolist() == [0.0] * 5
        assert g.num_edges == 0

    def test_cora_scale_counts(self):
        # same shape as the standard citation benchmark: 2708 nodes,
        # 5278 undirected edges -> 10556 arcs, average degree ~3.90
        rng = np.random.default_rng(0)
        g = random_graph(rng, 2708, 5278, ensure_positive_degree=False)
        assert g.num_edges == 5278
        assert g.num_arcs == 10556
        assert abs(g.degrees.mean() - 3.90) < 0.01

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            build_graph([(0, 1), (0, 1)], 3)

    def test_reversed_duplicate_rejected_undirected(self):
        with pytest.raises(DataError, match="duplicate"):
            build_graph([(0, 1), (1, 0)], 3)

    def test_id_out_of_range(self):
        with pytest.raises(DataError, match="out of range"):
            build_graph([(0, 3)], 3)

    def test_fractional_id_rejected(self):
        # within a relative tolerance of the integer id, but not equal to it
        with pytest.raises(DataError, match="integers"):
            build_graph(np.array([[1000000.5, 1.0]]), 2_000_000)

    def test_negative_weight_rejected(self):
        with pytest.raises(DataError, match="nonnegative"):
            build_graph([(0, 1, -0.5)], 3)

    @pytest.mark.parametrize("call, match", [
        (lambda: AttributeMatrix(np.ones(3)), "2-dimensional"),
        (lambda: build_graph([(0, 1)], 3, undirected=False), "directed"),
        (lambda: build_graph([(0, 1, 1.0, 1.0)], 3), r"\(u, v, w\)"),
    ], ids=["1-d-attributes", "directed", "four-column-edges"])
    def test_malformed_input_rejected(self, call, match):
        with pytest.raises(DataError, match=match):
            call()

    def test_nonfinite_weight_rejected(self):
        with pytest.raises(DataError, match="finite"):
            build_graph([(0, 1, np.inf)], 3)

    def test_volume_matches_degree_sum_weighted(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = random_graph(rng, 15, 25, weighted=True)
            assert abs(g.volume - g.degrees.sum()) <= 1e-12 * max(g.volume, 1)

    def test_undirected_symmetry(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng, 12, 20, weighted=True)
        A = g.adjacency().toarray()
        np.testing.assert_array_equal(A, A.T)

    def test_edge_pairs_round_trip(self):
        edges = [(0, 1, 0.5), (1, 2, 2.0), (0, 3, 1.0)]
        g = build_graph(edges, 4)
        pairs, w = g.edge_pairs(return_weights=True)
        got = sorted((int(u), int(v), float(x)) for (u, v), x in zip(pairs, w))
        assert got == sorted(edges)

    def test_pair_weights_lookup(self):
        g = build_graph([(0, 1, 0.5), (2, 3, 1.5)], 4)
        w = g.pair_weights(np.array([[0, 1], [2, 3], [0, 2]]))
        assert w.tolist() == [0.5, 1.5, 0.0]

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 9), data=st.data())
    def test_pair_weights_match_the_edge_list(self, n, data):
        # self-loops, zero weights and the empty graph included
        pairs = data.draw(st.lists(st.sampled_from(
            [(u, v) for u in range(n) for v in range(u, n)]), unique=True))
        weights = data.draw(st.lists(
            st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1e300),
            min_size=len(pairs), max_size=len(pairs)))
        g = build_graph([(u, v, w) for (u, v), w in zip(pairs, weights)], n)
        listed = dict(zip(pairs, weights))
        canonical = [(u, v) for u in range(n) for v in range(u + 1, n)]
        got = g.pair_weights(np.array(canonical, dtype=np.int64))
        assert got.tolist() == [listed.get(p, 0.0) for p in canonical]

    def test_immutability(self):
        g = build_graph([(0, 1)], 2)
        with pytest.raises(ValueError):
            g.data[0] = 5.0


class TestCosine:
    def test_identical_rows(self):
        X = AttributeMatrix([[1.0, 2.0], [1.0, 2.0]])
        assert cosine_pairs(X, [(0, 1)])[0] == pytest.approx(1.0)

    def test_orthogonal(self):
        X = AttributeMatrix([[1.0, 0.0], [0.0, 1.0]])
        assert cosine_pairs(X, [(0, 1)])[0] == pytest.approx(0.0)

    def test_half_overlap(self):
        X = AttributeMatrix([[1.0, 1.0], [1.0, 0.0]])
        assert cosine_pairs(X, [(0, 1)])[0] == pytest.approx(
            1.0 / np.sqrt(2.0), abs=1e-12)

    def test_zero_row_convention(self):
        X = AttributeMatrix([[0.0, 0.0], [1.0, 1.0]])
        assert cosine_pairs(X, [(0, 1)])[0] == 0.0
        assert cosine_pairs(X, [(0, 0)])[0] == 0.0

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(3)
        X = AttributeMatrix(rng.normal(size=(10, 4)))
        for _ in range(30):
            u, v = rng.integers(0, 10, 2)
            s_uv = cosine_pairs(X, [(u, v)])[0]
            s_vu = cosine_pairs(X, [(v, u)])[0]
            assert s_uv == s_vu
            assert -1.0 - 1e-12 <= s_uv <= 1.0 + 1e-12

    def test_vectorized_matches_scalar(self):
        # bit for bit whatever the number of pairs per call, where a dot
        # product and an einsum disagree in the last bit on sparse rows
        rng = np.random.default_rng(4)
        sparse_rows = rng.random((500, 64)) * (rng.random((500, 64)) < 0.1)
        for X, pairs in (
                (AttributeMatrix(rng.normal(size=(8, 3))),
                 np.array([[0, 1], [2, 5], [7, 3]])),
                (AttributeMatrix(sparse_rows),
                 rng.integers(0, 500, (5000, 2)))):
            vec = cosine_pairs(X, pairs)
            scal = np.concatenate([cosine_pairs(X, [p]) for p in pairs])
            assert vec.tobytes() == scal.tobytes()

    def test_nonfinite_attributes_rejected(self):
        with pytest.raises(DataError):
            AttributeMatrix([[np.nan, 1.0]])


class TestSelfLoops:
    def test_isolated_only_no_isolated_is_identity(self):
        g = build_graph([(0, 1), (1, 2)], 3)
        g2 = add_self_loops(g, "isolated-only", 1.0)
        assert g2.num_arcs == g.num_arcs

    def test_isolated_only_adds_to_empty(self):
        g = build_graph([], 3)
        g2 = add_self_loops(g, "isolated-only", 1.0)
        assert g2.degrees.tolist() == [1.0, 1.0, 1.0]

    def test_all_on_triangle(self):
        g = build_graph([(0, 1), (1, 2), (0, 2)], 3)
        g2 = add_self_loops(g, "all", 1.0)
        assert g2.degrees.tolist() == [3.0, 3.0, 3.0]
        assert g2.volume == 9.0

    def test_existing_loop_keeps_its_weight(self):
        g = build_graph([(0, 0, 2.5), (0, 1, 1.0)], 3)
        for mode in ("all", "isolated-only"):
            A = add_self_loops(g, mode, 0.5).adjacency().toarray()
            want = [2.5, 0.5 if mode == "all" else 0.0, 0.5]
            assert A.diagonal().tolist() == want

    def test_isolated_only_counts_weighted_degree(self):
        # nodes 2 and 3 are joined by an edge of weight 0: each gets a loop
        g = build_graph([(0, 1, 1.0), (2, 3, 0.0)], 4)
        g2 = add_self_loops(g, "isolated-only", 0.5)
        assert g2.adjacency().diagonal().tolist() == [0.0, 0.0, 0.5, 0.5]
        assert g2.num_arcs == 6 and g2.degrees.tolist() == [1, 1, .5, .5]

    def test_zero_weight_loop_counts_as_none(self):
        # node 0's only entry is a loop of weight 0: it takes the loop
        # weight in place, and its Autocovariance rows are defined
        g = build_graph([(0, 0, 0.0), (1, 2, 1.0)], 3)
        for mode in ("all", "isolated-only"):
            g2 = add_self_loops(g, mode, 0.5)
            assert g2.indices[g2.indptr[0]:g2.indptr[1]].tolist() == [0]
            assert g2.degrees[0] == 0.5
            rows = AutocovarianceScorer(g2, 3).rows([0, 1])
            assert np.isfinite(rows).all()
        # beside a weighted edge the loop of weight 0 stays as it is
        g = build_graph([(0, 0, 0.0), (0, 1, 1.0)], 2)
        A = add_self_loops(g, "isolated-only").adjacency()
        assert A.nnz == 3 and A[0, 0] == 0.0

    def test_positive_degree_postcondition(self):
        rng = np.random.default_rng(5)
        for mode in ("all", "isolated-only"):
            g = build_graph([(0, 1)], 6)
            g2 = add_self_loops(g, mode, 0.5)
            assert (g2.degrees > 0).all()

    def test_bad_weight(self):
        g = build_graph([(0, 1)], 2)
        with pytest.raises(DataError):
            add_self_loops(g, "all", 0.0)

    def test_bad_mode(self):
        g = build_graph([(0, 1)], 2)
        with pytest.raises(DataError):
            add_self_loops(g, "everything", 1.0)
