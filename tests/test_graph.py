import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gelato
from gelato import (AttributeMatrix, AutocovarianceScorer, add_self_loops,
                    build_graph, cosine_pairs)
from gelato.errors import DataError
from gelato.graph import _code_order

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


def _lexsort_pair_graph(n, u, v, w, loops=None):
    """`_pair_graph` with its arcs ordered by np.lexsort over (row, col):
    the reference whose arrays one argsort of the arc keys must give bit
    for bit."""
    two = u != v
    rows, cols, data = np.r_[u, v[two]], np.r_[v, u[two]], np.r_[w, w[two]]
    if loops is not None:
        add = (np.ones(n, dtype=bool) if loops[0] == "all"
               else np.bincount(rows, weights=data, minlength=n) == 0.0)
        add[u[~two & (w > 0.0)]] = False
        data[np.flatnonzero(~two & add[u])] = loops[1]
        add[u[~two]] = False
        nodes = np.flatnonzero(add)
        rows, cols = np.r_[rows, nodes], np.r_[cols, nodes]
        data = np.r_[data, np.full(len(nodes), float(loops[1]))]
    order = np.lexsort((cols, rows))
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    arcs = np.column_stack([position[:len(u)], position[:len(u)]])
    arcs[two, 1] = position[len(u):len(u) + two.sum()]
    indptr = np.r_[0, np.cumsum(np.bincount(rows, minlength=n))]
    return indptr, cols[order], data[order], arcs


class TestPairGraph:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 3000), data=st.data(),
           loops=st.sampled_from([None, ("all", 1.0),
                                  ("isolated-only", 0.5)]))
    def test_arcs_are_ordered_as_by_lexsort(self, n, data, loops):
        # distinct pairs in either orientation, loops and loops of weight
        # 0 among them; a few node ids so that pairs share rows
        ids = st.integers(0, n - 1) | st.integers(0, min(n, 6) - 1)
        pairs = data.draw(st.lists(st.tuples(ids, ids), max_size=40,
                                   unique_by=lambda p: (min(p), max(p))))
        w = np.array(data.draw(st.lists(
            st.sampled_from([0.0, 0.5, 1.0, 2.5]),
            min_size=len(pairs), max_size=len(pairs))), dtype=np.float64)
        u, v = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        g, arcs = gelato.graph._pair_graph(n, u, v, w, loops)
        want = _lexsort_pair_graph(n, u, v, w, loops)
        for got, ref in zip((g.indptr, g.indices, g.data, arcs), want):
            assert got.dtype == ref.dtype
            np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("edges", [
        [(0, 1), (2, 1), (1, 0)],                 # listed both ways
        [(2, 2), (0, 1), (2, 2)],                 # a repeated loop
        [(1, 1, 0.0), (1, 1, 2.0)],               # and with other weights
    ])
    def test_build_graph_refuses_a_repeat(self, edges):
        with pytest.raises(DataError, match="duplicate edges in input"):
            build_graph(edges, 3)


class TestCodeOrder:
    @staticmethod
    def _check(codes):
        codes = np.asarray(codes, dtype=np.int64)
        ranked, order = _code_order(codes)
        want = np.argsort(codes, kind="stable")
        np.testing.assert_array_equal(order, want)
        np.testing.assert_array_equal(ranked, codes[want])
        assert ranked.dtype == order.dtype == np.int64

    # repeats come from the 16 offsets; near 2**62 with 2 or more codes
    # the packed keys would overflow, so the stable argsort runs, as it
    # does for a negative code
    @settings(max_examples=200, deadline=None)
    @given(offsets=st.lists(st.integers(0, 15), max_size=40),
           base=st.sampled_from([0, 5000, 2 ** 62, 2 ** 63 - 16, -2 ** 62]))
    @example(offsets=[3, 1, 3, 0, 1, 3], base=0)
    @example(offsets=[1, 0, 1], base=2 ** 62)
    def test_is_the_stable_argsort(self, offsets, base):
        self._check(np.asarray(offsets, dtype=np.int64) + base)

    @pytest.mark.parametrize("k", [2, 3, 1000])
    def test_at_the_overflow_bound(self, k):
        # the largest code whose packed keys fit, then one more
        top = (2 ** 63 - k) // k
        for last in (top, top + 1):
            self._check(np.r_[np.arange(k - 1) % 7 + top - 6, last])
