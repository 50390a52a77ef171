import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gelato import (AutocovarianceScorer, LocalHeuristicScorer,
                    add_self_loops, build_graph, heuristics)
from gelato.evaluator import pair_scores
from gelato.heuristics import _walk_hits
from gelato.scorers import autocovariance_from_walk
from gelato.errors import ConfigError, NumericError

from conftest import dense_autocovariance, random_graph


def _local_reference(kind, g, u, v):
    """CN/AA/RA of one pair, from the graph's arcs alone: a common
    neighbour z of u and v adds 1, 1/ln(d_z) or 1/d_z, d_z counting z's
    neighbours other than z itself, whatever the arcs' weights."""
    nbrs = [set(g.indices[g.indptr[x]:g.indptr[x + 1]].tolist()) - {x}
            for x in range(g.n)]
    weight = {"CN": lambda d: 1.0, "AA": lambda d: 1.0 / np.log(d),
              "RA": lambda d: 1.0 / d}[kind]
    return sum(weight(len(nbrs[z])) for z in sorted(nbrs[u] & nbrs[v]))


class TestLocalHeuristics:
    def setup_method(self):
        # path a-b-c plus a spur to vary degrees
        self.g = build_graph([(0, 1), (1, 2)], 3)

    def _score(self, kind, g, u, v):
        return LocalHeuristicScorer(kind, g).rows([u])[0, v]

    def test_common_neighbors_on_path(self):
        assert self._score("CN", self.g, 0, 2) == 1.0

    def test_adamic_adar_on_path(self):
        assert self._score("AA", self.g, 0, 2) == pytest.approx(
            1.0 / np.log(2.0), abs=1e-12)

    def test_resource_allocation_on_path(self):
        assert self._score("RA", self.g, 0, 2) == pytest.approx(0.5)

    def test_disconnected_no_common_neighbor(self):
        g = build_graph([(0, 1), (2, 3)], 4)
        for kind in ("CN", "AA", "RA"):
            assert self._score(kind, g, 0, 3) == 0.0

    def test_rows_match_pairwise(self):
        rng = np.random.default_rng(0)
        plain = random_graph(rng, 15, 30, ensure_positive_degree=False)
        # arc weights and loops leave the reference's degrees as they are
        looped = add_self_loops(random_graph(rng, 15, 30, weighted=True),
                                "all")
        for g in (plain, looped):
            rows = {k: LocalHeuristicScorer(k, g).rows(np.arange(15))
                    for k in ("CN", "AA", "RA")}
            for _ in range(40):
                u, v = rng.integers(0, 15, 2)
                if u == v:
                    continue
                for kind in ("CN", "AA", "RA"):
                    assert rows[kind][u, v] == pytest.approx(
                        _local_reference(kind, g, u, v), abs=1e-12)

    def test_unknown_kind_is_refused(self):
        with pytest.raises(ConfigError, match="unknown heuristic kind"):
            LocalHeuristicScorer("JC", self.g).rows([0])

    def test_weighted_graph_uses_unweighted_structure(self):
        g1 = build_graph([(0, 1, 5.0), (1, 2, 0.25)], 3)
        g2 = build_graph([(0, 1), (1, 2)], 3)
        for kind in ("CN", "AA", "RA"):
            assert (LocalHeuristicScorer(kind, g1).rows(np.arange(3))
                    .tobytes() == LocalHeuristicScorer(kind, g2)
                    .rows(np.arange(3)).tobytes())


class TestAutocovariance:
    def test_triangle_t1(self):
        g = build_graph([(0, 1), (1, 2), (0, 2)], 3)
        R = AutocovarianceScorer(g, 1).rows([0, 1, 2])
        for u in range(3):
            for v in range(3):
                expected = -1.0 / 9.0 if u == v else 1.0 / 18.0
                assert R[u, v] == pytest.approx(expected, abs=1e-12)

    def test_triangle_t0(self):
        g = build_graph([(0, 1), (1, 2), (0, 2)], 3)
        R = AutocovarianceScorer(g, 0).rows([0, 1, 2])
        for u in range(3):
            for v in range(3):
                expected = 2.0 / 9.0 if u == v else -1.0 / 9.0
                assert R[u, v] == pytest.approx(expected, abs=1e-12)

    def test_total_mass_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            g = random_graph(rng, 20, 35, weighted=True)
            for t in (0, 1, 3):
                R = AutocovarianceScorer(g, t).rows(np.arange(20))
                assert abs(R.sum()) < 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng, 15, 30, weighted=True)
        R = AutocovarianceScorer(g, 3).rows(np.arange(15))
        assert np.abs(R - R.T).max() < 1e-10

    def test_dense_oracle_equivalence(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            n = int(rng.integers(5, 50))
            g = random_graph(rng, n, int(rng.integers(n, 3 * n)),
                             weighted=bool(trial % 2))
            t = int(rng.integers(0, 6))
            R = AutocovarianceScorer(g, t).rows(np.arange(n))
            R_ref = dense_autocovariance(g, t)
            assert np.abs(R - R_ref).max() < 1e-10

    def test_zero_degree_rejected(self):
        g = build_graph([(0, 1)], 3)  # node 2 isolated
        with pytest.raises(NumericError, match="zero degree"):
            AutocovarianceScorer(g, 1).rows([0])

    def test_negative_walk_length_rejected(self):
        g = build_graph([(0, 1), (1, 2), (0, 2)], 3)
        with pytest.raises(ConfigError, match="walk length"):
            AutocovarianceScorer(g, -1)

    def test_pairs_empty(self):
        g = build_graph([(0, 1), (1, 2), (0, 2)], 3)
        out = pair_scores(AutocovarianceScorer(g, 2).rows,
                          np.empty((0, 2), int))
        assert out.shape == (0,)

    def test_pairs_share_source_rows(self):
        g = build_graph([(0, 1), (1, 2), (0, 2), (2, 3)], 4)
        scorer = AutocovarianceScorer(g, 2)
        pairs = np.array([[1, 0], [1, 2], [1, 3]])
        scores = pair_scores(scorer.rows, pairs)
        rows = scorer.rows([1])[0]
        np.testing.assert_array_equal(scores, rows[[0, 2, 3]])

    def test_pairs_match_dense_oracle(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, 40, 80, weighted=True)
        R_ref = dense_autocovariance(g, 3)
        pairs = []
        while len(pairs) < 50:
            u, v = rng.integers(0, 40, 2)
            if u != v:
                pairs.append((u, v))
        pairs = np.asarray(pairs)
        scores = pair_scores(AutocovarianceScorer(g, 3).rows, pairs)
        ref = R_ref[pairs[:, 0], pairs[:, 1]]
        assert np.abs(scores - ref).max() < 1e-10

    def test_blocked_equals_single_block(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 30, 60, weighted=True)
        pairs = np.column_stack([rng.integers(0, 30, 40),
                                 rng.integers(0, 30, 40)])
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        rows = AutocovarianceScorer(g, 2).rows
        small = pair_scores(rows, pairs, block_size=4)
        big = pair_scores(rows, pairs, block_size=4096)
        np.testing.assert_array_equal(small, big)


def _dense_walk_rows(scorer, sources):
    """The scorer's rows from the dense walk, whichever kernel its rows()
    would take."""
    T = _walk_hits(scorer._P, sources, scorer.t)
    return autocovariance_from_walk(scorer.graph, sources[:, None],
                                    np.arange(scorer.graph.n), T)


def test_autocovariance_from_walk_broadcasts_and_keeps_the_walk():
    # a (sources[:, None], columns) block holds the bits of the same pairs
    # flattened, and T is not written: the training backward reads the
    # walk after the forward
    g = random_graph(np.random.default_rng(3), 40, 60, weighted=True)
    sources, columns = np.array([3, 0, 39, 17, 17, 8]), np.arange(5, g.n)
    T = _walk_hits(AutocovarianceScorer(g)._P, sources, 3, 5)
    walk = T.copy()
    block = autocovariance_from_walk(g, sources[:, None], columns, T)
    flat = autocovariance_from_walk(g, np.repeat(sources, len(columns)),
                                    np.tile(columns, len(sources)), T.ravel())
    assert block.shape == T.shape
    assert block.tobytes() == flat.tobytes()
    assert T.tobytes() == walk.tobytes()


class TestSupportRows:
    """Sparse rows equal the dense rows bit for bit where they store an
    entry, and the background gives the dense rows everywhere else."""

    @staticmethod
    def _check(sparse_rows, dense, background):
        rows = np.repeat(np.arange(dense.shape[0]),
                         np.diff(sparse_rows.indptr))
        assert (dense[rows, sparse_rows.indices].tobytes()
                == sparse_rows.data.tobytes())
        held = np.zeros(dense.shape, dtype=bool)
        held[rows, sparse_rows.indices] = True
        assert dense[~held].tobytes() == background[~held].tobytes()

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("t", [0, 1, 2, 3, 4])
    def test_autocovariance(self, weighted, t):
        g = random_graph(np.random.default_rng(t), 40, 60, weighted=weighted)
        sources = np.array([3, 0, 39, 17, 17, 8])
        scorer = AutocovarianceScorer(g, t)
        dense = _dense_walk_rows(scorer, sources)
        u = np.repeat(sources, g.n)
        v = np.tile(np.arange(g.n), len(sources))
        self._check(scorer.sparse_rows(sources), dense,
                    scorer.background(u, v).reshape(dense.shape))

    @pytest.mark.parametrize("kind", ["CN", "AA", "RA"])
    def test_local_heuristics(self, kind):
        g = random_graph(np.random.default_rng(1), 40, 60, weighted=True)
        sources = np.array([3, 0, 39, 17, 17, 8])
        scorer = LocalHeuristicScorer(kind, g)
        dense = scorer.rows(sources)
        self._check(scorer.sparse_rows(sources), dense,
                    np.zeros(dense.shape))

    def test_autocovariance_background_is_symmetric(self):
        g = random_graph(np.random.default_rng(2), 30, 50, weighted=True)
        u, v = np.triu_indices(g.n, 1)
        background = AutocovarianceScorer(g).background
        assert background(u, v).tobytes() == background(v, u).tobytes()


def _check_background_by_class(scorer, class_nodes, of_node):
    """background(u, v) equals that of the classes' own nodes bit for bit
    at every unordered pair, as the evaluator's count by classes needs;
    `of_node` maps each node to its class."""
    u, v = np.triu_indices(scorer.graph.n, 1)
    assert (scorer.background(u, v).tobytes() == scorer.background(
        class_nodes[of_node[u]], class_nodes[of_node[v]]).tobytes())


class TestBackgroundByClass:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 30), density=st.floats(0, 0.5),
           weighted=st.booleans(),
           loops=st.sampled_from(["all", "isolated-only"]),
           t=st.integers(0, 4), seed=st.integers(0, 2 ** 16))
    def test_autocovariance(self, n, density, weighted, loops, t, seed):
        g = random_graph(np.random.default_rng(seed), n,
                         int(density * n * (n - 1) / 2) + 1,
                         weighted=weighted, ensure_positive_degree=False)
        scorer = AutocovarianceScorer(add_self_loops(g, loops), t)
        # one class per distinct degree, also where classes() is None
        _, nodes, of_node = np.unique(scorer.graph.degrees,
                                      return_index=True, return_inverse=True)
        offered = scorer.classes()
        if offered is not None:
            assert offered[0].tolist() == nodes.tolist()
        _check_background_by_class(scorer, nodes, of_node)

    @pytest.mark.parametrize("kind", ["CN", "AA", "RA"])
    @pytest.mark.parametrize("seed", range(4))
    def test_local_heuristics(self, kind, seed):
        g = random_graph(np.random.default_rng(seed), 25, 40,
                         weighted=bool(seed % 2))
        scorer = LocalHeuristicScorer(kind, g)
        nodes, sizes = scorer.classes()
        assert sizes.tolist() == [g.n]
        _check_background_by_class(scorer, nodes,
                                   np.zeros(g.n, dtype=np.int64))


def _forced(scorer, fill):
    """The scorer with its fill estimate set: 0 takes rows built from
    sparse rows, 1 the dense walk."""
    scorer._fill = fill
    return scorer


class TestRowsKernels:
    """rows() built from sparse rows and from the dense walk: the same
    bits, whichever kernel the fill estimate picks."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([2, 7, 23, 60, 300]), density=st.floats(0, 0.3),
           weighted=st.booleans(), zero_share=st.sampled_from([0.0, 0.3]),
           loops=st.sampled_from(["all", "isolated-only"]),
           t=st.integers(0, 4), first_share=st.floats(0, 1, exclude_max=True),
           seed=st.integers(0, 2 ** 16))
    def test_kernels_give_the_same_bits(self, n, density, weighted,
                                        zero_share, loops, t, first_share,
                                        seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n, int(density * n * (n - 1) / 2) + 1,
                         weighted=weighted, ensure_positive_degree=False)
        pairs, w = g.edge_pairs(return_weights=True)
        w[rng.random(len(w)) < zero_share] = 0.0   # explicit zeros in P
        g = add_self_loops(build_graph(np.column_stack([pairs, w]), n),
                           loops)
        # unsorted, with repeats; more than 256 where n allows it
        sources = rng.integers(0, n, min(2 * n, 400))
        sparse_built = _forced(AutocovarianceScorer(g, t), 0.0).rows(sources)
        dense = _forced(AutocovarianceScorer(g, t), 1.0).rows(sources)
        assert sparse_built.tobytes() == dense.tobytes()
        assert dense.tobytes() == _dense_walk_rows(
            AutocovarianceScorer(g, t), sources).tobytes()
        assert (AutocovarianceScorer(g, t).rows(sources).tobytes()
                == dense.tobytes())
        # rows_from(sources, first) is rows(sources)[:, first:] in both
        # kernels, though it computes no column before `first`
        first = int(first_share * n)
        for fill in (0.0, 1.0):
            part = _forced(AutocovarianceScorer(g, t), fill).rows_from(
                sources, first)
            assert part.shape == (len(sources), n - first)
            assert part.tobytes() == dense[:, first:].tobytes()
        np.testing.assert_allclose(
            part, dense_autocovariance(g, t)[sources, first:], rtol=0,
            atol=1e-12)
        # so is sparse_rows(sources, first) to sparse_rows(sources)[:, first:],
        # for every scorer with sparse rows
        for scorer in [AutocovarianceScorer(g, t)] + [
                LocalHeuristicScorer(kind, g) for kind in ("CN", "AA", "RA")]:
            part = scorer.sparse_rows(sources, first)
            whole = scorer.sparse_rows(sources)[:, first:]
            part.sort_indices()
            whole.sort_indices()
            assert part.shape == whole.shape == (len(sources), n - first)
            assert part.indptr.tolist() == whole.indptr.tolist()
            assert part.indices.tolist() == whole.indices.tolist()
            assert part.data.tobytes() == whole.data.tobytes()

    def test_a_sum_scipy_drops_reads_the_background(self):
        # the only walk 0 -> 1 -> 2 crosses an arc of weight 0, so the
        # product's entry (0, 2) sums to exactly 0 and is not stored
        g = add_self_loops(build_graph([(0, 1, 0.0), (1, 2, 1.0)], 3), "all")
        scorer = AutocovarianceScorer(g, 2)
        S = scorer.sparse_rows(np.array([0]))
        assert 2 not in S.indices.tolist()
        sources = np.array([0, 2, 0, 1])
        assert (_forced(AutocovarianceScorer(g, 2), 0.0).rows(sources)
                .tobytes() == _dense_walk_rows(scorer, sources).tobytes())


def _support_scores(scorer, u, v):
    """The scores of the pairs (u, v) from sparse_rows() where the row of
    u stores v, else from background()."""
    uniq, row = np.unique(u, return_inverse=True)
    S = scorer.sparse_rows(uniq)
    held = np.zeros(S.shape, dtype=bool)
    held[np.repeat(np.arange(len(uniq)), np.diff(S.indptr)), S.indices] = True
    return np.where(held[row, v], S.toarray()[row, v],
                    scorer.background(u, v))


class TestScoresAtPairs:
    """scores(u, v) of Autocovariance and CN/AA/RA: rows(u)[v], and the
    sparse rows' entries or the background, bit for bit, whichever route
    heuristics._product_at takes."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([2, 7, 23, 60]), density=st.floats(0, 0.3),
           zero_share=st.sampled_from([0.0, 0.3]),
           loops=st.sampled_from(["all", "isolated-only"]),
           count=st.integers(0, 150), seed=st.integers(0, 2 ** 16))
    def test_scores_equal_rows(self, n, density, zero_share, loops, count,
                               seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n, int(density * n * (n - 1) / 2) + 1,
                         weighted=True, ensure_positive_degree=False)
        pairs, w = g.edge_pairs(return_weights=True)
        w[rng.random(len(w)) < zero_share] = 0.0   # explicit zeros in P
        g = add_self_loops(build_graph(np.column_stack([pairs, w]), n),
                           loops)
        # u > v, u == v and repeated pairs; few sources hold many pairs
        u = rng.integers(0, max(1, n // 4), count)
        v = np.where(rng.random(count) < 0.1, u, rng.integers(0, n, count))
        u, v = np.r_[u, v[:count // 4]], np.r_[v, u[:count // 4]]
        u, v = np.r_[u, u[:count // 4]], np.r_[v, v[:count // 4]]
        scorers = [_forced(AutocovarianceScorer(g, t), fill)
                   for t in range(5) for fill in (0.0, 1.0)]
        scorers += [LocalHeuristicScorer(kind, g)
                    for kind in ("CN", "AA", "RA")]
        for scorer in scorers:
            got = scorer.scores(u, v)
            assert got.dtype == np.float64 and got.shape == u.shape
            assert got.tobytes() == scorer.rows(u)[
                np.arange(len(u)), v].tobytes()
            assert got.tobytes() == _support_scores(scorer, u, v).tobytes()
            assert scorer.scores(np.zeros(0, dtype=np.int64),
                                 np.zeros(0, dtype=np.int64)).shape == (0,)

    @pytest.mark.parametrize("kind", ["AC", "RA"])
    def test_both_routes_of_the_count_rule(self, kind, monkeypatch):
        g = add_self_loops(random_graph(np.random.default_rng(5), 300, 600,
                                        weighted=True), "all")
        scorer = _forced(AutocovarianceScorer(g, 3), 0.0) if kind == "AC" \
            else LocalHeuristicScorer(kind, g)
        # the sampled route looks its terms up in W, the whole route its
        # pairs in the product
        Ws, looked_in = [], []
        product_at, values_at = heuristics._product_at, heuristics._values_at
        monkeypatch.setattr(heuristics, "_product_at",
                            lambda W, *a: Ws.append(W) or product_at(W, *a))
        monkeypatch.setattr(heuristics, "_values_at", lambda M, codes: (
            looked_in.append(M) or values_at(M, codes)))
        rng = np.random.default_rng(6)
        few = rng.integers(0, 300, 40), rng.integers(0, 300, 40)
        many = np.repeat([7, 250], 300), np.tile(np.arange(300), 2)
        for (u, v), route in ((few, "sampled"), (many, "whole")):
            Ws.clear()
            looked_in.clear()
            got = scorer.scores(u, v)
            assert [("sampled" if M is W else "whole")
                    for W, M in zip(Ws, looked_in)] == [route]
            assert got.tobytes() == scorer.rows(u)[
                np.arange(len(u)), v].tobytes()
