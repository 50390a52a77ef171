import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import gelato
from gelato import (build_graph, negative_pool_size, positive_masking_batches,
                    rank_summary, read_split, sample_negatives, split_edges,
                    write_split)
from gelato import splits
from gelato.errors import ConfigError, DataError
from gelato.rng import Stream, derive
from gelato.splits import (PHASES, _NEG_TAG, excluded_codes, pair_codes,
                           train_graph)

from conftest import enumerate_pool, random_graph, reference_sample_negatives


def _codes(pairs, n):
    return set(pair_codes(np.asarray(pairs).reshape(-1, 2), n).tolist())


class TestSplitEdges:
    def test_floor_rule_small(self):
        # 21 edges: 1.05 valid and 2.1 test floor to 1 and 2
        g = random_graph(np.random.default_rng(0), 12, 21,
                         ensure_positive_degree=False)
        split = split_edges(g, (0.85, 0.05, 0.10), seed=0)
        assert (len(split.train_pos), len(split.valid_pos),
                len(split.test_pos)) == (18, 1, 2)

    @pytest.mark.parametrize("edges, ratios", [
        (8, (0.85, 0.05, 0.10)),     # a phase floors to 0: 8/0/0
        (10, (0.85, 0.05, 0.10)),    # 9/0/1
        (4, (0.6, 0.3, 0.1)),        # 3/1/0
    ])
    def test_empty_phase_is_data_error(self, edges, ratios):
        g = build_graph([(i, i + 1) for i in range(edges)], edges + 1)
        with pytest.raises(DataError, match="too small to split"):
            split_edges(g, ratios, seed=0)

    def test_exact_division(self):
        g = random_graph(np.random.default_rng(1), 40, 100,
                         ensure_positive_degree=False)
        split = split_edges(g, (0.85, 0.05, 0.10), seed=0)
        assert (len(split.train_pos), len(split.valid_pos),
                len(split.test_pos)) == (85, 5, 10)

    def test_benchmark_scale_sizes(self):
        # m = 5278 with the standard ratios floors to 263/527, rest 4488
        g = random_graph(np.random.default_rng(2), 2708, 5278,
                         ensure_positive_degree=False)
        split = split_edges(g, (0.85, 0.05, 0.10), seed=0)
        assert len(split.valid_pos) == 263
        assert len(split.test_pos) == 527
        assert len(split.train_pos) == 4488

    def test_partition_property(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            g = random_graph(rng, 20, 30, ensure_positive_degree=False)
            split = split_edges(g, seed=seed)
            all_edges = _codes(g.edge_pairs(), g.n)
            got = (_codes(split.train_pos, g.n) | _codes(split.valid_pos, g.n)
                   | _codes(split.test_pos, g.n))
            assert got == all_edges
            total = (len(split.train_pos) + len(split.valid_pos)
                     + len(split.test_pos))
            assert total == g.num_edges  # disjoint by counting

    def test_determinism(self):
        g = random_graph(np.random.default_rng(4), 25, 50,
                         ensure_positive_degree=False)
        s1 = split_edges(g, seed=7)
        s2 = split_edges(g, seed=7)
        np.testing.assert_array_equal(s1.train_pos, s2.train_pos)
        np.testing.assert_array_equal(s1.test_pos, s2.test_pos)
        s3 = split_edges(g, seed=8)
        assert not np.array_equal(s1.train_pos, s3.train_pos)

    def test_bad_ratios(self):
        g = random_graph(np.random.default_rng(5), 10, 12,
                         ensure_positive_degree=False)
        with pytest.raises(ConfigError):
            split_edges(g, (0.8, 0.05, 0.05))
        with pytest.raises(ConfigError):
            split_edges(g, (0.9, -0.05, 0.15))

    @pytest.mark.parametrize("ratios", [
        (np.nan, 0.2, 0.2), (np.nan, 0.5, 0.5), (0.6, np.nan, 0.2),
        (np.inf, 0.2, 0.2),
    ])
    def test_non_finite_ratios(self, ratios):
        g = random_graph(np.random.default_rng(5), 10, 12,
                         ensure_positive_degree=False)
        with pytest.raises(ConfigError):
            split_edges(g, ratios)

    def test_too_small(self):
        g = build_graph([(0, 1), (1, 2)], 3)
        with pytest.raises(DataError):
            split_edges(g)


class TestNegativePools:
    def _tiny_split(self):
        g = build_graph([(0, 1), (2, 3)], 4)
        split = gelato.EdgeSplit(
            n=4, train_pos=np.array([[0, 1]]), valid_pos=np.empty((0, 2), int),
            test_pos=np.array([[2, 3]]), seed=0, ratios=(0.5, 0.0, 0.5))
        return g, split

    def test_unknown_phase_is_refused(self):
        _, split = self._tiny_split()
        with pytest.raises(ConfigError, match="unknown phase"):
            split.positives("holdout")

    def test_counting_examples(self):
        g, split = self._tiny_split()
        assert negative_pool_size(g, split, "test") == 6 - 2
        assert negative_pool_size(g, split, "valid") == 4 + 1
        assert negative_pool_size(g, split, "train") == 4 + 1 + 0

    def test_benchmark_scale_pool(self):
        n, m = 2708, 5278
        g = random_graph(np.random.default_rng(6), n, m,
                         ensure_positive_degree=False)
        split = split_edges(g, seed=0)
        assert negative_pool_size(g, split, "test") == n * (n - 1) // 2 - m
        assert negative_pool_size(g, split, "test") == 3660000

    def test_pool_sizes_match_enumeration(self):
        rng = np.random.default_rng(7)
        g = random_graph(rng, 14, 20, ensure_positive_degree=False)
        split = split_edges(g, seed=1)
        for phase in ("train", "valid", "test"):
            assert negative_pool_size(g, split, phase) == \
                len(enumerate_pool(split, phase))

    def test_graph_the_split_does_not_describe_is_refused(self):
        # the pool comes from the split alone: an edge it does not list
        # would count as a negative, and a node count it does not cover
        # would leave pairs out
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
        g = build_graph(edges, 6)
        split = split_edges(g, (0.2, 0.4, 0.4), seed=0)
        scorer = gelato.LocalHeuristicScorer("cn", g)
        for ok in (g, gelato.add_self_loops(g, "all")):  # loops do not count
            assert negative_pool_size(ok, split, "test") == 15 - 5
            assert len(sample_negatives(ok, split, "test", 3, seed=0)) == 3
            assert rank_summary(scorer, ok, split, "test").total_negatives \
                == 10
            assert train_graph(ok, split).num_edges == len(split.train_pos)
        # as many edges, one of them swapped: (1, 3) would be drawn as a
        # negative
        swapped = build_graph(edges[:-1] + [(1, 3)], 6)
        for bad in (build_graph(edges + [(2, 5)], 6), build_graph(edges, 7),
                    swapped):
            for call in (lambda: negative_pool_size(bad, split, "test"),
                         lambda: sample_negatives(bad, split, "test", 3, 0),
                         lambda: rank_summary(scorer, bad, split, "test"),
                         lambda: train_graph(bad, split)):
                with pytest.raises(DataError, match="does not describe"):
                    call()

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(5, 20), density=st.floats(0.1, 0.8),
           graph_seed=st.integers(0, 2 ** 16),
           ratios=st.sampled_from([(0.6, 0.2, 0.2), (0.8, 0.1, 0.1),
                                   (0.4, 0.3, 0.3)]),
           split_seed=st.integers(0, 2 ** 16))
    def test_pools_match_enumeration_property(self, n, density, graph_seed,
                                              ratios, split_seed):
        g = random_graph(np.random.default_rng(graph_seed), n,
                         max(5, int(density * n * (n - 1) / 2)),
                         ensure_positive_degree=False)
        try:
            split = split_edges(g, ratios, seed=split_seed)
        except DataError:  # too few edges for a non-empty phase
            assume(False)
        every_pair = {u * n + v for u in range(n) for v in range(u + 1, n)}
        for i, phase in enumerate(PHASES):
            pool = enumerate_pool(split, phase)
            assert negative_pool_size(g, split, phase) == len(pool)
            excluded = excluded_codes(split, phase)
            earlier = np.concatenate([pair_codes(split.positives(p), n)
                                      for p in PHASES[:i + 1]])
            np.testing.assert_array_equal(excluded, np.sort(earlier))
            # and the pool is exactly every other pair
            assert set(excluded.tolist()) == \
                every_pair - set(pair_codes(pool, n).tolist())


class TestSampleNegatives:
    def test_empty_count(self):
        g = build_graph([(0, 1), (1, 2), (0, 2)], 3)
        split = split_edges(g, (0.2, 0.4, 0.4), seed=0)
        out = sample_negatives(g, split, "test", 0, seed=0)
        assert out.shape == (0, 2)

    def test_pool_exhausted_exact(self):
        g = build_graph([(0, 1), (2, 3)], 4)
        split = gelato.EdgeSplit(
            n=4, train_pos=np.array([[0, 1], [2, 3]]),
            valid_pos=np.empty((0, 2), int), test_pos=np.empty((0, 2), int),
            seed=0, ratios=(1.0,))
        out = sample_negatives(g, split, "train", 4, seed=3)
        got = {tuple(p) for p in out.tolist()}
        assert got == {(0, 2), (0, 3), (1, 2), (1, 3)}

    def test_count_exceeds_pool(self):
        g = build_graph([(0, 1), (1, 2), (2, 3)], 4)
        split = split_edges(g, (0.2, 0.4, 0.4), seed=0)
        with pytest.raises(ConfigError):
            sample_negatives(g, split, "test", 10 ** 6, seed=0)

    def test_negative_count_is_refused(self):
        g = build_graph([(0, 1), (1, 2), (2, 3)], 4)
        split = split_edges(g, (0.2, 0.4, 0.4), seed=0)
        with pytest.raises(ConfigError, match="-1 negatives"):
            sample_negatives(g, split, "test", -1, seed=0)

    def test_never_hits_excluded_positives(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            g = random_graph(rng, 18, 40, ensure_positive_degree=False)
            split = split_edges(g, (0.6, 0.2, 0.2), seed=trial)
            for phase in ("train", "valid", "test"):
                pool = enumerate_pool(split, phase)
                count = min(10, len(pool))
                out = sample_negatives(g, split, phase, count, seed=trial)
                pool_set = {tuple(p) for p in pool.tolist()}
                for p in out.tolist():
                    assert tuple(p) in pool_set

    def test_later_phase_positives_are_legal_train_negatives(self):
        # draw the full train pool: it must contain every valid/test positive
        g = random_graph(np.random.default_rng(9), 10, 12,
                         ensure_positive_degree=False)
        split = split_edges(g, (0.5, 0.25, 0.25), seed=2)
        pool = negative_pool_size(g, split, "train")
        out = sample_negatives(g, split, "train", pool, seed=0)
        got = _codes(out, g.n)
        assert _codes(split.valid_pos, g.n) <= got
        assert _codes(split.test_pos, g.n) <= got

    def test_deterministic_per_seed(self):
        g = random_graph(np.random.default_rng(10), 30, 60,
                         ensure_positive_degree=False)
        split = split_edges(g, seed=0)
        a = sample_negatives(g, split, "test", 25, seed=5)
        b = sample_negatives(g, split, "test", 25, seed=5)
        np.testing.assert_array_equal(a, b)
        c = sample_negatives(g, split, "test", 25, seed=6)
        assert not np.array_equal(a, c)

    def test_no_replacement(self):
        g = random_graph(np.random.default_rng(11), 16, 20,
                         ensure_positive_degree=False)
        split = split_edges(g, seed=0)
        out = sample_negatives(g, split, "test", 40, seed=1)
        codes = pair_codes(out, g.n)
        assert len(np.unique(codes)) == len(codes)

    @staticmethod
    def _one_at_a_time(split, phase, count, seed):
        """The sampler's draws taken one pair at a time: a pair is kept
        unless it is a self-pair, excluded, or already kept."""
        n = split.n
        excluded = set(excluded_codes(split, phase).tolist())
        stream = Stream(derive(seed, _NEG_TAG))
        kept, seen = [], set()
        while len(kept) < count:
            k = max(64, int((count - len(kept)) * 1.4) + 16)
            us, vs = stream.below(n, k).tolist(), stream.below(n, k).tolist()
            for u, v in zip(us, vs):
                u, v = min(u, v), max(u, v)
                code = u * n + v
                if (u != v and code not in excluded and code not in seen
                        and len(kept) < count):
                    seen.add(code)
                    kept.append((u, v))
        return kept

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 24), density=st.floats(0.1, 0.6),
           graph_seed=st.integers(0, 2 ** 16),
           phase=st.sampled_from(["train", "valid", "test"]),
           fraction=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 63 - 1))
    def test_properties(self, n, density, graph_seed, phase, fraction, seed):
        # at least 5 edges, so that no phase of the split is empty
        g = random_graph(np.random.default_rng(graph_seed), n,
                         max(5, int(density * n * (n - 1) / 2)),
                         ensure_positive_degree=False)
        split = split_edges(g, (0.6, 0.2, 0.2), seed=0)
        count = int(round(fraction * negative_pool_size(g, split, phase)))
        out = sample_negatives(g, split, phase, count, seed)
        codes = pair_codes(out, n).tolist()
        assert out.shape == (count, 2) and (out[:, 0] < out[:, 1]).all()
        assert len(set(codes)) == count
        assert not set(codes) & set(excluded_codes(split, phase).tolist())
        np.testing.assert_array_equal(
            out, sample_negatives(g, split, phase, count, seed))
        assert [tuple(p) for p in out.tolist()] == \
            self._one_at_a_time(split, phase, count, seed)


class TestSampleNegativesMatchesReference:
    """sample_negatives, whose rounds read the stream in chunks of
    _DRAW_CHUNK words, against the sequential reference, bit for bit."""

    @staticmethod
    def _check(g, split, phase, count, seed):
        np.testing.assert_array_equal(
            sample_negatives(g, split, phase, count, seed),
            reference_sample_negatives(split, phase, count, seed))

    # first rounds of 65535, 65537 and 131072 candidates: below, above
    # and at a multiple of the 65536-word chunk
    @pytest.mark.parametrize("count", [46800, 46801, 93612],
                             ids=["k-below-chunk", "k-above-chunk",
                                  "k-two-chunks"])
    def test_round_sizes_about_a_chunk_multiple(self, count):
        assert splits._DRAW_CHUNK == 65536
        g = random_graph(np.random.default_rng(12), 1000, 2000,
                         ensure_positive_degree=False)
        self._check(g, split_edges(g, seed=0), "train", count, seed=3)

    # a round of 1.4x the pool's size never draws all of it, so a draw of
    # the whole pool, or nearly, takes several rounds
    @pytest.mark.parametrize("chunk", [65536, 7])
    @pytest.mark.parametrize("phase", PHASES)
    def test_nearly_full_pool_over_several_rounds(self, chunk, phase,
                                                  monkeypatch):
        monkeypatch.setattr(splits, "_DRAW_CHUNK", chunk)
        g = random_graph(np.random.default_rng(13), 40, 150,
                         ensure_positive_degree=False)
        split = split_edges(g, (0.6, 0.2, 0.2), seed=0)
        pool = negative_pool_size(g, split, phase)
        for count in (pool - 2, pool):
            self._check(g, split, phase, count, seed=count)

    # first rounds of 64 candidates (9 chunks and 1), 70 (10 chunks) and
    # 296 (42 chunks and 2)
    @pytest.mark.parametrize("count", [1, 34, 39, 200])
    def test_small_chunks(self, count, monkeypatch):
        monkeypatch.setattr(splits, "_DRAW_CHUNK", 7)
        g = random_graph(np.random.default_rng(14), 30, 60,
                         ensure_positive_degree=False)
        split = split_edges(g, seed=0)
        for phase in PHASES:
            self._check(g, split, phase, count, seed=count)


class TestMaskedBatches:
    def _split(self, m=10, seed=0):
        g = random_graph(np.random.default_rng(seed), 20, int(m / 0.55) + 2,
                         ensure_positive_degree=False)
        # force an exact train size by slicing a real split
        split = split_edges(g, (0.55, 0.2, 0.25), seed=seed)
        return split

    def test_partition(self):
        split = self._split()
        batches = positive_masking_batches(split, 3, seed=0)
        union = np.vstack([b.batch_pos for b in batches])
        assert len(union) == len(split.train_pos)
        assert _codes(union, split.n) == _codes(split.train_pos, split.n)

    def test_even_sizes_and_residuals(self):
        split = self._split(m=10)
        m = len(split.train_pos)
        batches = positive_masking_batches(split, 2, seed=1)
        sizes = sorted(len(b.batch_pos) for b in batches)
        assert abs(sizes[0] - sizes[1]) <= 1
        for b in batches:
            assert len(b.residual_edges) == m - len(b.batch_pos)
            assert not (_codes(b.batch_pos, split.n)
                        & _codes(b.residual_edges, split.n))

    def test_single_batch_rejected(self):
        split = self._split()
        with pytest.raises(ConfigError, match="residual"):
            positive_masking_batches(split, 1, seed=0)

    def test_batch_count_out_of_range(self):
        split = self._split()
        with pytest.raises(ConfigError):
            positive_masking_batches(split, len(split.train_pos) + 1, seed=0)


class TestSplitFile:
    def test_round_trip_and_byte_determinism(self, tmp_path):
        g = random_graph(np.random.default_rng(12), 15, 25,
                         ensure_positive_degree=False)
        split = split_edges(g, seed=3)
        p1, p2 = tmp_path / "a.split", tmp_path / "b.split"
        write_split(p1, split)
        write_split(p2, split)
        assert p1.read_bytes() == p2.read_bytes()
        split2 = read_split(p1)
        assert split2.n == split.n
        assert split2.seed == split.seed
        assert split2.ratios == split.ratios
        np.testing.assert_array_equal(split2.train_pos, split.train_pos)
        np.testing.assert_array_equal(split2.valid_pos, split.valid_pos)
        np.testing.assert_array_equal(split2.test_pos, split.test_pos)

    @pytest.mark.parametrize("body", [
        "TRAIN 3\n0 1\n0 2\n",                     # shorter than declared
        "TRAIN -1\nVALID 0\nTEST 0\n",               # negative count
        "TRAIN 2\n0 1\nVALID 0\nTEST 0\n",          # next header as a pair
        "TRAIN two\n0 1\n0 2\nVALID 0\nTEST 0\n",  # non-integer count
        "TRAIN 1\n0 x\nVALID 0\nTEST 0\n",          # non-integer id
        "TRAIN 1\n0 1\nVALID 1\n0 9\nTEST 0\n",    # id >= n
        "TRAIN 1\n-1 2\nVALID 0\nTEST 0\n",         # negative id
        "TRAIN 1\n0 1\nVALID 0\nTEST 1\n3 1\n",    # u > v
        "TRAIN 1\n2 2\nVALID 0\nTEST 0\n",          # u == v
        "TRAIN 2\n0 1\n0 1\nVALID 0\nTEST 0\n",    # twice in a section
        "TRAIN 1\n0 1\nVALID 1\n0 1\nTEST 0\n",    # twice across sections
        "TRAIN 1\n0 1\nVALID 0\nTEST 0\nFOO 1\n0 2\n",  # unknown section
        "TRAIN 1\n0 1\nVALID 0\nTEST 0\nTRAIN 1\n0 3\n",  # section twice
    ])
    def test_malformed_sections_are_data_errors(self, tmp_path, body):
        path = tmp_path / "bad.split"
        path.write_text("n 4\nseed 0\nratios 0.5 0.25 0.25\n" + body)
        with pytest.raises(DataError):
            read_split(path)

    def test_node_count_whose_codes_overflow_is_refused(self, tmp_path):
        # codes u * n + v of 2^62 nodes do not fit in int64
        big = 2 ** 62
        path = tmp_path / "huge.split"
        path.write_text(f"n {big + 1}\nseed 0\nratios 0.5 0.25 0.25\n"
                        f"TRAIN 1\n1 {big}\nVALID 1\n0 1\n"
                        f"TEST 1\n0 {big}\n")
        with pytest.raises(DataError, match="node count"):
            read_split(path)
        with pytest.raises(DataError, match="node count"):
            build_graph([(0, 1), (1, big)], big + 1)
        # the largest code of n nodes is (n - 1) * n + n - 1 = n^2 - 1
        max_n = gelato.graph.MAX_NODES
        assert max_n ** 2 - 1 <= 2 ** 63 - 1 < (max_n + 1) ** 2 - 1

    def test_excluded_codes_by_phase(self):
        g = random_graph(np.random.default_rng(13), 12, 18,
                         ensure_positive_degree=False)
        split = split_edges(g, (0.6, 0.2, 0.2), seed=0)
        n_train = len(split.train_pos)
        assert len(excluded_codes(split, "train")) == n_train
        assert len(excluded_codes(split, "valid")) == \
            n_train + len(split.valid_pos)
        assert len(excluded_codes(split, "test")) == split.num_edges
