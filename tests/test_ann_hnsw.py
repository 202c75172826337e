"""Tests for the HNSW index, including recall against brute force."""

import warnings

import numpy as np
import pytest

from repro.ann.bruteforce import BruteForceIndex
from repro.ann.hnsw import HnswIndex
from repro.errors import IndexError_


def _random_points(n, dim, seed=0):
    return np.random.default_rng(seed).normal(size=(n, dim))


class TestConstruction:
    @pytest.mark.parametrize("kwargs", [
        {"dim": 0},
        {"dim": 4, "m": 1},
        {"dim": 4, "ef_construction": 0},
        {"dim": 4, "ef_search": 0},
        {"dim": 4, "metric": "hamming"},
    ])
    def test_invalid_params(self, kwargs):
        with pytest.raises(IndexError_):
            HnswIndex(**kwargs)


class TestBasicOps:
    def test_empty_search(self):
        index = HnswIndex(dim=4)
        assert index.search(np.zeros(4), 3) == []

    def test_single_element(self):
        index = HnswIndex(dim=3)
        index.add(np.array([1.0, 0.0, 0.0]), key=42)
        hits = index.search(np.array([1.0, 0.0, 0.0]), 1)
        assert hits[0][0] == 42
        assert hits[0][1] == pytest.approx(0.0, abs=1e-9)

    def test_len(self):
        index = HnswIndex(dim=2)
        index.add(np.ones(2), key=0)
        index.add(np.zeros(2) + 0.5, key=1)
        assert len(index) == 2

    def test_duplicate_key_rejected(self):
        index = HnswIndex(dim=2)
        index.add(np.ones(2), key=0)
        with pytest.raises(IndexError_):
            index.add(np.zeros(2), key=0)

    def test_dim_mismatch_on_add(self):
        index = HnswIndex(dim=3)
        with pytest.raises(IndexError_):
            index.add(np.ones(4), key=0)

    def test_dim_mismatch_on_search(self):
        index = HnswIndex(dim=3)
        index.add(np.ones(3), key=0)
        with pytest.raises(IndexError_):
            index.search(np.ones(2), 1)

    def test_k_must_be_positive(self):
        index = HnswIndex(dim=2)
        with pytest.raises(IndexError_):
            index.search(np.ones(2), 0)

    def test_results_sorted_by_distance(self):
        index = HnswIndex(dim=2, seed=1)
        pts = _random_points(50, 2, seed=5)
        for i, p in enumerate(pts):
            index.add(p, key=i)
        hits = index.search(pts[0], 10)
        dists = [d for _, d in hits]
        assert dists == sorted(dists)

    def test_returns_at_most_k(self):
        index = HnswIndex(dim=2)
        for i, p in enumerate(_random_points(20, 2)):
            index.add(p, key=i)
        assert len(index.search(np.zeros(2), 5)) == 5

    def test_k_larger_than_index(self):
        index = HnswIndex(dim=2)
        for i, p in enumerate(_random_points(3, 2)):
            index.add(p, key=i)
        assert len(index.search(np.zeros(2), 10)) == 3


class TestRecall:
    @pytest.mark.parametrize("metric", ["cosine", "l2"])
    def test_high_recall_vs_bruteforce(self, metric):
        dim, n, k = 16, 400, 10
        points = _random_points(n, dim, seed=7)
        hnsw = HnswIndex(dim=dim, metric=metric, ef_search=80, seed=3)
        brute = BruteForceIndex(dim=dim, metric=metric)
        for i, p in enumerate(points):
            hnsw.add(p, key=i)
            brute.add(p, key=i)
        queries = _random_points(30, dim, seed=8)
        recalls = []
        for q in queries:
            approx = {key for key, _ in hnsw.search(q, k)}
            exact = {key for key, _ in brute.search(q, k)}
            recalls.append(len(approx & exact) / k)
        assert np.mean(recalls) > 0.9

    def test_exact_match_always_found(self):
        dim = 8
        points = _random_points(200, dim, seed=11)
        index = HnswIndex(dim=dim, seed=2)
        for i, p in enumerate(points):
            index.add(p, key=i)
        for i in (0, 50, 199):
            hits = index.search(points[i], 1)
            assert hits[0][0] == i

    def test_higher_ef_never_lowers_single_query_quality_much(self):
        dim, n = 8, 300
        points = _random_points(n, dim, seed=13)
        index = HnswIndex(dim=dim, seed=4)
        brute = BruteForceIndex(dim=dim)
        for i, p in enumerate(points):
            index.add(p, key=i)
            brute.add(p, key=i)
        q = _random_points(1, dim, seed=14)[0]
        exact = {key for key, _ in brute.search(q, 10)}
        low = {key for key, _ in index.search(q, 10, ef=10)}
        high = {key for key, _ in index.search(q, 10, ef=200)}
        assert len(high & exact) >= len(low & exact)


class TestKnnGraph:
    def test_excludes_self(self):
        index = HnswIndex(dim=4, seed=0)
        for i, p in enumerate(_random_points(30, 4)):
            index.add(p, key=i)
        graph = index.knn_graph(5)
        for key, neighbors in graph.items():
            assert key not in {nk for nk, _ in neighbors}

    def test_covers_all_keys(self):
        index = HnswIndex(dim=4, seed=0)
        for i, p in enumerate(_random_points(25, 4)):
            index.add(p, key=i)
        assert set(index.knn_graph(3)) == set(range(25))

    @pytest.mark.parametrize("k", [0, -1, -3])
    def test_k_must_be_positive(self, k):
        index = HnswIndex(dim=4, seed=0)
        index.add_batch(_random_points(25, 4))
        with pytest.raises(IndexError_):
            index.knn_graph(k)


class TestNonFinite:
    BAD = [np.nan, np.inf, -np.inf]

    @staticmethod
    def _index():
        index = HnswIndex(dim=4, seed=0)
        index.add_batch(_random_points(10, 4))
        return index

    @pytest.mark.parametrize("bad", BAD)
    def test_add_rejects_non_finite_vector(self, bad):
        index = self._index()
        vec = np.ones(4)
        vec[2] = bad
        with pytest.raises(IndexError_, match="finite"):
            index.add(vec, key=99)
        assert len(index) == 10
        index.add(np.ones(4), key=99)  # the key was not taken
        assert len(index) == 11

    @pytest.mark.parametrize("bad", BAD)
    def test_add_batch_rejects_batch_untouched(self, bad):
        index = self._index()
        before = index.vectors.copy()
        rows = _random_points(5, 4, seed=1)
        rows[3, 0] = bad
        with pytest.raises(IndexError_, match="finite"):
            index.add_batch(rows, keys=range(10, 15))
        assert len(index) == 10
        assert index.vectors.tobytes() == before.tobytes()
        index.add_batch(np.nan_to_num(rows, posinf=0.0, neginf=0.0), keys=range(10, 15))
        assert len(index) == 15

    @pytest.mark.parametrize("bad", BAD)
    def test_searches_reject_non_finite_query(self, bad):
        index = self._index()
        query = np.ones(4)
        query[0] = bad
        queries = np.ones((3, 4))
        queries[1, 1] = bad
        with pytest.raises(IndexError_, match="finite"):
            index.search(query, 3)
        with pytest.raises(IndexError_, match="finite"):
            index.search_batch(queries, 3)
        with pytest.raises(IndexError_, match="finite"):
            index.search_batch_arrays(queries, 3)

    def test_empty_index_still_rejects_non_finite_query(self):
        with pytest.raises(IndexError_, match="finite"):
            HnswIndex(dim=2).search(np.array([np.nan, 0.0]), 1)


class TestSubnormalQuantization:
    """A row whose int8 scale ``peak / 127`` underflows codes to zeros."""

    SUBNORMAL = np.array([5e-324, 0.0, -5e-324, 0.0])

    @pytest.mark.parametrize("metric", ["cosine", "l2"])
    def test_subnormal_row_codes_to_zeros_without_warnings(self, metric):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            codes, scale = HnswIndex._quantize(self.SUBNORMAL)
            index = HnswIndex(dim=4, seed=0, metric=metric, quantization="int8")
            index.add_batch(np.vstack([self.SUBNORMAL, _random_points(6, 4)]))
            hits = index.search(self.SUBNORMAL, 3)
        assert (codes.tolist(), scale) == ([0, 0, 0, 0], 1.0)
        assert index._codes[0].tolist() == [0, 0, 0, 0]
        assert index._code_scales[0] == 1.0
        assert len(hits) == 3

    @pytest.mark.parametrize("row", [
        [0.0, 0.0, 0.0, 0.0],
        [0.5, -1.0, 2.0, 0.0],
        [1e-300, -2e-300, 0.0, 3e-301],
        [1e-321, 0.0, -5e-324, 0.0],  # subnormal, but its scale stays positive
    ])
    def test_rows_with_a_positive_scale_keep_their_codes(self, row):
        vec = np.array(row)
        peak = float(np.max(np.abs(vec)))
        want_scale = peak / 127.0 if peak > 0.0 else 1.0
        codes, scale = HnswIndex._quantize(vec)
        assert scale == want_scale
        assert codes.tobytes() == np.rint(vec / want_scale).astype(np.int8).tobytes()

    @pytest.mark.parametrize("units", [130, 190, 300])
    def test_scale_rounded_below_peak_over_127_cannot_wrap_codes(self, units):
        # peak / 127 rounds to a subnormal scale smaller than itself, so
        # the quotient passes 127 before the int8 cast.
        vec = np.array([units * 5e-324, 0.0, -units * 5e-324])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            codes, scale = HnswIndex._quantize(vec)
        assert scale > 0.0
        assert np.sign(codes).tolist() == np.sign(vec).tolist()
        assert np.abs(codes.astype(np.int64)).max() <= 127


class TestDeterminism:
    def test_same_seed_same_results(self):
        points = _random_points(100, 8, seed=21)

        def build():
            index = HnswIndex(dim=8, seed=9)
            for i, p in enumerate(points):
                index.add(p, key=i)
            return index.search(points[3], 10)

        assert build() == build()


class TestBatchOps:
    def test_add_batch_matches_scalar_adds(self):
        points = _random_points(60, 8, seed=11)
        scalar = HnswIndex(dim=8, seed=2)
        for i, p in enumerate(points):
            scalar.add(p, key=i)
        batched = HnswIndex(dim=8, seed=2)
        batched.add_batch(points, range(len(points)))
        query = _random_points(1, 8, seed=12)[0]
        assert batched.search(query, 10) == scalar.search(query, 10)

    def test_add_batch_default_keys(self):
        index = HnswIndex(dim=4)
        index.add_batch(_random_points(5, 4))
        assert sorted(key for key, _ in index.search(np.zeros(4), 5)) == [0, 1, 2, 3, 4]

    def test_add_batch_empty_is_noop(self):
        index = HnswIndex(dim=4)
        index.add_batch(np.zeros((0, 4)))
        assert len(index) == 0

    def test_add_batch_key_count_mismatch(self):
        index = HnswIndex(dim=4)
        with pytest.raises(IndexError_):
            index.add_batch(_random_points(3, 4), keys=[0, 1])

    def test_add_batch_dim_mismatch(self):
        index = HnswIndex(dim=4)
        with pytest.raises(IndexError_):
            index.add_batch(_random_points(3, 5))

    def test_search_batch_matches_per_query_search(self):
        index = HnswIndex(dim=6, seed=3)
        index.add_batch(_random_points(80, 6, seed=13), range(80))
        queries = _random_points(16, 6, seed=14)
        assert index.search_batch(queries, 5) == [index.search(q, 5) for q in queries]

    def test_search_batch_empty_batch(self):
        index = HnswIndex(dim=4)
        index.add_batch(_random_points(5, 4))
        assert index.search_batch(np.zeros((0, 4)), 3) == []
        assert index.search_batch([], 3) == []

    def test_search_batch_empty_index(self):
        index = HnswIndex(dim=4)
        assert index.search_batch(_random_points(3, 4), 2) == [[], [], []]

    def test_search_batch_dim_mismatch(self):
        index = HnswIndex(dim=4)
        index.add(np.ones(4), key=0)
        with pytest.raises(IndexError_):
            index.search_batch(_random_points(3, 5), 2)

    def test_search_batch_k_must_be_positive(self):
        index = HnswIndex(dim=4)
        with pytest.raises(IndexError_):
            index.search_batch(_random_points(2, 4), 0)

    def test_vectors_property_is_readonly_view(self):
        index = HnswIndex(dim=4)
        index.add_batch(_random_points(5, 4))
        assert index.vectors.shape == (5, 4)
        with pytest.raises(ValueError):
            index.vectors[0, 0] = 99.0

    def test_interleaved_add_and_search(self):
        # searches pack the layer-0 adjacency; later adds must invalidate it
        index = HnswIndex(dim=4, seed=5)
        points = _random_points(40, 4, seed=15)
        index.add_batch(points[:20], range(20))
        index.search(points[0], 3)
        index.add_batch(points[20:], range(20, 40))
        keys = {key for key, _ in index.search_batch(points, 1)[0]}
        assert keys <= set(range(40))
        hits = index.search(points[30], 1)
        assert hits[0][0] == 30
