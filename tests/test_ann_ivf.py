"""Tests for the IVF-flat index."""

import numpy as np
import pytest

from repro.ann.bruteforce import BruteForceIndex
from repro.ann.ivf import IvfFlatIndex
from repro.errors import IndexError_, NotFittedError


def _points(n=300, dim=8, seed=0):
    return np.random.default_rng(seed).normal(size=(n, dim))


def _built(points, **kwargs):
    index = IvfFlatIndex(dim=points.shape[1], **kwargs)
    index.train(points)
    for i, p in enumerate(points):
        index.add(p, key=i)
    return index


class TestLifecycle:
    def test_add_before_train_rejected(self):
        index = IvfFlatIndex(dim=4)
        with pytest.raises(NotFittedError):
            index.add(np.ones(4), key=0)

    def test_search_before_train_rejected(self):
        with pytest.raises(NotFittedError):
            IvfFlatIndex(dim=4).search(np.ones(4), 1)

    def test_empty_train_rejected(self):
        with pytest.raises(IndexError_):
            IvfFlatIndex(dim=4).train(np.zeros((0, 4)))

    @pytest.mark.parametrize("kwargs", [
        {"dim": 0},
        {"dim": 4, "n_lists": 0},
        {"dim": 4, "n_probe": 0},
        {"dim": 4, "metric": "dot"},
    ])
    def test_invalid_params(self, kwargs):
        with pytest.raises(IndexError_):
            IvfFlatIndex(**kwargs)

    def test_len(self):
        points = _points(20)
        assert len(_built(points, n_lists=4)) == 20


class TestSearch:
    def test_empty_index(self):
        index = IvfFlatIndex(dim=4)
        index.train(np.ones((3, 4)))
        assert index.search(np.ones(4), 5) == []

    def test_exact_match_found(self):
        points = _points(200, seed=1)
        index = _built(points, n_lists=8, n_probe=3)
        hits = index.search(points[17], 1)
        assert hits[0][0] == 17

    def test_results_sorted(self):
        points = _points(150, seed=2)
        index = _built(points, n_lists=8, n_probe=4)
        hits = index.search(_points(1, seed=3)[0], 10)
        dists = [d for _, d in hits]
        assert dists == sorted(dists)

    def test_full_probe_equals_bruteforce(self):
        points = _points(120, dim=6, seed=4)
        index = _built(points, n_lists=6, n_probe=6)
        brute = BruteForceIndex(dim=6)
        # cosine metric normalises internally: feed normalised to brute
        normed = points / np.linalg.norm(points, axis=1, keepdims=True)
        for i, p in enumerate(normed):
            brute.add(p, key=i)
        query = _points(1, dim=6, seed=5)[0]
        ivf_keys = [k for k, _ in index.search(query, 10)]
        brute_keys = [k for k, _ in brute.search(query / np.linalg.norm(query), 10)]
        assert ivf_keys == brute_keys

    def test_recall_grows_with_probes(self):
        points = _points(400, dim=8, seed=6)
        index = _built(points, n_lists=16, n_probe=1)
        brute = BruteForceIndex(dim=8, metric="l2")
        for i, p in enumerate(points):
            brute.add(p, key=i)
        queries = _points(25, dim=8, seed=7)

        def recall(n_probe):
            total = 0.0
            for q in queries:
                exact = {k for k, _ in brute.search(q, 10)}
                # use l2 brute as reference ordering proxy; rebuild ivf l2
                got = {k for k, _ in index.search(q, 10, n_probe=n_probe)}
                total += len(got & exact) / 10
            return total / len(queries)

        # cosine vs l2 orderings differ; compare relative growth only
        assert recall(8) >= recall(1)

    def test_k_must_be_positive(self):
        points = _points(10)
        index = _built(points, n_lists=2)
        with pytest.raises(IndexError_):
            index.search(points[0], 0)

    def test_dim_mismatch(self):
        points = _points(10, dim=4)
        index = _built(points, n_lists=2)
        with pytest.raises(IndexError_):
            index.search(np.ones(5), 1)

    def test_deterministic(self):
        points = _points(100, seed=8)
        a = _built(points, n_lists=8, seed=3).search(points[0], 5)
        b = _built(points, n_lists=8, seed=3).search(points[0], 5)
        assert a == b


class TestRejectsBadInput:
    """Every call validates before it changes state, as HnswIndex does."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_add_rejects_non_finite_vector(self, bad):
        points = _points(40, dim=4)
        index = _built(points, n_lists=4)
        before = index.search(points[3], 5)
        vec = np.ones(4)
        vec[2] = bad
        with pytest.raises(IndexError_, match="finite"):
            index.add(vec, key=999)
        assert len(index) == 40
        assert index.search(points[3], 5) == before
        index.add(np.ones(4), key=999)  # the key was not taken

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_search_rejects_non_finite_query(self, bad):
        index = _built(_points(40, dim=4), n_lists=4)
        query = np.ones(4)
        query[0] = bad
        with pytest.raises(IndexError_, match="finite"):
            index.search(query, 3)

    def test_train_rejects_non_finite_sample(self):
        sample = _points(30, dim=4)
        sample[7, 1] = np.nan
        index = IvfFlatIndex(dim=4, n_lists=4)
        with pytest.raises(IndexError_, match="finite"):
            index.train(sample)
        assert not index.is_trained

    def test_failed_retrain_keeps_the_quantizer(self):
        points = _points(40, dim=4)
        index = _built(points, n_lists=4)
        before = index.search(points[5], 6)
        bad = points.copy()
        bad[0, 0] = np.inf
        with pytest.raises(IndexError_):
            index.train(bad)
        assert index.search(points[5], 6) == before

    @pytest.mark.parametrize("n_probe", [0, -1])
    def test_search_rejects_probe_count_below_one(self, n_probe):
        index = _built(_points(40, dim=4), n_lists=4)
        with pytest.raises(IndexError_, match="n_probe"):
            index.search(np.ones(4), 3, n_probe=n_probe)

    def test_add_rejects_a_stored_key(self):
        points = _points(20, dim=4)
        index = _built(points, n_lists=4)
        with pytest.raises(IndexError_, match="duplicate key 3"):
            index.add(np.ones(4), key=3)
        assert len(index) == 20
        assert index.search(points[3], 1)[0][0] == 3


class TestOneKernel:
    def test_ivf_flat_and_routed_shards_share_the_search(self, monkeypatch):
        from repro.ann.ivf import _IvfLists
        from repro.ann.sharded import ShardedHnswIndex

        calls = []
        search = _IvfLists.search

        def counting(self, *args, **kwargs):
            calls.append(self)
            return search(self, *args, **kwargs)

        monkeypatch.setattr(_IvfLists, "search", counting)
        points = _points(200, dim=8, seed=9)
        _built(points, n_lists=8).search(points[0], 5)
        sharded = ShardedHnswIndex(dim=8, n_shards=2, scan_threshold=16, seed=1)
        sharded.add_batch(points)
        sharded.search(points[0], 5)
        assert len(calls) == 3  # one IVF-flat search, one per routed shard
