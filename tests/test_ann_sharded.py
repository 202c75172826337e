"""Tests for the sharded HNSW index (one-thread build/search, deterministic merge)."""

import threading

import numpy as np
import pytest

from repro.ann.bruteforce import BruteForceIndex
from repro.ann.hnsw import HnswIndex
from repro.ann.sharded import ShardedHnswIndex
from repro.errors import IndexError_


def _data(n, dim, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, dim))


class TestConstruction:
    def test_round_robin_balance(self):
        index = ShardedHnswIndex(dim=8, n_shards=4)
        index.add_batch(_data(10, 8), range(10))
        assert index.shard_sizes == [3, 3, 2, 2]
        assert len(index) == 10

    def test_add_continues_round_robin_after_batch(self):
        index = ShardedHnswIndex(dim=8, n_shards=3)
        index.add_batch(_data(4, 8), range(4))
        index.add(_data(1, 8, seed=9)[0], key=99)  # element 4 -> shard 1
        assert index.shard_sizes == [2, 2, 1]

    def test_duplicate_key_rejected_across_shards(self):
        index = ShardedHnswIndex(dim=8, n_shards=2)
        index.add_batch(_data(2, 8), [7, 8])
        with pytest.raises(IndexError_):
            index.add(_data(1, 8)[0], key=7)  # lives on the other shard

    def test_validation(self):
        with pytest.raises(IndexError_):
            ShardedHnswIndex(dim=8, n_shards=0)
        index = ShardedHnswIndex(dim=8, n_shards=2)
        with pytest.raises(IndexError_):
            index.add_batch(_data(3, 5), range(3))  # wrong dim
        with pytest.raises(IndexError_):
            index.add_batch(_data(3, 8), [1, 2])  # key count mismatch
        with pytest.raises(IndexError_):
            index.search(np.zeros(8), k=0)
        with pytest.raises(IndexError_):
            index.search(np.zeros(5), k=1)  # wrong query dim

    def test_empty_batch_is_noop(self):
        index = ShardedHnswIndex(dim=8, n_shards=2)
        index.add_batch(np.zeros((0, 8)))
        assert len(index) == 0


def _snapshot(index):
    """Byte-level state fingerprint of a sharded index."""
    return (
        len(index),
        set(index._keys_seen),
        [len(s) for s in index._shards],
        [s.vectors.tobytes() for s in index._shards],
        [list(s._keys) for s in index._shards],
        [set(s._keys_seen) for s in index._shards],
    )


class TestRejectedBatchAtomicity:
    """A rejected add_batch must leave the index byte-identical."""

    @pytest.fixture()
    def index(self):
        idx = ShardedHnswIndex(dim=8, n_shards=3, seed=0)
        idx.add_batch(_data(10, 8), range(10))
        return idx

    def test_key_clashing_with_index_rejected_upfront(self, index):
        before = _snapshot(index)
        with pytest.raises(IndexError_):
            index.add_batch(_data(4, 8, seed=1), [100, 101, 5, 102])  # 5 exists
        assert _snapshot(index) == before
        index.add_batch(_data(2, 8, seed=2), [100, 101])  # clean retry works
        assert len(index) == 12

    def test_duplicate_key_within_batch_rejected_upfront(self, index):
        before = _snapshot(index)
        with pytest.raises(IndexError_):
            index.add_batch(_data(3, 8, seed=1), [100, 101, 100])
        assert _snapshot(index) == before

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_batch_rejected_upfront(self, index, bad):
        before = _snapshot(index)
        rows = _data(6, 8, seed=1)
        rows[4, 2] = bad  # lands on a later shard than the first rows
        with pytest.raises(IndexError_, match="finite"):
            index.add_batch(rows, range(100, 106))
        assert _snapshot(index) == before
        index.add_batch(_data(6, 8, seed=1), range(100, 106))  # keys stay free
        assert len(index) == 16

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_add_leaves_key_free(self, index, bad):
        before = _snapshot(index)
        vec = np.ones(8)
        vec[0] = bad
        with pytest.raises(IndexError_, match="finite"):
            index.add(vec, key=100)
        with pytest.raises(IndexError_):
            index.add(np.ones(3), key=100)  # wrong dim
        assert _snapshot(index) == before
        index.add(np.ones(8), key=100)
        assert len(index) == 11

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_queries_rejected(self, index, bad):
        query = np.ones(8)
        query[3] = bad
        with pytest.raises(IndexError_, match="finite"):
            index.search(query, 3)
        with pytest.raises(IndexError_, match="finite"):
            index.search_batch(np.stack([np.ones(8), query]), 3)
        with pytest.raises(IndexError_, match="finite"):
            index.search_batch_arrays(np.stack([np.ones(8), query]), 3)

    def test_monolithic_add_batch_is_atomic_too(self):
        mono = HnswIndex(dim=8, seed=0)
        mono.add_batch(_data(5, 8), range(5))
        before = (len(mono), mono.vectors.tobytes(), set(mono._keys_seen))
        with pytest.raises(IndexError_):
            mono.add_batch(_data(3, 8, seed=1), [10, 3, 11])  # 3 exists
        with pytest.raises(IndexError_):
            mono.add_batch(_data(3, 8, seed=1), [10, 10, 11])  # intra-batch dup
        assert (len(mono), mono.vectors.tobytes(), set(mono._keys_seen)) == before


class TestOneThread:
    """Build and search run on the calling thread: no path starts one."""

    @pytest.mark.parametrize("large_shard_search", ["routed", "beam"])
    def test_no_path_starts_a_thread(self, monkeypatch, large_shard_search):
        def refuse(thread):
            raise AssertionError(f"thread {thread.name!r} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        index = ShardedHnswIndex(
            dim=8,
            n_shards=4,
            seed=0,
            scan_threshold=40,
            large_shard_search=large_shard_search,
        )
        index.add_batch(_data(161, 8), range(161))
        index.add(_data(1, 8, seed=3)[0], key=161)
        # Shards 0 and 1 sit above scan_threshold, shards 2 and 3 at it.
        assert index.shard_sizes == [41, 41, 40, 40]
        queries = _data(6, 8, seed=1)
        hits = index.search_batch(queries, 5)
        keys, dists = index.search_batch_arrays(queries, 5)
        assert hits == [index.search(q, 5) for q in queries]
        assert hits == [
            list(zip(row_keys, row_dists))
            for row_keys, row_dists in zip(keys.tolist(), dists.tolist())
        ]


def _gathered_scan(shard, query, k):
    """The exact scan over a gather of every stored row: the oracle the
    in-place scan must match bit for bit."""
    ids = np.arange(len(shard), dtype=np.intp)
    dists = shard._distances_to(query, ids, shard._query_norm(query))
    order = np.lexsort((ids, dists))[:k]
    return ids[order], dists[order]


class TestInPlaceScan:
    """The scan reads a shard's rows in place, selects its top k without a
    full sort, and matches a full sort of the gathered kernel."""

    @pytest.mark.parametrize("dim", [1, 7, 33])
    @pytest.mark.parametrize("metric", ["cosine", "l2"])
    def test_matches_gathered_kernel(self, metric, dim):
        points = _data(45, dim, seed=dim)
        points[5] = 0.0  # a zero row
        points[9] = 3.0 * points[2]  # a scaled copy
        points[13] = points[2]  # an exact copy
        points[[20, 23, 26, 29]] = points[17]  # exact copies on one shard
        index = ShardedHnswIndex(
            dim=dim, n_shards=3, metric=metric, seed=1, scan_threshold=10_000
        )
        index.add_batch(points, range(45))
        queries = np.concatenate([points[[0, 2, 5, 9, 17]], _data(4, dim, seed=99)])
        for query in queries:
            for shard in index._shards:
                # k cuts through the tied copies, and past the shard's size.
                for k in (1, 2, 3, 20, 60):
                    ids, dists = shard._scan_raw(query, shard._query_norm(query), k)
                    want_ids, want_dists = _gathered_scan(shard, query, k)
                    assert ids.dtype == want_ids.dtype
                    assert np.array_equal(ids, want_ids)
                    assert dists.tobytes() == want_dists.tobytes()
        assert index.search_batch(queries, 20) == [
            index.search(q, 20) for q in queries
        ]


class TestSearchParity:
    """The batched path is bit-identical to its scalar loop."""

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    @pytest.mark.parametrize("metric", ["cosine", "l2"])
    def test_search_batch_matches_scalar_loop(self, n_shards, metric):
        index = ShardedHnswIndex(dim=12, n_shards=n_shards, metric=metric, seed=3)
        index.add_batch(_data(90, 12), range(90))
        queries = _data(15, 12, seed=4)
        assert index.search_batch(queries, 6) == [
            index.search(q, 6) for q in queries
        ]

    def test_single_shard_identical_to_monolithic(self):
        points, queries = _data(80, 10), _data(12, 10, seed=5)
        mono = HnswIndex(dim=10, seed=7)
        mono.add_batch(points, range(80))
        sharded = ShardedHnswIndex(dim=10, n_shards=1, seed=7)
        sharded.add_batch(points, range(80))
        assert sharded.search_batch(queries, 5) == mono.search_batch(queries, 5)

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_exact_overlap_with_monolithic(self, n_shards):
        """At ef >= n both indexes are exhaustive, so top-k sets must agree."""
        points, queries = _data(96, 12), _data(20, 12, seed=6)
        mono = HnswIndex(dim=12, seed=0)
        mono.add_batch(points, range(96))
        sharded = ShardedHnswIndex(dim=12, n_shards=n_shards, seed=0)
        sharded.add_batch(points, range(96))
        overlaps = []
        for query in queries:
            exact = {key for key, _ in mono.search(query, 10, ef=128)}
            mine = {key for key, _ in sharded.search(query, 10, ef=128)}
            overlaps.append(len(mine & exact) / 10)
        assert np.mean(overlaps) == 1.0

    def test_recall_vs_bruteforce(self):
        points, queries = _data(150, 12, seed=8), _data(20, 12, seed=9)
        sharded = ShardedHnswIndex(dim=12, n_shards=3, ef_search=80, seed=0)
        sharded.add_batch(points, range(150))
        brute = BruteForceIndex(dim=12)
        for i, p in enumerate(points):
            brute.add(p, key=i)
        recalls = []
        for hits, query in zip(sharded.search_batch(queries, 10), queries):
            exact = {key for key, _ in brute.search(query, 10)}
            recalls.append(len({key for key, _ in hits} & exact) / 10)
        assert np.mean(recalls) > 0.9

    def test_results_sorted_nearest_first(self):
        index = ShardedHnswIndex(dim=8, n_shards=3, seed=1)
        index.add_batch(_data(40, 8), range(40))
        hits = index.search(_data(1, 8, seed=2)[0], 8)
        dists = [d for _, d in hits]
        assert dists == sorted(dists)


class TestEdgeShapes:
    def test_fewer_elements_than_shards(self):
        index = ShardedHnswIndex(dim=8, n_shards=4, seed=0)
        index.add_batch(_data(3, 8), range(3))
        assert index.shard_sizes == [1, 1, 1, 0]
        hits = index.search(_data(1, 8, seed=1)[0], 5)
        assert sorted(key for key, _ in hits) == [0, 1, 2]
        queries = _data(4, 8, seed=2)
        assert index.search_batch(queries, 5) == [index.search(q, 5) for q in queries]

    def test_empty_index(self):
        index = ShardedHnswIndex(dim=8, n_shards=4)
        assert index.search(np.zeros(8), 3) == []
        assert index.search_batch(_data(5, 8), 3) == [[] for _ in range(5)]
        assert index.search_batch(np.zeros((0, 8)), 3) == []

    def test_k_larger_than_population(self):
        index = ShardedHnswIndex(dim=8, n_shards=2, seed=0)
        index.add_batch(_data(5, 8), range(5))
        hits = index.search(_data(1, 8, seed=3)[0], 20)
        assert len(hits) == 5


class TestObservability:
    """The ann.search span/counter/histogram record under a live registry."""

    def _live_index(self, quantization="none"):
        from repro.obs import Observability

        obs = Observability.enabled()
        index = ShardedHnswIndex(
            dim=8, n_shards=2, seed=0, obs=obs, quantization=quantization
        )
        index.add_batch(_data(12, 8), range(12))
        return index, obs

    def test_scalar_search_records_histogram(self):
        index, obs = self._live_index()
        index.search(_data(1, 8, seed=1)[0], 3)
        hist = obs.metrics.histogram("pas_ann_search_ticks", buckets=())
        assert hist.count(mode="scalar", quantized="false") == 1
        assert obs.metrics.counter("pas_ann_searches_total").value(mode="scalar") == 1

    def test_batch_search_records_once_per_call(self):
        index, obs = self._live_index(quantization="int8")
        index.search_batch(_data(5, 8, seed=1), 3)
        index.search_batch_arrays(_data(5, 8, seed=2), 3)
        hist = obs.metrics.histogram("pas_ann_search_ticks", buckets=())
        assert hist.count(mode="batch", quantized="true") == 2
        assert hist.count(mode="scalar", quantized="true") == 0

    def test_null_obs_records_nothing(self):
        index = ShardedHnswIndex(dim=8, n_shards=2, seed=0)
        index.add_batch(_data(12, 8), range(12))
        index.search(_data(1, 8, seed=1)[0], 3)
        assert not index.obs.metrics.enabled
