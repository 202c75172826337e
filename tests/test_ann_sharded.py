"""Tests for the sharded HNSW index (parallel build/search, deterministic merge)."""

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

    def test_parallel_and_serial_builds_identical(self):
        points = _data(30, 8)
        parallel = ShardedHnswIndex(dim=8, n_shards=4, seed=2)
        parallel.add_batch(points, range(30), parallel=True)
        serial = ShardedHnswIndex(dim=8, n_shards=4, seed=2)
        serial.add_batch(points, range(30), parallel=False)
        queries = _data(10, 8, seed=1)
        assert parallel.search_batch(queries, 5) == serial.search_batch(queries, 5)

    def test_validation(self):
        with pytest.raises(IndexError_):
            ShardedHnswIndex(dim=8, n_shards=0)
        with pytest.raises(IndexError_):
            ShardedHnswIndex(dim=8, max_workers=0)
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


class TestExecutorLifecycle:
    def test_pool_is_lazy_and_reused(self):
        index = ShardedHnswIndex(dim=8, n_shards=3, seed=0)
        assert index._pool is None
        index.add_batch(_data(12, 8), range(12))
        pool = index._pool
        assert pool is not None
        index.search_batch(_data(4, 8, seed=1), 3)
        assert index._pool is pool  # reused, not respawned per call

    def test_close_is_idempotent_and_pool_recreated_on_demand(self):
        index = ShardedHnswIndex(dim=8, n_shards=3, seed=0)
        index.add_batch(_data(12, 8), range(12))
        index.close()
        assert index._pool is None
        index.close()  # second close is a no-op
        hits = index.search_batch(_data(3, 8, seed=1), 3)
        assert len(hits) == 3  # lazily recreated
        assert index._pool is not None

    def test_context_manager_closes_pool(self):
        with ShardedHnswIndex(dim=8, n_shards=2, seed=0) as index:
            index.add_batch(_data(8, 8), range(8))
            assert index._pool is not None
        assert index._pool is None

    def test_serial_paths_never_spawn_a_pool(self):
        index = ShardedHnswIndex(dim=8, n_shards=3, seed=0)
        index.add_batch(_data(12, 8), range(12), parallel=False)
        index.search(_data(1, 8, seed=1)[0], 3)
        index.search_batch(_data(4, 8, seed=2), 3, parallel=False)
        assert index._pool is None


class TestSearchParity:
    """The batched/parallel path is bit-identical to its scalar loop."""

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
