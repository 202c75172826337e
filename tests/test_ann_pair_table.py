"""The HNSW stored-pair distance table: fewer kernel calls, same bits.

While its capacity is at most ``_PAIR_LIMIT`` rows, an ``HnswIndex`` fills
row and column ``i`` of a ``(capacity, capacity)`` table with one
``_distances_to`` call when it stores row ``i``, and reads every later
distance whose query is a stored row from that table.  Past the limit the
table is dropped and the index runs the table-free path, which is the
oracle here (the Hypothesis form of the parity check is
``tests/test_properties.py::TestPairTableProperties``).
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from repro.ann import hnsw
from repro.ann.hnsw import HnswIndex
from repro.embedding.model import EmbeddingModel
from repro.world.prompts import CorpusConfig, PromptFactory


@pytest.fixture(scope="module")
def curate_corpus():
    """The curate workload's shape: 250 generated prompts, embedded."""
    corpus = PromptFactory(rng=np.random.default_rng(0)).make_corpus(
        CorpusConfig(n_prompts=250)
    )
    return EmbeddingModel().embed_batch([p.text for p in corpus])


def _build(rows, pair_limit=None, per_row=False, **kwargs):
    """An index over ``rows``; ``pair_limit`` patches ``_PAIR_LIMIT``."""
    limit = hnsw._PAIR_LIMIT if pair_limit is None else pair_limit
    with mock.patch.object(hnsw, "_PAIR_LIMIT", limit):
        index = HnswIndex(dim=rows.shape[1], seed=0, **kwargs)
        if per_row:
            for key, row in enumerate(rows):
                index.add(row, key)
        else:
            index.add_batch(rows)
    return index


class TestKernelCalls:
    @pytest.mark.parametrize("quantization", ["none", "int8"])
    def test_one_kernel_call_per_insert(self, curate_corpus, quantization):
        """The seed-0 curate dedup made 31,308 calls before the table."""
        with mock.patch.object(
            HnswIndex, "_distances_to", autospec=True,
            side_effect=HnswIndex._distances_to,
        ) as spy:
            index = HnswIndex(
                dim=curate_corpus.shape[1], ef_search=64, seed=0,
                quantization=quantization,
            )
            index.add_batch(curate_corpus)
            index.knn_graph(8, ef=64)
        assert len(index) == 250
        assert spy.call_count <= 250


class TestTableContents:
    @pytest.mark.parametrize("metric", ["cosine", "l2"])
    def test_table_holds_the_kernel_values(self, curate_corpus, metric):
        rows = curate_corpus[:90]
        index = _build(rows, metric=metric)
        n = len(index)
        table = index._pairs[:n, :n]
        for i in range(n):
            want = index._distances_to(index._vectors[i], np.arange(n), index._norms[i])
            assert table[i].tobytes() == want.tobytes()
        assert table.tobytes() == np.ascontiguousarray(table.T).tobytes()

    def test_self_distance_is_the_kernels_not_zero(self, curate_corpus):
        """Cosine self-distances land a few ulps off 0; the table keeps them."""
        index = _build(curate_corpus)
        n = len(index)
        diagonal = np.diagonal(index._pairs)[:n]
        assert np.any(diagonal != 0.0)
        assert np.all(np.abs(diagonal) < 1e-12)

    def test_knn_graph_matches_table_free_build(self, curate_corpus):
        fast = _build(curate_corpus, ef_search=64)
        slow = _build(curate_corpus, pair_limit=0, ef_search=64)
        assert fast._pairs is not None and slow._pairs is None
        assert fast._entry == slow._entry
        assert fast._neighbors == slow._neighbors
        assert repr(fast.knn_graph(8, ef=64)) == repr(slow.knn_graph(8, ef=64))


class TestTableLifetime:
    def test_reserve_past_the_limit_never_builds_the_table(self):
        rows = np.random.default_rng(1).normal(size=(hnsw._PAIR_LIMIT + 1, 4))
        index = _build(rows, m=2, ef_construction=4)
        assert index._pairs is None

    def test_memory_is_bounded_by_the_limit(self):
        """The table never exceeds the limit's bytes and is freed past it."""
        limit_bytes = hnsw._PAIR_LIMIT ** 2 * 8
        rows = np.random.default_rng(3).normal(size=(hnsw._PAIR_LIMIT + 1, 4))
        slack = 256 * 1024

        def traced(pair_limit):
            tracemalloc.start()
            try:
                index = _build(
                    rows[:-1], pair_limit=pair_limit, per_row=True,
                    m=2, ef_construction=4,
                )
                current, peak = tracemalloc.get_traced_memory()
                index.add(rows[-1], len(rows) - 1)
                after, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return index, current, peak, after

        with_table, cur_t, peak_t, after_t = traced(None)
        without, cur_f, peak_f, after_f = traced(0)
        assert with_table._pairs is None and without._pairs is None
        # At capacity == limit the table is exactly the limit's bytes...
        assert abs((cur_t - cur_f) - limit_bytes) < slack
        # ...the peak adds only the previous (quarter-size) table it grew
        # from, and once capacity passes the limit the table is gone.
        assert peak_t - peak_f < limit_bytes + limit_bytes // 4 + slack
        assert abs(after_t - after_f) < slack
