"""Tests for near-duplicate grouping."""

import numpy as np
import pytest

from repro.ann.hnsw import HnswIndex
from repro.cluster import dedup
from repro.cluster.dedup import _knn_graph_sharded, deduplicate
from repro.embedding.model import EmbeddingModel
from repro.pipeline.collect import CollectionConfig
from repro.pipeline.config import PipelineConfig
from repro.world.prompts import CorpusConfig, PromptFactory

#: Indices that ``deduplicate`` drops from ``PromptFactory(rng=
#: default_rng(seed)).make_corpus(CorpusConfig(n_prompts=250))`` with the
#: pipeline's dedup parameters, captured before the HNSW neighbour
#: heuristic and distance kernel were rewritten.  ``kept`` is the
#: complement in ``range(250)``; the dropped side is the shorter literal.
_GOLDEN_DROPPED = {
    0: [
        10, 16, 19, 21, 29, 35, 39, 43, 44, 50, 64, 81, 91, 98, 103,
        105, 116, 119, 125, 127, 131, 134, 137, 139, 143, 152, 162,
        168, 172, 174, 179, 180, 181, 183, 187, 194, 196, 198, 203,
        204, 205, 220, 229, 230, 234, 236, 239, 243, 244, 246
    ],
    1: [
        30, 32, 45, 51, 73, 77, 79, 88, 100, 109, 111, 115, 116,
        129, 132, 135, 137, 141, 152, 159, 163, 164, 171, 174, 188,
        192, 193, 194, 195, 196, 199, 200, 203, 207, 209, 210, 213,
        215, 217, 218, 219, 221, 225, 229, 232, 233, 234, 236, 237,
        238, 244, 247, 249
    ],
    2: [
        7, 47, 53, 54, 62, 66, 69, 80, 110, 112, 121, 124, 125, 127,
        136, 137, 154, 155, 157, 161, 171, 177, 178, 181, 184, 189,
        194, 199, 200, 202, 203, 204, 205, 206, 208, 212, 213, 221,
        222, 224, 226, 227, 228, 230, 232, 233, 234, 238, 241, 242,
        245
    ],
}


def _clusters(seed=0):
    """Three tight clusters of 5 points each in 8-d."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(3, 8)) * 5
    points = []
    for c in centers:
        for _ in range(5):
            points.append(c + rng.normal(scale=0.01, size=8))
    matrix = np.array(points)
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


class TestDeduplicate:
    def test_empty(self):
        result = deduplicate(np.zeros((0, 4)))
        assert result.kept == []
        assert result.groups == []

    def test_groups_tight_clusters(self):
        result = deduplicate(_clusters(), threshold=0.95)
        assert len(result.kept) == 3
        sizes = sorted(len(g) for g in result.groups)
        assert sizes == [5, 5, 5]

    def test_keep_per_group(self):
        result = deduplicate(_clusters(), threshold=0.95, keep_per_group=2)
        assert len(result.kept) == 6

    def test_representative_is_lowest_index(self):
        result = deduplicate(_clusters(), threshold=0.95)
        for group in result.groups:
            rep = result.representative_of[group[0]]
            assert rep == min(group)

    def test_all_indices_mapped(self):
        matrix = _clusters()
        result = deduplicate(matrix, threshold=0.95)
        assert set(result.representative_of) == set(range(matrix.shape[0]))

    def test_distinct_points_all_kept(self):
        rng = np.random.default_rng(3)
        matrix = rng.normal(size=(20, 16))
        matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
        result = deduplicate(matrix, threshold=0.99)
        assert len(result.kept) == 20
        assert result.n_duplicates_removed == 0

    def test_kept_sorted(self):
        result = deduplicate(_clusters(), threshold=0.95)
        assert result.kept == sorted(result.kept)

    @pytest.mark.parametrize("threshold", [0.0, 1.5, -0.1])
    def test_invalid_threshold(self, threshold):
        with pytest.raises(ValueError):
            deduplicate(np.ones((2, 2)), threshold=threshold)

    def test_invalid_keep_per_group(self):
        with pytest.raises(ValueError):
            deduplicate(np.ones((2, 2)), keep_per_group=0)

    @pytest.mark.parametrize("k_neighbors", [0, -2])
    @pytest.mark.parametrize(
        "n_shards", [pytest.param(1, id="hnsw"), pytest.param(2, id="sharded")]
    )
    def test_invalid_k_neighbors(self, k_neighbors, n_shards):
        # Rows with five exact copies: k_neighbors=0 used to keep every row,
        # and a negative count sliced the neighbour lists from the end.
        matrix = np.concatenate([_clusters(), np.repeat(_clusters()[:1], 5, axis=0)])
        with pytest.raises(ValueError, match="k_neighbors"):
            deduplicate(matrix, k_neighbors=k_neighbors, n_shards=n_shards)

    def test_deterministic(self):
        matrix = _clusters(seed=9)
        a = deduplicate(matrix, seed=4)
        b = deduplicate(matrix, seed=4)
        assert a.kept == b.kept


def _monolithic_knn_graph(matrix, k_neighbors, ef_search, seed):
    index = HnswIndex(dim=matrix.shape[1], ef_search=ef_search, seed=seed)
    index.add_batch(matrix, range(matrix.shape[0]))
    return index.knn_graph(k_neighbors, ef=ef_search)


class TestShardedBackend:
    def test_one_shard_bit_identical_to_monolithic(self):
        matrix = _clusters(seed=2)
        one_shard = _knn_graph_sharded(
            matrix, k_neighbors=8, ef_search=64, seed=4, n_shards=1
        )
        assert one_shard == _monolithic_knn_graph(matrix, 8, 64, 4)

    def test_auto_picks_sharded_above_one_shard(self, monkeypatch):
        calls = []

        def spy(matrix, k_neighbors, ef_search, seed, n_shards):
            calls.append(n_shards)
            return _knn_graph_sharded(matrix, k_neighbors, ef_search, seed, n_shards)

        monkeypatch.setattr(dedup, "_knn_graph_sharded", spy)
        matrix = _clusters(seed=5)
        deduplicate(matrix, threshold=0.95)
        assert calls == []
        sharded = deduplicate(matrix, threshold=0.95, n_shards=4)
        assert calls == [4]
        assert len(sharded.kept) == 3

    def test_multi_shard_collapses_tight_clusters(self):
        result = deduplicate(_clusters(), threshold=0.95, n_shards=4)
        assert len(result.kept) == 3
        assert sorted(len(g) for g in result.groups) == [5, 5, 5]

    def test_invalid_n_shards(self):
        with pytest.raises(ValueError):
            deduplicate(np.ones((2, 2)), n_shards=0)

    def test_real_embeddings_one_shard_parity(self, factory):
        prompts = [factory.make_prompt() for _ in range(30)]
        embeddings = EmbeddingModel().embed_batch([p.text for p in prompts])
        one_shard = _knn_graph_sharded(
            embeddings, k_neighbors=8, ef_search=64, seed=0, n_shards=1
        )
        assert one_shard == _monolithic_knn_graph(embeddings, 8, 64, 0)


class TestDedupOnRealPromptEmbeddings:
    def test_near_duplicate_prompts_collapse(self, factory):
        base = [factory.make_prompt() for _ in range(20)]
        dups = [factory.make_near_duplicate(p) for p in base[:5]]
        texts = [p.text for p in base + dups]
        embeddings = EmbeddingModel().embed_batch(texts)
        result = deduplicate(embeddings, threshold=0.85)
        # Each of the 5 near-duplicates should merge with its base.
        assert len(result.kept) <= len(base) + 1


class TestExactDuplicatesOnly:
    """``threshold=1.0`` groups exact and positive-scaled copies: their
    cosine distance is a few ulps off 0, never exactly 0."""

    @pytest.mark.parametrize("scaled", [False, True])
    def test_gaussian_rows_stacked_twice(self, scaled):
        rng = np.random.default_rng(11)
        base = rng.normal(size=(40, 16))
        copies = base * rng.uniform(0.01, 100.0, size=(40, 1)) if scaled else base.copy()
        result = deduplicate(np.vstack([base, copies]), threshold=1.0)
        assert result.kept == list(range(40))
        assert all(result.representative_of[40 + i] == i for i in range(40))

    @pytest.mark.parametrize("scaled", [False, True])
    def test_prompt_texts_embedded_twice(self, factory, scaled):
        embedder = EmbeddingModel()
        rows: dict[bytes, np.ndarray] = {}
        while len(rows) < 40:
            row = embedder.embed(factory.make_prompt().text)
            rows.setdefault(row.tobytes(), row)
        base = np.array(list(rows.values()))
        copies = base * np.linspace(0.5, 3.0, 40)[:, None] if scaled else base.copy()
        result = deduplicate(np.vstack([base, copies]), threshold=1.0)
        assert result.kept == list(range(40))

    def test_distinct_rows_stay_apart(self):
        rng = np.random.default_rng(12)
        matrix = rng.normal(size=(60, 8))
        assert deduplicate(matrix, threshold=1.0).kept == list(range(60))


class TestGoldenDedup:
    @pytest.mark.parametrize("seed", sorted(_GOLDEN_DROPPED))
    def test_pipeline_parameters_keep_the_golden_set(self, seed):
        corpus = PromptFactory(rng=np.random.default_rng(seed)).make_corpus(
            CorpusConfig(n_prompts=250)
        )
        embeddings = EmbeddingModel().embed_batch([p.text for p in corpus])
        cc = CollectionConfig()
        result = deduplicate(
            embeddings,
            threshold=cc.dedup_threshold,
            k_neighbors=cc.dedup_neighbors,
            keep_per_group=cc.keep_per_group,
            seed=PipelineConfig().seed,
        )
        dropped = set(_GOLDEN_DROPPED[seed])
        assert result.kept == [i for i in range(250) if i not in dropped]
