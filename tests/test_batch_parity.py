"""The determinism contract: every batched path == its scalar loop, bitwise.

The batched hot paths (``embed_batch``, ``search_batch``,
``predict_aspects_batch``, ``augment_batch``, ``ask_batch``) promise
*bit-identical* results to their scalar counterparts — not approximately
equal, identical.  That only holds because both sides funnel through the
same BLAS kernel calls (per-row gemv, per-row 1-D norms, ``np.add.at`` in
feature order); a GEMM or an axis-norm would drift in the last ulp.  These
tests pin the contract across seeds and edge shapes so a future "obvious"
vectorization can't silently break it.
"""

import numpy as np
import pytest

from repro import build_default_dataset
from repro.ann.bruteforce import BruteForceIndex
from repro.ann.hnsw import HnswIndex
from repro.ann.sharded import ShardedHnswIndex
from repro.core.pas import PasModel
from repro.embedding.model import EmbeddingModel
from repro.errors import NotFittedError
from repro.serve.cache import LruCache
from repro.serve.gateway import GatewayConfig, PasGateway
from repro.serve.scheduler import MicroBatcher
from repro.serve.types import ServeRequest
from repro.world.prompts import PromptFactory


def _corpus(n, seed):
    factory = PromptFactory(rng=np.random.default_rng(seed))
    return [factory.make_prompt().text for _ in range(n)]


class TestEmbedBatchParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bitwise_across_seeds(self, seed):
        texts = _corpus(24, seed)
        model = EmbeddingModel()
        batch = model.embed_batch(texts)
        for row, text in zip(batch, texts):
            assert (row == model.embed(text)).all()


class TestSearchBatchParity:
    @pytest.mark.parametrize("metric", ["cosine", "l2"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_bitwise_vs_per_query_search(self, metric, seed):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(120, 16))
        queries = rng.normal(size=(20, 16))
        index = HnswIndex(dim=16, metric=metric, seed=seed)
        index.add_batch(points, range(len(points)))
        assert index.search_batch(queries, 5) == [
            index.search(q, 5) for q in queries
        ]

    def test_recall_vs_bruteforce(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(200, 12))
        queries = rng.normal(size=(30, 12))
        hnsw = HnswIndex(dim=12, ef_search=80, seed=0)
        hnsw.add_batch(points, range(len(points)))
        brute = BruteForceIndex(dim=12)
        for i, p in enumerate(points):
            brute.add(p, key=i)
        recalls = []
        for hits, query in zip(hnsw.search_batch(queries, 10), queries):
            exact = {key for key, _ in brute.search(query, 10)}
            recalls.append(len({key for key, _ in hits} & exact) / 10)
        assert np.mean(recalls) > 0.9


class TestAugmentBatchParity:
    @pytest.fixture(scope="class")
    def pas_models(self):
        """Two independently trained models with different seeds."""
        models = []
        for seed in (3, 5):
            dataset = build_default_dataset(n_prompts=80, seed=seed, curate=True)
            models.append(
                PasModel(base_model="qwen2-7b-chat", seed=seed).train(dataset)
            )
        return models

    def test_exact_across_seeds(self, pas_models):
        prompts = _corpus(12, 9)
        prompts += prompts[:3]  # duplicates must round-trip too
        for model in pas_models:
            assert model.augment_batch(prompts) == [
                model.augment(p) for p in prompts
            ]

    def test_predict_aspects_batch_matches_scalar(self, pas_models):
        prompts = _corpus(8, 11)
        for model in pas_models:
            predictor = model.predictor
            assert predictor.predict_aspects_batch(prompts) == [
                predictor.predict_aspects(p) for p in prompts
            ]

    def test_empty_batch(self, pas_models):
        assert pas_models[0].augment_batch([]) == []
        assert pas_models[0].enhance_batch([]) == []

    def test_untrained_raises(self):
        with pytest.raises(NotFittedError):
            PasModel(base_model="qwen2-7b-chat").augment_batch(["hi there friend."])


class TestShardedSearchParity:
    """Sharded batch search == its scalar per-query loop, bitwise."""

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_bitwise_vs_per_query_search(self, n_shards):
        rng = np.random.default_rng(n_shards)
        points = rng.normal(size=(100, 16))
        queries = rng.normal(size=(18, 16))
        index = ShardedHnswIndex(dim=16, n_shards=n_shards, seed=0)
        index.add_batch(points, range(len(points)))
        assert index.search_batch(queries, 5) == [
            index.search(q, 5) for q in queries
        ]


class TestAugmentEmbedCacheParity:
    """The embedding memo is transparent: cached == uncached, bitwise."""

    def test_augment_with_and_without_cache(self, trained_pas):
        prompts = _corpus(10, 17)
        cache: LruCache = LruCache(capacity=4)  # smaller than the prompt set
        cached_twice = [
            [trained_pas.augment(p, embed_cache=cache) for p in prompts]
            for _ in range(2)
        ]
        plain = [trained_pas.augment(p) for p in prompts]
        assert cached_twice[0] == cached_twice[1] == plain

    def test_augment_batch_with_cache(self, trained_pas):
        prompts = _corpus(8, 19)
        prompts += prompts[:3]
        cache: LruCache = LruCache(capacity=16)
        warm = trained_pas.augment_batch(prompts, embed_cache=cache)
        rewarm = trained_pas.augment_batch(prompts, embed_cache=cache)
        assert warm == rewarm == trained_pas.augment_batch(prompts)
        assert cache.hits > 0

    def test_augment_with_embeddings_matches_scalar(self, trained_pas):
        prompts = _corpus(6, 23)
        vectors = trained_pas.embed_prompts(prompts)
        assert trained_pas.augment_with_embeddings(prompts, vectors) == [
            trained_pas.augment(p) for p in prompts
        ]


class TestGatewayBatchParity:
    def test_replay_matches_scalar_even_under_eviction(self, trained_pas):
        # cache capacity far below the number of unique prompts in the
        # batch, so planning-phase peeks and serving-phase puts interleave
        # with evictions; the replay must still match the scalar loop.
        prompts = _corpus(10, 13)
        traffic = prompts + prompts[:4] + prompts[::-1]
        requests = [ServeRequest(prompt=p, model="gpt-4-0613") for p in traffic]
        scalar = PasGateway(pas=trained_pas, config=GatewayConfig(cache_size=4))
        batched = PasGateway(pas=trained_pas, config=GatewayConfig(cache_size=4))
        assert batched.ask_batch(requests) == [scalar.ask(r) for r in requests]
        assert batched.stats == scalar.stats
        assert list(batched._complement_cache._data) == list(
            scalar._complement_cache._data
        )

    def test_replay_matches_scalar_with_both_tiers_thrashing(self, trained_pas):
        # Both cache tiers are smaller than the unique-prompt set, so the
        # replay exercises every path: complement evictions forcing
        # re-augmentation, embedding evictions forcing re-embeds, and the
        # planning phase's held values standing in for both.
        prompts = _corpus(10, 29)
        traffic = prompts + prompts[:5] + prompts[::-1]
        requests = [ServeRequest(prompt=p, model="gpt-4-0613") for p in traffic]
        scalar = PasGateway(pas=trained_pas, config=GatewayConfig(cache_size=3, embed_cache_size=4))
        batched = PasGateway(pas=trained_pas, config=GatewayConfig(cache_size=3, embed_cache_size=4))
        assert batched.ask_batch(requests) == [scalar.ask(r) for r in requests]
        assert batched.stats == scalar.stats
        assert [
            (key, value.tobytes())
            for key, value in batched._embed_cache._data.items()
        ] == [
            (key, value.tobytes())
            for key, value in scalar._embed_cache._data.items()
        ]


class TestMicroBatcherParity:
    def test_any_partition_matches_one_batch(self, trained_pas):
        prompts = _corpus(9, 31)
        traffic = prompts + prompts[:4]
        requests = [ServeRequest(prompt=p, model="gpt-4-0613") for p in traffic]
        direct = PasGateway(pas=trained_pas, config=GatewayConfig(cache_size=4, embed_cache_size=4))
        expected = direct.ask_batch(requests)
        for max_batch, max_wait in ((1, 1), (3, 2), (5, 100)):
            gateway = PasGateway(pas=trained_pas, config=GatewayConfig(cache_size=4, embed_cache_size=4))
            batcher = MicroBatcher(max_batch=max_batch, max_wait=max_wait)
            responses = []
            for tick, request in enumerate(requests, start=1):
                batcher.submit_at(tick, request)
                responses.extend(gateway.ask_batch(batcher.take(tick)))
            responses.extend(gateway.ask_batch(batcher.take(tick, force=True)))
            assert responses == expected
            assert gateway.stats == direct.stats
