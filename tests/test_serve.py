"""Tests for the serving layer (gateway, cache, request types)."""

import pytest

from repro.errors import UnknownModelError
from repro.llm.api import TransientApiError
from repro.serve.cache import LruCache
from repro.serve.gateway import GatewayConfig, PasGateway
from repro.serve.types import ServeRequest


class TestLruCache:
    def test_basic_roundtrip(self):
        cache = LruCache(capacity=4)
        cache.put("k", "v")
        assert cache.get("k") == "v"

    def test_miss_returns_default(self):
        cache = LruCache(capacity=2)
        assert cache.get("missing", "dflt") == "dflt"

    def test_eviction_order(self):
        cache = LruCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a
        cache.put("c", 3)  # evicts b
        assert "a" in cache
        assert "b" not in cache

    def test_put_refreshes(self):
        cache = LruCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        cache.put("c", 3)  # evicts b, not a
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_hit_rate(self):
        cache = LruCache(capacity=2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("x")
        assert cache.hit_rate == 0.5
        assert LruCache(capacity=1).hit_rate == 0.0

    def test_len_and_clear(self):
        cache = LruCache(capacity=3)
        cache.put("a", 1)
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == cache.misses == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            LruCache(capacity=0)

    def test_peek_does_not_count_or_refresh(self):
        cache = LruCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1
        assert cache.peek("missing") is None
        assert cache.peek("missing", -1) == -1
        assert cache.hits == cache.misses == 0
        cache.put("c", 3)  # peek("a") must NOT have refreshed a
        assert "a" not in cache
        assert "b" in cache


class TestServeTypes:
    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError):
            ServeRequest(prompt="   ", model="gpt-4-0613")

    def test_augmented_property(self, trained_pas):
        gateway = PasGateway(pas=trained_pas)
        response = gateway.ask(
            ServeRequest(prompt="how do i sort a csv? walk me through it.", model="gpt-4-0613")
        )
        assert response.augmented == bool(response.complement)


class TestGateway:
    @pytest.fixture()
    def gateway(self, trained_pas):
        return PasGateway(pas=trained_pas, config=GatewayConfig(cache_size=8))

    def test_ask_text(self, gateway):
        assert gateway.ask_text("how do i parse csv files? show me how.", "gpt-4-0613")

    def test_unknown_model_rejected_strict(self, gateway):
        with pytest.raises(UnknownModelError):
            gateway.ask(
                ServeRequest(prompt="hello there friend", model="gpt-99"), strict=True
            )

    def test_unknown_model_fails_non_strict(self, gateway):
        response = gateway.ask(ServeRequest(prompt="hello there friend", model="gpt-99"))
        assert response.failed
        assert response.error.startswith("UnknownModelError")
        assert gateway.stats.failures == 1

    def test_complement_cache_hits_on_repeat(self, gateway):
        request = ServeRequest(prompt="how do i bake bread? walk me through it.", model="gpt-4-0613")
        first = gateway.ask(request)
        second = gateway.ask(request)
        assert not first.complement_cached
        assert second.complement_cached
        assert first.response == second.response
        assert gateway.cache_hit_rate > 0.0

    def test_stats_accumulate(self, gateway):
        gateway.ask_text("question one about gardens, please explain it in detail.", "gpt-4-0613")
        gateway.ask_text("question two about trains. walk me through it.", "gpt-3.5-turbo-1106")
        stats = gateway.stats
        assert stats.requests == 2
        assert stats.per_model == {"gpt-4-0613": 1, "gpt-3.5-turbo-1106": 1}
        assert stats.prompt_tokens > 0
        assert stats.completion_tokens > 0

    def test_augment_flag_off(self, gateway):
        response = gateway.ask(
            ServeRequest(
                prompt="how do i bake bread? please explain it in detail.",
                model="gpt-4-0613",
                augment=False,
            )
        )
        assert response.complement == ""
        assert not response.augmented

    def test_clients_created_lazily(self, gateway):
        assert gateway.registered_models == []
        gateway.ask_text("first request about boats, be concise.", "qwen2-72b-chat")
        assert gateway.registered_models == ["qwen2-72b-chat"]

    def test_augmentation_rate(self, gateway):
        gateway.ask(
            ServeRequest(prompt="how do i fix my code? it fails under load.", model="gpt-4-0613", augment=False)
        )
        assert gateway.stats.augmentation_rate == 0.0


class TestGatewayFailureAccounting:
    def test_exhausted_retries_still_recorded_strict(self, trained_pas, monkeypatch):
        gateway = PasGateway(pas=trained_pas, config=GatewayConfig(cache_size=8, strict=True))
        client = gateway.client_for("gpt-4-0613")

        def exploding_complete(messages):
            raise TransientApiError("gpt-4-0613: all attempts failed transiently")

        monkeypatch.setattr(client, "complete", exploding_complete)
        request = ServeRequest(
            prompt="how do i bake bread? walk me through it.", model="gpt-4-0613"
        )
        with pytest.raises(TransientApiError):
            gateway.ask(request)
        assert gateway.stats.requests == 1
        assert gateway.stats.failures == 1
        assert gateway.stats.per_model == {"gpt-4-0613": 1}
        assert gateway.stats.failures_per_model == {"gpt-4-0613": 1}
        # the failed completion contributes no served-side accounting
        assert gateway.stats.augmented == 0
        assert gateway.stats.prompt_tokens == 0

    def test_exhausted_retries_yield_failed_response(self, trained_pas, monkeypatch):
        gateway = PasGateway(pas=trained_pas, config=GatewayConfig(cache_size=8))
        client = gateway.client_for("gpt-4-0613")

        def exploding_complete(messages):
            raise TransientApiError("gpt-4-0613: all attempts failed transiently")

        monkeypatch.setattr(client, "complete", exploding_complete)
        response = gateway.ask(
            ServeRequest(prompt="how do i bake bread? walk me through it.", model="gpt-4-0613")
        )
        assert response.failed
        assert not response.ok
        assert response.response == ""
        assert response.error == (
            "TransientApiError: gpt-4-0613: all attempts failed transiently"
        )
        assert gateway.stats.failures == 1
        assert gateway.stats.served == 0

    def test_failures_default_zero(self, trained_pas):
        gateway = PasGateway(pas=trained_pas, config=GatewayConfig(cache_size=8))
        gateway.ask_text("how do i parse csv files? show me how.", "gpt-4-0613")
        assert gateway.stats.failures == 0
        assert gateway.stats.failures_per_model == {}

    def test_per_model_mixes_served_and_failed(self, trained_pas, monkeypatch):
        """``per_model`` counts attempts; ``failures_per_model`` isolates
        the failed ones, so served-per-model is their difference."""
        gateway = PasGateway(pas=trained_pas, config=GatewayConfig(cache_size=8, strict=True))
        gateway.ask_text("how do i bake bread? walk me through it.", "gpt-4-0613")
        client = gateway.client_for("gpt-4-0613")

        def exploding_complete(messages):
            raise TransientApiError("gpt-4-0613: all attempts failed transiently")

        monkeypatch.setattr(client, "complete", exploding_complete)
        with pytest.raises(TransientApiError):
            gateway.ask_text("why does my regex backtrack so much? be concise.", "gpt-4-0613")
        assert gateway.stats.per_model == {"gpt-4-0613": 2}
        assert gateway.stats.failures_per_model == {"gpt-4-0613": 1}
        served = {
            model: count - gateway.stats.failures_per_model.get(model, 0)
            for model, count in gateway.stats.per_model.items()
        }
        assert served == {"gpt-4-0613": 1}


class TestRemovedFlatKwargs:
    def test_flat_kwargs_raise_naming_field(self, trained_pas):
        with pytest.raises(TypeError, match="cache_size"):
            PasGateway(pas=trained_pas, cache_size=8, seed=4)

    def test_flat_kwargs_rejected_even_with_config(self, trained_pas):
        with pytest.raises(TypeError, match="cache_size"):
            PasGateway(
                pas=trained_pas,
                config=GatewayConfig(cache_size=4, failure_rate=0.1),
                cache_size=16,
            )

    def test_unknown_kwargs_rejected(self, trained_pas):
        with pytest.raises(TypeError, match="cache_sze"):
            PasGateway(pas=trained_pas, cache_sze=8)

    def test_config_only_path_does_not_warn(self, trained_pas, recwarn):
        PasGateway(pas=trained_pas, config=GatewayConfig(cache_size=8))
        assert not [w for w in recwarn.list if w.category is DeprecationWarning]


class TestEmbeddingCacheTier:
    """The embedding memo under the complement LRU (two-tier caching)."""

    def test_eviction_reaugment_hits_embed_tier(self, trained_pas):
        # Complement LRU of 1 thrashes between two prompts; every
        # re-augmentation after the first should reuse the embedding.
        gateway = PasGateway(pas=trained_pas, config=GatewayConfig(cache_size=1, embed_cache_size=16))
        prompts = [
            "how do i bake bread? walk me through it.",
            "how do i parse csv files? show me how.",
        ]
        for _ in range(3):
            for prompt in prompts:
                gateway.ask(ServeRequest(prompt=prompt, model="gpt-4-0613"))
        assert gateway.stats.embed_cache_misses == 2  # first sight of each
        assert gateway.stats.embed_cache_hits == 4  # every re-augmentation
        assert gateway.embed_cache_hit_rate == pytest.approx(4 / 6)

    def test_complement_hit_skips_embed_tier(self, trained_pas):
        gateway = PasGateway(pas=trained_pas, config=GatewayConfig(cache_size=8, embed_cache_size=16))
        request = ServeRequest(
            prompt="how do i bake bread? walk me through it.", model="gpt-4-0613"
        )
        gateway.ask(request)
        gateway.ask(request)  # complement LRU hit: the lower tier is idle
        assert gateway.stats.embed_cache_misses == 1
        assert gateway.stats.embed_cache_hits == 0

    def test_disabled_tier(self, trained_pas):
        gateway = PasGateway(pas=trained_pas, config=GatewayConfig(cache_size=1, embed_cache_size=0))
        for _ in range(2):
            gateway.ask_text("how do i bake bread? walk me through it.", "gpt-4-0613")
        assert gateway.embed_cache_hit_rate == 0.0
        assert gateway.stats.embed_cache_hits == 0
        assert gateway.stats.embed_cache_misses == 0

    def test_cached_embedding_changes_nothing(self, trained_pas):
        prompt = "how do i bake bread? walk me through it."
        with_tier = PasGateway(pas=trained_pas, config=GatewayConfig(cache_size=1, embed_cache_size=16))
        without = PasGateway(pas=trained_pas, config=GatewayConfig(cache_size=1, embed_cache_size=0))
        filler = "why does my regex backtrack so much? be concise."
        answers = []
        for gateway in (with_tier, without):
            gateway.ask_text(prompt, "gpt-4-0613")
            gateway.ask_text(filler, "gpt-4-0613")  # evicts the complement
            answers.append(gateway.ask(ServeRequest(prompt=prompt, model="gpt-4-0613")))
        assert answers[0] == answers[1]


class TestGatewayBatch:
    PROMPTS = [
        "how do i parse csv files? show me how.",
        "how do i bake bread? walk me through it.",
        "how do i parse csv files? show me how.",  # duplicate of the first
        "why does my regex backtrack so much? be concise.",
    ]

    def test_empty_batch_is_noop(self, trained_pas):
        gateway = PasGateway(pas=trained_pas, config=GatewayConfig(cache_size=8))
        assert gateway.ask_batch([]) == []
        assert gateway.stats.requests == 0

    def test_matches_scalar_loop(self, trained_pas):
        requests = [
            ServeRequest(prompt=p, model="gpt-4-0613") for p in self.PROMPTS
        ]
        scalar = PasGateway(pas=trained_pas, config=GatewayConfig(cache_size=8))
        batched = PasGateway(pas=trained_pas, config=GatewayConfig(cache_size=8))
        assert batched.ask_batch(requests) == [scalar.ask(r) for r in requests]
        assert batched.stats == scalar.stats
        inner_s = scalar._complement_cache
        inner_b = batched._complement_cache
        assert (inner_b.hits, inner_b.misses) == (inner_s.hits, inner_s.misses)

    def test_duplicate_prompts_augmented_once(self, trained_pas):
        gateway = PasGateway(pas=trained_pas, config=GatewayConfig(cache_size=8))
        responses = gateway.ask_batch(
            [ServeRequest(prompt=p, model="gpt-4-0613") for p in self.PROMPTS]
        )
        assert len(responses) == 4
        assert responses[0].complement == responses[2].complement
        assert responses[2].complement_cached  # second occurrence hits the cache
        assert gateway.stats.cache_hits == 1

    def test_respects_augment_flag(self, trained_pas):
        gateway = PasGateway(pas=trained_pas, config=GatewayConfig(cache_size=8))
        responses = gateway.ask_batch(
            [
                ServeRequest(
                    prompt="how do i bake bread? walk me through it.",
                    model="gpt-4-0613",
                    augment=False,
                )
            ]
        )
        assert responses[0].complement == ""
        assert gateway.stats.augmented == 0
