"""Observability overhead benchmarks for the serving gateway.

Two numbers, both over the same Zipf-distributed traffic the gateway
throughput bench uses:

* ``obs_off_overhead`` — per-request cost of the *instrumented* gateway
  with observability left at the NULL_OBS default, relative to
  :class:`ReferenceGateway`, a frozen copy of the pre-instrumentation
  scalar ``ask()`` happy path.  The regression gate
  (``check_bench_regression.py``) fails the build when this exceeds
  1.05x: observability that is off must be within noise of free.
* ``tracing_on_cost_ratio`` — per-request cost with a fully live
  :class:`~repro.obs.Observability` bundle (tracer + registry + events)
  relative to the same gateway with observability off, as the median of
  per-round ratios over interleaved rounds.  A live tracer is allowed to
  cost something, so the regression gate's ceiling for it is a looser
  1.5x.

Results merge into ``BENCH_serving.json`` next to the throughput keys:

    PYTHONPATH=src python -m pytest benchmarks/test_bench_obs.py -q
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from bench_timing import median_speedup, speedup, time_pair
from check_bench_regression import merge_write

from repro import build_default_dataset
from repro.core.pas import PasModel
from repro.llm.api import ChatClient
from repro.llm.engine import SimulatedLLM
from repro.llm.types import build_messages
from repro.obs import Observability
from repro.resilience import CircuitBreaker
from repro.serve.cache import LruCache
from repro.serve.gateway import GatewayConfig, PasGateway
from repro.serve.types import ServeRequest, ServeResponse
from repro.world.prompts import PromptFactory

N_REQUESTS = 240
N_UNIQUE_PROMPTS = 40
# Interleaved rounds behind the median-of-ratios tracing-cost gate.
GATE_ROUNDS = 11

RESULTS: dict[str, object] = {}


class ReferenceGateway:
    """The pre-observability scalar ``ask()`` happy path, frozen.

    A faithful copy of what the gateway did per request before the obs
    subsystem existed: clock tick, breaker check, complement-cache get,
    augment on miss (with the embedding memo tier), completion, flat
    dict stats.  Kept here as the stable baseline the
    ``obs_off_overhead`` gate measures against — do not "improve" it.
    """

    def __init__(self, pas, config: GatewayConfig):
        self.pas = pas
        self.config = config
        self._clock = 0
        self._clients: dict[str, ChatClient] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        self._complement_cache: LruCache[str, str] = LruCache(capacity=config.cache_size)
        self._embed_cache = (
            LruCache(capacity=config.embed_cache_size)
            if config.embed_cache_size > 0
            else None
        )
        self.stats = {
            "requests": 0,
            "augmented": 0,
            "cache_hits": 0,
            "prompt_tokens": 0,
            "completion_tokens": 0,
        }

    def _client_for(self, model: str) -> ChatClient:
        if model not in self._clients:
            self._clients[model] = ChatClient(
                engine=SimulatedLLM(model, seed=self.config.seed),
                failure_rate=self.config.failure_rate,
                max_retries=self.config.max_retries,
                clock=lambda: self._clock,
            )
        return self._clients[model]

    def _breaker_for(self, model: str) -> CircuitBreaker:
        if model not in self._breakers:
            self._breakers[model] = CircuitBreaker(
                failure_threshold=self.config.breaker_threshold,
                recovery_ticks=self.config.breaker_recovery_ticks,
            )
        return self._breakers[model]

    def ask(self, request: ServeRequest) -> ServeResponse:
        self._clock += 1
        client = self._client_for(request.model)
        breaker = self._breaker_for(request.model)
        breaker.allow(self._clock)
        cached = self._complement_cache.get(request.prompt)
        if cached is not None:
            complement, was_cached = cached, True
        else:
            complement = self.pas.augment(request.prompt, embed_cache=self._embed_cache)
            self._complement_cache.put(request.prompt, complement)
            was_cached = False
        completion = client.complete(build_messages(request.prompt, complement))
        breaker.record_success(self._clock)
        stats = self.stats
        stats["requests"] += 1
        if complement:
            stats["augmented"] += 1
        if was_cached:
            stats["cache_hits"] += 1
        stats["prompt_tokens"] += completion.prompt_tokens
        stats["completion_tokens"] += completion.completion_tokens
        return ServeResponse(
            request_id=request.request_id,
            model=request.model,
            response=completion.content,
            complement=complement,
            complement_cached=was_cached,
            prompt_tokens=completion.prompt_tokens,
            completion_tokens=completion.completion_tokens,
            status="ok",
            error=None,
            attempts=completion.retries + 1,
        )


@pytest.fixture(scope="module")
def trained_pas():
    dataset = build_default_dataset(n_prompts=150, seed=3, curate=True)
    return PasModel(base_model="qwen2-7b-chat", seed=3).train(dataset)


@pytest.fixture(scope="module")
def zipf_requests(trained_pas):
    """The gateway bench's Zipf traffic, as ServeRequests."""
    factory = PromptFactory(rng=np.random.default_rng(2))
    pool = [factory.make_prompt().text for _ in range(N_UNIQUE_PROMPTS)]
    weights = np.array([1.0 / rank for rank in range(1, N_UNIQUE_PROMPTS + 1)])
    rng = np.random.default_rng(3)
    picks = rng.choice(N_UNIQUE_PROMPTS, size=N_REQUESTS, p=weights / weights.sum())
    return [ServeRequest(prompt=pool[i], model="gpt-4-0613") for i in picks]


@pytest.fixture(scope="module", autouse=True)
def _write_bench_json():
    """Deep-merge this module's keys into BENCH_serving.json (never clobber)."""
    yield
    merge_write(Path(__file__).resolve().parents[1] / "BENCH_serving.json", RESULTS)


def test_obs_off_overhead(trained_pas, zipf_requests):
    config = GatewayConfig(cache_size=1024)

    def serve_reference():
        gateway = ReferenceGateway(trained_pas, config)
        return [gateway.ask(r) for r in zipf_requests]

    def serve_instrumented_off():
        gateway = PasGateway(pas=trained_pas, config=config)  # NULL_OBS default
        return [gateway.ask(r) for r in zipf_requests]

    # The frozen baseline must serve the identical responses, or the ratio
    # compares different work.
    assert serve_reference() == serve_instrumented_off()

    reference, off = time_pair(
        serve_reference,
        serve_instrumented_off,
        labels=("reference gateway", "instrumented gateway, obs off"),
        n_items=len(zipf_requests),
        repeats=5,
    )
    overhead = speedup(off, reference)  # off_per_item / reference_per_item
    RESULTS["obs"] = {
        **RESULTS.get("obs", {}),
        "obs_off_overhead": overhead,
        "reference_requests_per_s": reference.items_per_s,
        "off_requests_per_s": off.items_per_s,
    }
    assert overhead < 1.05


def test_tracing_on_cost(trained_pas, zipf_requests):
    config = GatewayConfig(cache_size=1024)

    def serve_off():
        gateway = PasGateway(pas=trained_pas, config=config)
        return [gateway.ask(r) for r in zipf_requests]

    def serve_on():
        gateway = PasGateway(
            pas=trained_pas,
            config=config,
            obs=Observability.enabled(trace_capacity=N_REQUESTS),
        )
        return [gateway.ask(r) for r in zipf_requests]

    assert serve_on() == serve_off()  # tracing never touches results

    # With another process on the second core one best-of-N ratio can
    # cross the 1.5 ceiling on unchanged code, so the gate reads the
    # median of per-round ratios over interleaved rounds.
    off, on = time_pair(
        serve_off,
        serve_on,
        labels=("tracing off", "tracing on"),
        n_items=len(zipf_requests),
        repeats=GATE_ROUNDS,
    )
    ratio = median_speedup(on, off)  # median of on_per_item / off_per_item
    RESULTS["obs"] = {
        **RESULTS.get("obs", {}),
        "tracing_on_cost_ratio": ratio,
        "on_requests_per_s": on.items_per_s,
    }
    # Sanity only (not the gate): a live tracer on this workload should
    # cost well under 2x end to end — completion dominates.
    assert ratio < 2.0
