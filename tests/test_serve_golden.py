"""Golden pin for what the scalar ``ask`` loop exports.

One fixed workload runs through ``gateway.ask`` one request at a time:
300 asks over a 40-prompt pool (so prompts repeat), 10% of them to an
unknown model and 10% with ``augment=False``, through caches small
enough to evict (complement 4, embedding 8).  The chaos variant adds
augmentation faults (rate 0.15), completion faults (0.2), latency spikes,
a retry policy and a tight breaker.  The sha256 of each export is pinned:
responses, ``GatewayStats.as_dict()``, both caches' hit/miss counters,
the event JSONL and the metrics snapshot.

Spans are deliberately not pinned: a scalar ask records its one-request
``gateway.plan`` trace before its ``gateway.ask`` trace, and the embed
tier shows up as ``cache``/``embed`` spans under ``augment``.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.obs import Observability
from repro.resilience import FaultPlan, RetryPolicy
from repro.serve.gateway import GatewayConfig, PasGateway
from repro.serve.types import ServeRequest
from repro.world.prompts import PromptFactory

MODELS = ("gpt-4-0613", "qwen2-72b-chat")


def golden_requests(n: int = 300, pool_size: int = 40, seed: int = 5) -> list[ServeRequest]:
    factory = PromptFactory(rng=np.random.default_rng(seed))
    pool = [factory.make_prompt().text for _ in range(pool_size)]
    rng = np.random.default_rng(seed + 1)
    requests = []
    for i in range(n):
        prompt = pool[int(pool_size * rng.random() ** 2)]
        roll = rng.random()
        model = "no-such-model" if roll < 0.1 else MODELS[int(rng.integers(len(MODELS)))]
        augment = not (0.1 <= roll < 0.2)
        requests.append(
            ServeRequest(prompt=prompt, model=model, augment=augment, request_id=f"g{i}")
        )
    return requests


def golden_config(chaos: bool) -> GatewayConfig:
    if not chaos:
        return GatewayConfig(cache_size=4, embed_cache_size=8, seed=2)
    return GatewayConfig(
        cache_size=4,
        embed_cache_size=8,
        seed=2,
        fault_plan=FaultPlan(
            seed=9,
            completion_failure_rate=0.2,
            augment_failure_rate=0.15,
            latency_spike_rate=0.1,
            latency_spike_ticks=2,
        ),
        retry_policy=RetryPolicy(max_retries=1, seed=9),
        breaker_threshold=3,
        breaker_recovery_ticks=8,
    )


def _sha(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def ask_loop_digests(pas, chaos: bool, tmp_path) -> dict[str, str]:
    """sha256 per export of the golden workload served by the ``ask`` loop."""
    obs = Observability.enabled()
    gateway = PasGateway(pas, config=golden_config(chaos), obs=obs)
    responses = [gateway.ask(request) for request in golden_requests()]
    events = tmp_path / f"events_{int(chaos)}.jsonl"
    obs.events.export_jsonl(events)
    complement, embed = gateway._complement_cache, gateway._embed_cache
    return {
        "responses": _sha([r.as_dict() for r in responses]),
        "stats": _sha(gateway.stats.as_dict()),
        "caches": _sha([complement.hits, complement.misses, embed.hits, embed.misses]),
        "events": hashlib.sha256(events.read_bytes()).hexdigest(),
        "metrics": _sha(obs.metrics.as_dict()),
    }


#: Captured from the ``ask`` loop while it still augmented through its own
#: ``PasModel.augment`` fallback; the one-request plan must match it.
GOLDEN = {
    False: {
        "responses": "aff9cefd8023bfd021509190fba4b4d8d37bd8ebd203a8d6bbc7b15cc53d49c8",
        "stats": "f829d2a4c3eafc270d10088f55d0c1caf7726a62a1fb7b5fc01fb0f8b138ccd8",
        "caches": "ac14f089785ad0e2629a7762b11e0f0d545347b4038e69d116d4e523f4c226c6",
        "events": "60a24c8e8f795ecea46bf309f5540c8f9c967562513d40fb117050fe32ff0a20",
        "metrics": "52adbd2fee8d2f9ca3b1a572b20ac9ffb43f26bb211261aac3aa0c48097c03bf",
    },
    True: {
        "responses": "4600287cda88fc7aa200be5d4f2c0767f0faf5beeccc273553941b33169adf81",
        "stats": "0e5c5adf6a18a868bb1693377d341b83d4699bd279fc95d3f7dbc81c70a169f8",
        "caches": "dac95b70b542411fdfcea0e6115bde4524127611a7a155801fe49adda0c585e5",
        "events": "3a9f5cc7f1db3e9b94fbbd231e7f03ec08c9085c9b2e9270577b48c7bbb96a22",
        "metrics": "0bb67324d70a05aa4105641e445d2dd657b8fdf67f81ab7ddf6ba17202114230",
    },
}


@pytest.mark.parametrize("chaos", [False, True], ids=["clean", "chaos"])
def test_ask_loop_exports_match_golden(trained_pas, chaos, tmp_path):
    assert ask_loop_digests(trained_pas, chaos, tmp_path) == GOLDEN[chaos]
