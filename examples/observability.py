"""Tour the observability subsystem: traces, metrics, events.

A chaos workload — injected completion/augmentation faults, a scheduled
outage, tight circuit breakers — served through an instrumented gateway,
then inspected three ways:

1. the trace store: per-request span trees on the logical clock, with a
   waterfall rendering of the slowest request;
2. the metrics registry: outcome/cache/token counters and attempt
   histograms, rendered as a Prometheus text exposition;
3. the event log: faults, breaker transitions, degraded/failed serves,
   in the order the system experienced them.

Everything here is deterministic: rerunning this script prints the same
traces, the same metrics, the same events.

Run:  python examples/observability.py
"""

from __future__ import annotations

from repro import PasModel, build_default_dataset
from repro.obs import Observability
from repro.resilience import FaultPlan, OutageWindow, RetryPolicy
from repro.serve.gateway import GatewayConfig, PasGateway
from repro.serve.types import ServeRequest
from repro.world.prompts import PromptFactory

import numpy as np


def build_gateway() -> PasGateway:
    dataset = build_default_dataset(n_prompts=120, seed=5, curate=True)
    pas = PasModel(base_model="qwen2-7b-chat", seed=5).train(dataset)
    config = GatewayConfig(
        cache_size=16,
        embed_cache_size=16,
        fault_plan=FaultPlan(
            seed=13,
            completion_failure_rate=0.3,
            augment_failure_rate=0.15,
            outages=(OutageWindow("gpt-4-0613", 20, 26),),
        ),
        retry_policy=RetryPolicy(max_retries=2, base_backoff=1.0, max_backoff=4.0),
        breaker_threshold=2,
        breaker_recovery_ticks=6,
    )
    return PasGateway(pas=pas, config=config, obs=Observability.enabled(wall=True))


def main() -> None:
    gateway = build_gateway()
    factory = PromptFactory(rng=np.random.default_rng(11))
    pool = [factory.make_prompt().text for _ in range(10)]
    rng = np.random.default_rng(12)
    traffic = [pool[i] for i in rng.integers(0, len(pool), size=40)]

    print("=== 1. chaos workload ===")
    responses = [
        gateway.ask(ServeRequest(prompt=p, model="gpt-4-0613", request_id=f"r{i}"))
        for i, p in enumerate(traffic)
    ]
    by_status = {
        status: sum(r.status == status for r in responses)
        for status in ("ok", "degraded", "failed")
    }
    print(f"  {len(responses)} requests -> {by_status}\n")

    obs = gateway.obs
    print("=== 2. traces: the slowest request, as a waterfall ===")
    # Each ask also records the gateway.plan trace of its one-request
    # batch; the waterfall is about requests.
    asks = obs.tracer.store.by_root("gateway.ask")
    slowest = max(asks, key=lambda trace: trace.duration_ticks)
    print("  " + slowest.waterfall(width=24).replace("\n", "\n  "))
    failed = obs.tracer.store.by_status("failed")
    if failed:
        root = failed[0].root
        print(
            f"\n  first failed trace: stage={root.attrs['stage']}, "
            f"attempts={root.attrs['attempts']},\n"
            f"    error={root.attrs['error']!r}"
        )
    print()

    print("=== 3. metrics: Prometheus exposition (excerpt) ===")
    exposition = obs.metrics.render_prometheus()
    for line in exposition.splitlines():
        if line.startswith(("pas_requests_total", "pas_faults_total")):
            print(f"  {line}")
    print(f"  ... ({len(exposition.splitlines())} lines total)\n")

    print("=== 4. events: what the system went through ===")
    print(f"  counts by kind: {obs.events.kinds()}")
    for event in list(obs.events)[:6]:
        print(f"    tick {event.tick:3d}  {event.kind:<20} {event.attrs}")
    print()

    print("=== 5. wall-clock stage attribution (from the same spans) ===")
    from repro.serve.gateway import derive_stage_timings

    timings = derive_stage_timings(obs.tracer)
    total = sum(timings.values())
    print("  " + ", ".join(
        f"{stage} {seconds / total:.0%}" for stage, seconds in timings.items()
    ))


if __name__ == "__main__":
    main()
