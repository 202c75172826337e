"""Parity, determinism, and shedding tests for the event-loop serving engine.

Three pinned guarantees (ISSUE 7):

* **Compat parity** — at ``max_inflight=1`` the engine's responses are
  bit-identical to the gateway's ``ask`` loop over the same trace, clean
  and under injected faults alike (partition invariance does the heavy
  lifting).
* **Determinism** — same seed, same trace → byte-identical responses,
  event/trace exports, and metrics snapshots, at any concurrency.
* **Shedding** — deadline/queue-shed requests come back ``failed`` with
  ``attempts=0``, never touch the gateway, and the stats invariants
  (``arrived == served + failed``) hold under faults.

``PAS_CHAOS_SEED`` offsets every fault seed, so CI can sweep fresh fault
interleavings without touching the code.
"""

import os

import pytest

from repro.errors import ConfigError
from repro.obs import NULL_OBS, Observability
from repro.serve import (
    EngineConfig,
    FaultPlan,
    GatewayConfig,
    PasGateway,
    Router,
    RouterConfig,
    ServingConfig,
    ServingEngine,
    TenantProfile,
    TimedRequest,
    TrafficConfig,
    TrafficGenerator,
)
from repro.serve.types import ServeRequest

CHAOS_OFFSET = int(os.environ.get("PAS_CHAOS_SEED", "0"))
CHAOS_SEEDS = tuple(CHAOS_OFFSET + base for base in (0, 1))

POOL = [
    "how do i parse csv files? show me how.",
    "how do i bake bread? walk me through it.",
    "why does my regex backtrack so much? be concise.",
    "how do i profile python code? please explain it in detail.",
    "how do i sort a csv by two columns? show me how.",
    "what is a good chess opening for beginners? be concise.",
    "how do i write a binary search? please explain it in detail.",
    "why is my sourdough dense? walk me through it.",
]


def _trace(n=120, seed=0, process="poisson", mean_gap=2.0, **kwargs):
    config = TrafficConfig(
        n_requests=n, seed=seed, process=process, mean_gap_ticks=mean_gap, **kwargs
    )
    return TrafficGenerator(POOL, config).trace()


def _gateway(trained_pas, obs=None, **kwargs):
    config = GatewayConfig(seed=5, **kwargs)
    if obs is None:
        return PasGateway(trained_pas, config=config)
    return PasGateway(trained_pas, config=config, obs=obs)


class TestTraffic:
    def test_trace_is_pure_and_sorted(self):
        for process in ("uniform", "poisson", "bursty", "diurnal"):
            gen = TrafficGenerator(POOL, TrafficConfig(n_requests=60, seed=3, process=process))
            a, b = gen.trace(), gen.trace()
            assert a == b
            assert all(x.tick <= y.tick for x, y in zip(a, a[1:]))
            assert all(t.tick >= 1 for t in a)

    def test_zipf_concentrates_popularity(self):
        trace = _trace(n=400, zipf_exponent=1.5)
        counts = {}
        for t in trace:
            counts[t.request.prompt] = counts.get(t.request.prompt, 0) + 1
        top = max(counts.values())
        assert top > 400 / len(POOL)  # visibly skewed, not uniform

    def test_tenant_mix_stamps_metadata(self):
        tenants = (
            TenantProfile("free", weight=3.0, priority=0, deadline_ticks=32),
            TenantProfile("paid", weight=1.0, priority=2),
        )
        trace = _trace(n=200, tenants=tenants)
        seen = {t.tenant for t in trace}
        assert seen == {"free", "paid"}
        for t in trace:
            if t.tenant == "paid":
                assert t.priority == 2 and t.deadline_ticks is None
            else:
                assert t.priority == 0 and t.deadline_ticks == 32
        assert all(t.request.request_id.startswith(t.tenant) for t in trace)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrafficConfig(n_requests=0)
        with pytest.raises(ConfigError):
            TrafficConfig(process="lunar")
        with pytest.raises(ConfigError):
            TrafficConfig(tenants=(TenantProfile("a"), TenantProfile("a")))
        with pytest.raises(ConfigError):
            TenantProfile("t", models=())


class TestEngineConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            EngineConfig(max_inflight=0)
        with pytest.raises(ConfigError):
            EngineConfig(max_batch=0)
        with pytest.raises(ConfigError):
            EngineConfig(shed_policy="panic")
        with pytest.raises(ConfigError):
            EngineConfig(max_queue=0)


class TestCompatParity:
    """max_inflight=1 == the gateway's synchronous ask loop."""

    def test_clean_trace_bit_identical(self, trained_pas):
        trace = _trace(n=100, seed=1)
        sync_gateway = _gateway(trained_pas)
        sync = [sync_gateway.ask(t.request) for t in trace]
        engine_gateway = _gateway(trained_pas)
        result = ServingEngine(engine_gateway, EngineConfig(max_inflight=1)).run(trace)
        assert result.responses == sync
        assert engine_gateway.stats == sync_gateway.stats

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_faulty_trace_bit_identical(self, trained_pas, seed):
        trace = _trace(n=100, seed=2, process="bursty")
        plan = FaultPlan(
            seed=seed, completion_failure_rate=0.2, augment_failure_rate=0.1
        )
        sync_gateway = _gateway(trained_pas, fault_plan=plan, max_retries=2)
        sync = [sync_gateway.ask(t.request) for t in trace]
        engine_gateway = _gateway(trained_pas, fault_plan=plan, max_retries=2)
        result = ServingEngine(engine_gateway, EngineConfig(max_inflight=1)).run(trace)
        assert result.responses == sync
        assert engine_gateway.stats == sync_gateway.stats

    def test_unknown_model_requests_keep_order(self, trained_pas):
        trace = [
            TimedRequest(tick=i + 1, request=ServeRequest(prompt=p, model=m, request_id=str(i)))
            for i, (p, m) in enumerate(
                (POOL[i % len(POOL)], "gpt-4-0613" if i % 3 else "not-a-model")
                for i in range(12)
            )
        ]
        sync_gateway = _gateway(trained_pas)
        sync = [sync_gateway.ask(t.request) for t in trace]
        engine_gateway = _gateway(trained_pas)
        result = ServingEngine(engine_gateway, EngineConfig(max_inflight=1)).run(trace)
        assert result.responses == sync
        assert [r.request_id for r in result.responses] == [str(i) for i in range(12)]


class TestDeterminism:
    """Same seed → byte-identical everything, at any concurrency."""

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_same_seed_byte_identical(self, trained_pas, seed, tmp_path):
        trace = _trace(n=100, seed=3, process="diurnal")
        plan = FaultPlan(
            seed=seed, completion_failure_rate=0.15, augment_failure_rate=0.1
        )

        def run(tag):
            obs = Observability.enabled(trace_capacity=4096, event_capacity=65536)
            gateway = _gateway(trained_pas, obs=obs, fault_plan=plan, max_retries=2)
            result = ServingEngine(gateway, EngineConfig(max_inflight=8)).run(trace)
            events = tmp_path / f"events-{tag}.jsonl"
            spans = tmp_path / f"spans-{tag}.jsonl"
            obs.events.export_jsonl(events)
            obs.tracer.store.export_jsonl(spans)
            return result, events.read_bytes(), spans.read_bytes(), obs.metrics.snapshot()

        first, events_a, spans_a, metrics_a = run("a")
        second, events_b, spans_b, metrics_b = run("b")
        assert first.responses == second.responses
        assert events_a == events_b
        assert spans_a == spans_b
        assert metrics_a == metrics_b
        assert first.stats.as_dict() == second.stats.as_dict()

    def test_overlap_shrinks_makespan(self, trained_pas):
        trace = _trace(n=100, seed=4, mean_gap=1.0)
        compat = ServingEngine(_gateway(trained_pas), EngineConfig(max_inflight=1)).run(trace)
        overlapped = ServingEngine(_gateway(trained_pas), EngineConfig(max_inflight=8)).run(trace)
        assert overlapped.stats.makespan_ticks < compat.stats.makespan_ticks / 2
        assert overlapped.stats.peak_inflight > 1
        # Same requests served either way, different schedule.
        assert overlapped.stats.served == compat.stats.served

    def test_engine_metrics_land_in_shared_registry(self, trained_pas):
        obs = Observability.enabled()
        gateway = _gateway(trained_pas, obs=obs)
        engine = ServingEngine(gateway, EngineConfig(max_inflight=4))
        result = engine.run(_trace(n=40, seed=5))
        assert "pas_engine_inflight" in obs.metrics
        assert "pas_request_latency_ticks" in obs.metrics
        assert "pas_queue_wait_ticks" in obs.metrics
        assert "pas_batch_occupancy" in obs.metrics
        hist = obs.metrics.histogram("pas_request_latency_ticks", buckets=())
        assert hist.count() == result.stats.served + result.stats.failed

    def test_engine_and_router_fill_no_registry_with_observability_off(self, trained_pas):
        # Neither EngineStats nor RouterStats reads a registry, so with the
        # null bundle every series goes to the null registry, for the
        # trivial 1-replica router and for a real fleet alike.
        single = ServingEngine(_gateway(trained_pas), EngineConfig(max_inflight=4))
        fleet = ServingEngine(
            Router(
                trained_pas,
                ServingConfig(
                    router=RouterConfig(n_replicas=2, policy="least_loaded"),
                    gateway=GatewayConfig(seed=5),
                ),
                NULL_OBS,
            ),
            EngineConfig(max_inflight=4),
        )
        for engine in (single, fleet):
            result = engine.run(_trace(n=40, seed=5))
            assert result.stats.served + result.stats.failed == 40
            assert not engine._registry.enabled
            assert not engine.router._registry.enabled
        assert fleet.router.stats.routed_total == 40


class TestShedding:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_deadline_shed_fails_with_zero_attempts(self, trained_pas, seed):
        # Saturate two slots so queue waits blow the deadline budget.
        trace = _trace(n=120, seed=6, mean_gap=0.5, process="bursty")
        plan = FaultPlan(seed=seed, completion_failure_rate=0.1)
        gateway = _gateway(trained_pas, fault_plan=plan, max_retries=2)
        engine = ServingEngine(
            gateway, EngineConfig(max_inflight=2, deadline_ticks=32, max_queue=48)
        )
        result = engine.run(trace)
        stats = result.stats
        assert stats.arrived == len(trace) == stats.served + stats.failed
        assert stats.shed_total > 0
        shed = [r for r in result.responses if r.failed and r.attempts == 0]
        assert len(shed) == stats.shed_total
        for response in shed:
            assert response.error is not None
            assert "DeadlineExceededError" in response.error or "AdmissionError" in response.error
        # Shed requests never reached the gateway.
        assert gateway.stats.requests == stats.arrived - stats.shed_total

    def test_degrade_policy_serves_raw_prompt(self, trained_pas):
        trace = _trace(n=80, seed=7, mean_gap=0.5)
        gateway = _gateway(trained_pas)
        engine = ServingEngine(
            gateway,
            EngineConfig(max_inflight=1, deadline_ticks=16, shed_policy="degrade"),
        )
        result = engine.run(trace)
        assert result.stats.shed.get("deadline", 0) == 0
        assert result.stats.degraded_on_shed > 0
        assert result.stats.arrived == result.stats.served + result.stats.failed
        # Degraded-on-shed requests were served without a complement.
        unaugmented = [r for r in result.responses if r.ok and not r.complement]
        assert len(unaugmented) >= result.stats.degraded_on_shed

    def test_queue_overflow_sheds_at_the_door(self, trained_pas):
        trace = [
            TimedRequest(tick=1, request=ServeRequest(prompt=POOL[i % len(POOL)], model="gpt-4-0613"))
            for i in range(20)
        ]
        gateway = _gateway(trained_pas)
        engine = ServingEngine(gateway, EngineConfig(max_inflight=1, max_queue=8))
        result = engine.run(trace)
        assert result.stats.shed.get("queue", 0) == 12
        assert gateway.stats.requests == 8

    def test_priority_dispatches_first_within_batch(self, trained_pas):
        # Two same-tick arrivals: the higher-priority one starts first even
        # though it arrived second.
        trace = [
            TimedRequest(
                tick=1,
                request=ServeRequest(prompt=POOL[0], model="gpt-4-0613", request_id="low"),
                priority=0,
            ),
            TimedRequest(
                tick=1,
                request=ServeRequest(prompt=POOL[1], model="gpt-4-0613", request_id="high"),
                priority=5,
            ),
        ]
        gateway = _gateway(trained_pas)
        result = ServingEngine(gateway, EngineConfig(max_inflight=1, max_batch=2)).run(trace)
        assert result.stats.served == 2
        # The high-priority request dispatched first, so the low one queued
        # behind its completion and waited longer.
        assert result.responses[1].request_id == "high"  # trace order preserved
        assert result.stats.queue_wait_ticks[0] <= result.stats.queue_wait_ticks[1]


class TestMultiRun:
    def test_gateway_state_carries_across_runs(self, trained_pas):
        gateway = _gateway(trained_pas)
        engine = ServingEngine(gateway, EngineConfig(max_inflight=4))
        first = engine.run(_trace(n=40, seed=8))
        hits_after_first = gateway.stats.cache_hits
        second = engine.run(_trace(n=40, seed=8))
        # The second pass re-serves the same prompts: the complement cache
        # is warm, so cache hits strictly increase.
        assert gateway.stats.cache_hits > hits_after_first
        assert first.stats.served == second.stats.served

    def test_empty_trace(self, trained_pas):
        result = ServingEngine(_gateway(trained_pas)).run([])
        assert result.responses == [] and result.stats.arrived == 0
