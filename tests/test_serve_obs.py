"""Observability across the serving path: traces, metrics, events.

Three properties are pinned here, and CI's ``obs`` job re-runs the module
under several ``PAS_CHAOS_SEED`` offsets:

1. **Transparency** — responses, gateway stats, and cache state are
   bit-identical with observability on or off (spans, counters, and
   events are read-only observers of the request path).
2. **Determinism** — two runs of the same chaos workload at the same
   seed export byte-identical trace and event JSONL files.
3. **Attribution** — every ``failed``/``degraded`` response has a trace
   whose spans record the failing stage, attempt counts, and the
   breaker/fault context.
"""

import json
import os
import warnings

import numpy as np
import pytest

from repro.ann.sharded import ShardedHnswIndex
from repro.errors import ReproError
from repro.obs import EventLog, MetricsRegistry, Observability, Tracer, TraceStore
from repro.resilience import FaultPlan, OutageWindow, RetryPolicy
from repro.serve.engine import EngineConfig, ServingEngine
from repro.serve.gateway import (
    STAGES,
    GatewayConfig,
    PasGateway,
    derive_stage_timings,
)
from repro.serve.router import Router, RouterConfig
from repro.serve.scheduler import MicroBatcher
from repro.serve.traffic import TrafficConfig, TrafficGenerator
from repro.serve.types import ServeRequest, ServeResponse
from repro.utils.io import dump_jsonl, load_jsonl
from repro.world.prompts import PromptFactory

#: CI's obs job exports PAS_CHAOS_SEED to shift the chaos seed.
CHAOS_SEED = 11 + int(os.environ.get("PAS_CHAOS_SEED", "0"))

PROMPTS = [
    "how do i parse csv files? show me how.",
    "how do i bake bread? walk me through it.",
    "why does my regex backtrack so much? be concise.",
    "how do i profile python code? please explain it in detail.",
    "how do i sort a csv by two columns? show me how.",
    "what is a good chess opening for beginners? be concise.",
    "how do i write unit tests for async code? walk me through it.",
    "how do i pickle a numpy array safely? be concise.",
]


def chaos_config(seed=CHAOS_SEED):
    """A fresh heavily-faulted config (fresh FaultPlan: observers attach)."""
    return GatewayConfig(
        cache_size=16,
        embed_cache_size=16,
        fault_plan=FaultPlan(
            seed=seed,
            completion_failure_rate=0.35,
            augment_failure_rate=0.2,
            latency_spike_rate=0.2,
            latency_spike_ticks=2,
            outages=(OutageWindow("gpt-4-0613", 9, 14),),
        ),
        retry_policy=RetryPolicy(
            max_retries=2, base_backoff=1.0, max_backoff=4.0, jitter=0.25, seed=seed
        ),
        breaker_threshold=2,
        breaker_recovery_ticks=6,
    )


def chaos_requests():
    """A workload that exercises repeats, two models, and a bad route."""
    requests = [
        ServeRequest(prompt=p, model="gpt-4-0613", request_id=f"r{i}")
        for i, p in enumerate(PROMPTS + PROMPTS[:4])
    ]
    requests.append(
        ServeRequest(prompt=PROMPTS[0], model="qwen2-72b-chat", request_id="alt")
    )
    requests.append(
        ServeRequest(prompt=PROMPTS[1], model="no-such-model", request_id="bad")
    )
    return requests


def run_chaos(trained_pas, obs, seed=CHAOS_SEED):
    gateway = PasGateway(pas=trained_pas, config=chaos_config(seed), obs=obs)
    responses = [gateway.ask(request) for request in chaos_requests()]
    return gateway, responses


class TestTransparency:
    """Observability never perturbs results."""

    def test_responses_and_stats_identical_on_or_off(self, trained_pas):
        _, plain = run_chaos(trained_pas, Observability())
        observed_gw, observed = run_chaos(trained_pas, Observability.enabled())
        assert observed == plain
        replay_gw, _ = run_chaos(trained_pas, Observability())
        assert observed_gw.stats == replay_gw.stats
        assert observed_gw.stats.as_dict() == replay_gw.stats.as_dict()
        assert observed_gw.cache_hit_rate == replay_gw.cache_hit_rate
        assert observed_gw.embed_cache_hit_rate == replay_gw.embed_cache_hit_rate

    def test_replicas_sharing_a_bundle_count_their_own_stats(self, trained_pas):
        # A Router gives its one bundle to every replica it builds.
        trace = TrafficGenerator(
            PROMPTS, TrafficConfig(n_requests=60, seed=CHAOS_SEED)
        ).trace()
        stats = {}
        for mode, obs in (("off", Observability()), ("on", Observability.enabled())):
            router = Router(
                trained_pas, RouterConfig(n_replicas=2, policy="least_loaded"), obs
            )
            ServingEngine(router, EngineConfig(max_inflight=2)).run(trace)
            requests = [g.stats.requests for g in router.replicas]
            assert requests == [g.clock for g in router.replicas]
            assert requests == router.stats.routed
            stats[mode] = [g.stats.as_dict() for g in router.replicas]
        assert stats["on"] == stats["off"]
        # The shared series hold the fleet's sums.
        assert obs.metrics.counter("pas_requests_total").total() == 60
        tokens = obs.metrics.counter("pas_tokens_total").value(kind="prompt")
        assert tokens == sum(s["prompt_tokens"] for s in stats["on"])

    def test_batchers_sharing_a_bundle_count_their_own_stats(self):
        obs = Observability.enabled()
        used = MicroBatcher(max_batch=4, max_wait=2, obs=obs)
        idle = MicroBatcher(max_batch=4, max_wait=2, obs=obs)
        alone = MicroBatcher(max_batch=4, max_wait=2)
        for batcher in (used, alone):
            for tick, prompt in enumerate(PROMPTS[:5]):
                batcher.submit_at(tick, ServeRequest(prompt=prompt, model="gpt-4-0613"))
            assert len(batcher.take(4)) == 4
            assert len(batcher.take(5, force=True)) == 1
        assert used.stats == alone.stats
        assert used.stats.triggers == {"size": 1, "flush": 1}
        assert idle.stats.as_dict() == MicroBatcher(max_batch=4).stats.as_dict()
        assert obs.metrics.counter("pas_batch_submitted_total").total() == 5

    def test_batch_parity_holds_with_tracing_on(self, trained_pas):
        requests = chaos_requests()
        scalar_gw = PasGateway(
            pas=trained_pas, config=chaos_config(), obs=Observability.enabled()
        )
        batched_gw = PasGateway(
            pas=trained_pas, config=chaos_config(), obs=Observability.enabled()
        )
        scalar = [scalar_gw.ask(r) for r in requests]
        batched = batched_gw.ask_batch(requests)
        assert batched == scalar
        assert batched_gw.stats == scalar_gw.stats
        # the per-request gateway.ask traces have the same outcome sequence
        scalar_asks = scalar_gw.obs.tracer.store.by_root("gateway.ask")
        batched_asks = batched_gw.obs.tracer.store.by_root("gateway.ask")
        assert [t.status for t in batched_asks] == [t.status for t in scalar_asks]
        # the batch path adds exactly one planning trace
        assert len(batched_gw.obs.tracer.store.by_root("gateway.plan")) == 1


class TestDeterminism:
    def test_trace_and_event_exports_are_byte_identical(self, trained_pas, tmp_path):
        paths = []
        for run in ("a", "b"):
            obs = Observability.enabled(trace_capacity=512)
            run_chaos(trained_pas, obs)
            trace_path = tmp_path / f"traces_{run}.jsonl"
            event_path = tmp_path / f"events_{run}.jsonl"
            assert obs.tracer.store.export_jsonl(trace_path) > 0
            assert obs.events.export_jsonl(event_path) > 0
            paths.append((trace_path, event_path))
        (trace_a, event_a), (trace_b, event_b) = paths
        assert trace_a.read_bytes() == trace_b.read_bytes()
        assert event_a.read_bytes() == event_b.read_bytes()

    def test_different_seeds_change_the_stream(self, trained_pas):
        obs_a = Observability.enabled(trace_capacity=512)
        obs_b = Observability.enabled(trace_capacity=512)
        run_chaos(trained_pas, obs_a, seed=CHAOS_SEED)
        run_chaos(trained_pas, obs_b, seed=CHAOS_SEED + 1)
        assert obs_a.tracer.store.as_dicts() != obs_b.tracer.store.as_dicts()

    def test_timestamps_are_logical_ticks(self, trained_pas):
        obs = Observability.enabled(trace_capacity=512)
        gateway, _ = run_chaos(trained_pas, obs)
        ticks = [t.start_tick for t in obs.tracer.store.by_root("gateway.ask")]
        assert ticks == list(range(1, gateway.clock + 1))
        assert all(0 < e.tick <= gateway.clock for e in obs.events)


class TestFailureAttribution:
    """Every no-answer (and degraded) outcome is explained by its trace."""

    @pytest.fixture()
    def run(self, trained_pas):
        obs = Observability.enabled(trace_capacity=512)
        gateway, responses = run_chaos(trained_pas, obs)
        traces = obs.tracer.store.by_root("gateway.ask")
        assert len(traces) == len(responses)
        return gateway, responses, traces, obs

    def test_chaos_produces_every_outcome(self, run):
        _, responses, _, _ = run
        statuses = {r.status for r in responses}
        assert statuses == {"ok", "degraded", "failed"}

    def test_failed_traces_record_stage_error_attempts(self, run):
        _, responses, traces, _ = run
        for response, trace in zip(responses, traces):
            if not response.failed:
                continue
            root = trace.root
            assert trace.status == "failed"
            assert root.attrs["stage"] in {"route", "breaker", "augment", "complete"}
            assert root.attrs["error"] == response.error
            assert root.attrs["attempts"] == response.attempts
            assert root.attrs["model"] == response.model

    def test_degraded_traces_point_at_augment(self, run):
        _, responses, traces, _ = run
        degraded = [
            (r, t) for r, t in zip(responses, traces) if r.status == "degraded"
        ]
        assert degraded
        for response, trace in degraded:
            assert trace.status == "degraded"
            assert trace.root.attrs["stage"] == "augment"
            assert trace.root.attrs["error"] == response.error
            augment = trace.first("augment")
            assert augment is not None and augment.status == "error"

    def test_breaker_rejections_are_marked(self, run):
        _, responses, traces, _ = run
        breaker_failures = [
            t
            for r, t in zip(responses, traces)
            if r.failed and "CircuitOpenError" in (r.error or "")
        ]
        assert breaker_failures  # the outage + threshold=2 guarantees trips
        for trace in breaker_failures:
            assert trace.root.attrs["stage"] == "breaker"
            assert trace.root.attrs["breaker"] == "open"
            assert trace.root.attrs["attempts"] == 0

    def test_retry_spans_carry_cause_and_backoff(self, run):
        _, responses, traces, _ = run
        saw_retry = False
        for response, trace in zip(responses, traces):
            complete = trace.first("complete")
            if complete is None:  # breaker/route/strict-augment failures
                continue
            retries = [s for s in trace.spans if s.name.startswith("retry[")]
            if response.ok:
                assert len(retries) == response.attempts - 1
            for span in retries:
                saw_retry = True
                assert span.status == "error"
                assert span.attrs["cause"] in {"outage", "injected", "random"}
                assert span.attrs["backoff_ticks"] >= 0.0
                assert span.parent_id == complete.span_id
        assert saw_retry

    def test_ok_traces_have_the_canonical_span_shape(self, run):
        _, responses, traces, _ = run
        ok = [(r, t) for r, t in zip(responses, traces) if r.status == "ok"]
        assert ok
        for response, trace in ok:
            root = trace.root
            assert root.attrs["attempts"] == response.attempts
            assert root.attrs["cached"] == response.complement_cached
            assert root.attrs["breaker"] == "closed"
            assert root.attrs["request_id"] == response.request_id
            if response.augmented:
                augment = trace.first("augment")
                assert augment is not None
                assert augment.attrs["cached"] == response.complement_cached
            assert trace.first("cache").attrs["tier"] == "complement"
            assert trace.first("complete").attrs["model"] == response.model

    def test_store_query_helpers_cover_the_run(self, run):
        _, responses, _, obs = run
        store = obs.tracer.store
        # Each ask also records its one-request gateway.plan trace; count
        # the gateway.ask roots only.
        by_status = {
            status: sum(
                t.root.name == "gateway.ask" for t in store.by_status(status)
            )
            for status in ("ok", "degraded", "failed")
        }
        want = {
            status: sum(r.status == status for r in responses)
            for status in ("ok", "degraded", "failed")
        }
        assert by_status == want
        slowest = store.slowest(3)
        assert len(slowest) == 3
        assert slowest[0].duration_ticks >= slowest[-1].duration_ticks
        assert "#" in slowest[0].waterfall()


class TestEventsAndMetrics:
    @pytest.fixture()
    def run(self, trained_pas):
        obs = Observability.enabled(trace_capacity=512)
        gateway, responses = run_chaos(trained_pas, obs)
        return gateway, responses, obs

    def test_fault_injections_are_logged(self, run, trained_pas):
        _, _, obs = run
        faults = obs.events.by_kind("fault.injected")
        assert faults
        stages = {e.attrs["stage"] for e in faults}
        assert stages <= {"completion", "augment", "latency", "outage"}
        assert "completion" in stages and "augment" in stages
        counter = obs.metrics.counter("pas_faults_total")
        assert counter.total() == len(faults)

    def test_breaker_transitions_are_logged(self, run):
        gateway, _, obs = run
        transitions = obs.events.by_kind("breaker.transition")
        assert transitions
        states = [e.attrs["state"] for e in transitions]
        assert "open" in states
        counter = obs.metrics.counter("pas_breaker_transitions_total")
        assert counter.total() == len(transitions)
        assert counter.value(model="gpt-4-0613", state="open") == gateway.stats.breaker_trips[
            "gpt-4-0613"
        ]

    def test_serve_outcome_events_match_responses(self, run):
        _, responses, obs = run
        failed = obs.events.by_kind("serve.failed")
        degraded = obs.events.by_kind("serve.degraded")
        assert len(failed) == sum(r.failed for r in responses)
        # serve.degraded records the *incident* (augmentation fell back), so
        # a request that degrades and then fails at completion emits one too:
        # count augment spans that errored, not final statuses.
        traces = obs.tracer.store.by_root("gateway.ask")
        incidents = sum(
            1
            for trace in traces
            if (span := trace.first("augment")) is not None and span.status == "error"
        )
        assert len(degraded) == incidents
        assert incidents >= sum(r.status == "degraded" for r in responses)
        for event in failed:
            assert event.attrs["stage"] in {"route", "breaker", "augment", "complete"}
            assert event.attrs["error"]

    def test_outcome_counters_match_stats(self, run):
        gateway, responses, obs = run
        requests_total = obs.metrics.counter("pas_requests_total")
        assert requests_total.total() == len(responses)
        assert (
            requests_total.value(model="gpt-4-0613", status="failed")
            == gateway.stats.failures_per_model.get("gpt-4-0613", 0)
        )
        attempts = obs.metrics.histogram("pas_attempts")
        assert attempts.count(model="gpt-4-0613") == sum(
            r.ok for r in responses if r.model == "gpt-4-0613"
        )
        completions = obs.metrics.counter("pas_completions_total")
        assert completions.value(model="gpt-4-0613", outcome="ok") > 0
        retries = obs.metrics.counter("pas_completion_retries_total")
        assert retries.total() == gateway.stats.retries

    def test_cache_ops_and_evictions(self, trained_pas):
        obs = Observability.enabled()
        config = GatewayConfig(cache_size=2, embed_cache_size=2)
        gateway = PasGateway(pas=trained_pas, config=config, obs=obs)
        for prompt in PROMPTS[:5] + PROMPTS[:2]:
            gateway.ask_text(prompt, "gpt-4-0613")
        ops = obs.metrics.counter("pas_cache_ops_total")
        assert ops.value(tier="complement", op="miss") == 7  # 5 unique + 2 evicted
        assert ops.value(tier="complement", op="evict") > 0
        evictions = obs.events.by_kind("cache.evict")
        assert len(evictions) == ops.value(tier="complement", op="evict") + ops.value(
            tier="embed", op="evict"
        )
        assert {e.attrs["tier"] for e in evictions} == {"complement", "embed"}

    def test_prometheus_exposition_renders_the_run(self, run):
        _, _, obs = run
        text = obs.metrics.render_prometheus()
        for family in (
            "pas_requests_total",
            "pas_tokens_total",
            "pas_attempts_bucket",
            "pas_completions_total",
            "pas_faults_total",
            "pas_breaker_transitions_total",
            "pas_cache_ops_total",
        ):
            assert family in text
        assert 'le="+Inf"' in text

    def test_shared_registry_includes_gateway_series(self, trained_pas):
        # Passing a live registry makes it the gateway's source of truth.
        obs = Observability(metrics=MetricsRegistry())
        gateway = PasGateway(pas=trained_pas, config=GatewayConfig(), obs=obs)
        gateway.ask_text(PROMPTS[0], "gpt-4-0613")
        assert obs.metrics.counter("pas_requests_total").total() == 1
        assert gateway.stats.requests == 1


def _pool(n, seed=CHAOS_SEED):
    factory = PromptFactory(rng=np.random.default_rng(seed))
    return [factory.make_prompt().text for _ in range(n)]


def _augment_faults(obs):
    return [e for e in obs.events.by_kind("fault.injected") if e.attrs["stage"] == "augment"]


class TestAugmentFaultEvents:
    """An augmentation fault is recorded when a serve raises it — once per
    degraded (or strictly failed) serve, at that serve's tick — never
    when a planner merely asks whether the prompt faults."""

    PLAN = dict(seed=CHAOS_SEED, augment_failure_rate=0.5)

    def _faulting_prompt(self):
        probe = FaultPlan(**self.PLAN)
        return next(p for p in _pool(40) if probe.augment_fails(p))

    def _run(self, trained_pas, requests, batched):
        obs = Observability.enabled()
        config = GatewayConfig(fault_plan=FaultPlan(**self.PLAN))
        gateway = PasGateway(trained_pas, config=config, obs=obs)
        if batched:
            responses = gateway.ask_batch(requests)
        else:
            responses = [gateway.ask(request) for request in requests]
        faults = obs.metrics.counter("pas_faults_total").value(stage="augment")
        return responses, [e.tick for e in _augment_faults(obs)], faults

    def test_one_event_per_degraded_serve(self, trained_pas):
        prompt = self._faulting_prompt()
        requests = [ServeRequest(prompt=prompt, model="gpt-4-0613")] * 2
        responses, ticks, faults = self._run(trained_pas, requests, batched=True)
        assert [r.status for r in responses] == ["degraded", "degraded"]
        assert ticks == [1, 2]
        assert faults == 2
        assert (responses, ticks, faults) == self._run(trained_pas, requests, batched=False)

    def test_request_failing_at_routing_injects_no_fault(self, trained_pas):
        requests = [ServeRequest(prompt=self._faulting_prompt(), model="no-such-model")]
        for batched in (True, False):
            (response,), ticks, faults = self._run(trained_pas, requests, batched)
            assert response.status == "failed"
            assert ticks == [] and faults == 0

    @pytest.mark.parametrize(
        "sizes",
        [(1,) * 80, (80,), (7,) * 11 + (3,), (3, 5, 8, 13, 21, 30)],
        ids=["singles", "one-batch", "sevens", "fibonacci"],
    )
    def test_any_partition_exports_what_the_ask_loop_does(self, trained_pas, sizes):
        pool = _pool(24)
        rng = np.random.default_rng(CHAOS_SEED)
        requests = [
            ServeRequest(
                prompt=pool[int(rng.integers(len(pool)))],
                model="no-such-model" if i % 13 == 5 else "gpt-4-0613",
                augment=i % 11 != 3,
                request_id=f"p{i}",
            )
            for i in range(80)
        ]

        def run(partition):
            obs = Observability.enabled()
            config = GatewayConfig(
                cache_size=4,
                embed_cache_size=6,
                fault_plan=FaultPlan(
                    seed=CHAOS_SEED, augment_failure_rate=0.3, completion_failure_rate=0.2
                ),
                max_retries=1,
            )
            gateway = PasGateway(trained_pas, config=config, obs=obs)
            if partition is None:
                responses = [gateway.ask(request) for request in requests]
            else:
                responses, start = [], 0
                for size in partition:
                    responses.extend(gateway.ask_batch(requests[start:start + size]))
                    start += size
            return (
                responses,
                gateway.stats.as_dict(),
                json.dumps(obs.events.as_dicts(), sort_keys=True),
                json.dumps(obs.metrics.snapshot(), sort_keys=True),
            )

        loop = run(None)
        assert any(r.status == "degraded" for r in loop[0])
        assert run(sizes) == loop


class TestStrictFailureEvents:
    @pytest.mark.parametrize("batched", [False, True], ids=["ask", "ask_batch"])
    def test_every_strict_failure_emits_serve_failed(self, trained_pas, batched):
        obs = Observability.enabled()
        config = GatewayConfig(
            strict=True,
            max_retries=0,
            fault_plan=FaultPlan(
                seed=CHAOS_SEED, augment_failure_rate=0.5, completion_failure_rate=0.3
            ),
        )
        gateway = PasGateway(trained_pas, config=config, obs=obs)
        pending = [ServeRequest(prompt=p, model="gpt-4-0613") for p in _pool(40)]
        errors = []
        while pending:
            start = gateway.clock
            try:
                if batched:
                    gateway.ask_batch(pending)
                else:
                    gateway.ask(pending[0])
            except ReproError as error:
                errors.append(type(error).__name__)
            # a strict batch stops at its first failure: resume after it
            pending = pending[gateway.clock - start:]
        assert {"AugmentationError", "TransientApiError"} <= set(errors)
        failed = obs.events.by_kind("serve.failed")
        assert len(failed) == gateway.stats.failures == len(errors)
        assert sum(e.attrs["stage"] == "augment" for e in failed) == errors.count(
            "AugmentationError"
        )


class TestSchedulerObservability:
    def test_batch_drain_events_and_histograms(self, trained_pas):
        obs = Observability.enabled()
        gateway = PasGateway(pas=trained_pas, config=GatewayConfig(), obs=obs)
        batcher = MicroBatcher(max_batch=3, max_wait=5, obs=obs)
        responses = []
        for tick, prompt in enumerate(PROMPTS[:7], start=1):
            batcher.submit_at(tick, ServeRequest(prompt=prompt, model="gpt-4-0613"))
            responses.extend(gateway.ask_batch(batcher.take(tick)))
        responses.extend(gateway.ask_batch(batcher.take(tick, force=True)))
        assert len(responses) == 7
        drains = obs.events.by_kind("batch.drain")
        assert len(drains) == len(batcher.records) == 3
        for event, record in zip(drains, batcher.records):
            assert event.attrs["tick"] == record.tick
            assert event.attrs["size"] == record.size
            assert event.attrs["trigger"] == record.trigger
        assert batcher.stats.triggers == {"size": 2, "flush": 1}
        size_hist = obs.metrics.histogram("pas_batch_size")
        assert size_hist.count() == 3
        assert size_hist.sum() == 7
        wait_hist = obs.metrics.histogram("pas_batch_wait_ticks")
        assert wait_hist.count() == 7

    def test_scheduler_never_rebinds_a_shared_event_clock(self, trained_pas):
        obs = Observability.enabled()
        gateway = PasGateway(pas=trained_pas, config=GatewayConfig(), obs=obs)
        batcher = MicroBatcher(max_batch=2, obs=obs)
        for tick, prompt in enumerate(PROMPTS[:4], start=1):
            batcher.submit_at(tick, ServeRequest(prompt=prompt, model="gpt-4-0613"))
            gateway.ask_batch(batcher.take(tick))
        first, second = obs.events.by_kind("batch.drain")
        # event ticks come from the *gateway* clock (two requests served
        # when the second batch is pulled); the batcher's own tick rides
        # in the attributes.
        assert (first.tick, second.tick) == (0, 2)
        assert gateway.clock == 4
        assert second.attrs["tick"] == batcher.clock == 4


class TestAnnObservability:
    def test_search_spans_and_counter(self):
        obs = Observability.enabled()
        index = ShardedHnswIndex(dim=8, n_shards=2, seed=0, obs=obs)
        rng = np.random.default_rng(0)
        index.add_batch(rng.normal(size=(24, 8)))
        index.search(rng.normal(size=8), k=3)
        index.search_batch(rng.normal(size=(4, 8)), k=3)
        searches = obs.metrics.counter("pas_ann_searches_total")
        assert searches.value(mode="scalar") == 1
        assert searches.value(mode="batch") == 1
        roots = obs.tracer.store.by_root("ann.search")
        assert len(roots) == 2
        scalar, batch = roots
        assert scalar.root.attrs["mode"] == "scalar"
        assert batch.root.attrs == {
            "mode": "batch", "k": 3, "n_queries": 4, "n_shards": 2,
        }


class TestStageTimings:
    def test_wall_tracer_drives_derive(self, trained_pas):
        obs = Observability.enabled(wall=True)
        gateway = PasGateway(pas=trained_pas, config=GatewayConfig(), obs=obs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no deprecation anywhere
            gateway.ask_text(PROMPTS[0], "gpt-4-0613")
            timings = derive_stage_timings(obs.tracer)
        assert set(timings) == set(STAGES)
        assert timings["completion"] > 0.0
        assert timings["augment"] > 0.0

    def test_derive_without_wall_timer_is_all_zero(self):
        tracer = Tracer(store=TraceStore())
        assert derive_stage_timings(tracer) == {stage: 0.0 for stage in STAGES}


class TestJsonRoundTrips:
    def test_serve_response_round_trip(self, trained_pas, tmp_path):
        _, responses = run_chaos(trained_pas, Observability())
        path = tmp_path / "responses.jsonl"
        dump_jsonl([r.as_dict() for r in responses], path)
        loaded = [ServeResponse.from_dict(d) for d in load_jsonl(path)]
        assert loaded == responses

    def test_gateway_stats_round_trip(self, trained_pas, tmp_path):
        gateway, _ = run_chaos(trained_pas, Observability.enabled())
        path = tmp_path / "stats.jsonl"
        dump_jsonl([gateway.stats.as_dict()], path)
        (loaded,) = load_jsonl(path)
        assert loaded == gateway.stats.as_dict()

    def test_registry_snapshot_round_trip(self, trained_pas, tmp_path):
        obs = Observability.enabled()
        run_chaos(trained_pas, obs)
        path = tmp_path / "metrics.jsonl"
        dump_jsonl([obs.metrics.as_dict()], path)
        (loaded,) = load_jsonl(path)
        assert loaded == obs.metrics.as_dict()

    def test_stats_as_dict_is_json_native(self, trained_pas):
        gateway, _ = run_chaos(trained_pas, Observability.enabled())
        payload = gateway.stats.as_dict()
        assert payload == json.loads(json.dumps(payload))
