"""Resilient serving: fault injection, outcomes, deadlines, breakers.

The chaos tests here are the ones CI's chaos job re-runs under several
seeds (``PAS_CHAOS_SEED`` offsets the parametrised seeds): with heavy
injected failure rates, the non-strict gateway API must never let an
exception escape, must answer every request, and must degrade — not drop —
requests whose augmentation failed.
"""

import json
import os
from collections import Counter

import numpy as np
import pytest

from repro.errors import (
    AugmentationError,
    CircuitOpenError,
    ConfigError,
    DeadlineExceededError,
)
from repro.judge import judge
from repro.llm import api
from repro.llm.api import ChatClient, LatencyModel, TransientApiError
from repro.llm.engine import SimulatedLLM
from repro.llm.sft import SftDirectivePredictor
from repro.llm.types import Message, build_messages
from repro.obs import Observability
from repro.policy import AugmentationPolicy, PolicyConfig
from repro.policy import policy as policy_module
from repro.resilience import NO_FAULTS, CircuitBreaker, FaultPlan, OutageWindow, RetryPolicy
from repro.serve.config import ServingConfig
from repro.serve.engine import EngineConfig, ServingEngine
from repro.serve.gateway import GatewayConfig, PasGateway
from repro.serve.router import FairnessPolicy, FleetPlan, HedgePolicy, Router, RouterConfig
from repro.serve.scheduler import MicroBatcher
from repro.serve.traffic import TenantProfile, TrafficConfig, TrafficGenerator
from repro.serve.types import ServeRequest, ServeResponse
from repro.world.prompts import PromptFactory

#: CI's chaos job exports PAS_CHAOS_SEED to shift the whole seed set.
CHAOS_OFFSET = int(os.environ.get("PAS_CHAOS_SEED", "0"))
CHAOS_SEEDS = tuple(CHAOS_OFFSET + base for base in (0, 1, 2))

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


def _requests(prompts, model="gpt-4-0613"):
    return [ServeRequest(prompt=p, model=model) for p in prompts]


class TestFaultPlan:
    def test_noop_by_default(self):
        assert NO_FAULTS.is_noop
        assert not NO_FAULTS.completion_fails("anything", 0)
        assert not NO_FAULTS.augment_fails("anything")
        assert NO_FAULTS.latency_ticks("anything", 0) == 0
        assert not NO_FAULTS.in_outage("gpt-4-0613", 5)

    def test_decisions_deterministic_per_seed(self):
        a = FaultPlan(seed=1, completion_failure_rate=0.5, augment_failure_rate=0.5)
        b = FaultPlan(seed=1, completion_failure_rate=0.5, augment_failure_rate=0.5)
        keys = [f"prompt {i}" for i in range(50)]
        assert [a.completion_fails(k, 0) for k in keys] == [
            b.completion_fails(k, 0) for k in keys
        ]
        assert [a.augment_fails(k) for k in keys] == [b.augment_fails(k) for k in keys]

    def test_seeds_decorrelate(self):
        a = FaultPlan(seed=1, completion_failure_rate=0.5)
        b = FaultPlan(seed=2, completion_failure_rate=0.5)
        keys = [f"prompt {i}" for i in range(100)]
        assert [a.completion_fails(k, 0) for k in keys] != [
            b.completion_fails(k, 0) for k in keys
        ]

    def test_rates_roughly_respected(self):
        plan = FaultPlan(seed=0, completion_failure_rate=0.3)
        hits = sum(plan.completion_fails(f"prompt {i}", 0) for i in range(500))
        assert 0.2 < hits / 500 < 0.4

    def test_outage_window(self):
        plan = FaultPlan(outages=(OutageWindow("gpt-4-0613", 3, 6),))
        assert not plan.in_outage("gpt-4-0613", 2)
        assert plan.in_outage("gpt-4-0613", 3)
        assert plan.in_outage("gpt-4-0613", 5)
        assert not plan.in_outage("gpt-4-0613", 6)
        assert not plan.in_outage("qwen2-72b-chat", 4)
        assert not plan.is_noop

    def test_validation(self):
        with pytest.raises(ConfigError):
            FaultPlan(completion_failure_rate=1.0)
        with pytest.raises(ConfigError):
            FaultPlan(latency_spike_ticks=-1)
        with pytest.raises(ConfigError):
            OutageWindow("m", 5, 5)

    @pytest.mark.parametrize("ticks", [float("nan"), float("inf")])
    def test_non_finite_spike_ticks_rejected(self, ticks):
        with pytest.raises(ConfigError, match="FaultPlan.latency_spike_ticks must be finite"):
            FaultPlan(latency_spike_ticks=ticks)


class TestRetryPolicy:
    def test_backoff_caps_and_grows(self):
        policy = RetryPolicy(base_backoff=1.0, max_backoff=4.0, jitter=0.0)
        assert policy.backoff_ticks("k", 0) == 1.0
        assert policy.backoff_ticks("k", 1) == 2.0
        assert policy.backoff_ticks("k", 2) == 4.0
        assert policy.backoff_ticks("k", 5) == 4.0  # capped

    def test_jitter_deterministic_and_bounded(self):
        policy = RetryPolicy(base_backoff=1.0, max_backoff=8.0, jitter=0.5, seed=3)
        again = RetryPolicy(base_backoff=1.0, max_backoff=8.0, jitter=0.5, seed=3)
        for attempt in range(4):
            pause = policy.backoff_ticks("key", attempt)
            base = min(2.0 ** attempt, 8.0)
            assert base <= pause <= base * 1.5
            assert pause == again.backoff_ticks("key", attempt)

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigError):
            RetryPolicy(base_backoff=2.0, max_backoff=1.0)
        with pytest.raises(ConfigError):
            RetryPolicy(deadline_ticks=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "name", ["base_backoff", "max_backoff", "jitter", "deadline_ticks"]
    )
    def test_non_finite_fields_rejected(self, name, value):
        # A NaN deadline used to switch the deadline off silently, and a
        # NaN backoff or jitter gave NaN pauses.
        with pytest.raises(ConfigError, match=f"RetryPolicy.{name} must be finite"):
            RetryPolicy(**{name: value})

    @pytest.mark.parametrize(
        "section, name, message",
        [
            ("retry_policy", "deadline_ticks", "RetryPolicy.deadline_ticks must be finite"),
            ("latency_model", "base_ticks", "LatencyModel.base_ticks must be finite"),
            ("fault_plan", "completion_failure_rate", "completion_failure_rate must be in"),
        ],
    )
    def test_nan_in_json_gateway_config_rejected(self, section, name, message):
        data = GatewayConfig(
            fault_plan=FaultPlan(seed=1),
            retry_policy=RetryPolicy(deadline_ticks=3.0),
            latency_model=LatencyModel(),
        ).as_dict()
        data[section][name] = float("nan")
        text = json.dumps(data)
        assert "NaN" in text  # what a hand-authored config can hold
        with pytest.raises(ConfigError, match=message):
            GatewayConfig.from_dict(json.loads(text))


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, recovery_ticks=10)
        for tick in (1, 2):
            breaker.record_failure(tick)
            assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure(3)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips == 1
        assert not breaker.allow(4)

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=3, recovery_ticks=10)
        breaker.record_failure(1)
        breaker.record_failure(2)
        breaker.record_success(3)
        breaker.record_failure(4)
        breaker.record_failure(5)
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_closes_on_success(self):
        breaker = CircuitBreaker(failure_threshold=1, recovery_ticks=5)
        breaker.record_failure(2)
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow(6)
        assert breaker.allow(7)  # 7 - 2 >= 5: the half-open probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_success(7)
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.transitions == [(2, "open"), (7, "half_open"), (7, "closed")]

    def test_half_open_probe_reopens_on_failure(self):
        breaker = CircuitBreaker(failure_threshold=1, recovery_ticks=5)
        breaker.record_failure(2)
        assert breaker.allow(7)
        breaker.record_failure(7)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips == 2
        assert not breaker.allow(11)  # recovery timer restarted at tick 7
        assert breaker.allow(12)

    def test_validation(self):
        with pytest.raises(ConfigError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ConfigError):
            CircuitBreaker(recovery_ticks=0)


class TestChatClientResilience:
    def _client(self, **kwargs):
        return ChatClient(engine=SimulatedLLM("gpt-4-0613"), **kwargs)

    def test_fault_plan_failures_are_retried(self):
        # Find a prompt whose first attempt fails but a later one succeeds.
        plan = FaultPlan(seed=0, completion_failure_rate=0.5)
        client = self._client(fault_plan=plan, max_retries=5)
        for i in range(50):
            prompt = f"how do i season a wok number {i}? be concise."
            if plan.completion_fails(prompt, 0) and not all(
                plan.completion_fails(prompt, a) for a in range(6)
            ):
                completion = client.complete([Message("user", prompt)])
                assert completion.retries > 0
                assert client.usage.failures > 0
                return
        pytest.fail("no prompt with a transient first-attempt failure found")

    def test_outage_fails_every_attempt(self):
        plan = FaultPlan(outages=(OutageWindow("gpt-4-0613", 0, 100),))
        client = self._client(fault_plan=plan, max_retries=2)
        with pytest.raises(TransientApiError) as excinfo:
            client.complete([Message("user", "how do i bake bread?")])
        assert excinfo.value.attempts == 3
        assert client.usage.failures == 3

    def test_deadline_cannot_fit_retries(self):
        # Every attempt fails; the deadline admits exactly two attempts
        # plus the first backoff pause (1 + 1 + 1 = 3 <= 3.5 < + 1).
        plan = FaultPlan(outages=(OutageWindow("gpt-4-0613", 0, 100),))
        policy = RetryPolicy(
            max_retries=5, base_backoff=1.0, max_backoff=1.0, jitter=0.0, deadline_ticks=3.5
        )
        client = self._client(fault_plan=plan, retry_policy=policy)
        with pytest.raises(DeadlineExceededError) as excinfo:
            client.complete([Message("user", "how do i bake bread?")])
        assert excinfo.value.attempts == 2
        assert client.usage.failures == 2
        assert client.usage.backoff_ticks == pytest.approx(2.0)

    def test_latency_spike_consumes_deadline(self):
        spiky = FaultPlan(seed=0, latency_spike_rate=0.999, latency_spike_ticks=10)
        policy = RetryPolicy(max_retries=0, deadline_ticks=2.0)
        client = self._client(fault_plan=spiky, retry_policy=policy)
        with pytest.raises(DeadlineExceededError) as excinfo:
            client.complete([Message("user", "how do i bake bread?")])
        assert excinfo.value.attempts == 0

    def test_retry_policy_supersedes_max_retries(self):
        plan = FaultPlan(outages=(OutageWindow("gpt-4-0613", 0, 100),))
        policy = RetryPolicy(max_retries=1, jitter=0.0)
        client = self._client(fault_plan=plan, retry_policy=policy, max_retries=9)
        with pytest.raises(TransientApiError) as excinfo:
            client.complete([Message("user", "how do i bake bread?")])
        assert excinfo.value.attempts == 2

    def test_no_plan_no_policy_is_unchanged(self):
        plain = self._client()
        completion = plain.complete([Message("user", "how do i bake bread?")])
        assert completion.retries == 0
        assert plain.usage.backoff_ticks == 0.0


class TestDegradedOutcome:
    def test_degraded_carries_raw_prompt_completion(self, trained_pas):
        plan = FaultPlan(seed=0, augment_failure_rate=0.99)
        gateway = PasGateway(
            pas=trained_pas, config=GatewayConfig(cache_size=8, seed=0, fault_plan=plan)
        )
        prompt = "how do i bake bread? walk me through it."
        assert plan.augment_fails(prompt)
        response = gateway.ask(ServeRequest(prompt=prompt, model="gpt-4-0613"))
        assert response.status == "degraded"
        assert response.ok
        assert response.complement == ""
        assert response.error.startswith("AugmentationError")
        # The plug-and-play fallback: exactly the raw-prompt completion.
        raw = SimulatedLLM("gpt-4-0613", seed=0).respond(prompt, supplement=None)
        assert response.response == raw
        assert gateway.stats.degraded == 1
        assert gateway.stats.served == 1
        assert gateway.stats.failures == 0

    def test_degraded_prompt_not_cached(self, trained_pas):
        plan = FaultPlan(seed=0, augment_failure_rate=0.99)
        gateway = PasGateway(
            pas=trained_pas, config=GatewayConfig(cache_size=8, fault_plan=plan)
        )
        prompt = "how do i bake bread? walk me through it."
        gateway.ask(ServeRequest(prompt=prompt, model="gpt-4-0613"))
        gateway.ask(ServeRequest(prompt=prompt, model="gpt-4-0613"))
        assert len(gateway._complement_cache) == 0
        assert gateway.stats.degraded == 2

    def test_strict_raises_augmentation_error(self, trained_pas):
        plan = FaultPlan(seed=0, augment_failure_rate=0.99)
        gateway = PasGateway(
            pas=trained_pas, config=GatewayConfig(cache_size=8, fault_plan=plan, strict=True)
        )
        prompt = "how do i bake bread? walk me through it."
        with pytest.raises(AugmentationError):
            gateway.ask(ServeRequest(prompt=prompt, model="gpt-4-0613"))


class TestBreakerInGateway:
    #: Hard outage long enough to trip the breaker, short enough to recover.
    OUTAGE_PLAN = FaultPlan(outages=(OutageWindow("gpt-4-0613", 0, 12),))
    CONFIG = GatewayConfig(
        cache_size=8,
        fault_plan=OUTAGE_PLAN,
        max_retries=0,
        breaker_threshold=3,
        breaker_recovery_ticks=4,
    )

    def _run(self, trained_pas, n=20):
        gateway = PasGateway(pas=trained_pas, config=self.CONFIG)
        responses = [
            gateway.ask(ServeRequest(prompt=p, model="gpt-4-0613"))
            for p in (PROMPTS * 3)[:n]
        ]
        return gateway, responses

    def test_breaker_trips_fast_fails_and_recovers(self, trained_pas):
        gateway, responses = self._run(trained_pas)
        breaker = gateway.breaker_for("gpt-4-0613")
        # Ticks 1-3 fail against the outage and open the circuit at tick 3.
        assert [r.status for r in responses[:3]] == ["failed"] * 3
        assert breaker.transitions[0] == (3, "open")
        # While open, requests are rejected without touching the client.
        rejected = [r for r in responses if r.error and r.error.startswith("CircuitOpenError")]
        assert rejected
        assert all(r.attempts == 0 for r in rejected)
        # Probes at ticks 7 and 11 land inside the outage and re-open; the
        # probe after the outage closes the circuit and traffic resumes.
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.trips >= 2
        assert responses[-1].status == "ok"
        assert gateway.stats.breaker_state == {"gpt-4-0613": "closed"}
        assert gateway.stats.breaker_trips == {"gpt-4-0613": breaker.trips}

    def test_transitions_bit_reproducible(self, trained_pas):
        first, _ = self._run(trained_pas)
        second, _ = self._run(trained_pas)
        assert (
            first.breaker_for("gpt-4-0613").transitions
            == second.breaker_for("gpt-4-0613").transitions
        )

    def test_strict_raises_circuit_open(self, trained_pas):
        gateway = PasGateway(pas=trained_pas, config=self.CONFIG)
        for p in PROMPTS[:3]:  # trip the breaker
            gateway.ask(ServeRequest(prompt=p, model="gpt-4-0613"))
        with pytest.raises(CircuitOpenError):
            gateway.ask(
                ServeRequest(prompt=PROMPTS[3], model="gpt-4-0613"), strict=True
            )


CHAOS_PLAN_KWARGS = dict(
    completion_failure_rate=0.35,
    augment_failure_rate=0.25,
    outages=(OutageWindow("gpt-4-0613", 10, 18),),
)


class TestChaos:
    """The acceptance chaos property: heavy faults, zero escaped exceptions."""

    def _gateway(self, trained_pas, seed):
        return PasGateway(
            pas=trained_pas,
            config=GatewayConfig(
                cache_size=8,
                embed_cache_size=8,
                seed=0,
                max_retries=1,
                fault_plan=FaultPlan(seed=seed, **CHAOS_PLAN_KWARGS),
                retry_policy=RetryPolicy(max_retries=1, deadline_ticks=16.0, seed=seed),
                breaker_threshold=3,
                breaker_recovery_ticks=6,
            ),
        )

    def _traffic(self):
        prompts = (PROMPTS * 4)[: len(PROMPTS) * 3]
        models = ["gpt-4-0613", "qwen2-72b-chat"]
        return [
            ServeRequest(prompt=p, model=models[i % 2], request_id=str(i))
            for i, p in enumerate(prompts)
        ]

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_every_request_answered_without_exceptions(self, trained_pas, seed):
        gateway = self._gateway(trained_pas, seed)
        requests = self._traffic()
        responses = gateway.ask_batch(requests)  # must not raise
        assert len(responses) == len(requests)
        assert [r.request_id for r in responses] == [r.request_id for r in requests]
        for response in responses:
            assert response.status in ("ok", "degraded", "failed")
            if response.status == "degraded":
                raw = SimulatedLLM(response.model, seed=0).respond(
                    requests[int(response.request_id)].prompt, supplement=None
                )
                assert response.response == raw
                assert response.complement == ""
            if response.status == "failed":
                assert response.error
        # Stats invariants under fire (the failures-vs-served contract).
        stats = gateway.stats
        counts = {s: sum(r.status == s for r in responses) for s in ("ok", "degraded", "failed")}
        assert stats.requests == len(requests)
        assert stats.failures == counts["failed"]
        assert stats.degraded == counts["degraded"]
        assert stats.served == counts["ok"] + counts["degraded"]
        assert stats.requests - stats.failures == stats.served

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_batch_matches_scalar_loop_under_faults(self, trained_pas, seed):
        requests = self._traffic()
        scalar = self._gateway(trained_pas, seed)
        batched = self._gateway(trained_pas, seed)
        assert batched.ask_batch(requests) == [scalar.ask(r) for r in requests]
        assert batched.stats == scalar.stats
        assert list(batched._complement_cache._data) == list(scalar._complement_cache._data)

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_breaker_timeline_reproducible(self, trained_pas, seed):
        runs = []
        for _ in range(2):
            gateway = self._gateway(trained_pas, seed)
            gateway.ask_batch(self._traffic())
            runs.append(
                {
                    model: gateway.breaker_for(model).transitions
                    for model in gateway.registered_models
                }
            )
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_microbatcher_surfaces_outcomes(self, trained_pas, seed):
        gateway = self._gateway(trained_pas, seed)
        batcher = MicroBatcher(max_batch=5, max_wait=3)
        responses = []
        for tick, request in enumerate(self._traffic(), start=1):
            batcher.submit_at(tick, request)
            responses.extend(gateway.ask_batch(batcher.take(tick)))
        responses.extend(gateway.ask_batch(batcher.take(tick, force=True)))
        assert len(responses) == len(self._traffic())
        assert sum(r.size for r in batcher.records) == len(responses)
        assert sum(r.failed for r in responses) == gateway.stats.failures


FLEET_TENANTS = (
    TenantProfile(
        "devs",
        models=(("gpt-4-0613", 1.0), ("gpt-3.5-turbo-1106", 1.0)),
        priority=1,
        deadline_ticks=256,
    ),
    TenantProfile("lobby"),
)


def _fleet_inputs(seed: int):
    """A small fleet shaped like the e2e ``fleet_policy`` workload: four
    least-loaded replicas, p95 hedging, WFQ, an enabled policy, injected
    completion failures and retries, under bursty two-tenant traffic."""
    factory = PromptFactory(rng=np.random.default_rng(31 + seed))
    corpus = [factory.make_prompt(cue_rate=0.9) for _ in range(16)]
    traffic = TrafficConfig(
        n_requests=160,
        seed=seed,
        process="bursty",
        mean_gap_ticks=2.0,
        zipf_exponent=0.6,
        burst_factor=4.0,
        tenants=FLEET_TENANTS,
    )
    config = ServingConfig(
        router=RouterConfig(n_replicas=4, policy="least_loaded", seed=seed),
        gateway=GatewayConfig(
            seed=seed,
            cache_size=8,
            embed_cache_size=8,
            fault_plan=FaultPlan(seed=seed, completion_failure_rate=0.1),
            retry_policy=RetryPolicy(max_retries=3),
        ),
        engine=EngineConfig(max_inflight=4, max_queue=4096),
        traffic=traffic,
        policy=PolicyConfig(enabled=True, epsilon=0.3, judge_seed=seed, seed=seed),
        fleet=FleetPlan(
            hedge=HedgePolicy(percentile=95),
            fairness=FairnessPolicy(mode="wfq", weights=(("devs", 2.0), ("lobby", 1.0))),
            spike_rate=0.1,
            spike_ticks=32,
        ),
    )
    config.validate()
    trace = TrafficGenerator([p.text for p in corpus], traffic).trace()
    return config, corpus, trace


def _fleet_run(pas, config, corpus, trace, obs=None):
    """One engine run through freshly built policy, router and engine."""
    policy = AugmentationPolicy.from_config(pas, config.policy, corpus=corpus)
    kwargs = {} if obs is None else {"obs": obs}
    router = Router(pas, config, policy=policy, **kwargs)
    return router, ServingEngine(router, config).run(trace)


def _count_calls(monkeypatch, cls, name: str, key=lambda self, *args, **kw: None) -> list:
    """Record ``key(...)`` of every call to ``cls.name`` in the returned list."""
    calls: list = []
    original = getattr(cls, name)

    def counting(self, *args, **kwargs):
        calls.append(key(self, *args, **kwargs))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counting)
    return calls


def _respond_key(engine, prompt, supplement=None):
    return engine.name, prompt, supplement


class TestMemoParity:
    """The completion memo, the policy's aspect memo and the judge's grade
    memo are invisible: a faulted, policied engine run is byte-identical
    with every memo on and with every one capped at zero."""

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_zipf_run_identical_with_memos_off(self, trained_pas, seed, tmp_path, monkeypatch):
        factory = PromptFactory(rng=np.random.default_rng(11 + seed))
        corpus = [factory.make_prompt(cue_rate=0.9) for _ in range(12)]
        trace = TrafficGenerator(
            [p.text for p in corpus],
            TrafficConfig(n_requests=120, seed=seed, mean_gap_ticks=4.0),
        ).trace()

        def run(tag):
            obs = Observability.enabled(trace_capacity=4096, event_capacity=65536)
            policy = AugmentationPolicy.from_config(
                trained_pas,
                PolicyConfig(enabled=True, judge_seed=seed, seed=seed, epsilon=0.3),
                corpus=corpus,
            )
            gateway = PasGateway(
                trained_pas,
                GatewayConfig(
                    cache_size=8,
                    seed=0,
                    fault_plan=FaultPlan(
                        seed=seed, latency_spike_rate=0.2, **CHAOS_PLAN_KWARGS
                    ),
                    retry_policy=RetryPolicy(max_retries=2, deadline_ticks=16.0, seed=seed),
                    breaker_threshold=3,
                    breaker_recovery_ticks=6,
                ),
                obs=obs,
                policy=policy,
            )
            result = ServingEngine(gateway, EngineConfig(max_inflight=4)).run(trace)
            events = tmp_path / f"events-{tag}.jsonl"
            obs.events.export_jsonl(events)
            memo_sizes = (
                len(gateway.client_for("gpt-4-0613").memo.completions),
                len(policy.scorer.judge._grades),
            )
            served = gateway.stats.served
            return (
                result.responses,
                gateway.stats.as_dict(),
                obs.metrics.snapshot(),
                events.read_bytes(),
            ), memo_sizes, served

        memoised, (completions, grades), served = run("memo")
        # The trace repeats pairs, so both memos were hit.
        assert 0 < completions < served
        assert 0 < grades < served
        monkeypatch.setattr(api, "_MEMO_LIMIT", 0)
        monkeypatch.setattr(judge, "_GRADE_LIMIT", 0)
        monkeypatch.setattr(policy_module, "_ASPECT_LIMIT", 0)
        plain, memo_sizes, _ = run("plain")
        assert memo_sizes == (0, 0)
        assert plain == memoised

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_fleet_run_identical_with_memos_off(
        self, trained_pas, seed, tmp_path, monkeypatch
    ):
        config, corpus, trace = _fleet_inputs(seed)
        responds = _count_calls(monkeypatch, SimulatedLLM, "respond", _respond_key)

        def run(tag):
            obs = Observability.enabled(trace_capacity=4096, event_capacity=65536)
            router, result = _fleet_run(trained_pas, config, corpus, trace, obs)
            events = tmp_path / f"events-{tag}.jsonl"
            obs.events.export_jsonl(events)
            return (
                result.responses,
                [gateway.stats.as_dict() for gateway in router.replicas],
                router.stats.as_dict(),
                obs.metrics.snapshot(),
                events.read_bytes(),
            )

        memoised = run("memo")
        _, replica_stats, router_stats, _, _ = memoised
        # The run exercised what the memos must stay invisible under.
        assert sum(stats["retries"] for stats in replica_stats) > 0
        assert router_stats["hedges"].get("win", 0) + router_stats["hedges"].get("loss", 0) > 0
        assert all(stats["requests"] > 0 for stats in replica_stats)
        # One completion per distinct (model, prompt, complement) in the
        # whole fleet, whichever replica or hedge asked for it.
        assert max(Counter(responds).values()) == 1
        distinct = len(responds)
        responds.clear()

        monkeypatch.setattr(api, "_MEMO_LIMIT", 0)
        monkeypatch.setattr(judge, "_GRADE_LIMIT", 0)
        monkeypatch.setattr(policy_module, "_ASPECT_LIMIT", 0)
        plain = run("plain")
        assert len(responds) > distinct
        assert plain == memoised


class TestMemoScope:
    """Which memo is shared with whom, and for how long."""

    def test_built_replicas_and_newcomers_share_one_memo_per_model(self, trained_pas):
        router = Router(trained_pas, RouterConfig(n_replicas=3))
        newcomer = router.gateway_for(router.add_replica())
        for model in ("gpt-4-0613", "gpt-3.5-turbo-1106"):
            memos = {id(gateway.client_for(model).memo) for gateway in router.replicas}
            assert len(memos) == 1
            assert id(newcomer.client_for(model).memo) in memos
        assert (
            router.replicas[0].client_for("gpt-4-0613").memo
            is not router.replicas[0].client_for("gpt-3.5-turbo-1106").memo
        )
        lone = PasGateway(trained_pas)
        assert lone.client_for("gpt-4-0613").memo is not newcomer.client_for("gpt-4-0613").memo

    def test_each_engine_run_starts_cold(self, trained_pas, monkeypatch):
        config, corpus, trace = _fleet_inputs(CHAOS_OFFSET)
        responds = _count_calls(monkeypatch, SimulatedLLM, "respond")
        votes = _count_calls(monkeypatch, SftDirectivePredictor, "_vote_from_embedding")

        def run():
            responds.clear()
            votes.clear()
            _, result = _fleet_run(trained_pas, config, corpus, trace)
            return result.responses, len(responds), len(votes)

        first = run()
        assert first[1] > 0 and first[2] > 0
        # Nothing memoised on the shared PasModel carries over: the second
        # fleet computes every completion and vote again.
        assert run() == first

    def test_adopted_gateways_with_other_seeds_share_nothing(self, trained_pas):
        configs = [GatewayConfig(seed=CHAOS_OFFSET), GatewayConfig(seed=CHAOS_OFFSET + 1)]
        router = Router(replicas=[PasGateway(trained_pas, config) for config in configs])
        served = []
        for rid, config in enumerate(configs):
            alone = PasGateway(trained_pas, config)
            responses = []
            for request in _requests(PROMPTS):
                plan = router.plan_batch(rid, [request])
                assert router.completion_latency(
                    rid, request, plan
                ) == alone.completion_latency(request, alone.plan_batch([request]))
                response = router.serve_planned(rid, request, plan)
                assert response == alone.ask(request)
                responses.append(response.response)
            served.append(responses)
        assert served[0] != served[1]


class TestNoopPlanParity:
    """A wired-in no-op FaultPlan must change nothing at all."""

    def test_noop_plan_strict_matches_plain_gateway(self, trained_pas):
        requests = _requests(PROMPTS + PROMPTS[:3])
        plain = PasGateway(
            pas=trained_pas, config=GatewayConfig(cache_size=4, embed_cache_size=4)
        )
        wired = PasGateway(
            pas=trained_pas,
            config=GatewayConfig(
                cache_size=4,
                embed_cache_size=4,
                strict=True,
                fault_plan=NO_FAULTS,
                retry_policy=RetryPolicy(),
            ),
        )
        assert wired.ask_batch(requests) == plain.ask_batch(requests)
        assert wired.stats == plain.stats
        assert list(wired._complement_cache._data) == list(plain._complement_cache._data)
        assert [
            (key, value.tobytes()) for key, value in wired._embed_cache._data.items()
        ] == [(key, value.tobytes()) for key, value in plain._embed_cache._data.items()]
        assert all(r.status == "ok" and r.error is None for r in wired.ask_batch(requests))


class TestAugmentFlagOffBatch:
    """ServeRequest(augment=False) through ask_batch (satellite coverage)."""

    def test_matches_scalar_loop_and_touches_no_caches(self, trained_pas):
        requests = [
            ServeRequest(prompt=p, model="gpt-4-0613", augment=False)
            for p in PROMPTS + PROMPTS[:2]
        ]
        scalar = PasGateway(
            pas=trained_pas, config=GatewayConfig(cache_size=8, embed_cache_size=8)
        )
        batched = PasGateway(
            pas=trained_pas, config=GatewayConfig(cache_size=8, embed_cache_size=8)
        )
        assert batched.ask_batch(requests) == [scalar.ask(r) for r in requests]
        assert batched.stats == scalar.stats
        assert batched.stats.augmented == 0
        assert batched.stats.cache_hits == 0
        for gateway in (scalar, batched):
            assert len(gateway._complement_cache) == 0
            assert gateway._complement_cache.hits == gateway._complement_cache.misses == 0
            assert len(gateway._embed_cache) == 0
            assert gateway._embed_cache.hits == gateway._embed_cache.misses == 0

    def test_mixed_augment_flags_match_scalar(self, trained_pas):
        requests = [
            ServeRequest(prompt=p, model="gpt-4-0613", augment=(i % 2 == 0))
            for i, p in enumerate(PROMPTS * 2)
        ]
        scalar = PasGateway(pas=trained_pas, config=GatewayConfig(cache_size=4))
        batched = PasGateway(pas=trained_pas, config=GatewayConfig(cache_size=4))
        assert batched.ask_batch(requests) == [scalar.ask(r) for r in requests]
        assert batched.stats == scalar.stats


class TestStructuredExport:
    def test_serve_response_as_dict_round_trips_json(self, trained_pas):
        gateway = PasGateway(pas=trained_pas, config=GatewayConfig(cache_size=8))
        response = gateway.ask(
            ServeRequest(prompt=PROMPTS[0], model="gpt-4-0613", request_id="r1")
        )
        payload = response.as_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert list(payload) == [
            "request_id",
            "model",
            "status",
            "response",
            "complement",
            "complement_cached",
            "augmented",
            "prompt_tokens",
            "completion_tokens",
            "attempts",
            "error",
        ]
        assert payload["status"] == "ok"
        assert payload["attempts"] == 1

    def test_gateway_stats_as_dict_round_trips_json(self, trained_pas):
        gateway = PasGateway(pas=trained_pas, config=GatewayConfig(cache_size=8))
        gateway.ask_batch(_requests(PROMPTS[:4]))
        payload = gateway.stats.as_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["requests"] == 4
        assert payload["served"] == 4
        assert payload["breaker_state"] == {"gpt-4-0613": "closed"}
        # Stable key order: two exports enumerate identically.
        assert list(payload) == list(gateway.stats.as_dict())

    def test_invalid_status_rejected(self):
        with pytest.raises(ValueError):
            ServeResponse(
                request_id=None,
                model="m",
                response="",
                complement="",
                complement_cached=False,
                prompt_tokens=0,
                completion_tokens=0,
                status="exploded",
            )


class TestBuildMessages:
    def test_complement_rides_as_system_turn(self):
        messages = build_messages("the prompt", "the complement")
        assert [(m.role, m.content) for m in messages] == [
            ("system", "the complement"),
            ("user", "the prompt"),
        ]

    def test_empty_complement_is_user_only(self):
        assert [(m.role, m.content) for m in build_messages("p")] == [("user", "p")]
