"""Adaptive policy through the serving stack: parity, determinism, wiring.

CI's ``policy`` job re-runs this module under shifted ``PAS_CHAOS_SEED``
offsets.  The contracts pinned here:

1. **Policy off is byte-identical to the unpoliced gateway** — no
   ``strategy`` key in response exports, no ``pas_policy_*`` metric
   series, same responses, stats, and cache state.
2. **The static-only policy serves the same bytes** as no policy at all,
   plus a ``strategy`` tag: the gateway computes the static complement
   through its cache tiers first and the ``static`` arm serves it
   verbatim.
3. **Determinism** — two gateways fed the same request stream make
   identical decisions and export identical bandit state; scalar ``ask``
   and ``ask_batch`` agree response for response and pull for pull.
4. **Failure semantics** — degraded and unaugmented serves carry no
   strategy and never update the bandit; off-corpus prompts are served
   (and counted) but yield no reward.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.obs import Observability
from repro.policy import AugmentationPolicy, PolicyConfig
from repro.policy import policy as policy_module
from repro.resilience import FaultPlan
from repro.serve.gateway import GatewayConfig, PasGateway
from repro.serve.router import Router, RouterConfig
from repro.serve.types import ServeRequest, ServeResponse
from repro.world.prompts import PromptFactory

#: CI's policy job exports PAS_CHAOS_SEED to shift every seed here.
CHAOS_SEED = int(os.environ.get("PAS_CHAOS_SEED", "0"))

MODEL = "gpt-4-0613"


@pytest.fixture(scope="module")
def corpus():
    factory = PromptFactory(rng=np.random.default_rng(77 + CHAOS_SEED))
    prompts = [factory.make_prompt(cue_rate=0.9) for _ in range(40)]
    prompts += [factory.make_junk() for _ in range(8)]
    return prompts


@pytest.fixture(scope="module")
def requests(corpus):
    return [
        ServeRequest(prompt=p.text, model=MODEL, tenant="acme" if i % 3 else None)
        for i, p in enumerate(corpus)
    ]


def _policy(trained_pas, corpus, **overrides) -> AugmentationPolicy:
    base = dict(enabled=True, judge_seed=CHAOS_SEED, seed=CHAOS_SEED, epsilon=0.3)
    base.update(overrides)
    return AugmentationPolicy.from_config(
        trained_pas, PolicyConfig(**base), corpus=corpus
    )


def _gateway(trained_pas, policy=None, obs=None) -> PasGateway:
    kwargs = {} if obs is None else {"obs": obs}
    return PasGateway(
        trained_pas, GatewayConfig(seed=CHAOS_SEED), policy=policy, **kwargs
    )


def _metric_names(gateway: PasGateway) -> set[str]:
    """Series names in the gateway's (live) metrics bundle."""
    assert gateway.obs.metrics.enabled
    snapshot = gateway.obs.metrics.snapshot()
    return set(snapshot["counters"]) | set(snapshot["histograms"]) | set(
        snapshot["gauges"]
    )


# --------------------------------------------------------------------- #
# 1. policy off == unpoliced gateway
# --------------------------------------------------------------------- #


class TestPolicyOffParity:
    def test_no_strategy_key_and_no_policy_metrics(self, trained_pas, requests):
        gateway = _gateway(trained_pas, obs=Observability.enabled())
        responses = [gateway.ask(r) for r in requests]
        assert all(r.strategy is None for r in responses)
        assert all("strategy" not in r.as_dict() for r in responses)
        names = _metric_names(gateway)
        assert not any(name.startswith("pas_policy") for name in names)
        assert gateway.policy is None

    def test_static_only_policy_serves_identical_bytes(
        self, trained_pas, corpus, requests
    ):
        plain = _gateway(trained_pas)
        policed = _gateway(
            trained_pas,
            policy=_policy(trained_pas, corpus, strategies=("static",), epsilon=0.0),
        )
        for request in requests:
            a, b = plain.ask(request), policed.ask(request)
            assert b.strategy == "static"
            assert (a.response, a.complement, a.complement_cached, a.status) == (
                b.response,
                b.complement,
                b.complement_cached,
                b.status,
            )
            exported = b.as_dict()
            assert exported.pop("strategy") == "static"
            assert exported == a.as_dict()
        # Cache tiers saw the exact same traffic.
        assert plain.stats.cache_hits == policed.stats.cache_hits

    def test_policy_metrics_registered_only_with_policy(
        self, trained_pas, corpus, requests
    ):
        gateway = _gateway(
            trained_pas,
            policy=_policy(trained_pas, corpus),
            obs=Observability.enabled(),
        )
        gateway.ask(requests[0])
        names = _metric_names(gateway)
        assert "pas_policy_pulls_total" in names
        assert "pas_policy_reward" in names


# --------------------------------------------------------------------- #
# 2. determinism
# --------------------------------------------------------------------- #


class TestDeterminism:
    def test_two_runs_are_bit_identical(self, trained_pas, corpus, requests):
        def run():
            gateway = _gateway(trained_pas, policy=_policy(trained_pas, corpus))
            responses = [gateway.ask(r) for r in (requests * 3)]
            return responses, gateway.policy.snapshot(), gateway.stats.as_dict()

        (resp_a, snap_a, stats_a), (resp_b, snap_b, stats_b) = run(), run()
        assert [r.as_dict() for r in resp_a] == [r.as_dict() for r in resp_b]
        assert snap_a == snap_b
        assert stats_a == stats_b
        assert {r.strategy for r in resp_a} > {"static"}  # epsilon really explores

    def test_scalar_and_batch_paths_agree(self, trained_pas, corpus, requests):
        scalar = _gateway(trained_pas, policy=_policy(trained_pas, corpus))
        batched = _gateway(trained_pas, policy=_policy(trained_pas, corpus))
        scalar_responses = [scalar.ask(r) for r in (requests * 2)]
        batched_responses = batched.ask_batch(requests * 2)
        assert [r.as_dict() for r in scalar_responses] == [
            r.as_dict() for r in batched_responses
        ]
        assert scalar.policy.snapshot() == batched.policy.snapshot()

    def test_resumed_policy_continues_bit_identically(
        self, trained_pas, corpus, requests
    ):
        gateway = _gateway(trained_pas, policy=_policy(trained_pas, corpus))
        for request in requests:
            gateway.ask(request)
        live = gateway.policy
        resumed = AugmentationPolicy.from_config(
            trained_pas, PolicyConfig.from_dict(live.as_dict()), corpus=corpus
        )
        assert resumed.snapshot() == live.snapshot()
        # Same context/tick stream from here on → same decisions, same
        # state evolution, bit for bit.
        for tick, request in enumerate(requests * 2, start=gateway._clock):
            context = live.context_for(request.prompt, request.tenant)
            assert resumed.context_for(request.prompt, request.tenant) == context
            strategy = live.select(context, tick)
            assert resumed.select(context, tick) == strategy
            complement = live.complement_for(request.prompt, strategy)
            response = f"echo {request.prompt}"
            assert live.observe(
                request.prompt, context, strategy, complement, response
            ) == resumed.observe(request.prompt, context, strategy, complement, response)
        assert resumed.snapshot() == live.snapshot()

    def test_aspect_memo_is_never_serialized(
        self, trained_pas, corpus, requests, monkeypatch
    ):
        def serve():
            gateway = _gateway(trained_pas, policy=_policy(trained_pas, corpus))
            gateway.ask_batch(requests * 3)
            return gateway.policy

        memoised = serve()
        monkeypatch.setattr(policy_module, "_ASPECT_LIMIT", 0)
        plain = serve()
        assert memoised._aspects and not plain._aspects
        assert memoised.as_dict() == plain.as_dict()
        document = json.dumps(memoised.as_dict())
        resumed = AugmentationPolicy.from_config(
            trained_pas, PolicyConfig.from_dict(json.loads(document)), corpus=corpus
        )
        assert not resumed._aspects
        assert json.dumps(resumed.as_dict()) == document


# --------------------------------------------------------------------- #
# 3. failure and edge semantics
# --------------------------------------------------------------------- #


class TestFailureSemantics:
    def test_unaugmented_requests_bypass_the_policy(
        self, trained_pas, corpus, requests
    ):
        gateway = _gateway(trained_pas, policy=_policy(trained_pas, corpus))
        response = gateway.ask(
            ServeRequest(prompt=requests[0].prompt, model=MODEL, augment=False)
        )
        assert response.status == "ok"
        assert response.strategy is None
        assert gateway.policy.bandit.total_pulls == 0

    def test_degraded_serves_carry_no_strategy_and_never_update(
        self, trained_pas, corpus, requests
    ):
        config = GatewayConfig(
            seed=CHAOS_SEED,
            fault_plan=FaultPlan(seed=CHAOS_SEED, augment_failure_rate=0.9),
        )
        gateway = PasGateway(
            trained_pas, config, policy=_policy(trained_pas, corpus)
        )
        responses = [gateway.ask(r) for r in requests]
        degraded = [r for r in responses if r.status == "degraded"]
        ok = [r for r in responses if r.status == "ok"]
        assert degraded, "fault plan at 0.9 must degrade some serves"
        assert all(r.strategy is None for r in degraded)
        assert all("strategy" not in r.as_dict() for r in degraded)
        assert all(r.strategy is not None for r in ok)
        # Only the ok, on-corpus serves paid the bandit.
        assert gateway.policy.bandit.total_pulls == len(ok)

    def test_off_corpus_prompts_are_served_but_not_learned_from(
        self, trained_pas, corpus
    ):
        gateway = _gateway(
            trained_pas,
            policy=_policy(trained_pas, corpus),
            obs=Observability.enabled(),
        )
        response = gateway.ask(
            ServeRequest(prompt="tell me something entirely off-corpus.", model=MODEL)
        )
        assert response.status == "ok"
        assert response.strategy in gateway.policy.strategies
        counter = gateway.obs.metrics.counter("pas_policy_pulls_total")
        assert counter.total() == 1  # the pull is still visible in metrics
        assert gateway.policy.bandit.total_pulls == 0  # ...but nothing learned

    def test_policy_select_span_is_traced(self, trained_pas, corpus, requests):
        obs = Observability.enabled()
        gateway = _gateway(
            trained_pas, policy=_policy(trained_pas, corpus), obs=obs
        )
        gateway.ask(requests[0])
        spans = [
            span
            for trace in obs.tracer.store.as_dicts()
            for span in trace["spans"]
        ]
        select = [s for s in spans if s["name"] == "policy.select"]
        assert len(select) == 1
        assert select[0]["attrs"]["strategy"] in gateway.policy.strategies
        assert select[0]["attrs"]["tenant"] in {"acme", "anonymous"}


# --------------------------------------------------------------------- #
# 4. router threading and response export
# --------------------------------------------------------------------- #


class TestRouterAndTypes:
    def test_router_shares_one_policy_across_replicas(
        self, trained_pas, corpus, requests
    ):
        policy = _policy(trained_pas, corpus)
        router = Router(
            trained_pas, RouterConfig(n_replicas=3), policy=policy
        )
        assert router.policy is policy
        assert all(replica.policy is policy for replica in router.replicas)
        for i, request in enumerate(requests):
            router.replicas[i % router.n_replicas].ask(request)
        # Learning pooled fleet-wide: every replica's ok serves landed in
        # the one shared bandit, whatever replica handled them.
        served_ok = sum(
            replica.stats.requests - replica.stats.failures
            for replica in router.replicas
        )
        assert policy.bandit.total_pulls == served_ok > 0

    def test_router_rejects_policy_with_adopted_replicas(self, trained_pas):
        replica = _gateway(trained_pas)
        with pytest.raises(TypeError, match="adopted gateways"):
            Router(replicas=[replica], policy=object())

    def test_serve_response_strategy_round_trips(self):
        tagged = ServeResponse(
            request_id="r1",
            model=MODEL,
            response="x",
            complement="y",
            complement_cached=False,
            prompt_tokens=1,
            completion_tokens=1,
            status="ok",
            error=None,
            attempts=1,
            strategy="salted",
        )
        assert tagged.as_dict()["strategy"] == "salted"
        assert ServeResponse.from_dict(tagged.as_dict()) == tagged
        untagged = ServeResponse.from_dict(
            {k: v for k, v in tagged.as_dict().items() if k != "strategy"}
        )
        assert untagged.strategy is None
        assert "strategy" not in untagged.as_dict()

    def test_enabled_policy_requires_judge_seed(self, trained_pas):
        with pytest.raises(ConfigError, match="judge_seed"):
            AugmentationPolicy.from_config(
                trained_pas, PolicyConfig(enabled=True, judge_seed=None)
            )

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_ucb_c_rejected(self, value):
        with pytest.raises(ConfigError, match="PolicyConfig.ucb_c must be finite"):
            PolicyConfig(ucb_c=value)
