"""The unified ServingConfig surface: lossless round-trips, validation,
the fleet section added with the elastic-fleet redesign (ISSUE 10), and
the removal of the flat engine kwargs."""

import json

import pytest

from repro.errors import ConfigError
from repro.llm.api import LatencyModel
from repro.policy import ContextualBandit
from repro.resilience import FaultPlan, OutageWindow, RetryPolicy
from repro.serve import (
    EngineConfig,
    FairnessPolicy,
    FleetPlan,
    GatewayConfig,
    HedgePolicy,
    ModelPool,
    PasGateway,
    PolicyConfig,
    RouterConfig,
    ServingConfig,
    ServingEngine,
    TenantPolicy,
    TenantProfile,
    TrafficConfig,
)


def _bandit_state() -> dict:
    """A non-trivial serialized bandit: exact fractions, two contexts."""
    bandit = ContextualBandit(("static", "salted", "none"), epsilon=0.25, seed=3)
    for tick, reward in enumerate((0.1, 4.3, 2.2, 3.7)):
        arm = bandit.select(("coding", "acme"), tick)
        bandit.observe(("coding", "acme"), arm, reward)
    bandit.observe(("chitchat", "anonymous"), "none", 4.9)
    return bandit.as_dict()

FULL = ServingConfig(
    router=RouterConfig(
        n_replicas=4,
        policy="least_loaded",
        hash_key="tenant",
        vnodes=32,
        cache_scope="shared",
        seed=7,
        tenants=(
            TenantPolicy("free", quota=50, quota_window_ticks=128),
            TenantPolicy("paid", rate_tokens_per_tick=0.5, burst=4, priority=3),
        ),
        pools=(
            ModelPool("mix", (("gpt-4-0613", 3.0), ("gpt-3.5-turbo-1106", 1.0))),
        ),
    ),
    gateway=GatewayConfig(
        cache_size=64,
        embed_cache_size=32,
        max_retries=2,
        seed=5,
        strict=True,
        fault_plan=FaultPlan(
            seed=11,
            completion_failure_rate=0.2,
            augment_failure_rate=0.1,
            latency_spike_rate=0.05,
            latency_spike_ticks=8,
            outages=(OutageWindow("gpt-4-0613", 10, 20),),
        ),
        retry_policy=RetryPolicy(
            max_retries=2, base_backoff=2.0, jitter=0.1, deadline_ticks=64.0
        ),
        breaker_threshold=3,
        breaker_recovery_ticks=24,
        latency_model=LatencyModel(base_ticks=3, per_token_ticks=0.02, jitter=0.1),
        max_inflight=4,
    ),
    engine=EngineConfig(
        max_inflight=8, max_batch=16, max_wait=2, shed_policy="degrade"
    ),
    traffic=TrafficConfig(
        n_requests=500,
        seed=13,
        process="diurnal",
        mean_gap_ticks=1.5,
        zipf_exponent=1.1,
        tenants=(
            TenantProfile("free", weight=3.0, priority=0, deadline_ticks=32),
            TenantProfile("paid", weight=1.0, priority=2, models=(("mix", 1.0),)),
        ),
    ),
    policy=PolicyConfig(
        enabled=True,
        strategies=("static", "salted", "none"),
        algorithm="ucb1",
        epsilon=0.25,
        ucb_c=1.5,
        salt=2,
        seed=3,
        judge_seed=17,
        quality_gate=4.25,
        max_promoted_per_category=2,
        state=_bandit_state(),
    ),
    fleet=FleetPlan(
        replicas=4,
        hedge=HedgePolicy(percentile=95.0, min_samples=8),
        fairness=FairnessPolicy(
            mode="wfq", weights=(("free", 1.0), ("paid", 3.0))
        ),
        spike_rate=0.05,
        spike_ticks=12,
    ),
)


class TestRoundTrips:
    def test_serving_config_survives_json(self):
        payload = json.dumps(FULL.as_dict())
        assert ServingConfig.from_dict(json.loads(payload)) == FULL

    def test_default_serving_config_survives_json(self):
        config = ServingConfig()
        payload = json.dumps(config.as_dict())
        assert ServingConfig.from_dict(json.loads(payload)) == config

    @pytest.mark.parametrize(
        "section", ["router", "gateway", "engine", "traffic", "policy", "fleet"]
    )
    def test_each_section_round_trips_alone(self, section):
        config = getattr(FULL, section)
        assert type(config).from_dict(json.loads(json.dumps(config.as_dict()))) == config

    def test_nested_policies_round_trip(self):
        for obj in (
            FaultPlan(seed=2, outages=(OutageWindow("gpt-4-0613", 1, 9),)),
            RetryPolicy(max_retries=4, deadline_ticks=128),
            LatencyModel(base_ticks=2, per_token_ticks=0.05, jitter=0.2),
            TenantPolicy("t", quota=9, rate_tokens_per_tick=1.5, priority=1),
            ModelPool("p", (("gpt-4-0613", 1.0),)),
            TenantProfile("t", weight=2.0, models=(("gpt-4-0613", 1.0),)),
        ):
            assert type(obj).from_dict(json.loads(json.dumps(obj.as_dict()))) == obj


class TestValidation:
    def test_unknown_policy_tenant_is_rejected(self):
        config = ServingConfig(
            router=RouterConfig(tenants=(TenantPolicy("ghost", quota=1),)),
            traffic=TrafficConfig(tenants=(TenantProfile("real"),)),
        )
        with pytest.raises(ConfigError, match="ghost"):
            config.validate()

    def test_matching_tenants_validate(self):
        FULL.validate()


class TestPolicySection:
    """The ``policy`` section added with the adaptive augmentation layer."""

    def test_bandit_state_round_trips_losslessly(self):
        # The serialized bandit carries exact Fractions as [num, den]
        # pairs; a JSON round trip must preserve them bit for bit.
        config = ServingConfig.from_dict(json.loads(json.dumps(FULL.as_dict())))
        assert config.policy == FULL.policy
        resumed = ContextualBandit.from_dict(config.policy.state)
        assert resumed.as_dict() == FULL.policy.state

    def test_unknown_keys_raise_type_error(self):
        data = FULL.policy.as_dict()
        data["explore_rate"] = 0.5
        with pytest.raises(TypeError, match="explore_rate"):
            PolicyConfig.from_dict(data)

    def test_enabled_policy_requires_judge_seed(self):
        config = ServingConfig(policy=PolicyConfig(enabled=True, judge_seed=None))
        with pytest.raises(ConfigError, match="judge_seed"):
            config.validate()
        # Disabled sections may leave the judge seed unset.
        ServingConfig(policy=PolicyConfig(enabled=False)).validate()

    def test_section_validation_at_construction(self):
        with pytest.raises(ConfigError, match="at least one strategy"):
            PolicyConfig(strategies=())
        with pytest.raises(ConfigError, match="unknown strategies"):
            PolicyConfig(strategies=("static", "rewrite"))
        with pytest.raises(ConfigError, match="epsilon"):
            PolicyConfig(epsilon=-0.1)
        with pytest.raises(ConfigError, match="epsilon"):
            PolicyConfig(epsilon=1.0001)
        with pytest.raises(ConfigError, match="quality_gate"):
            PolicyConfig(quality_gate=5.5)
        with pytest.raises(ConfigError, match="algorithm"):
            PolicyConfig(algorithm="thompson")

    def test_pre_policy_dicts_load_as_policy_off(self):
        data = ServingConfig().as_dict()
        del data["policy"]
        config = ServingConfig.from_dict(data)
        assert config.policy == PolicyConfig()
        assert not config.policy.enabled

    def test_policy_off_default_parity(self):
        # The section's existence must not change the rest of the config:
        # a default ServingConfig exports the pre-policy sections
        # byte-identically, plus one self-contained "policy" key.
        exported = ServingConfig().as_dict()
        policy = exported.pop("policy")
        fleet = exported.pop("fleet")
        assert set(exported) == {"router", "gateway", "engine", "traffic"}
        assert policy == PolicyConfig().as_dict()
        assert policy["enabled"] is False and policy["state"] is None
        assert fleet == FleetPlan().as_dict()
        assert fleet["replicas"] is None and fleet["hedge"] is None


class TestFleetSection:
    """The ``fleet`` section added with the elastic-fleet redesign."""

    def test_pre_fleet_dicts_load_as_default_plan(self):
        data = ServingConfig().as_dict()
        del data["fleet"]
        config = ServingConfig.from_dict(data)
        assert config.fleet == FleetPlan()
        assert config.fleet.replicas is None

    def test_hedge_needs_two_replicas(self):
        config = ServingConfig(fleet=FleetPlan(hedge=HedgePolicy(after_ticks=8)))
        with pytest.raises(ConfigError, match="at least 2 replicas"):
            config.validate()
        # The router section's replica count satisfies an unset plan count.
        ServingConfig(
            router=RouterConfig(n_replicas=2),
            fleet=FleetPlan(hedge=HedgePolicy(after_ticks=8)),
        ).validate()
        # An explicit plan count overrides the router section.
        ServingConfig(
            fleet=FleetPlan(replicas=3, hedge=HedgePolicy(after_ticks=8))
        ).validate()

    def test_hedge_policy_needs_exactly_one_trigger(self):
        with pytest.raises(ConfigError, match="exactly one"):
            HedgePolicy()
        with pytest.raises(ConfigError, match="exactly one"):
            HedgePolicy(after_ticks=4, percentile=95.0)
        with pytest.raises(ConfigError):
            HedgePolicy(after_ticks=0)
        with pytest.raises(ConfigError):
            HedgePolicy(percentile=0.0)

    def test_wfq_weights_must_name_traffic_tenants(self):
        config = ServingConfig(
            traffic=TrafficConfig(tenants=(TenantProfile("real"),)),
            fleet=FleetPlan(
                fairness=FairnessPolicy(mode="wfq", weights=(("ghost", 2.0),))
            ),
        )
        with pytest.raises(ConfigError, match="ghost"):
            config.validate()

    def test_wfq_weights_naming_real_tenants_validate(self):
        ServingConfig(
            traffic=TrafficConfig(
                tenants=(TenantProfile("free"), TenantProfile("paid"))
            ),
            fleet=FleetPlan(
                fairness=FairnessPolicy(
                    mode="wfq", weights=(("free", 1.0), ("paid", 3.0))
                )
            ),
        ).validate()

    def test_fairness_validation(self):
        with pytest.raises(ConfigError, match="mode"):
            FairnessPolicy(mode="lottery")
        with pytest.raises(ConfigError, match="duplicate"):
            FairnessPolicy(weights=(("t", 1.0), ("t", 2.0)))
        with pytest.raises(ConfigError):
            FairnessPolicy(weights=(("t", -1.0),))
        with pytest.raises(ConfigError):
            FairnessPolicy(default_weight=0.0)

    def test_spike_knobs_validate(self):
        with pytest.raises(ConfigError):
            FleetPlan(spike_rate=1.0)
        with pytest.raises(ConfigError):
            FleetPlan(spike_rate=0.1, spike_ticks=0)
        with pytest.raises(ConfigError):
            FleetPlan(replicas=0)


class TestEngineConfigSurface:
    def test_engine_accepts_serving_config(self, trained_pas):
        gateway = PasGateway(trained_pas, config=GatewayConfig(seed=5))
        config = ServingConfig(engine=EngineConfig(max_inflight=8, max_queue=32))
        engine = ServingEngine(gateway, config)
        assert engine.config == config.engine

    def test_flat_kwargs_raise_naming_field(self, trained_pas):
        gateway = PasGateway(trained_pas, config=GatewayConfig(seed=5))
        with pytest.raises(TypeError, match="max_inflight"):
            ServingEngine(gateway, max_inflight=8, shed_policy="degrade")

    def test_flat_kwargs_rejected_even_with_config(self, trained_pas):
        gateway = PasGateway(trained_pas, config=GatewayConfig(seed=5))
        with pytest.raises(TypeError, match="max_inflight"):
            ServingEngine(gateway, EngineConfig(max_inflight=2), max_inflight=16)

    def test_unknown_kwargs_raise(self, trained_pas):
        gateway = PasGateway(trained_pas, config=GatewayConfig(seed=5))
        with pytest.raises(TypeError, match="max_velocity"):
            ServingEngine(gateway, max_velocity=3)
