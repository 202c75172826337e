"""One nested configuration surface for the whole serving stack.

:class:`ServingConfig` mirrors :class:`~repro.pipeline.config.PipelineConfig`
on the serving side: one frozen dataclass with nested per-layer sections —
``router`` (:class:`~repro.serve.router.RouterConfig`), ``gateway``
(:class:`~repro.serve.gateway.GatewayConfig`), ``engine``
(:class:`~repro.serve.engine.EngineConfig`), ``traffic``
(:class:`~repro.serve.traffic.TrafficConfig`), and ``fleet``
(:class:`~repro.serve.router.FleetPlan`: declarative replica count plus
hedge/fairness/spike policy) — that round-trips losslessly through
:meth:`ServingConfig.as_dict` / :meth:`ServingConfig.from_dict`, fault
plans, retry policies, latency models, tenant profiles/policies, model
pools, and fleet plans included.

Both :class:`~repro.serve.router.Router` and
:class:`~repro.serve.engine.ServingEngine` accept a ``ServingConfig``
directly (each reads its own section), so one dict describes one
deployment end to end::

    config = ServingConfig(
        router=RouterConfig(n_replicas=4, policy="least_loaded"),
        gateway=GatewayConfig(seed=5),
        engine=EngineConfig(max_inflight=8),
        traffic=TrafficConfig(n_requests=1000, process="diurnal"),
        fleet=FleetPlan(replicas=4, hedge=HedgePolicy(after_ticks=12)),
    )
    router = Router(pas, config)
    result = ServingEngine(router, config).run(
        TrafficGenerator(prompts, config.traffic).trace()
    )

Later, ``router.apply(new_config.fleet)`` reconciles the live fleet with
an updated plan — scale-out, scale-in, and policy swaps all ride the
same declarative JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.policy.policy import PolicyConfig
from repro.serve.engine import EngineConfig
from repro.serve.gateway import GatewayConfig
from repro.serve.router import FleetPlan, RouterConfig
from repro.serve.traffic import TrafficConfig
from repro.utils.serialize import Record, register

__all__ = ["ServingConfig"]


@dataclass(frozen=True)
class ServingConfig(Record):
    """Every knob of the serving stack, in one place.

    Each section validates itself at construction; :meth:`validate` adds
    the cross-section checks no single section can see.
    """

    router: RouterConfig = field(default_factory=RouterConfig)
    gateway: GatewayConfig = field(default_factory=GatewayConfig)
    engine: EngineConfig = field(default_factory=EngineConfig)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    fleet: FleetPlan = field(default_factory=FleetPlan)

    def validate(self) -> None:
        """Cross-section consistency checks (sections self-validate).

        A :class:`~repro.serve.router.TenantPolicy` for a tenant the
        traffic section never emits is almost certainly a typo'd name, as
        is a traffic model mix naming a pool the router doesn't define
        while pools are in play, or a WFQ weight for a tenant no traffic
        profile produces.  An enabled ``policy`` section must pin its
        reward judge's seed (:meth:`~repro.policy.PolicyConfig.validate`),
        and a hedge policy needs a fleet of at least two replicas to race
        against.
        """
        tenant_names = {profile.name for profile in self.traffic.tenants}
        for policy in self.router.tenants:
            if policy.tenant not in tenant_names:
                raise ConfigError(
                    f"router has a TenantPolicy for {policy.tenant!r} but the "
                    f"traffic section only emits tenants {sorted(tenant_names)}"
                )
        if self.fleet.hedge is not None:
            effective = (
                self.fleet.replicas
                if self.fleet.replicas is not None
                else self.router.n_replicas
            )
            if effective < 2:
                raise ConfigError(
                    "fleet.hedge needs at least 2 replicas to race against; "
                    f"the plan resolves to {effective}"
                )
        if self.fleet.fairness.mode == "wfq" and tenant_names:
            for tenant, _ in self.fleet.fairness.weights:
                if tenant not in tenant_names:
                    raise ConfigError(
                        f"fleet.fairness weights tenant {tenant!r} but the "
                        f"traffic section only emits {sorted(tenant_names)}"
                    )
        self.policy.validate()


register(ServingConfig)
