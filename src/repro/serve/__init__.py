"""Plug-and-play serving layer.

The paper positions PAS as a *system* that sits in front of any LLM
(§3.4 / Figure 1a).  This package is that system's serving shape: a gateway
that owns one trained PAS model and a pool of target-model clients, with
two cache tiers (complement LRU over an embedding memo — the same prompt
never pays for augmentation or embedding twice) and request telemetry.
Every request takes one path through it: the gateway plans a batch
(:meth:`PasGateway.plan_batch <repro.serve.gateway.PasGateway.plan_batch>`;
a scalar ``ask`` is a batch of one), then serves each request against
that plan.  The event-loop :class:`~repro.serve.engine.ServingEngine`
feeds it from a timed trace through a deterministic micro-batcher that it
drains as completion slots free up.

Failure is a first-class outcome: every request put through the
non-strict API yields exactly one :class:`ServeResponse` whose ``status``
is ``ok``, ``degraded`` (augmentation failed, the raw prompt was served —
the plug-and-play fallback), or ``failed`` (no completion).  Faults are
injected with a seedable :class:`~repro.resilience.FaultPlan`, retries are
shaped by a :class:`~repro.resilience.RetryPolicy`, and per-model
:class:`~repro.resilience.CircuitBreaker`\\ s fail fast while a backend
misbehaves.

The stack scales horizontally *and elastically*: a deterministic
:class:`~repro.serve.router.Router` places requests over N gateway
replicas (consistent-hash affinity or least-loaded balance), enforces
per-tenant quotas/rate limits via :class:`~repro.serve.router.TenantPolicy`,
and fails over weighted :class:`~repro.serve.router.ModelPool`\\ s around
open circuit breakers.  Fleets change size while serving —
:meth:`Router.add_replica <repro.serve.router.Router.add_replica>` /
:meth:`Router.drain_replica <repro.serve.router.Router.drain_replica>`
move only ~1/N of hash-affine keys per membership change — and a
declarative :class:`~repro.serve.router.FleetPlan` (replica count,
:class:`~repro.serve.router.HedgePolicy` tail-latency hedging,
:class:`~repro.serve.router.FairnessPolicy` weighted-fair queueing)
reconciles against the live fleet via :meth:`Router.apply
<repro.serve.router.Router.apply>`.  One nested
:class:`~repro.serve.config.ServingConfig` describes the whole deployment
and round-trips losslessly through dicts:

    >>> from repro.serve import FleetPlan, HedgePolicy, ServingConfig
    >>> config = ServingConfig(
    ...     fleet=FleetPlan(replicas=2, hedge=HedgePolicy(after_ticks=12))
    ... )
    >>> restored = ServingConfig.from_dict(config.as_dict())
    >>> restored.fleet.replicas, restored.fleet.hedge.after_ticks
    (2, 12)
    >>> restored == config
    True

Serving can be *adaptive*: plug an
:class:`~repro.policy.AugmentationPolicy` into the gateway (or thread one
through ``Router(pas, config, policy=...)``) and every augmentable serve
routes through candidate → select → complete → judge → bandit update —
the policy learns per ``(category, tenant)`` which augmentation strategy
wins and records its choice in :attr:`ServeResponse.strategy
<repro.serve.types.ServeResponse.strategy>`.  Policy off is byte-identical
to the unpoliced stack.

Observability is woven through the whole path: pass
``obs=Observability.enabled()`` to the gateway (routers and engines share
its bundle) to get
per-request span traces on the logical clock, a shared metrics registry,
and a structured event log — all deterministic at a fixed seed, all free
when left at the :data:`~repro.obs.NULL_OBS` default.
"""

from repro.llm.types import build_messages
from repro.obs import NULL_OBS, Observability
from repro.policy import AugmentationPolicy, PolicyConfig
from repro.resilience import CircuitBreaker, FaultPlan, OutageWindow, RetryPolicy
from repro.serve.cache import LruCache
from repro.serve.config import ServingConfig
from repro.serve.engine import (
    SHED_POLICIES,
    EngineConfig,
    EngineResult,
    EngineStats,
    ServingEngine,
)
from repro.serve.gateway import (
    BatchPlan,
    GatewayConfig,
    GatewayStats,
    PasGateway,
    derive_stage_timings,
)
from repro.serve.router import (
    CACHE_SCOPES,
    FAIRNESS_MODES,
    HASH_KEYS,
    ROUTING_POLICIES,
    FairnessPolicy,
    FleetPlan,
    HedgePolicy,
    ModelPool,
    Router,
    RouterConfig,
    RouterStats,
    SharedLruCache,
    TenantPolicy,
)
from repro.serve.scheduler import BatchRecord, MicroBatcher, SchedulerStats
from repro.serve.traffic import (
    ARRIVAL_PROCESSES,
    TenantProfile,
    TimedRequest,
    TrafficConfig,
    TrafficGenerator,
)
from repro.serve.types import STATUSES, ServeRequest, ServeResponse

__all__ = [
    "ARRIVAL_PROCESSES",
    "AugmentationPolicy",
    "BatchPlan",
    "BatchRecord",
    "CACHE_SCOPES",
    "CircuitBreaker",
    "EngineConfig",
    "EngineResult",
    "EngineStats",
    "FAIRNESS_MODES",
    "FairnessPolicy",
    "FaultPlan",
    "FleetPlan",
    "GatewayConfig",
    "HedgePolicy",
    "GatewayStats",
    "HASH_KEYS",
    "LruCache",
    "MicroBatcher",
    "ModelPool",
    "NULL_OBS",
    "Observability",
    "OutageWindow",
    "PasGateway",
    "PolicyConfig",
    "ROUTING_POLICIES",
    "RetryPolicy",
    "Router",
    "RouterConfig",
    "RouterStats",
    "SHED_POLICIES",
    "STATUSES",
    "SchedulerStats",
    "ServeRequest",
    "ServeResponse",
    "ServingConfig",
    "ServingEngine",
    "SharedLruCache",
    "TenantPolicy",
    "TenantProfile",
    "TimedRequest",
    "TrafficConfig",
    "TrafficGenerator",
    "build_messages",
    "derive_stage_timings",
]
