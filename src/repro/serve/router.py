"""Horizontal scale-out: a deterministic router over gateway replicas.

One :class:`~repro.serve.gateway.PasGateway` is one process; the paper's
deployment story (Figure 1a: PAS in front of *any* model fleet) implies
many.  :class:`Router` owns N gateway replicas — same trained PAS model,
same :class:`~repro.serve.gateway.GatewayConfig`, so any replica produces
bit-identical completions for the same request, and the replicas it builds
share one :class:`~repro.llm.api.CompletionMemo` per target model — and
places each request by a pluggable policy:

* ``policy="hash"`` — **cache affinity**: consistent hashing over a
  virtual-node ring keyed on the prompt (or tenant), so repeats of a
  prompt always land on the replica whose complement cache already holds
  it.  The ring is a pure function of ``(seed, n_replicas, vnodes)``;
  adding a replica remaps only ~1/N of the key space.
* ``policy="least_loaded"`` — **balance**: argmin over live per-replica
  load (queued + in-flight assignments), lowest index breaking ties.

Layered on top:

* **multi-tenancy** — per-tenant :class:`TenantPolicy` enforced at
  admission: a fixed-window request quota, a token-bucket rate limit,
  and a priority override.  Both limiters run on *arrival ticks*, which
  are a pure function of the traffic seed and independent of any fault
  plan, so admission decisions are invariant across chaos-seed offsets.
* **weighted model pools with failover** — a :class:`ModelPool` names a
  virtual model backed by a weighted set of real models.  The weighted
  draw is a pure function of ``(router seed, pool, arrival tick, request
  key)``; members whose circuit breaker is hard-open on the target
  replica drop out of the draw (a *failover*), and a pool with every
  member open resolves to nothing — the engine sheds it (``reject``) or
  draws over the full pool anyway (``degrade``: the gateway's own
  breaker then fast-fails or admits the recovery probe).
* **cache coherence as explicit policy** — ``cache_scope="replica"``
  (default) gives every replica private cache tiers, which affinity
  routing keeps effective; ``cache_scope="shared"`` threads one
  lock-guarded two-tier cache through every replica.

The fleet is **elastic**: :meth:`Router.add_replica` grows it live
(every existing ring point stays put, so only ~1/N of the key space
remaps onto the newcomer) and :meth:`Router.drain_replica` shrinks it
gracefully — new placements stop immediately (the rid's vnodes leave the
ring, so again only its ~1/N share remaps), in-flight requests finish,
and only then is the gateway retired: its logical-clock ticks accumulate
into the fleet clock, and its replica-scoped caches are discarded with a
``pas_router_cache_evicted_total`` count (shared caches survive any
membership change).  Replica ids are stable — they never renumber — so
per-(replica, model) engine slot accounting and the fleet-shared bandit
policy rebind deterministically across membership changes.

Tail tolerance and fairness are declared through a :class:`FleetPlan`
(the ``fleet`` section of :class:`~repro.serve.config.ServingConfig`):

* **hedged retries** (:class:`HedgePolicy`) — after a seed-pure hedge
  deadline (``after_ticks``, or a latency-percentile trigger over the
  run's own observed latencies) the engine launches the same request on
  a second replica and takes the first completion, cancelling the loser;
  outcomes land in ``pas_router_hedges_total{outcome}`` and
  ``router.hedge`` spans.  Hedging off is bit-identical to the
  pre-hedging stack.
* **weighted fair queueing** (:class:`FairnessPolicy` with
  ``mode="wfq"``) — dispatch orders each drained batch by virtual-time
  finish tags over per-tenant weights, computed in exact
  :class:`~fractions.Fraction` arithmetic (the bandit's trick), so no
  tenant starves under bursty load.  Zero-weight tenants form a
  background class served after every weighted tenant.
* **per-replica latency spikes** (``spike_rate`` / ``spike_ticks``) —
  seed-pure straggler injection priced into one replica's completion
  intervals, so hedging has something to win against.

:meth:`Router.apply` diffs a :class:`FleetPlan` against live state into
the matching ``add_replica`` / ``drain_replica`` calls and installs the
hedge/fairness/spike policy — one declarative JSON-safe plan describes
the whole fleet.

**The trivial router is invisible.**  One replica + hash policy + no
tenant policies + no pools + replica-scoped caches adopts the single
gateway unchanged: no ``router.route`` spans, no ``pas_router_*``
metrics, no extra events — the engine driving it is bit-identical to the
single-gateway engine, exports and all (the parity suite pins this).
Non-trivial routers wrap each serve in a ``router.route`` span that
parents the gateway's span tree and mirror their counters into
``pas_router_routed_total``, ``pas_router_replica_load``,
``pas_router_shed_total``, and ``pas_router_failovers_total``.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from repro.core.pas import PasModel
from repro.errors import ConfigError
from repro.llm.api import CompletionMemo
from repro.obs import NULL_OBS, NULL_REGISTRY, Observability
from repro.serve.cache import LruCache
from repro.serve.gateway import BatchPlan, GatewayConfig, PasGateway
from repro.serve.traffic import TimedRequest
from repro.serve.types import ServeRequest, ServeResponse
from repro.utils.rng import stable_hash
from repro.utils.serialize import Record, register

__all__ = [
    "CACHE_SCOPES",
    "FAIRNESS_MODES",
    "FairnessPolicy",
    "FleetPlan",
    "HASH_KEYS",
    "HedgePolicy",
    "ROUTING_POLICIES",
    "ModelPool",
    "Router",
    "RouterConfig",
    "RouterStats",
    "SharedLruCache",
    "TenantPolicy",
]

#: Placement policies: ``hash`` — consistent-hash on the request key
#: (cache affinity); ``least_loaded`` — argmin over live replica load.
ROUTING_POLICIES = ("hash", "least_loaded")

#: Dispatch-ordering modes: ``priority`` — the historical
#: highest-priority-first sort; ``wfq`` — weighted fair queueing over
#: tenant weights with virtual-time finish tags.
FAIRNESS_MODES = ("priority", "wfq")

#: What the consistent hash keys on: the prompt text (dedupe-friendly —
#: repeats of a prompt share a replica cache) or the tenant id (isolation-
#: friendly — one tenant's traffic stays on one replica).
HASH_KEYS = ("prompt", "tenant")

#: Cache coherence policy across replicas (see the module docstring).
CACHE_SCOPES = ("replica", "shared")

_HASH_SPACE = float(1 << 64)


def _unit_draw(*material: object) -> float:
    """One deterministic U[0, 1) draw keyed by ``material``."""
    return stable_hash("␞".join(str(m) for m in material)) / _HASH_SPACE


class SharedLruCache(LruCache):
    """An :class:`~repro.serve.cache.LruCache` safe to share across replicas.

    ``cache_scope="shared"`` hands one instance of this to every replica;
    the lock makes each get/put atomic.  Replica gateways are driven from
    one event loop today, so the lock is cheap insurance for future
    thread-per-replica execution rather than a hot-path cost.
    """

    def __init__(self, capacity: int = 1024):
        super().__init__(capacity=capacity)
        self._lock = threading.RLock()

    def get(self, key, default=None):
        with self._lock:
            return super().get(key, default)

    def peek(self, key, default=None):
        with self._lock:
            return super().peek(key, default)

    def put(self, key, value) -> None:
        with self._lock:
            super().put(key, value)


@dataclass(frozen=True)
class TenantPolicy(Record):
    """Admission and scheduling policy for one tenant.

    ``quota`` bounds requests per fixed window of ``quota_window_ticks``
    arrival ticks (``None`` — unlimited).  ``rate_tokens_per_tick`` is a
    token bucket refilled on the arrival clock with headroom for
    ``burst`` requests (``None`` — no rate limit).  ``priority``
    overrides the trace's per-request priority at dispatch (``None`` —
    keep the trace's).  Both limiters key on arrival ticks, which no
    fault plan perturbs, so admission is chaos-offset-invariant.
    """

    tenant: str
    quota: int | None = None
    quota_window_ticks: int = 1024
    rate_tokens_per_tick: float | None = None
    burst: int = 8
    priority: int | None = None

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ConfigError("TenantPolicy.tenant must be non-empty")
        if self.quota is not None and self.quota < 1:
            raise ConfigError(f"quota must be >= 1 or None, got {self.quota}")
        if self.quota_window_ticks < 1:
            raise ConfigError(
                f"quota_window_ticks must be >= 1, got {self.quota_window_ticks}"
            )
        if self.rate_tokens_per_tick is not None and self.rate_tokens_per_tick <= 0:
            raise ConfigError(
                "rate_tokens_per_tick must be > 0 or None, "
                f"got {self.rate_tokens_per_tick}"
            )
        if self.burst < 1:
            raise ConfigError(f"burst must be >= 1, got {self.burst}")


@dataclass(frozen=True)
class ModelPool(Record):
    """A virtual model backed by a weighted set of real models.

    Requests addressed to ``name`` resolve to one member per request via
    a deterministic weighted draw; members whose circuit breaker is
    hard-open on the serving replica drop out of the draw (failover).
    """

    name: str
    models: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("ModelPool.name must be non-empty")
        if not isinstance(self.models, tuple):
            object.__setattr__(
                self, "models", tuple((m, float(w)) for m, w in self.models)
            )
        if not self.models:
            raise ConfigError(f"pool {self.name!r} needs at least one model")
        if any(weight <= 0 for _, weight in self.models):
            raise ConfigError(f"pool {self.name!r} model weights must be > 0")
        members = [model for model, _ in self.models]
        if len(set(members)) != len(members):
            raise ConfigError(f"pool {self.name!r} lists a model twice: {members}")


@dataclass(frozen=True)
class HedgePolicy(Record):
    """When to launch a hedged retry for an in-flight request.

    Exactly one trigger must be set.  ``after_ticks`` hedges a fixed
    number of ticks after dispatch; ``percentile`` hedges once the
    request has been in flight longer than that percentile of the run's
    own finished-request latencies, armed only after ``min_samples``
    finishes so early traffic never hedges off noise.  Both triggers are
    pure functions of the logical clock and the run's own history, so
    the hedge schedule replays bit-identically.
    """

    after_ticks: int | None = None
    percentile: float | None = None
    min_samples: int = 16

    def __post_init__(self) -> None:
        if (self.after_ticks is None) == (self.percentile is None):
            raise ConfigError(
                "HedgePolicy needs exactly one trigger: after_ticks or percentile"
            )
        if self.after_ticks is not None and self.after_ticks < 1:
            raise ConfigError(f"after_ticks must be >= 1, got {self.after_ticks}")
        if self.percentile is not None and not (0.0 < self.percentile <= 100.0):
            raise ConfigError(
                f"percentile must be in (0, 100], got {self.percentile}"
            )
        if self.min_samples < 1:
            raise ConfigError(f"min_samples must be >= 1, got {self.min_samples}")


@dataclass(frozen=True)
class FairnessPolicy(Record):
    """How dispatch orders each drained batch across tenants.

    ``mode="priority"`` keeps the historical highest-priority-first
    sort.  ``mode="wfq"`` orders by weighted-fair-queueing virtual-time
    finish tags over ``weights`` (tenants not listed get
    ``default_weight``); a tenant with weight 0 forms a background class
    served only after every weighted request in the batch.
    """

    mode: str = "priority"
    weights: tuple[tuple[str, float], ...] = ()
    default_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.mode not in FAIRNESS_MODES:
            raise ConfigError(
                f"unknown fairness mode {self.mode!r}; "
                f"expected one of {FAIRNESS_MODES}"
            )
        if not isinstance(self.weights, tuple):
            object.__setattr__(
                self, "weights", tuple((t, float(w)) for t, w in self.weights)
            )
        tenants = [tenant for tenant, _ in self.weights]
        if len(set(tenants)) != len(tenants):
            raise ConfigError(f"duplicate fairness weights: {sorted(tenants)}")
        if any(weight < 0 for _, weight in self.weights):
            raise ConfigError("fairness weights must be >= 0")
        if self.default_weight <= 0:
            raise ConfigError(
                f"default_weight must be > 0, got {self.default_weight}"
            )


@dataclass(frozen=True)
class FleetPlan(Record):
    """One declarative description of the whole fleet.

    ``replicas`` is the target live-replica count (``None`` — leave
    membership alone); :meth:`Router.apply` diffs it against live state
    into the matching :meth:`Router.add_replica` /
    :meth:`Router.drain_replica` calls.  ``hedge`` and ``fairness``
    select the tail-tolerance and dispatch-ordering policies, and
    ``spike_rate`` / ``spike_ticks`` inject seed-pure per-replica
    latency stragglers (so hedging has something to win against).  The
    plan is JSON-safe and round-trips losslessly as the ``fleet``
    section of :class:`~repro.serve.config.ServingConfig`.
    """

    replicas: int | None = None
    hedge: HedgePolicy | None = None
    fairness: FairnessPolicy = FairnessPolicy()
    spike_rate: float = 0.0
    spike_ticks: int = 0

    def __post_init__(self) -> None:
        if self.replicas is not None and self.replicas < 1:
            raise ConfigError(f"replicas must be >= 1 or None, got {self.replicas}")
        if not (0.0 <= self.spike_rate < 1.0):
            raise ConfigError(
                f"spike_rate must be in [0, 1), got {self.spike_rate}"
            )
        if self.spike_ticks < 0:
            raise ConfigError(f"spike_ticks must be >= 0, got {self.spike_ticks}")
        if self.spike_rate > 0 and self.spike_ticks < 1:
            raise ConfigError("spike_rate > 0 needs spike_ticks >= 1")


@dataclass(frozen=True)
class RouterConfig(Record):
    """Everything configurable about a :class:`Router`.

    ``seed`` salts the hash ring and every pool draw; ``vnodes`` is the
    number of ring points per replica (more points → smoother key
    spread).  See the module docstring for ``policy`` / ``hash_key`` /
    ``cache_scope`` semantics.
    """

    n_replicas: int = 1
    policy: str = "hash"
    hash_key: str = "prompt"
    vnodes: int = 64
    cache_scope: str = "replica"
    seed: int = 0
    tenants: tuple[TenantPolicy, ...] = ()
    pools: tuple[ModelPool, ...] = ()

    def __post_init__(self) -> None:
        if self.n_replicas < 1:
            raise ConfigError(f"n_replicas must be >= 1, got {self.n_replicas}")
        if self.policy not in ROUTING_POLICIES:
            raise ConfigError(
                f"unknown routing policy {self.policy!r}; "
                f"expected one of {ROUTING_POLICIES}"
            )
        if self.hash_key not in HASH_KEYS:
            raise ConfigError(
                f"unknown hash_key {self.hash_key!r}; expected one of {HASH_KEYS}"
            )
        if self.vnodes < 1:
            raise ConfigError(f"vnodes must be >= 1, got {self.vnodes}")
        if self.cache_scope not in CACHE_SCOPES:
            raise ConfigError(
                f"unknown cache_scope {self.cache_scope!r}; "
                f"expected one of {CACHE_SCOPES}"
            )
        if not isinstance(self.tenants, tuple):
            object.__setattr__(self, "tenants", tuple(self.tenants))
        if not isinstance(self.pools, tuple):
            object.__setattr__(self, "pools", tuple(self.pools))
        tenant_names = [policy.tenant for policy in self.tenants]
        if len(set(tenant_names)) != len(tenant_names):
            raise ConfigError(f"duplicate tenant policies: {sorted(tenant_names)}")
        pool_names = [pool.name for pool in self.pools]
        if len(set(pool_names)) != len(pool_names):
            raise ConfigError(f"duplicate pool names: {sorted(pool_names)}")
        for pool in self.pools:
            nested = [m for m, _ in pool.models if m in set(pool_names)]
            if nested:
                raise ConfigError(
                    f"pool {pool.name!r} cannot contain other pools: {nested}"
                )


for _serializable in (
    TenantPolicy,
    ModelPool,
    HedgePolicy,
    FairnessPolicy,
    FleetPlan,
    RouterConfig,
):
    register(_serializable)
del _serializable


class RouterStats:
    """Live accounting view over one :class:`Router`.

    ``routed`` counts placements per live replica (in stable rid order);
    ``routed_total`` also includes placements on since-retired replicas;
    ``sheds`` counts admission rejections by reason (``quota`` /
    ``ratelimit``); ``failovers`` counts pool draws that excluded at
    least one breaker-open member, per pool; ``load`` is the current
    queued + in-flight assignment count per live replica; ``hedges``
    counts hedged retries by outcome (``win`` / ``loss`` / ``skipped``);
    ``evicted`` counts replica-scope cache entries discarded at
    retirement.
    """

    __slots__ = ("_router",)

    def __init__(self, router: "Router"):
        self._router = router

    @property
    def routed(self) -> list[int]:
        router = self._router
        return [router._routed.get(rid, 0) for rid in sorted(router._fleet)]

    @property
    def routed_total(self) -> int:
        return sum(self._router._routed.values())

    @property
    def sheds(self) -> dict[str, int]:
        return dict(self._router._sheds)

    @property
    def failovers(self) -> dict[str, int]:
        return dict(self._router._failovers)

    @property
    def load(self) -> list[int]:
        router = self._router
        return [router._load.get(rid, 0) for rid in sorted(router._fleet)]

    @property
    def hedges(self) -> dict[str, int]:
        return dict(self._router._hedges)

    @property
    def evicted(self) -> int:
        return self._router._evicted

    def as_dict(self) -> dict:
        """JSON-safe dict with a stable key order."""
        return {
            "routed": self.routed,
            "routed_total": self.routed_total,
            "sheds": dict(sorted(self.sheds.items())),
            "failovers": dict(sorted(self.failovers.items())),
            "load": self.load,
            "hedges": dict(sorted(self.hedges.items())),
            "evicted": self.evicted,
        }

    def __repr__(self) -> str:
        return f"RouterStats({self.as_dict()!r})"


class Router:
    """Place requests over N gateway replicas; see the module docstring.

    Construct from a trained PAS model (``Router(pas, config)`` — the
    router builds the replicas, each from ``config.gateway`` when given a
    :class:`~repro.serve.config.ServingConfig`, or a default
    :class:`~repro.serve.gateway.GatewayConfig` otherwise) or adopt
    pre-built gateways (``Router(replicas=[gw, ...])`` — what the engine
    does when handed a bare gateway).  The
    :class:`~repro.serve.engine.ServingEngine` is the intended driver:
    it calls :meth:`admit` at arrival, :meth:`route` / :meth:`resolve`
    at dispatch, and :meth:`serve_planned` / :meth:`release` at finish.
    """

    def __init__(
        self,
        pas: PasModel | None = None,
        config: object = None,
        obs: Observability = NULL_OBS,
        *,
        replicas: Sequence[PasGateway] | None = None,
        policy: object = None,
    ):
        if config is None:
            router_cfg, gateway_cfg, fleet_cfg = RouterConfig(), None, None
        elif isinstance(config, RouterConfig):
            router_cfg, gateway_cfg, fleet_cfg = config, None, None
        elif hasattr(config, "router") and hasattr(config, "gateway"):
            router_cfg, gateway_cfg = config.router, config.gateway
            fleet_cfg = getattr(config, "fleet", None)
        else:
            raise TypeError(
                "config must be a RouterConfig or a ServingConfig, "
                f"got {type(config).__name__}"
            )

        # One policy object is shared across every replica: the bandit
        # learns fleet-wide (its contexts key on (category, tenant), not
        # on replicas), exactly like a shared cache tier.  Kept, with the
        # shared caches, so add_replica can build identical newcomers.
        self._policy_obj = policy
        self._shared_complement: LruCache[str, str] | None = None
        self._shared_embed: LruCache[str, np.ndarray] | None = None
        # One completion memo per target model for the replicas this
        # router builds: they share one GatewayConfig, so one engine seed
        # and latency model, and a pair completes once per fleet whatever
        # cache_scope says.  Adopted gateways keep their own memos.
        self._completion_memos: dict[str, CompletionMemo] = {}

        if replicas is not None:
            if pas is not None:
                raise TypeError("pass either pas or replicas, not both")
            if policy is not None:
                raise TypeError(
                    "pass policy= only when the router builds the replicas; "
                    "adopted gateways already own their policies"
                )
            if not replicas:
                raise ConfigError("replicas must be non-empty when given")
            if fleet_cfg is not None and fleet_cfg.replicas not in (
                None,
                len(replicas),
            ):
                raise ConfigError(
                    f"fleet plan names {fleet_cfg.replicas} replicas but "
                    f"{len(replicas)} gateways were given"
                )
            if router_cfg.n_replicas != len(replicas):
                # The default n_replicas=1 means "infer from the gateways";
                # an explicit mismatch is a configuration error.
                if router_cfg.n_replicas == 1:
                    router_cfg = replace(router_cfg, n_replicas=len(replicas))
                else:
                    raise ConfigError(
                        f"config names {router_cfg.n_replicas} replicas but "
                        f"{len(replicas)} gateways were given"
                    )
            self._pas = None
            self._fleet: dict[int, PasGateway] = dict(enumerate(replicas))
            if obs is NULL_OBS:
                obs = replicas[0].obs
            self.gateway_config = replicas[0].config
        else:
            if pas is None:
                raise TypeError("Router() needs a PasModel (or replicas=...)")
            self._pas = pas
            self.gateway_config = gateway_cfg or GatewayConfig()
            if router_cfg.cache_scope == "shared":
                self._shared_complement = SharedLruCache(
                    capacity=self.gateway_config.cache_size
                )
                if self.gateway_config.embed_cache_size > 0:
                    self._shared_embed = SharedLruCache(
                        capacity=self.gateway_config.embed_cache_size
                    )
            # The fleet plan's target count wins over router.n_replicas at
            # construction, exactly as it does in validate() and apply():
            # one ServingConfig is one deployment description.
            n_target = router_cfg.n_replicas
            if fleet_cfg is not None and fleet_cfg.replicas is not None:
                n_target = fleet_cfg.replicas
            self._fleet = {rid: self._new_gateway(obs) for rid in range(n_target)}

        self.config = router_cfg
        self.obs = obs
        #: Replica ids are stable for the router's lifetime: the next id
        #: is never reused, so engine slot keys and metrics labels stay
        #: unambiguous across any add/drain sequence.
        self._next_rid = len(self._fleet)
        self._draining: set[int] = set()
        self._retired_ticks = 0
        n = len(self._fleet)

        #: Trivial mode: the identity router.  It adds no spans, metrics,
        #: or events, so the 1-replica engine stays bit-identical to the
        #: single-gateway engine (the headline parity contract).
        self.trivial = (
            n == 1
            and router_cfg.policy == "hash"
            and not router_cfg.tenants
            and not router_cfg.pools
            and router_cfg.cache_scope == "replica"
        )

        # Each gateway bound the shared obs clock to its own counter at
        # construction (last one wins); rebind to the fleet-wide request
        # count, which collapses to the single gateway's clock at n=1.
        if not self.trivial:
            self._bind_fleet_clock()

        self._policies = {tenant.tenant: tenant for tenant in router_cfg.tenants}
        self._pools = {pool.name: pool for pool in router_cfg.pools}
        self._ring = self._build_ring(router_cfg.seed, n, router_cfg.vnodes)
        self._load = {rid: 0 for rid in self._fleet}
        self._routed = {rid: 0 for rid in self._fleet}
        self._sheds: dict[str, int] = {}
        self._failovers: dict[str, int] = {}
        self._hedges: dict[str, int] = {}
        self._evicted = 0
        # tenant -> (window index, count) / (last refill tick, tokens)
        self._quota: dict[str, tuple[int, int]] = {}
        self._buckets: dict[str, tuple[int, float]] = {}

        self._register_instruments()
        self._install_plan(fleet_cfg if fleet_cfg is not None else FleetPlan())
        self.stats = RouterStats(self)

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def _build_ring(seed: int, n: int, vnodes: int) -> list[tuple[int, int]]:
        """The consistent-hash ring: sorted (point, replica) pairs."""
        points = [
            (stable_hash(f"router.ring␞{seed}␞{replica}␞{vnode}"), replica)
            for replica in range(n)
            for vnode in range(vnodes)
        ]
        points.sort()
        return points

    def _ring_points(self, rid: int) -> list[tuple[int, int]]:
        """The ring points one replica owns (a pure function of its rid)."""
        return [
            (stable_hash(f"router.ring␞{self.config.seed}␞{rid}␞{vnode}"), rid)
            for vnode in range(self.config.vnodes)
        ]

    def _new_gateway(self, obs: Observability) -> PasGateway:
        """One more replica, identical to every sibling by construction."""
        return PasGateway(
            self._pas,
            config=self.gateway_config,
            obs=obs,
            complement_cache=self._shared_complement,
            embed_cache=self._shared_embed,
            policy=self._policy_obj,
            completion_memos=self._completion_memos,
        )

    def _bind_fleet_clock(self) -> None:
        # Closes over self, not a gateway list, so the binding survives
        # membership changes; retired replicas keep their ticks counted.
        self.obs.bind_clock(
            lambda: self._retired_ticks
            + sum(gateway._clock for gateway in self._fleet.values())
        )

    def _register_instruments(self) -> None:
        # The trivial router must not register instruments: an empty
        # registered series still appears in metrics snapshots, which
        # would break byte-parity with the single-gateway engine.  Only a
        # live bundle reads these series (RouterStats reads none), so
        # every other router updates the null registry.
        live = not self.trivial and self.obs.metrics.enabled
        self._registry = self.obs.metrics if live else NULL_REGISTRY
        self._m_routed = self._registry.counter(
            "pas_router_routed_total", help="Requests placed, by replica."
        )
        self._m_load = self._registry.gauge(
            "pas_router_replica_load",
            help="Live queued + in-flight assignments, by replica.",
        )
        self._m_shed = self._registry.counter(
            "pas_router_shed_total",
            help="Requests shed at admission, by reason (quota/ratelimit).",
        )
        self._m_failover = self._registry.counter(
            "pas_router_failovers_total",
            help="Pool draws that excluded a breaker-open member, by pool.",
        )
        self._m_evicted = self._registry.counter(
            "pas_router_cache_evicted_total",
            help="Replica-scope cache entries discarded at retirement, by replica.",
        )
        self._m_hedges = self._registry.counter(
            "pas_router_hedges_total",
            help="Hedged retries, by outcome (win/loss/skipped).",
        )

    # ------------------------------------------------------------------ #
    # elastic membership
    # ------------------------------------------------------------------ #

    @property
    def replicas(self) -> list[PasGateway]:
        """Live gateways in stable rid order (draining ones included
        until their last in-flight request finishes)."""
        return [self._fleet[rid] for rid in sorted(self._fleet)]

    def gateway_for(self, rid: int) -> PasGateway:
        """The gateway behind one stable replica id."""
        return self._fleet[rid]

    @property
    def live_rids(self) -> list[int]:
        """Replica ids accepting new placements, in stable order."""
        return [rid for rid in sorted(self._fleet) if rid not in self._draining]

    def add_replica(self) -> int:
        """Grow the fleet by one replica, live; returns its stable rid.

        The newcomer's vnodes merge into the ring while every existing
        point stays put, so only ~1/N of the hash-key space remaps onto
        it.  Shared cache tiers and the fleet policy are threaded through
        unchanged; a previously-trivial router becomes observable (its
        instruments register now).
        """
        if self._pas is None:
            raise ConfigError(
                "cannot add replicas to a router that adopted pre-built "
                "gateways; construct Router(pas, config) to scale live"
            )
        rid = self._next_rid
        self._next_rid = rid + 1
        self._fleet[rid] = self._new_gateway(self.obs)
        self._load[rid] = 0
        self._routed[rid] = 0
        self._ring = sorted(self._ring + self._ring_points(rid))
        if self.trivial:
            # A grown fleet can no longer stay invisible: register the
            # router's instruments on the real registry from here on.
            self.trivial = False
            self._register_instruments()
        self._bind_fleet_clock()
        self.obs.events.emit(
            "router.scale",
            tick=self.clock,
            action="add",
            replica=rid,
            fleet=len(self.live_rids),
        )
        return rid

    def drain_replica(self, rid: int) -> bool:
        """Begin retiring one replica; returns True if it retired now.

        New placements stop immediately — the rid's vnodes leave the
        ring (remapping only its ~1/N key share) and least-loaded skips
        it — while in-flight requests finish normally.  The gateway is
        retired by the :meth:`release` that returns its last assignment
        (or immediately when idle): its clock ticks accumulate into the
        fleet clock and its replica-scope caches are discarded under
        ``pas_router_cache_evicted_total``.
        """
        if rid not in self._fleet:
            raise ConfigError(
                f"unknown replica {rid}; live rids: {sorted(self._fleet)}"
            )
        if rid in self._draining:
            return False
        if len(self.live_rids) <= 1:
            raise ConfigError("cannot drain the last live replica")
        self._draining.add(rid)
        self._ring = [entry for entry in self._ring if entry[1] != rid]
        self.obs.events.emit(
            "router.scale",
            tick=self.clock,
            action="drain",
            replica=rid,
            inflight=self._load.get(rid, 0),
        )
        if self._load.get(rid, 0) == 0:
            self._retire(rid)
            return True
        return False

    def _retire(self, rid: int) -> None:
        gateway = self._fleet.pop(rid)
        self._draining.discard(rid)
        self._load.pop(rid, None)
        self._retired_ticks += gateway._clock
        evicted = 0
        if self.config.cache_scope == "replica":
            for cache in (gateway._complement_cache, gateway._embed_cache):
                if cache is not None:
                    evicted += len(cache)
                    cache.clear()
        if evicted:
            self._evicted += evicted
            self._m_evicted.inc(evicted, replica=str(rid))
        self._bind_fleet_clock()
        self.obs.events.emit(
            "router.scale",
            tick=self.clock,
            action="retired",
            replica=rid,
            evicted=evicted,
        )

    def apply(self, plan: FleetPlan) -> dict:
        """Reconcile live state with one declarative :class:`FleetPlan`.

        Installs the plan's hedge/fairness/spike policy, then diffs the
        target replica count against live membership into the matching
        :meth:`add_replica` / :meth:`drain_replica` calls (highest rid
        drains first).  Returns ``{"added", "draining", "removed"}`` rid
        lists; draining rids retire on their own as in-flight work ends.
        """
        self._install_plan(plan)
        added: list[int] = []
        draining: list[int] = []
        removed: list[int] = []
        if plan.replicas is not None:
            live = self.live_rids
            while len(live) < plan.replicas:
                rid = self.add_replica()
                live.append(rid)
                added.append(rid)
            while len(live) > plan.replicas:
                rid = live.pop()
                if self.drain_replica(rid):
                    removed.append(rid)
                else:
                    draining.append(rid)
        return {"added": added, "draining": draining, "removed": removed}

    def _install_plan(self, plan: FleetPlan) -> None:
        self.fleet_plan = plan
        self._spike_rate = plan.spike_rate
        self._spike_ticks = plan.spike_ticks
        # Exact Fractions end to end (the bandit's trick): virtual time
        # never accumulates float error, so WFQ order replays exactly.
        self._wfq_weights = {
            tenant: Fraction(weight) for tenant, weight in plan.fairness.weights
        }
        self._wfq_default = Fraction(plan.fairness.default_weight)
        self._wfq_v = Fraction(0)
        self._wfq_finish: dict[str, Fraction] = {}

    @property
    def hedge_policy(self) -> HedgePolicy | None:
        """The installed hedge trigger (``None`` — hedging disabled)."""
        return self.fleet_plan.hedge

    @property
    def fairness_mode(self) -> str:
        """The installed dispatch-ordering mode (see ``FAIRNESS_MODES``)."""
        return self.fleet_plan.fairness.mode

    # ------------------------------------------------------------------ #
    # admission (quotas and rate limits on the arrival clock)
    # ------------------------------------------------------------------ #

    def admit(self, timed: TimedRequest) -> str | None:
        """Admission-check one arrival; returns the shed reason or ``None``.

        Quota first (a tenant over its window quota is not charged bucket
        tokens), then the token bucket.  Both key on ``timed.tick`` — the
        arrival clock — so the decision sequence is identical across
        fault-plan variations of the same trace.
        """
        policy = self._policies.get(timed.tenant)
        if policy is None:
            return None
        if policy.quota is not None:
            window = timed.tick // policy.quota_window_ticks
            seen_window, count = self._quota.get(timed.tenant, (window, 0))
            if seen_window != window:
                count = 0
            if count >= policy.quota:
                self._shed(timed, "quota")
                return "quota"
            self._quota[timed.tenant] = (window, count + 1)
        if policy.rate_tokens_per_tick is not None:
            last, tokens = self._buckets.get(
                timed.tenant, (timed.tick, float(policy.burst))
            )
            tokens = min(
                float(policy.burst),
                tokens + (timed.tick - last) * policy.rate_tokens_per_tick,
            )
            if tokens < 1.0:
                self._buckets[timed.tenant] = (timed.tick, tokens)
                self._shed(timed, "ratelimit")
                return "ratelimit"
            self._buckets[timed.tenant] = (timed.tick, tokens - 1.0)
        return None

    def _shed(self, timed: TimedRequest, reason: str) -> None:
        self._sheds[reason] = self._sheds.get(reason, 0) + 1
        self._m_shed.inc(reason=reason)
        self.obs.events.emit(
            "router.shed", tick=timed.tick, reason=reason, tenant=timed.tenant
        )

    def effective_priority(self, timed: TimedRequest) -> int:
        """The trace priority, unless the tenant's policy overrides it."""
        policy = self._policies.get(timed.tenant)
        if policy is not None and policy.priority is not None:
            return policy.priority
        return timed.priority

    # ------------------------------------------------------------------ #
    # placement
    # ------------------------------------------------------------------ #

    def route(self, request: ServeRequest, timed: TimedRequest) -> int:
        """Pick the replica for one request and take a load assignment.

        Hash mode is a pure function of ``(ring, key)``; least-loaded
        reads the live load vector (argmin, lowest index on ties), which
        is itself deterministic because the event loop is.  Balance the
        assignment with :meth:`release` when the request finishes (or is
        shed after routing).
        """
        if self.trivial:
            return next(iter(self._fleet))
        if self.config.policy == "hash":
            point = stable_hash(f"router.key␞{self._hash_material(request, timed)}")
            # Draining replicas already left the ring, so hash placement
            # skips them for free.  _next_rid exceeds every live rid, so
            # the sentinel sorts after any (point, rid) tie.
            index = bisect_right(self._ring, (point, self._next_rid))
            if index == len(self._ring):
                index = 0
            replica = self._ring[index][1]
        else:
            replica = min(self.live_rids, key=lambda rid: (self._load[rid], rid))
        self._load[replica] += 1
        self._routed[replica] += 1
        self._m_routed.inc(replica=str(replica))
        self._m_load.set(self._load[replica], replica=str(replica))
        return replica

    def _hash_material(self, request: ServeRequest, timed: TimedRequest) -> str:
        if self.config.hash_key == "tenant":
            return timed.tenant if request.tenant is None else request.tenant
        return request.prompt

    def release(self, replica: int) -> None:
        """Return one load assignment (request finished or shed)."""
        if self.trivial:
            return
        self._load[replica] -= 1
        self._m_load.set(self._load[replica], replica=str(replica))
        if replica in self._draining and self._load[replica] == 0:
            self._retire(replica)

    # ------------------------------------------------------------------ #
    # hedged retries (the engine's tail-tolerance surface)
    # ------------------------------------------------------------------ #

    def hedge_candidate(
        self, request: ServeRequest, timed: TimedRequest, primary: int
    ) -> int | None:
        """The deterministic second replica for a hedged retry.

        Hash policy walks the ring clockwise from the request's point to
        the first live replica other than ``primary`` (the natural
        "next owner"); least-loaded takes the argmin excluding
        ``primary``.  Draining replicas never host hedges.  ``None``
        means no candidate exists (single-replica fleet).
        """
        live = [rid for rid in self.live_rids if rid != primary]
        if not live:
            return None
        if self.config.policy == "least_loaded":
            return min(live, key=lambda rid: (self._load[rid], rid))
        point = stable_hash(f"router.key␞{self._hash_material(request, timed)}")
        index = bisect_right(self._ring, (point, self._next_rid))
        eligible = set(live)
        for step in range(len(self._ring)):
            entry = self._ring[(index + step) % len(self._ring)]
            if entry[1] in eligible:
                return entry[1]
        return live[0]

    def take_hedge(self, replica: int) -> None:
        """Take a load assignment for a hedge leg (not a placement)."""
        self._load[replica] += 1
        self._m_load.set(self._load[replica], replica=str(replica))

    def resolve_hedge(
        self,
        outcome: str,
        *,
        tick: int,
        primary: int,
        hedge: int | None = None,
    ) -> None:
        """Record one hedge outcome: ``win`` (the hedge leg finished
        first), ``loss`` (the primary won the race), or ``skipped`` (no
        candidate or no free slot at launch time)."""
        self._hedges[outcome] = self._hedges.get(outcome, 0) + 1
        self._m_hedges.inc(outcome=outcome)
        fields = {"outcome": outcome, "primary": primary}
        if hedge is not None:
            fields["hedge"] = hedge
        self.obs.events.emit("router.hedge", tick=tick, **fields)
        if outcome != "skipped":
            with self.obs.tracer.span("router.hedge", **fields):
                pass

    # ------------------------------------------------------------------ #
    # weighted fair queueing (the engine's dispatch-ordering surface)
    # ------------------------------------------------------------------ #

    def wfq_tags(
        self, batch: Sequence[TimedRequest]
    ) -> list[tuple[int, Fraction]]:
        """Virtual-time finish tags for one drained batch, in batch order.

        Start-time fair queueing over exact Fractions: each request
        starts at ``max(virtual time, its tenant's last finish)`` and
        finishes ``1/weight`` later, so a tenant with twice the weight
        accrues finish tags half as fast and wins twice the slots under
        contention.  Zero-weight tenants tag ``(1, 0)`` — a background
        class sorting after every weighted tag ``(0, finish)``; a stable
        sort keeps arrival order inside each class.
        """
        tags: list[tuple[int, Fraction]] = []
        starts: list[Fraction] = []
        for timed in batch:
            weight = self._wfq_weights.get(timed.tenant, self._wfq_default)
            if weight <= 0:
                tags.append((1, Fraction(0)))
                continue
            start = max(self._wfq_v, self._wfq_finish.get(timed.tenant, Fraction(0)))
            finish = start + Fraction(1) / weight
            self._wfq_finish[timed.tenant] = finish
            starts.append(start)
            tags.append((0, finish))
        if starts:
            self._wfq_v = max(self._wfq_v, min(starts))
        return tags

    # ------------------------------------------------------------------ #
    # pool resolution (failover over circuit breakers)
    # ------------------------------------------------------------------ #

    def resolve(
        self,
        request: ServeRequest,
        timed: TimedRequest,
        replica: int,
        *,
        force: bool = False,
    ) -> ServeRequest | None:
        """Resolve a pool-addressed request to a concrete member model.

        Non-pool models pass through untouched.  The weighted draw is a
        pure function of ``(router seed, pool, arrival tick, request
        key)``; members whose breaker is hard-open on ``replica`` (a
        side-effect-free peek — recovery probes are never consumed here)
        drop out first.  An all-open pool returns ``None`` unless
        ``force=True`` (the engine's ``degrade`` shed policy), which
        draws over the full membership and lets the gateway's breaker
        fast-fail or probe.
        """
        pool = self._pools.get(request.model)
        if pool is None:
            return request
        gateway = self._fleet[replica]
        # The breaker clock is the gateway's request counter; the serve
        # this draw feeds will run at clock + 1 or later, so peek there.
        probe_tick = gateway.clock + 1
        eligible = [
            (model, weight)
            for model, weight in pool.models
            if model not in gateway._breakers
            or gateway._breakers[model].would_allow(probe_tick)
        ]
        if len(eligible) < len(pool.models) and eligible:
            self._failovers[pool.name] = self._failovers.get(pool.name, 0) + 1
            self._m_failover.inc(pool=pool.name)
        if not eligible:
            if not force:
                return None
            eligible = list(pool.models)
        key = request.request_id if request.request_id is not None else request.prompt
        draw = _unit_draw("router.pool", self.config.seed, pool.name, timed.tick, key)
        total = sum(weight for _, weight in eligible)
        threshold = draw * total
        acc = 0.0
        chosen = eligible[-1][0]
        for model, weight in eligible:
            acc += weight
            if threshold < acc:
                chosen = model
                break
        return replace(request, model=chosen)

    # ------------------------------------------------------------------ #
    # serving (the engine's per-replica gateway surface)
    # ------------------------------------------------------------------ #

    def plan_batch(self, replica: int, requests: Sequence[ServeRequest]) -> BatchPlan:
        """Plan one drained batch group on its target replica."""
        return self._fleet[replica].plan_batch(requests)

    def completion_latency(
        self, replica: int, request: ServeRequest, plan: BatchPlan | None = None
    ) -> int:
        """Price one completion on its target replica (pure).

        The installed :class:`FleetPlan`'s ``spike_rate`` adds a
        seed-pure per-(replica, request) straggler penalty on top of the
        gateway's content-keyed latency model — without it every replica
        prices a request identically and a hedge could never win.
        """
        latency = self._fleet[replica].completion_latency(request, plan)
        if self._spike_rate > 0.0:
            key = (
                request.request_id
                if request.request_id is not None
                else request.prompt
            )
            draw = _unit_draw("router.spike", self.config.seed, replica, key)
            if draw < self._spike_rate:
                latency += self._spike_ticks
        return latency

    def serve_planned(
        self, replica: int, request: ServeRequest, plan: BatchPlan
    ) -> ServeResponse:
        """Serve one planned request on its replica.

        Non-trivial routers wrap the serve in a ``router.route`` span, so
        the gateway's ``gateway.ask`` tree hangs off the routing decision
        in trace exports; the trivial router stays invisible.
        """
        gateway = self._fleet[replica]
        if self.trivial:
            return gateway.serve_planned(request, plan)
        with self.obs.tracer.span(
            "router.route", replica=replica, policy=self.config.policy
        ) as span:
            if request.tenant is not None:
                span.set(tenant=request.tenant)
            response = gateway.serve_planned(request, plan)
            span.status = response.status
        return response

    # ------------------------------------------------------------------ #
    # fleet views
    # ------------------------------------------------------------------ #

    @property
    def n_replicas(self) -> int:
        """Fleet size, draining replicas included until they retire."""
        return len(self._fleet)

    @property
    def policy(self) -> object:
        """The fleet's shared augmentation policy (``None`` when unpoliced)."""
        return self.replicas[0].policy

    @property
    def clock(self) -> int:
        """Fleet-wide logical time: requests attempted across replicas,
        including every since-retired replica's ticks."""
        return self._retired_ticks + sum(
            gateway._clock for gateway in self._fleet.values()
        )

    @property
    def cache_hit_rate(self) -> float:
        """Fleet complement-cache hit rate (shared scope: the one cache's)."""
        hits = sum(g._complement_cache.hits for g in self._distinct_caches())
        misses = sum(g._complement_cache.misses for g in self._distinct_caches())
        total = hits + misses
        return hits / total if total else 0.0

    def _distinct_caches(self) -> list[PasGateway]:
        seen: list[PasGateway] = []
        cache_ids: set[int] = set()
        for gateway in self.replicas:
            if id(gateway._complement_cache) not in cache_ids:
                cache_ids.add(id(gateway._complement_cache))
                seen.append(gateway)
        return seen
