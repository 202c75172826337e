"""The event-loop serving engine: overlapped completions on the logical clock.

The synchronous gateway serves one completion at a time, so the batch
bench's makespan is ~89% completion stall.  Real serving overlaps: while
one completion is in flight, the gateway plans, embeds, and augments for
*other* requests, and up to ``max_inflight`` completions per model run
concurrently.  :class:`ServingEngine` reproduces that discipline
deterministically — every completion is a simulated-latency interval on
the logical clock (priced by the client's seeded
:class:`~repro.llm.api.LatencyModel`), and the engine advances through a
heap of events:

* **arrivals** — a timed trace (see :mod:`repro.serve.traffic`) feeds a
  pull-mode :class:`~repro.serve.scheduler.MicroBatcher`, subject to
  admission control (queue overflow sheds at the door);
* **completion finishes** — the heap's clockwork; a finish frees an
  in-flight slot, serves the planned request through the gateway, and
  triggers another dispatch round;
* **batch-window expiries** — wake-ups that fire the batcher's wait
  trigger when no arrival or finish would.

Dispatch drains ready batches as capacity frees: each drained batch is
deadline-checked (stale requests are shed — rejected or degraded to
unaugmented, per :attr:`EngineConfig.shed_policy`), planned once with
:meth:`~repro.serve.gateway.PasGateway.plan_batch`, ordered by priority,
and its requests start completions as their model's slots allow.

The engine always drives a :class:`~repro.serve.router.Router`: hand it
a bare gateway and it is adopted as a trivial single-replica router
(invisible — no spans, metrics, or routing state), hand it a multi-replica
router and every dispatch round routes, admission enforces tenant
policies, and pool-addressed requests resolve to concrete models before
planning.  Per-slot accounting is keyed ``(replica, model)``; with one
replica the stats keys stay bare model names, so single-gateway callers
see exactly the PR 7 shapes.

Two fleet policies thread through from the router's installed
:class:`~repro.serve.router.FleetPlan`:

* **hedged retries** — when a :class:`~repro.serve.router.HedgePolicy`
  is installed and a started completion's priced latency exceeds the
  hedge deadline, a rank-1 *hedge launch* event fires mid-flight: the
  same planned request starts on a deterministic second replica (the
  :class:`~repro.serve.gateway.BatchPlan` is replica-independent pure
  data, so no re-planning), the first finish wins, and the loser's
  pending finish event is lazily cancelled — its slot and load free at
  the winner's tick and its tombstone never advances the clock, so
  ``makespan_ticks`` reflects the raced outcome.  Ties go to the
  primary (smaller event seq).  Hedging disabled is bit-identical to
  the pre-hedging engine.
* **weighted fair queueing** — with ``fairness.mode="wfq"`` each
  drained batch dispatches in virtual-time finish-tag order (exact
  Fractions, see :meth:`~repro.serve.router.Router.wfq_tags`) instead
  of the priority sort, so no tenant starves under bursty load.

**Compatibility mode**: at ``max_inflight=1`` a one-model trace's
completions serialize, the gateway sees the requests in trace order, and
— by the partition invariance the batch-parity suite pins — the
responses, gateway stats and cache state are bit-identical to
``[gateway.ask(t.request) for t in trace]`` (with admission control off
and default priorities; the engine orders each batch by priority).
Slots are per model, so with several models (an unroutable one included)
a later request can finish first.  Everything is a pure function of seed:
same trace + same gateway seed → byte-identical responses, traces,
events, and metrics.
"""

from __future__ import annotations

import heapq
from bisect import insort
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.errors import ConfigError, UnknownModelError
from repro.obs import Observability
from repro.serve.gateway import BatchPlan, PasGateway
from repro.serve.router import Router
from repro.serve.scheduler import MicroBatcher
from repro.serve.traffic import TimedRequest
from repro.serve.types import ServeRequest, ServeResponse
from repro.utils.serialize import Record, register
from repro.utils.stats import nearest_rank

__all__ = [
    "SHED_POLICIES",
    "EngineConfig",
    "EngineResult",
    "EngineStats",
    "ServingEngine",
]

#: What happens to a request that outlives its deadline in the queue:
#: ``reject`` — fail it (``attempts=0``, it never reaches the gateway);
#: ``degrade`` — strip augmentation and serve the raw prompt instead.
SHED_POLICIES = ("reject", "degrade")

_LATENCY_BUCKETS = (8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0)
_QUEUE_WAIT_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

# Heap-event ranks: completions land first on a tick, then hedge
# launches, then expiry wake-ups (arrivals are merged from the sorted
# trace between finishes and hedge launches).
_FINISH, _HEDGE, _EXPIRE = 0, 1, 2


class _HedgeState:
    """The shared race state of one hedged request's two legs."""

    __slots__ = (
        "primary",
        "primary_seq",
        "primary_grant",
        "hedge",
        "hedge_seq",
        "hedge_grant",
        "done",
    )

    def __init__(self, primary: int, primary_seq: int, primary_grant: int):
        self.primary = primary
        self.primary_seq = primary_seq
        self.primary_grant = primary_grant
        self.hedge: int | None = None
        self.hedge_seq: int | None = None
        self.hedge_grant: int | None = None
        self.done = False


@dataclass(frozen=True)
class EngineConfig(Record):
    """Everything configurable about a :class:`ServingEngine`.

    ``max_inflight`` overrides every model's concurrency limit (``None``
    defers to each client's own, i.e. ``GatewayConfig.max_inflight``).
    ``max_batch`` / ``max_wait`` parameterize the micro-batcher.
    ``max_queue`` is the admission bound: arrivals beyond this many
    queued-but-unstarted requests are shed at the door (``None`` admits
    everything).  ``deadline_ticks`` is the default queueing budget for
    requests whose trace entry carries none (``None`` falls back to the
    gateway retry policy's ``deadline_ticks``; if that is also unset,
    requests never expire).  ``keep_responses=False`` discards response
    objects as they complete (stats only) — the million-request bench
    runs that way.
    """

    max_inflight: int | None = None
    max_batch: int = 8
    max_wait: int = 4
    max_queue: int | None = None
    deadline_ticks: int | None = None
    shed_policy: str = "reject"
    keep_responses: bool = True

    def __post_init__(self) -> None:
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ConfigError(
                f"max_inflight must be >= 1 or None, got {self.max_inflight}"
            )
        if self.max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait < 1:
            raise ConfigError(f"max_wait must be >= 1, got {self.max_wait}")
        if self.max_queue is not None and self.max_queue < 1:
            raise ConfigError(
                f"max_queue must be >= 1 or None, got {self.max_queue}"
            )
        if self.deadline_ticks is not None and self.deadline_ticks < 1:
            raise ConfigError(
                f"deadline_ticks must be >= 1 or None, got {self.deadline_ticks}"
            )
        if self.shed_policy not in SHED_POLICIES:
            raise ConfigError(
                f"unknown shed_policy {self.shed_policy!r}; "
                f"expected one of {SHED_POLICIES}"
            )


register(EngineConfig)


@dataclass
class EngineStats:
    """One run's accounting.  Invariant: ``arrived == served + failed``
    (shed rejects are ``failed`` responses with ``attempts=0``), and
    ``shed`` counts rejects by reason (``queue`` / ``deadline`` /
    ``quota`` / ``ratelimit`` / ``pool``) while ``degraded_on_shed``
    counts deadline sheds the ``degrade`` policy turned into unaugmented
    serves instead.  With multiple replicas, ``busy_ticks`` /
    ``slot_limits`` / ``occupancy`` keys become ``model@rN``; one replica
    keeps bare model names."""

    arrived: int = 0
    served: int = 0
    failed: int = 0
    shed: dict[str, int] = field(default_factory=dict)
    degraded_on_shed: int = 0
    first_tick: int = 0
    last_tick: int = 0
    peak_inflight: int = 0
    latency_ticks: list[int] = field(default_factory=list)
    queue_wait_ticks: list[int] = field(default_factory=list)
    busy_ticks: dict[str, int] = field(default_factory=dict)
    slot_limits: dict[str, int] = field(default_factory=dict)

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())

    @property
    def shed_rate(self) -> float:
        return self.shed_total / self.arrived if self.arrived else 0.0

    @property
    def makespan_ticks(self) -> int:
        return max(1, self.last_tick - self.first_tick)

    @property
    def served_per_ktick(self) -> float:
        """Sustained throughput: served requests per 1000 logical ticks."""
        return 1000.0 * self.served / self.makespan_ticks

    @property
    def latency_p50(self) -> float:
        return nearest_rank(self.latency_ticks, 50.0)

    @property
    def latency_p99(self) -> float:
        return nearest_rank(self.latency_ticks, 99.0)

    @property
    def queue_wait_p50(self) -> float:
        return nearest_rank(self.queue_wait_ticks, 50.0)

    @property
    def queue_wait_p99(self) -> float:
        return nearest_rank(self.queue_wait_ticks, 99.0)

    @property
    def occupancy(self) -> dict[str, float]:
        """Per-model slot utilisation: busy ticks over makespan × slots."""
        span = self.makespan_ticks
        return {
            model: self.busy_ticks.get(model, 0) / (span * slots)
            for model, slots in sorted(self.slot_limits.items())
        }

    def as_dict(self) -> dict:
        """JSON-safe dict with a stable key order (samples summarized)."""
        return {
            "arrived": self.arrived,
            "served": self.served,
            "failed": self.failed,
            "shed": dict(sorted(self.shed.items())),
            "shed_rate": self.shed_rate,
            "degraded_on_shed": self.degraded_on_shed,
            "makespan_ticks": self.makespan_ticks,
            "served_per_ktick": self.served_per_ktick,
            "latency_p50": self.latency_p50,
            "latency_p99": self.latency_p99,
            "queue_wait_p50": self.queue_wait_p50,
            "queue_wait_p99": self.queue_wait_p99,
            "peak_inflight": self.peak_inflight,
            "occupancy": self.occupancy,
        }


@dataclass
class EngineResult:
    """What one :meth:`ServingEngine.run` hands back.

    ``responses`` is in **trace order** — index *i* answers trace entry
    *i*, shed requests included — or empty when the run discarded
    responses (``keep_responses=False``).  ``batch_records`` are the
    micro-batcher's drain records, one per pull; outcomes are in
    ``responses`` and ``stats``.
    """

    responses: list[ServeResponse]
    stats: EngineStats
    batch_records: list


class ServingEngine:
    """Drive gateway replicas through a timed trace, via a router.

    ``target`` is either a :class:`~repro.serve.router.Router` or a bare
    :class:`~repro.serve.gateway.PasGateway` (adopted as a trivial
    single-replica router — the two spellings are bit-identical).
    ``config`` is an :class:`EngineConfig`, or a full
    :class:`~repro.serve.config.ServingConfig` whose ``engine`` section
    is used; those are the only construction paths.

    The engine shares the router's observability bundle: engine metrics
    (``pas_engine_inflight``, ``pas_request_latency_ticks``,
    ``pas_queue_wait_ticks``, ``pas_engine_shed_total``) land in the same
    registry as the gateway's counters, shed events join the gateway's
    event log, and gateway spans keep their synchronous shape (parented
    by ``router.route`` for non-trivial routers).  One engine can
    :meth:`run` several traces; gateway state (caches, breakers, clocks)
    carries across runs exactly as it would across ``ask_batch`` calls.
    """

    def __init__(
        self,
        target: Router | PasGateway,
        config: "EngineConfig | object | None" = None,
    ):
        if config is not None and hasattr(config, "engine") and hasattr(config, "router"):
            config = config.engine
        if isinstance(target, Router):
            self.router = target
        else:
            self.router = Router(replicas=[target])
        self.config = config or EngineConfig()
        self._multi = self.router.n_replicas > 1
        self.obs: Observability = self.router.obs
        # The bundle's registry: with observability off it is the null
        # registry, and EngineStats reads none of these series.
        self._registry = self.obs.metrics
        self._m_inflight = self._registry.gauge(
            "pas_engine_inflight", help="Completions currently in flight."
        )
        self._m_latency = self._registry.histogram(
            "pas_request_latency_ticks",
            buckets=_LATENCY_BUCKETS,
            help="Arrival-to-finish latency of completed requests, in ticks.",
        )
        self._m_queue_wait = self._registry.histogram(
            "pas_queue_wait_ticks",
            buckets=_QUEUE_WAIT_BUCKETS,
            help="Arrival-to-dispatch wait of completed requests, in ticks.",
        )
        self._m_shed = self._registry.counter(
            "pas_engine_shed_total", help="Requests shed by reason."
        )

    @property
    def gateway(self) -> PasGateway:
        """The first (with one replica: the only) gateway replica."""
        return self.router.replicas[0]

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def _slot_limit(
        self, replica: int, model: str, limits: dict[tuple[int, str], int]
    ) -> int:
        """Per-(replica, model) in-flight slots.  Unknown models get one
        slot — their requests fail at routing after a nominal 1-tick
        latency."""
        key = (replica, model)
        if key not in limits:
            try:
                client_limit = (
                    self.router.gateway_for(replica).client_for(model).max_inflight
                )
            except UnknownModelError:
                client_limit = 1
            limits[key] = (
                self.config.max_inflight
                if self.config.max_inflight is not None
                else client_limit
            )
        return limits[key]

    def _stat_key(self, replica: int, model: str) -> str:
        """Stats keys stay bare model names with one replica (the PR 7
        shape); fleets annotate them with the replica id.  The shape is
        snapshotted at run start, so a drain mid-run cannot flip keys."""
        if not self._multi:
            return model
        return f"{model}@r{replica}"

    @staticmethod
    def _shed_response(request: ServeRequest, error: str) -> ServeResponse:
        return ServeResponse(
            request_id=request.request_id,
            model=request.model,
            response="",
            complement="",
            complement_cached=False,
            prompt_tokens=0,
            completion_tokens=0,
            status="failed",
            error=error,
            attempts=0,
        )

    def _deadline_for(self, timed: TimedRequest) -> int | None:
        if timed.deadline_ticks is not None:
            return timed.deadline_ticks
        if self.config.deadline_ticks is not None:
            return self.config.deadline_ticks
        policy = self.router.gateway_config.retry_policy
        return policy.deadline_ticks if policy is not None else None

    # ------------------------------------------------------------------ #
    # the event loop
    # ------------------------------------------------------------------ #

    def run(self, trace: Sequence[TimedRequest]) -> EngineResult:
        """Serve a timed trace to completion; see the module docstring.

        The trace must be in non-decreasing tick order (what
        :meth:`~repro.serve.traffic.TrafficGenerator.trace` produces).
        """
        cfg = self.config
        router = self.router
        self._multi = router.n_replicas > 1
        hedge_cfg = router.hedge_policy if not router.trivial else None
        trace = list(trace)
        for earlier, later in zip(trace, trace[1:]):
            if later.tick < earlier.tick:
                raise ValueError(
                    "trace ticks must be non-decreasing: "
                    f"got {later.tick} after {earlier.tick}"
                )

        n = len(trace)
        stats = EngineStats(arrived=n)
        responses: list[ServeResponse | None] = [None] * n if cfg.keep_responses else []
        if not trace:
            return EngineResult(responses=[], stats=stats, batch_records=[])
        stats.first_tick = stats.last_tick = trace[0].tick

        batcher = MicroBatcher(max_batch=cfg.max_batch, max_wait=cfg.max_wait, obs=self.obs)
        # Parallel FIFO of (trace index, TimedRequest) for the batcher queue.
        meta: deque[tuple[int, TimedRequest]] = deque()
        # Planned requests waiting for a slot on their assigned replica.
        spill: deque[tuple[int, TimedRequest, ServeRequest, BatchPlan, int]] = deque()
        heap: list[tuple[int, int, int, object]] = []
        seq = 0
        limits: dict[tuple[int, str], int] = {}
        busy: dict[tuple[int, str], int] = {}
        inflight = 0
        wake_at: int | None = None
        # Lazily-deleted finish events (hedge losers): their seqs land
        # here and the tombstones are pruned before every heap peek, so
        # a cancelled completion can never advance the clock or inflate
        # the makespan.
        cancelled: set[int] = set()
        # stats.latency_ticks kept sorted, one insort per finish, so the
        # hedge deadline reads its percentile without sorting every start.
        ordered_latency: list[int] = []

        def prune() -> None:
            while heap and heap[0][2] in cancelled:
                cancelled.discard(heap[0][2])
                heapq.heappop(heap)

        def hedge_deadline() -> int | None:
            """The tick budget before a hedge launches (seed-pure)."""
            if hedge_cfg is None:
                return None
            if hedge_cfg.after_ticks is not None:
                return hedge_cfg.after_ticks
            if len(ordered_latency) < hedge_cfg.min_samples:
                return None
            return max(
                1, int(nearest_rank(ordered_latency, hedge_cfg.percentile, ordered=True))
            )

        def record(index: int, response: ServeResponse) -> None:
            if cfg.keep_responses:
                responses[index] = response
            if response.failed:
                stats.failed += 1
            else:
                stats.served += 1

        def shed(index: int, timed: TimedRequest, reason: str, error: str) -> None:
            stats.shed[reason] = stats.shed.get(reason, 0) + 1
            self._m_shed.inc(reason=reason)
            self.obs.events.emit(
                "engine.shed",
                tick=timed.tick,
                reason=reason,
                model=timed.request.model,
                tenant=timed.tenant,
            )
            record(index, self._shed_response(timed.request, error))

        def finish(tick: int, payload) -> None:
            nonlocal inflight
            index, timed, request, plan, replica, grant_tick, race, leg = payload
            if race is not None and not race.done:
                # This leg won; settle the race before serving.  The
                # loser's slot and load free *now* (the winner's tick),
                # and its pending finish event becomes a tombstone.
                race.done = True
                if leg == "hedge":
                    loser, loser_seq, loser_grant = (
                        race.primary, race.primary_seq, race.primary_grant,
                    )
                    outcome = "win"
                else:
                    loser, loser_seq, loser_grant = (
                        race.hedge, race.hedge_seq, race.hedge_grant,
                    )
                    outcome = "loss"
                if loser_seq is not None:
                    cancelled.add(loser_seq)
                    router.release(loser)
                    busy[(loser, request.model)] -= 1
                    inflight -= 1
                    loser_key = self._stat_key(loser, request.model)
                    stats.busy_ticks[loser_key] = (
                        stats.busy_ticks.get(loser_key, 0) + tick - loser_grant
                    )
                    router.resolve_hedge(
                        outcome, tick=tick, primary=race.primary, hedge=race.hedge
                    )
            response = router.serve_planned(replica, request, plan)
            router.release(replica)
            busy[(replica, request.model)] -= 1
            inflight -= 1
            stat_key = self._stat_key(replica, request.model)
            stats.busy_ticks[stat_key] = (
                stats.busy_ticks.get(stat_key, 0) + tick - grant_tick
            )
            self._m_inflight.set(inflight)
            latency = tick - timed.tick
            stats.latency_ticks.append(latency)
            insort(ordered_latency, latency)
            self._m_latency.observe(latency)
            record(index, response)

        def start(index: int, timed: TimedRequest, request: ServeRequest,
                  plan: BatchPlan, replica: int, now: int) -> None:
            nonlocal inflight, seq
            wait = now - timed.tick
            stats.queue_wait_ticks.append(wait)
            self._m_queue_wait.observe(wait)
            try:
                latency = router.completion_latency(replica, request, plan)
            except UnknownModelError:
                latency = 1  # fails at routing when the finish event serves it
            busy[(replica, request.model)] = busy.get((replica, request.model), 0) + 1
            inflight += 1
            stats.peak_inflight = max(stats.peak_inflight, inflight)
            self._m_inflight.set(inflight)
            race: _HedgeState | None = None
            deadline = hedge_deadline()
            if (
                deadline is not None
                and deadline < latency
                and router.n_replicas > 1
            ):
                # Arm the hedge only when it could launch strictly before
                # the primary finishes; otherwise the race is unwinnable
                # and arming it would burn a slot for nothing.
                race = _HedgeState(replica, seq, now)
                heapq.heappush(
                    heap,
                    (
                        now + deadline,
                        _HEDGE,
                        seq + 1,
                        (race, index, timed, request, plan),
                    ),
                )
            heapq.heappush(
                heap,
                (
                    now + latency,
                    _FINISH,
                    seq,
                    (index, timed, request, plan, replica, now, race, "primary"),
                ),
            )
            seq += 2 if race is not None else 1

        def capacity_free() -> bool:
            if not busy:
                return True
            return any(count < limits[key] for key, count in busy.items())

        def dispatch(now: int, force: bool) -> None:
            progressed = True
            while progressed:
                progressed = False
                while spill:
                    index, timed, request, plan, replica = spill[0]
                    if busy.get((replica, request.model), 0) >= self._slot_limit(
                        replica, request.model, limits
                    ):
                        break
                    spill.popleft()
                    start(index, timed, request, plan, replica, now)
                    progressed = True
                if spill:
                    break
                if batcher.ready(now) is None and not (force and batcher.pending):
                    break
                if not capacity_free():
                    break
                batch = batcher.take(now, force=force)
                if not batch:
                    break
                kept: list[tuple[int, TimedRequest, ServeRequest]] = []
                for _ in batch:
                    index, timed = meta.popleft()
                    deadline = self._deadline_for(timed)
                    if deadline is not None and now - timed.tick > deadline:
                        if cfg.shed_policy == "degrade":
                            if timed.request.augment:
                                stats.degraded_on_shed += 1
                                self.obs.events.emit(
                                    "engine.shed",
                                    tick=now,
                                    reason="deadline",
                                    action="degrade",
                                    model=timed.request.model,
                                    tenant=timed.tenant,
                                )
                                kept.append(
                                    (index, timed, replace(timed.request, augment=False))
                                )
                            else:
                                kept.append((index, timed, timed.request))
                        else:
                            shed(
                                index,
                                timed,
                                "deadline",
                                "DeadlineExceededError: queued for "
                                f"{now - timed.tick} ticks, budget {deadline}",
                            )
                    else:
                        kept.append((index, timed, timed.request))
                if not kept:
                    progressed = True
                    continue
                # Route each request, then resolve pool-addressed models
                # against the chosen replica's breakers.  The ``degrade``
                # shed policy forces an all-open pool to draw anyway (the
                # gateway breaker then fast-fails or admits the probe);
                # ``reject`` sheds it with attempts=0.
                routed: list[tuple[int, TimedRequest, ServeRequest, int]] = []
                for index, timed, request in kept:
                    replica = router.route(request, timed)
                    resolved = router.resolve(
                        request, timed, replica,
                        force=(cfg.shed_policy == "degrade"),
                    )
                    if resolved is None:
                        router.release(replica)
                        shed(
                            index,
                            timed,
                            "pool",
                            "PoolExhaustedError: every model in pool "
                            f"{request.model!r} has an open circuit breaker",
                        )
                        continue
                    routed.append((index, timed, resolved, replica))
                if not routed:
                    progressed = True
                    continue
                # One plan per replica group, each in arrival order (with
                # one replica this is exactly the single plan_batch call
                # the PR 7 engine made).
                plans: dict[int, BatchPlan] = {}
                for replica in sorted({r for _, _, _, r in routed}):
                    group = [req for _, _, req, r in routed if r == replica]
                    plans[replica] = router.plan_batch(replica, group)
                # Order the batch for dispatch.  WFQ mode assigns exact-
                # Fraction virtual-time finish tags (weighted tenants
                # first, zero-weight background last); priority mode keeps
                # the historical highest-priority-first sort.  Both sorts
                # are stable, so ties keep arrival order (compat parity).
                if router.fairness_mode == "wfq":
                    tags = router.wfq_tags([timed for _, timed, _, _ in routed])
                    order = sorted(range(len(routed)), key=lambda pos: tags[pos])
                    routed = [routed[pos] for pos in order]
                else:
                    routed.sort(key=lambda item: -router.effective_priority(item[1]))
                for index, timed, request, replica in routed:
                    if busy.get((replica, request.model), 0) < self._slot_limit(
                        replica, request.model, limits
                    ):
                        start(index, timed, request, plans[replica], replica, now)
                    else:
                        spill.append((index, timed, request, plans[replica], replica))
                progressed = True

        i = 0
        now = trace[0].tick
        while True:
            prune()
            next_arrival = trace[i].tick if i < n else None
            next_event = heap[0][0] if heap else None
            if next_arrival is None and next_event is None:
                if batcher.pending or spill:
                    dispatch(now, force=True)
                    continue
                break
            if next_event is not None and (
                next_arrival is None or next_event <= next_arrival
            ):
                now = next_event
            else:
                now = next_arrival
            stats.last_tick = max(stats.last_tick, now)

            # 1. completion finishes at this tick (heap rank 0); a finish
            #    can tombstone its hedge sibling later in the same tick,
            #    so re-prune between pops
            while heap and heap[0][0] == now and heap[0][1] == _FINISH:
                _, _, fseq, payload = heapq.heappop(heap)
                if fseq in cancelled:
                    cancelled.discard(fseq)
                    continue
                finish(now, payload)
            # 2. arrivals at this tick (admission control at the door:
            #    tenant policy first, then the queue bound)
            while i < n and trace[i].tick == now:
                timed = trace[i]
                queued = batcher.pending + len(spill)
                reason = router.admit(timed) if not router.trivial else None
                if reason == "quota":
                    shed(
                        i,
                        timed,
                        "quota",
                        f"QuotaExceededError: tenant {timed.tenant!r} is over "
                        "its request quota for this window",
                    )
                elif reason == "ratelimit":
                    shed(
                        i,
                        timed,
                        "ratelimit",
                        f"RateLimitedError: tenant {timed.tenant!r} token "
                        "bucket is empty",
                    )
                elif cfg.max_queue is not None and queued >= cfg.max_queue:
                    shed(
                        i,
                        timed,
                        "queue",
                        f"AdmissionError: queue full ({queued} >= {cfg.max_queue})",
                    )
                else:
                    batcher.submit_at(timed.tick, timed.request)
                    meta.append((i, timed))
                i += 1
            # 3. hedge launches at this tick (heap rank 1): start the
            #    armed request's second leg on a deterministic sibling
            #    replica if a slot is free, else count the skip
            while heap and heap[0][0] == now and heap[0][1] == _HEDGE:
                _, _, _, payload = heapq.heappop(heap)
                race, index, timed, request, plan = payload
                if race.done:
                    continue
                candidate = router.hedge_candidate(request, timed, race.primary)
                if candidate is None:
                    router.resolve_hedge("skipped", tick=now, primary=race.primary)
                    continue
                if busy.get((candidate, request.model), 0) >= self._slot_limit(
                    candidate, request.model, limits
                ):
                    router.resolve_hedge(
                        "skipped", tick=now, primary=race.primary, hedge=candidate
                    )
                    continue
                router.take_hedge(candidate)
                try:
                    hedge_latency = router.completion_latency(
                        candidate, request, plan
                    )
                except UnknownModelError:
                    hedge_latency = 1
                busy[(candidate, request.model)] = (
                    busy.get((candidate, request.model), 0) + 1
                )
                inflight += 1
                stats.peak_inflight = max(stats.peak_inflight, inflight)
                self._m_inflight.set(inflight)
                race.hedge = candidate
                race.hedge_seq = seq
                race.hedge_grant = now
                heapq.heappush(
                    heap,
                    (
                        now + hedge_latency,
                        _FINISH,
                        seq,
                        (index, timed, request, plan, candidate, now, race, "hedge"),
                    ),
                )
                seq += 1
            # 4. expiry wake-ups are pure wake-ups — just pop them
            while heap and heap[0][0] == now:
                heapq.heappop(heap)
                wake_at = None
            # 5. dispatch whatever is ready into free capacity
            dispatch(now, force=(i == n))
            # 6. make sure a parked queue's wait trigger can still fire
            if batcher.pending and batcher.ready(now) is None:
                due = batcher.oldest_tick + batcher.max_wait
                if wake_at != due:
                    heapq.heappush(heap, (due, _EXPIRE, seq, None))
                    seq += 1
                    wake_at = due

        self._m_inflight.set(0)
        stats.slot_limits = dict(
            sorted(
                (self._stat_key(replica, model), limit)
                for (replica, model), limit in limits.items()
            )
        )
        return EngineResult(
            responses=responses if cfg.keep_responses else [],
            stats=stats,
            batch_records=batcher.records,
        )
