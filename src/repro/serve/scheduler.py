"""Deterministic micro-batching in front of the gateway's batch path.

``PasGateway.ask_batch`` amortises augmentation across a batch, but live
traffic arrives one request at a time.  The :class:`MicroBatcher` bridges
the two: requests are queued as they arrive and a batch becomes *ready*
when either

* the queue reaches ``max_batch`` requests (**size** trigger), or
* the oldest queued request has waited ``max_wait`` ticks (**wait**
  trigger).

"Time" is the repo's logical clock.  Submission advances it two ways:
the legacy :meth:`submit` (one tick per call, the convention
:class:`~repro.serve.middleware.RateLimitMiddleware` uses) and the
trace-driven :meth:`submit_at`, which stamps each request with an
explicit arrival tick — the form the event-loop
:class:`~repro.serve.engine.ServingEngine` and the
:class:`~repro.serve.traffic.TrafficGenerator` speak.  Either way batch
formation is a pure function of the timed request sequence: no wall
clock, no races, fully replayable in tests.  Because ``ask_batch`` is
bit-identical to its scalar loop for *any* partition of the request
stream, the scheduler's outputs, gateway stats, and cache state all
match a direct ``ask_batch`` (or ``ask`` loop) over the same sequence
(``tests/test_serve_scheduler.py`` pins this).

The batcher runs in one of two modes:

* **handler mode** (a drain handler was given): ready batches drain
  immediately into the handler — the pre-engine shape, still what
  :meth:`run_arrivals` uses (the one-shot ``run()`` shim it deprecated
  is gone; submit timed traces);
* **continuous mode** (``handler=None``): nothing drains by itself.
  The serving engine *pulls* with :meth:`take` as in-flight completion
  slots free up, so a ready batch can leave in capacity-sized slices
  instead of one one-shot list.

Each drain appends a :class:`BatchRecord` (the per-batch compatibility
view), feeds the same numbers into the metrics registry — batch-size /
occupancy / wait histograms, per-trigger counters that
:class:`SchedulerStats` reads back — and emits a ``batch.drain`` event
when an :class:`~repro.obs.Observability` bundle is attached.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

from repro.obs import NULL_OBS, MetricsRegistry, Observability
from repro.serve.types import ServeRequest, ServeResponse
from repro.utils.stats import nearest_rank

__all__ = ["BatchRecord", "MicroBatcher", "SchedulerStats"]

Handler = Callable[[Sequence[ServeRequest]], "list[ServeResponse]"]

#: Fixed buckets for the scheduler's histograms (sizes, occupancy, waits).
_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
_OCCUPANCY_BUCKETS = (0.25, 0.5, 0.75, 1.0)
_WAIT_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0)
#: Finer occupancy buckets for the dedicated scheduler-occupancy histogram
#: (the coarse 4-bucket one predates the continuous batcher and is kept
#: for compatibility).
_SCHED_OCCUPANCY_BUCKETS = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)


@dataclass(frozen=True)
class BatchRecord:
    """Accounting for one drained batch.

    ``n_ok`` / ``n_degraded`` / ``n_failed`` split the handler's responses
    by :attr:`~repro.serve.types.ServeResponse.status`, so a batching tier
    in front of a non-strict gateway sees degradation per batch.  Handlers
    that return fewer responses than requests (or plain objects without a
    ``status``) count the ones they do return, defaulting to ``ok``.

    Every field is also observed into the scheduler's metrics registry at
    drain time, so the record list and the registry histograms agree.
    """

    tick: int  #: logical time at which the batch drained
    size: int
    trigger: str  #: ``"size"``, ``"wait"``, or ``"flush"``
    occupancy: float  #: ``size / max_batch``
    mean_wait_ticks: float  #: mean submit-to-drain latency, in ticks
    max_wait_ticks: int
    n_ok: int = 0
    n_degraded: int = 0
    n_failed: int = 0


class SchedulerStats:
    """Cumulative scheduler accounting — a live view over the registry.

    Backed by ``pas_batch_submitted_total`` / ``pas_batch_drained_total``
    / ``pas_batches_total{trigger}``; the public fields match the
    pre-registry dataclass, and ``==`` compares the numbers (used by the
    scheduler-vs-direct parity tests).
    """

    __slots__ = ("_batcher",)

    def __init__(self, batcher: "MicroBatcher"):
        self._batcher = batcher

    @property
    def submitted(self) -> int:
        return int(self._batcher._m_submitted.total())

    @property
    def drained(self) -> int:
        return int(self._batcher._m_drained.total())

    @property
    def batches(self) -> int:
        return int(self._batcher._m_batches.total())

    @property
    def triggers(self) -> dict[str, int]:
        return {
            dict(key)["trigger"]: int(value)
            for key, value in self._batcher._m_batches.series().items()
        }

    @property
    def mean_batch_size(self) -> float:
        return self.drained / self.batches if self.batches else 0.0

    def _occupancies(self) -> list[float]:
        return [record.occupancy for record in self._batcher.records]

    @property
    def mean_occupancy(self) -> float:
        occ = self._occupancies()
        return sum(occ) / len(occ) if occ else 0.0

    @property
    def occupancy_p50(self) -> float:
        """Median per-batch occupancy (size / max_batch) across drains."""
        return nearest_rank(self._occupancies(), 50.0)

    @property
    def occupancy_p99(self) -> float:
        """99th-percentile per-batch occupancy across drains."""
        return nearest_rank(self._occupancies(), 99.0)

    def as_dict(self) -> dict:
        """JSON-safe dict with a stable key order."""
        return {
            "submitted": self.submitted,
            "drained": self.drained,
            "batches": self.batches,
            "mean_batch_size": self.mean_batch_size,
            "mean_occupancy": self.mean_occupancy,
            "occupancy_p50": self.occupancy_p50,
            "occupancy_p99": self.occupancy_p99,
            "triggers": dict(sorted(self.triggers.items())),
        }

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SchedulerStats):
            return self.as_dict() == other.as_dict()
        return NotImplemented

    def __repr__(self) -> str:
        return f"SchedulerStats({self.as_dict()!r})"


class MicroBatcher:
    """Queue requests and batch them deterministically.

    Parameters
    ----------
    handler:
        The batch endpoint, typically ``gateway.ask_batch``.  Called with
        the drained requests in arrival order; its return list is handed
        back from the :meth:`submit`/:meth:`flush` call that triggered
        the drain.  If it raises (a completion exhausting its retries),
        the drained batch is consumed and the exception propagates —
        exactly ``ask_batch``'s contract.  Pass ``None`` for **continuous
        mode**: submissions only queue, and the owner (the serving
        engine) pulls ready batches with :meth:`take` as capacity frees.
    max_batch:
        Size trigger: a batch is ready as soon as this many requests are
        queued.
    max_wait:
        Wait trigger: a batch is ready when the oldest queued request is
        this many ticks old.  The clock only advances on submissions (or
        on :meth:`take`'s ``now``), so a quiet handler-mode stream must
        :meth:`flush` to drain its tail.
    obs:
        Optional :class:`~repro.obs.Observability` bundle.  Live metrics
        land batch size / occupancy / wait histograms there and every
        drain emits a ``batch.drain`` event (stamped with the drain tick
        in its attributes — the batcher never rebinds the event log's
        clock, so a bundle shared with a gateway keeps the gateway's).
        Stats counters always work, registry or not.
    """

    def __init__(
        self,
        handler: Handler | None,
        max_batch: int = 8,
        max_wait: int = 4,
        obs: Observability = NULL_OBS,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait < 1:
            raise ValueError(f"max_wait must be >= 1, got {max_wait}")
        self._handler = handler
        self.max_batch = max_batch
        self.max_wait = max_wait
        self.obs = obs
        self._clock = 0
        self._pending: list[tuple[int, ServeRequest]] = []
        self.records: list[BatchRecord] = []
        # Stats source of truth: the user's registry when live, else private.
        self._registry: MetricsRegistry = (
            obs.metrics if obs.metrics.enabled else MetricsRegistry()
        )
        self._m_submitted = self._registry.counter(
            "pas_batch_submitted_total", help="Requests submitted to the batcher."
        )
        self._m_drained = self._registry.counter(
            "pas_batch_drained_total", help="Requests drained into the handler."
        )
        self._m_batches = self._registry.counter(
            "pas_batches_total", help="Drained batches by trigger."
        )
        self._m_size = self._registry.histogram(
            "pas_batch_size", buckets=_SIZE_BUCKETS, help="Drained batch sizes."
        )
        self._m_occupancy = self._registry.histogram(
            "pas_batch_occupancy",
            buckets=_OCCUPANCY_BUCKETS,
            help="Batch size over max_batch at drain.",
        )
        self._m_sched_occupancy = self._registry.histogram(
            "pas_scheduler_occupancy",
            buckets=_SCHED_OCCUPANCY_BUCKETS,
            help="Batch size over max_batch at drain (fine-grained).",
        )
        self._m_wait = self._registry.histogram(
            "pas_batch_wait_ticks",
            buckets=_WAIT_BUCKETS,
            help="Per-request submit-to-drain wait, in logical ticks.",
        )
        self.stats = SchedulerStats(self)

    @property
    def clock(self) -> int:
        """The logical time of the latest submission (or pull)."""
        return self._clock

    @property
    def continuous(self) -> bool:
        """True when this batcher is pulled via :meth:`take` (no handler)."""
        return self._handler is None

    @property
    def pending(self) -> int:
        return len(self._pending)

    @property
    def oldest_tick(self) -> int | None:
        """Arrival tick of the oldest queued request (None when empty)."""
        return self._pending[0][0] if self._pending else None

    def submit(self, request: ServeRequest) -> list[ServeResponse]:
        """Enqueue one request on the one-tick-per-call clock.

        Equivalent to ``submit_at(clock + 1, request)``.  In handler mode
        most submissions return ``[]`` (the request is parked); when the
        size or wait trigger fires, the whole queue drains and the
        responses — including earlier requests' — come back in arrival
        order.  In continuous mode always returns ``[]``.
        """
        return self.submit_at(self._clock + 1, request)

    def submit_at(self, tick: int, request: ServeRequest) -> list[ServeResponse]:
        """Enqueue one request arriving at an explicit logical tick.

        Ticks must be non-decreasing (simultaneous arrivals may share
        one).  This is the trace-driven entry point: arrival times come
        from a :class:`~repro.serve.traffic.TrafficGenerator` trace
        instead of being invented one-per-call, so wait triggers reflect
        the workload's real gaps.  Trigger behaviour per mode matches
        :meth:`submit`.
        """
        if tick < self._clock:
            raise ValueError(
                f"submission ticks must be non-decreasing: got {tick} after {self._clock}"
            )
        self._clock = tick
        self._pending.append((tick, request))
        self._m_submitted.inc()
        if self._handler is None:
            return []
        if len(self._pending) >= self.max_batch:
            return self._drain("size")
        if self._clock - self._pending[0][0] >= self.max_wait:
            return self._drain("wait")
        return []

    def ready(self, now: int) -> str | None:
        """The trigger a batch would drain under at ``now``, or ``None``.

        ``"size"`` wins when the queue holds a full batch; otherwise
        ``"wait"`` once the oldest request has aged ``max_wait`` ticks.
        """
        if not self._pending:
            return None
        if len(self._pending) >= self.max_batch:
            return "size"
        if now - self._pending[0][0] >= self.max_wait:
            return "wait"
        return None

    def take(
        self, now: int, limit: int | None = None, force: bool = False
    ) -> list[ServeRequest]:
        """Pull up to ``min(max_batch, limit)`` ready requests at ``now``.

        The continuous-mode drain: the serving engine calls this whenever
        in-flight slots free up, so a ready batch can leave in
        capacity-sized slices rather than all at once.  Returns ``[]``
        when nothing is ready (or ``limit`` is 0).  ``force=True`` drains
        regardless of triggers (end of trace), recorded as a ``"flush"``
        batch.  Each pull appends a :class:`BatchRecord` whose outcome
        split is all-zero — outcomes belong to whoever serves the batch.
        """
        if limit is not None and limit <= 0:
            return []
        trigger = self.ready(now)
        if trigger is None:
            if not (force and self._pending):
                return []
            trigger = "flush"
        self._clock = max(self._clock, now)
        n = len(self._pending) if limit is None else min(limit, len(self._pending))
        n = min(n, self.max_batch)
        taken, self._pending = self._pending[:n], self._pending[n:]
        self._record(trigger, [tick for tick, _ in taken], statuses=[])
        return [request for _, request in taken]

    def flush(self) -> list[ServeResponse]:
        """Drain whatever is queued (end of stream, or idle tail)."""
        if self._handler is None:
            raise RuntimeError(
                "flush() needs a handler; continuous-mode batchers are "
                "drained with take(now, force=True)"
            )
        if not self._pending:
            return []
        return self._drain("flush")

    def run_arrivals(
        self, arrivals: Iterable[tuple[int, ServeRequest]]
    ) -> list[ServeResponse]:
        """Submit a timed ``(tick, request)`` stream and flush the tail.

        Responses come back in arrival order.  Handler mode only — the
        synchronous counterpart of feeding the same trace to the serving
        engine at ``max_inflight=1``.
        """
        responses: list[ServeResponse] = []
        for tick, request in arrivals:
            responses.extend(self.submit_at(tick, request))
        responses.extend(self.flush())
        return responses

    def _record(
        self, trigger: str, arrival_ticks: list[int], statuses: list[str]
    ) -> BatchRecord:
        """Append and observe one drained batch's accounting."""
        waits = [self._clock - tick for tick in arrival_ticks]
        record = BatchRecord(
            tick=self._clock,
            size=len(arrival_ticks),
            trigger=trigger,
            occupancy=len(arrival_ticks) / self.max_batch,
            mean_wait_ticks=sum(waits) / len(waits),
            max_wait_ticks=max(waits),
            n_ok=statuses.count("ok"),
            n_degraded=statuses.count("degraded"),
            n_failed=statuses.count("failed"),
        )
        self.records.append(record)
        self._m_drained.inc(record.size)
        self._m_batches.inc(trigger=trigger)
        self._m_size.observe(record.size)
        self._m_occupancy.observe(record.occupancy)
        self._m_sched_occupancy.observe(record.occupancy)
        for wait in waits:
            self._m_wait.observe(wait)
        self.obs.events.emit(
            "batch.drain",
            tick=record.tick,
            trigger=trigger,
            size=record.size,
            occupancy=record.occupancy,
            mean_wait_ticks=record.mean_wait_ticks,
            max_wait_ticks=record.max_wait_ticks,
            n_ok=record.n_ok,
            n_degraded=record.n_degraded,
            n_failed=record.n_failed,
        )
        return record

    def _drain(self, trigger: str) -> list[ServeResponse]:
        arrivals = [tick for tick, _ in self._pending]
        batch = [request for _, request in self._pending]
        self._pending = []
        responses = self._handler(batch)
        statuses = [getattr(response, "status", "ok") for response in responses]
        self._record(trigger, arrivals, statuses)
        return responses
