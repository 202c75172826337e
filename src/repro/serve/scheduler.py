"""Deterministic micro-batching in front of the gateway's batch path.

``PasGateway.plan_batch`` amortises augmentation across a batch, but live
traffic arrives one request at a time.  The :class:`MicroBatcher` bridges
the two: requests are queued with :meth:`~MicroBatcher.submit_at` at
their arrival tick, and a batch becomes *ready* when either

* the queue reaches ``max_batch`` requests (**size** trigger), or
* the oldest queued request has waited ``max_wait`` ticks (**wait**
  trigger).

Nothing drains by itself: the owner *pulls* ready batches with
:meth:`~MicroBatcher.take` — the event-loop
:class:`~repro.serve.engine.ServingEngine` does so as in-flight
completion slots free up, so a ready batch can leave in capacity-sized
slices — and ``take(now, force=True)`` drains the tail at the end of a
trace.  "Time" is the repo's logical clock: arrival ticks come from the
trace (a :class:`~repro.serve.traffic.TrafficGenerator`, say), so batch
formation is a pure function of the timed request sequence — no wall
clock, no races, fully replayable in tests.  Because the gateway serves
any partition of a request stream exactly as its ``ask`` loop does,
feeding the pulled batches to ``ask_batch`` gives the responses, gateway
stats, and cache state of the ``ask`` loop over the same sequence.

Each pull appends a :class:`BatchRecord`, which :class:`SchedulerStats`
reads back, feeds the same numbers into the bundle's metrics registry —
batch-size / occupancy / wait histograms and per-trigger counters — and
emits a ``batch.drain`` event when an :class:`~repro.obs.Observability`
bundle is attached.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.obs import NULL_OBS, Observability
from repro.serve.types import ServeRequest
from repro.utils.stats import nearest_rank

__all__ = ["BatchRecord", "MicroBatcher", "SchedulerStats"]

#: Fixed buckets for the scheduler's histograms (sizes, occupancy, waits).
_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
_OCCUPANCY_BUCKETS = (0.25, 0.5, 0.75, 1.0)
_WAIT_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0)


@dataclass(frozen=True)
class BatchRecord:
    """Accounting for one drained batch.

    Outcomes belong to whoever serves the batch, so the record holds only
    the batching numbers.  Every field is also observed into the bundle's
    metrics registry at drain time.
    """

    tick: int  #: logical time at which the batch drained
    size: int
    trigger: str  #: ``"size"``, ``"wait"``, or ``"flush"``
    occupancy: float  #: ``size / max_batch``
    mean_wait_ticks: float  #: mean submit-to-drain latency, in ticks
    max_wait_ticks: int


class SchedulerStats:
    """Cumulative scheduler accounting — a live view over this batcher's
    submission count and drain records.

    A live registry gets the same numbers (``pas_batch_submitted_total``,
    ``pas_batch_size``, ``pas_batches_total{trigger}``), but one shared by
    several batchers holds their sums.  ``==`` compares the numbers.
    """

    __slots__ = ("_batcher",)

    def __init__(self, batcher: "MicroBatcher"):
        self._batcher = batcher

    @property
    def submitted(self) -> int:
        return self._batcher._submitted

    @property
    def drained(self) -> int:
        return sum(record.size for record in self._batcher.records)

    @property
    def batches(self) -> int:
        return len(self._batcher.records)

    @property
    def triggers(self) -> dict[str, int]:
        """Drained batches per trigger, in first-seen order."""
        return dict(Counter(record.trigger for record in self._batcher.records))

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
    """Queue timed requests; hand out ready batches on pull.

    Parameters
    ----------
    max_batch:
        Size trigger: a batch is ready as soon as this many requests are
        queued, and no pull takes more.
    max_wait:
        Wait trigger: a batch is ready when the oldest queued request is
        this many ticks old at the pull's ``now``.
    obs:
        Optional :class:`~repro.obs.Observability` bundle.  Live metrics
        land batch size / occupancy / wait histograms there and every
        drain emits a ``batch.drain`` event (stamped with the drain tick
        in its attributes — the batcher never rebinds the event log's
        clock, so a bundle shared with a gateway keeps the gateway's).
        Stats count this batcher alone, registry or not.
    """

    def __init__(self, max_batch: int = 8, max_wait: int = 4, obs: Observability = NULL_OBS):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait < 1:
            raise ValueError(f"max_wait must be >= 1, got {max_wait}")
        self.max_batch = max_batch
        self.max_wait = max_wait
        self.obs = obs
        self._clock = 0
        self._pending: list[tuple[int, ServeRequest]] = []
        # Stats read these two alone; the bundle's registry, which other
        # components may share, gets the same numbers.
        self._submitted = 0
        self.records: list[BatchRecord] = []
        metrics = obs.metrics
        self._m_submitted = metrics.counter(
            "pas_batch_submitted_total", help="Requests submitted to the batcher."
        )
        self._m_batches = metrics.counter(
            "pas_batches_total", help="Drained batches by trigger."
        )
        self._m_size = metrics.histogram(
            "pas_batch_size", buckets=_SIZE_BUCKETS, help="Drained batch sizes."
        )
        self._m_occupancy = metrics.histogram(
            "pas_batch_occupancy",
            buckets=_OCCUPANCY_BUCKETS,
            help="Batch size over max_batch at drain.",
        )
        self._m_wait = metrics.histogram(
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
    def pending(self) -> int:
        return len(self._pending)

    @property
    def oldest_tick(self) -> int | None:
        """Arrival tick of the oldest queued request (None when empty)."""
        return self._pending[0][0] if self._pending else None

    def submit_at(self, tick: int, request: ServeRequest) -> None:
        """Enqueue one request arriving at logical tick ``tick``.

        Ticks must be non-decreasing (simultaneous arrivals may share
        one).  Arrival times come from the trace instead of being
        invented one per call, so wait triggers reflect the workload's
        real gaps.  Submitting only queues; :meth:`take` drains.
        """
        if tick < self._clock:
            raise ValueError(
                f"submission ticks must be non-decreasing: got {tick} after {self._clock}"
            )
        self._clock = tick
        self._pending.append((tick, request))
        self._submitted += 1
        self._m_submitted.inc()

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

        The serving engine calls this whenever in-flight slots free up,
        so a ready batch can leave in capacity-sized slices rather than
        all at once.  Returns ``[]`` when nothing is ready (or ``limit``
        is 0).  ``force=True`` drains regardless of triggers (end of
        trace), recorded as a ``"flush"`` batch.  Each non-empty pull
        appends a :class:`BatchRecord`.
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
        self._record(trigger, [tick for tick, _ in taken])
        return [request for _, request in taken]

    def _record(self, trigger: str, arrival_ticks: list[int]) -> None:
        """Append and observe one drained batch's accounting."""
        waits = [self._clock - tick for tick in arrival_ticks]
        record = BatchRecord(
            tick=self._clock,
            size=len(arrival_ticks),
            trigger=trigger,
            occupancy=len(arrival_ticks) / self.max_batch,
            mean_wait_ticks=sum(waits) / len(waits),
            max_wait_ticks=max(waits),
        )
        self.records.append(record)
        self._m_batches.inc(trigger=trigger)
        self._m_size.observe(record.size)
        self._m_occupancy.observe(record.occupancy)
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
        )
