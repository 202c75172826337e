"""Failure modelling and containment primitives for the serving stack.

The paper sells PAS as *plug-and-play* (§3.4, Figure 1a): the system sits
in front of a target LLM and must never cost the user their answer — the
raw prompt is always a valid fallback.  Exercising that promise requires
failures to exist, so this module provides three deterministic pieces:

* :class:`FaultPlan` — a seedable description of what goes wrong and when:
  per-stage failure rates (completion attempts, augmentation), latency
  spikes measured in logical ticks, and per-model outage windows on the
  logical clock.  Every decision is a pure function of ``(seed, stage,
  key, attempt)`` via :func:`~repro.utils.rng.stable_hash`, so chaos runs
  are bit-reproducible and independent of call order.
* :class:`RetryPolicy` — capped exponential backoff with deterministic
  jitter and an optional per-request deadline budget (in logical ticks)
  that attempts *and* backoff pauses must fit inside.
* :class:`CircuitBreaker` — the classic closed → open → half-open state
  machine on the logical clock, used per target model by the gateway to
  fail fast while a backend is misbehaving.

Nothing here sleeps or reads a wall clock: "time" is the repo's logical
clock (the gateway's advances one tick per request), so every transition
is replayable in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import AugmentationError, ConfigError
from repro.utils.rng import stable_hash
from repro.utils.serialize import Record

__all__ = [
    "OutageWindow",
    "FaultPlan",
    "NO_FAULTS",
    "RetryPolicy",
    "CircuitBreaker",
    "augment_fault",
    "require_finite",
]


def require_finite(config: object, *names: str) -> None:
    """Raise :class:`~repro.errors.ConfigError` naming the first field of
    ``config`` among ``names`` that holds NaN or an infinity.

    Range checks alone let NaN through (every comparison with it is
    false), and JSON configs can carry ``NaN`` and ``Infinity``.  ``None``
    is skipped: it means "unset" for the optional fields.
    """
    for name in names:
        value = getattr(config, name)
        if value is not None and not math.isfinite(value):
            raise ConfigError(
                f"{type(config).__name__}.{name} must be finite, got {value}"
            )


def _uniform(*material: str) -> float:
    """One deterministic U[0, 1) draw keyed by ``material``."""
    rng = np.random.default_rng(stable_hash("␞".join(material)))
    return float(rng.random())


def augment_fault(prompt_text: str) -> AugmentationError:
    """The canonical injected-augmentation-failure error for one prompt.

    :meth:`FaultPlan.augment_fault` returns exactly this error, and the
    gateway raises it when it serves a prompt its planner found faulty, so
    every serving path degrades with the same error string.
    """
    return AugmentationError(f"injected augmentation fault for prompt {prompt_text!r}")


@dataclass(frozen=True)
class OutageWindow(Record):
    """One model's hard outage over ``[start, end)`` on the logical clock."""

    model: str
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ConfigError(
                f"outage window must satisfy start < end, got [{self.start}, {self.end})"
            )

    def covers(self, model: str, tick: int) -> bool:
        return self.model == model and self.start <= tick < self.end


@dataclass(frozen=True)
class FaultPlan(Record):
    """A deterministic, seedable description of injected faults.

    Parameters
    ----------
    seed:
        Salt for every draw; two plans with equal rates but different
        seeds fail different (request, attempt) pairs.
    completion_failure_rate:
        Probability that one completion *attempt* fails transiently.
    augment_failure_rate:
        Probability that augmenting one prompt fails (per prompt, not per
        attempt — augmentation is a pure function of the prompt, so its
        injected failure is too).
    latency_spike_rate:
        Probability that one completion attempt costs an extra
        ``latency_spike_ticks`` of logical time (only observable through a
        :class:`RetryPolicy` deadline budget).
    latency_spike_ticks:
        Logical cost of one spike.
    outages:
        Hard per-model outage windows on the logical clock; every attempt
        against a model inside its window fails.
    """

    seed: int = 0
    completion_failure_rate: float = 0.0
    augment_failure_rate: float = 0.0
    latency_spike_rate: float = 0.0
    latency_spike_ticks: int = 4
    outages: tuple[OutageWindow, ...] = ()

    def __post_init__(self) -> None:
        require_finite(self, "latency_spike_ticks")
        for name in ("completion_failure_rate", "augment_failure_rate", "latency_spike_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {rate}")
        if self.latency_spike_ticks < 0:
            raise ConfigError(
                f"latency_spike_ticks must be >= 0, got {self.latency_spike_ticks}"
            )
        # Tolerate (and normalise) a list of windows.
        if not isinstance(self.outages, tuple):
            object.__setattr__(self, "outages", tuple(self.outages))

    def _draw(self, stage: str, *material: str) -> float:
        return _uniform("fault", str(self.seed), stage, *material)

    def attach_observer(self, observer) -> None:
        """Register ``observer(stage, key, detail)``, called once per fault
        this plan actually *injects* (never on clean draws).

        ``stage`` is ``"completion"`` / ``"augment"`` / ``"latency"`` /
        ``"outage"``; ``key`` identifies the victim (request key, prompt
        text, or model name); ``detail`` is the attempt index for per-attempt
        stages, the spike ticks for latency, and the tick for outages.  The
        gateway wires this to its event log.  Stored outside the dataclass
        fields (the plan stays frozen, equal, and hashable); one observer
        per plan — attaching again replaces it, ``None`` detaches.
        """
        object.__setattr__(self, "_observer", observer)

    def _notify(self, stage: str, key: str, detail: int | None) -> None:
        observer = getattr(self, "_observer", None)
        if observer is not None:
            observer(stage, key, detail)

    @property
    def is_noop(self) -> bool:
        """True when this plan can never inject anything."""
        return (
            self.completion_failure_rate == 0.0
            and self.augment_failure_rate == 0.0
            and self.latency_spike_rate == 0.0
            and not self.outages
        )

    def completion_fails(self, key: str, attempt: int) -> bool:
        """Does completion attempt ``attempt`` for ``key`` fail transiently?"""
        if self.completion_failure_rate <= 0.0:
            return False
        if self._draw("completion", key, str(attempt)) < self.completion_failure_rate:
            self._notify("completion", key, attempt)
            return True
        return False

    def augment_fails(self, prompt_text: str) -> bool:
        """Does augmenting this prompt fail?  (Per prompt, attempt-free.)

        A pure predicate: planners may ask it any number of times, so it
        never notifies.  The fault is recorded by :meth:`augment_fault`
        when a serve actually raises it.
        """
        if self.augment_failure_rate <= 0.0:
            return False
        return self._draw("augment", prompt_text) < self.augment_failure_rate

    def augment_fault(self, prompt_text: str) -> AugmentationError:
        """Record one injected augmentation fault and return its error.

        Called once per serve that raises the fault, so the observer sees
        one ``augment`` fault per degraded (or strictly failed) request,
        at that request's tick.
        """
        self._notify("augment", prompt_text, None)
        return augment_fault(prompt_text)

    def latency_ticks(self, key: str, attempt: int) -> int:
        """Extra logical ticks this completion attempt costs (0 or a spike)."""
        if self.latency_spike_rate <= 0.0 or self.latency_spike_ticks == 0:
            return 0
        if self._draw("latency", key, str(attempt)) < self.latency_spike_rate:
            self._notify("latency", key, self.latency_spike_ticks)
            return self.latency_spike_ticks
        return 0

    def in_outage(self, model: str, tick: int) -> bool:
        """Is ``model`` hard-down at logical time ``tick``?"""
        if any(window.covers(model, tick) for window in self.outages):
            self._notify("outage", model, tick)
            return True
        return False


#: The no-op plan: injecting it anywhere changes nothing.
NO_FAULTS = FaultPlan()


@dataclass(frozen=True)
class RetryPolicy(Record):
    """Capped exponential backoff with deterministic jitter and a deadline.

    ``backoff_ticks(key, attempt)`` grows as ``base_backoff * 2**attempt``
    capped at ``max_backoff``, stretched by a deterministic jitter factor
    in ``[1, 1 + jitter]`` drawn from ``(seed, key, attempt)`` — no shared
    RNG state, so concurrent requests can't perturb each other's pauses.

    ``deadline_ticks`` is a per-request budget of logical time: every
    attempt costs one tick (plus any injected latency spike) and every
    backoff pause costs its ticks; an attempt that no longer fits raises
    :class:`~repro.errors.DeadlineExceededError` instead of running.
    """

    max_retries: int = 3
    base_backoff: float = 1.0
    max_backoff: float = 8.0
    jitter: float = 0.25
    deadline_ticks: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        require_finite(self, "base_backoff", "max_backoff", "jitter", "deadline_ticks")
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_backoff < 0 or self.max_backoff < self.base_backoff:
            raise ConfigError(
                "backoff bounds must satisfy 0 <= base_backoff <= max_backoff, "
                f"got base={self.base_backoff}, max={self.max_backoff}"
            )
        if self.jitter < 0:
            raise ConfigError(f"jitter must be >= 0, got {self.jitter}")
        if self.deadline_ticks is not None and self.deadline_ticks <= 0:
            raise ConfigError(
                f"deadline_ticks must be positive when set, got {self.deadline_ticks}"
            )

    def backoff_ticks(self, key: str, attempt: int) -> float:
        """Pause (in logical ticks) after failed attempt ``attempt``."""
        base = min(self.base_backoff * (2.0 ** attempt), self.max_backoff)
        if base == 0.0 or self.jitter == 0.0:
            return base
        stretch = 1.0 + self.jitter * _uniform("backoff", str(self.seed), key, str(attempt))
        return base * stretch


class CircuitBreaker:
    """Per-model circuit breaker on the logical clock.

    Closed is the healthy state.  ``failure_threshold`` *consecutive*
    failures open the circuit: requests are rejected without touching the
    backend until ``recovery_ticks`` have elapsed, at which point the next
    request is admitted as a half-open probe.  A successful probe closes
    the circuit; a failed one re-opens it and restarts the recovery timer.

    Transitions are appended to :attr:`transitions` as ``(tick, state)``
    pairs — with a seeded :class:`FaultPlan` driving the failures, the
    whole list is bit-reproducible across runs.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, failure_threshold: int = 5, recovery_ticks: int = 16):
        if failure_threshold < 1:
            raise ConfigError(f"failure_threshold must be >= 1, got {failure_threshold}")
        if recovery_ticks < 1:
            raise ConfigError(f"recovery_ticks must be >= 1, got {recovery_ticks}")
        self.failure_threshold = failure_threshold
        self.recovery_ticks = recovery_ticks
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.opened_at: int | None = None
        self.trips = 0  #: number of closed/half-open -> open transitions
        self.transitions: list[tuple[int, str]] = []
        #: Optional ``observer(tick, state)`` called on every transition
        #: (the gateway wires this to its event log).
        self.observer = None

    def _transition(self, tick: int, state: str) -> None:
        self.state = state
        self.transitions.append((tick, state))
        if self.observer is not None:
            self.observer(tick, state)

    def allow(self, tick: int) -> bool:
        """May a request proceed at logical time ``tick``?

        While open, returns False until ``recovery_ticks`` have elapsed;
        the first call after that flips to half-open and admits the probe.
        """
        if self.state == self.OPEN:
            assert self.opened_at is not None
            if tick - self.opened_at >= self.recovery_ticks:
                self._transition(tick, self.HALF_OPEN)
                return True
            return False
        return True

    def would_allow(self, tick: int) -> bool:
        """:meth:`allow` without the half-open transition — a pure peek.

        Routing layers use this to drop hard-open models out of a pool
        draw without consuming the recovery probe: the breaker only
        transitions when the gateway's real :meth:`allow` runs.
        """
        if self.state == self.OPEN:
            assert self.opened_at is not None
            return tick - self.opened_at >= self.recovery_ticks
        return True

    def record_success(self, tick: int) -> None:
        self.consecutive_failures = 0
        if self.state != self.CLOSED:
            self._transition(tick, self.CLOSED)
            self.opened_at = None

    def record_failure(self, tick: int) -> None:
        self.consecutive_failures += 1
        if self.state == self.HALF_OPEN:
            self.trips += 1
            self.opened_at = tick
            self._transition(tick, self.OPEN)
        elif self.state == self.CLOSED and self.consecutive_failures >= self.failure_threshold:
            self.trips += 1
            self.opened_at = tick
            self._transition(tick, self.OPEN)
