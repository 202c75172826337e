"""A small wall-clock timing harness for the throughput benchmarks.

The experiment layer reproduces paper *shapes*; this module measures raw
speed — items/sec for the batched hot paths versus their scalar loops —
so ``test_bench_throughput.py`` and its siblings can write a perf
trajectory (``BENCH_serving.json``) that later changes regress against.

Best-of-N wall time is reported alongside the mean: the minimum is the
standard low-noise estimator for CPU-bound microbenchmarks (everything
above it is scheduler jitter), while the mean shows how noisy the run was.
Every measured round's time is kept too, so :func:`median_speedup` can
read a ratio round by round.
"""

from __future__ import annotations

import statistics
import time
from collections.abc import Callable
from dataclasses import dataclass

__all__ = ["TimingResult", "time_call", "time_pair", "speedup", "median_speedup"]


@dataclass(frozen=True)
class TimingResult:
    """Wall-clock measurements of one benchmarked callable."""

    label: str
    n_items: int
    repeats: int
    best_s: float
    mean_s: float
    times_s: tuple[float, ...] = ()

    @property
    def items_per_s(self) -> float:
        """Throughput at the best observed wall time."""
        if self.best_s <= 0.0:
            return float("inf")
        return self.n_items / self.best_s

    @property
    def s_per_item(self) -> float:
        return self.best_s / self.n_items if self.n_items else 0.0

    def to_dict(self) -> dict[str, float | int | str]:
        """JSON-ready summary (used by BENCH_serving.json)."""
        return {
            "label": self.label,
            "n_items": self.n_items,
            "repeats": self.repeats,
            "best_s": self.best_s,
            "mean_s": self.mean_s,
            "items_per_s": self.items_per_s,
        }


def time_call(
    fn: Callable[[], object],
    *,
    label: str = "",
    n_items: int = 1,
    repeats: int = 3,
    warmup: int = 1,
) -> TimingResult:
    """Time ``fn()`` over ``repeats`` runs after ``warmup`` discarded runs.

    Parameters
    ----------
    fn:
        Zero-argument callable; its return value is discarded.
    label:
        Name recorded in the result (shows up in the bench JSON).
    n_items:
        How many logical items one call processes; sets ``items_per_s``.
    repeats / warmup:
        Measured runs and discarded cache-warming runs.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    for _ in range(warmup):
        fn()
    times: list[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return TimingResult(
        label=label,
        n_items=n_items,
        repeats=repeats,
        best_s=min(times),
        mean_s=sum(times) / len(times),
        times_s=tuple(times),
    )


def time_pair(
    baseline: Callable[[], object],
    contender: Callable[[], object],
    *,
    labels: tuple[str, str] = ("baseline", "contender"),
    n_items: int = 1,
    repeats: int = 3,
    warmup: int = 1,
) -> tuple[TimingResult, TimingResult]:
    """Time two callables in interleaved rounds: baseline, contender, repeat.

    :func:`time_call` measures each side in one contiguous block, so any
    systematic drift between the blocks — CPU frequency scaling, another
    process waking up, allocator state left by an earlier benchmark —
    lands entirely on one side and biases the ratio.  That bias is
    invisible for 3x speedups but decides the sign of a 1.1x one.
    Alternating the two callables every round spreads drift evenly across
    both sides; best-of-``repeats`` then discards the jittery rounds.

    Returns ``(baseline_result, contender_result)``; feed them to
    :func:`speedup` in the same order.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    for _ in range(warmup):
        baseline()
        contender()
    base_times: list[float] = []
    cont_times: list[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        baseline()
        base_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        contender()
        cont_times.append(time.perf_counter() - start)
    return (
        TimingResult(
            label=labels[0],
            n_items=n_items,
            repeats=repeats,
            best_s=min(base_times),
            mean_s=sum(base_times) / len(base_times),
            times_s=tuple(base_times),
        ),
        TimingResult(
            label=labels[1],
            n_items=n_items,
            repeats=repeats,
            best_s=min(cont_times),
            mean_s=sum(cont_times) / len(cont_times),
            times_s=tuple(cont_times),
        ),
    )


def speedup(scalar: TimingResult, batched: TimingResult) -> float:
    """How many times faster the batched run is (per item, best times)."""
    if batched.best_s <= 0.0:
        return float("inf")
    scalar_per_item = scalar.best_s / scalar.n_items if scalar.n_items else scalar.best_s
    batched_per_item = batched.best_s / batched.n_items if batched.n_items else batched.best_s
    return scalar_per_item / batched_per_item


def median_speedup(baseline: TimingResult, contender: TimingResult) -> float:
    """Median over rounds of the per-item time ratio, baseline over contender.

    For a :func:`time_pair` result: its round ``i`` ran the two callables
    back to back, so each round's ratio compares the sides under one host
    state, and the median ignores the rounds that a burst of noise hit on
    one side only.  A best-of-N ratio instead divides two minima that can
    come from different rounds, so one lucky round decides it.
    """
    if not baseline.times_s or len(baseline.times_s) != len(contender.times_s):
        raise ValueError("median_speedup needs two time_pair results")
    base_n = baseline.n_items or 1
    cont_n = contender.n_items or 1
    return statistics.median(
        (base / base_n) / (cont / cont_n)
        for base, cont in zip(baseline.times_s, contender.times_s)
    )
