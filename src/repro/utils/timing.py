"""Nested wall-clock sections for the tracer's wall mode.

:class:`StageTimer` is what ``Tracer(wall=True)`` records gateway stage
times with.  The bench harness that times whole callables (``time_call``,
``time_pair``, ``speedup``) lives with the benchmarks, in
``benchmarks/bench_timing.py``.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager

__all__ = ["StageTimer"]


class StageTimer:
    """Nested wall-clock sections with correct parent/child attribution.

    The old per-stage accounting (`_StageClock.lap` in the gateway) was
    flat: whatever elapsed since the previous lap was charged to one
    bucket, so a parent stage that wrapped a child stage either lost the
    child's time or double-counted it, depending on where the laps
    landed.  ``StageTimer`` keeps a stack of open sections instead and
    exposes **both** readings:

    * ``inclusive_s[name]`` — total time between a section's enter and
      exit, children included (what a caller of that stage experiences);
    * ``exclusive_s[name]`` — inclusive time minus the time spent in
      directly nested sections (what the stage itself cost).

    Sections may nest arbitrarily deep and re-enter the same name
    (recursion): exclusive time always sums to the outermost section's
    inclusive time, while a recursive name's *inclusive* total counts
    every entry and can exceed wall time — the standard profiler caveat.

    ``clock`` is injectable for deterministic tests; it must be a
    zero-argument callable returning seconds as a float.
    """

    __slots__ = ("_clock", "_stack", "inclusive_s", "exclusive_s", "calls")

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._stack: list[list] = []  # [name, start, child_seconds]
        self.inclusive_s: dict[str, float] = {}
        self.exclusive_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    @property
    def depth(self) -> int:
        """How many sections are currently open."""
        return len(self._stack)

    def push(self, name: str) -> None:
        """Open a section (prefer :meth:`section` unless driving manually)."""
        self._stack.append([name, self._clock(), 0.0])

    def pop(self) -> float:
        """Close the innermost section; returns its inclusive seconds."""
        if not self._stack:
            raise RuntimeError("StageTimer.pop() with no open section")
        name, start, child_s = self._stack.pop()
        elapsed = self._clock() - start
        self.inclusive_s[name] = self.inclusive_s.get(name, 0.0) + elapsed
        self.exclusive_s[name] = self.exclusive_s.get(name, 0.0) + elapsed - child_s
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][2] += elapsed
        return elapsed

    @contextmanager
    def section(self, name: str) -> Iterator["StageTimer"]:
        """Time a ``with`` block as one section; exceptions still record."""
        self.push(name)
        try:
            yield self
        finally:
            self.pop()

    def as_dict(self) -> dict[str, dict[str, float | int]]:
        """Per-section summary with a stable (sorted) key order."""
        return {
            name: {
                "calls": self.calls[name],
                "inclusive_s": self.inclusive_s[name],
                "exclusive_s": self.exclusive_s[name],
            }
            for name in sorted(self.inclusive_s)
        }
