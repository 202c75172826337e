"""A small, deterministic metrics registry for the serving path.

Three instrument kinds — counters, gauges, fixed-bucket histograms — all
label-aware, all living in one :class:`MetricsRegistry` that can export a
JSON-safe snapshot (:meth:`MetricsRegistry.as_dict`) or a Prometheus-style
text exposition (:meth:`MetricsRegistry.render_prometheus`).

Design constraints, in order:

1. **Determinism.** Exports iterate names and label sets in sorted order,
   so two registries fed the same sequence of updates render byte-identical
   text.  Nothing here reads a wall clock.
2. **JSON purity.** ``as_dict()`` emits only JSON-native types; histogram
   bucket bounds are finite floats (the implicit ``+Inf`` bucket appears
   only in the Prometheus rendering, where it is required).
3. **Cheap when off.** :class:`NullRegistry` hands out null instruments
   whose updates are single no-op calls, so instrumented code never
   branches on "is observability on".

The registry is *not* thread-safe by itself; the serving path funnels all
updates through the gateway's single-threaded request loop.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterable, Mapping
from functools import partial

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
]

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, str]) -> _LabelKey:
    """Canonical hashable form of a label set (sorted by label name).

    Label names are unique, so sorting the items never compares values;
    when every value already is a ``str`` the sorted items are the key.
    """
    if not labels:
        return ()
    items = sorted(labels.items())
    for name, value in items:
        if type(name) is not str or type(value) is not str:
            return tuple(sorted((str(k), str(v)) for k, v in items))
    return tuple(items)


def _render_labels(key: _LabelKey, extra: str = "") -> str:
    """Prometheus ``{a="x",b="y"}`` suffix; empty string for no labels."""
    parts = [f'{k}="{v}"' for k, v in key]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class Counter:
    """Monotonically increasing per-label-set totals."""

    kind = "counter"

    __slots__ = ("name", "help", "_series")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._series: dict[_LabelKey, float] = {}

    def inc(self, amount: float = 1, **labels: str) -> None:
        self._add(_label_key(labels), amount)

    def bind(self, **labels: str) -> Callable[..., None]:
        """:meth:`inc` for one fixed label set, canonicalised once.

        ``counter.bind(**labels)(amount)`` equals ``counter.inc(amount,
        **labels)``; like ``inc``, the handle creates its series on the
        first update, never before.
        """
        return partial(self._add, _label_key(labels))

    def _add(self, key: _LabelKey, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (amount={amount})")
        self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels: str) -> float:
        """Current total for one label set (0 if never incremented)."""
        return self._series.get(_label_key(labels), 0)

    def total(self) -> float:
        """Sum over every label set."""
        return sum(self._series.values())

    def series(self) -> dict[_LabelKey, float]:
        return dict(self._series)

    def as_dict(self) -> list[dict[str, object]]:
        return [
            {"labels": dict(key), "value": self._series[key]}
            for key in sorted(self._series)
        ]

    def render(self) -> list[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} counter")
        for key in sorted(self._series):
            lines.append(f"{self.name}{_render_labels(key)} {self._series[key]}")
        return lines


class Gauge:
    """Last-write-wins per-label-set values (can go up or down)."""

    kind = "gauge"

    __slots__ = ("name", "help", "_series")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._series: dict[_LabelKey, float] = {}

    def set(self, value: float, **labels: str) -> None:
        self._series[_label_key(labels)] = value

    def inc(self, amount: float = 1, **labels: str) -> None:
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0) + amount

    def dec(self, amount: float = 1, **labels: str) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> float:
        return self._series.get(_label_key(labels), 0)

    def series(self) -> dict[_LabelKey, float]:
        return dict(self._series)

    def as_dict(self) -> list[dict[str, object]]:
        return [
            {"labels": dict(key), "value": self._series[key]}
            for key in sorted(self._series)
        ]

    def render(self) -> list[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} gauge")
        for key in sorted(self._series):
            lines.append(f"{self.name}{_render_labels(key)} {self._series[key]}")
        return lines


class Histogram:
    """Fixed-bucket distribution per label set.

    ``buckets`` are finite upper bounds, strictly increasing.  Counts are
    stored *per bucket* (non-cumulative) plus an overflow slot; the
    Prometheus rendering converts to the cumulative-with-``+Inf`` form the
    format requires, while :meth:`as_dict` keeps the finite, JSON-safe view.
    """

    kind = "histogram"

    __slots__ = ("name", "help", "buckets", "_series")

    def __init__(self, name: str, buckets: Iterable[float], help: str = ""):
        bounds = [float(b) for b in buckets]
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        if any(b != b or b in (float("inf"), float("-inf")) for b in bounds):
            raise ValueError(f"histogram {name!r} buckets must be finite")
        if sorted(bounds) != bounds or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram {name!r} buckets must be strictly increasing")
        self.name = name
        self.help = help
        self.buckets: tuple[float, ...] = tuple(bounds)
        # label key -> [counts per bucket..., overflow_count, sum, count]
        self._series: dict[_LabelKey, list[float]] = {}

    def _slot(self, key: _LabelKey) -> list[float]:
        slot = self._series.get(key)
        if slot is None:
            slot = self._series[key] = [0] * (len(self.buckets) + 1) + [0, 0]
        return slot

    def observe(self, value: float, **labels: str) -> None:
        self._record(_label_key(labels), value)

    def bind(self, **labels: str) -> Callable[[float], None]:
        """:meth:`observe` for one fixed label set, canonicalised once.

        Like ``observe``, the handle creates its series on the first
        observation, never before.
        """
        return partial(self._record, _label_key(labels))

    def _record(self, key: _LabelKey, value: float) -> None:
        slot = self._slot(key)
        slot[bisect_left(self.buckets, value)] += 1
        slot[-2] += value
        slot[-1] += 1

    def count(self, **labels: str) -> float:
        slot = self._series.get(_label_key(labels))
        return slot[-1] if slot else 0

    def sum(self, **labels: str) -> float:
        slot = self._series.get(_label_key(labels))
        return slot[-2] if slot else 0

    def as_dict(self) -> dict[str, object]:
        return {
            "buckets": list(self.buckets),
            "series": [
                {
                    "labels": dict(key),
                    "counts": list(slot[: len(self.buckets)]),
                    "overflow": slot[len(self.buckets)],
                    "sum": slot[-2],
                    "count": slot[-1],
                }
                for key, slot in sorted(self._series.items())
            ],
        }

    def render(self) -> list[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} histogram")
        for key in sorted(self._series):
            slot = self._series[key]
            running = 0
            for bound, n in zip(self.buckets, slot):
                running += n
                labels = _render_labels(key, f'le="{bound}"')
                lines.append(f"{self.name}_bucket{labels} {running}")
            running += slot[len(self.buckets)]
            labels = _render_labels(key, 'le="+Inf"')
            lines.append(f"{self.name}_bucket{labels} {running}")
            lines.append(f"{self.name}_sum{_render_labels(key)} {slot[-2]}")
            lines.append(f"{self.name}_count{_render_labels(key)} {slot[-1]}")
        return lines


class MetricsRegistry:
    """Named instruments, get-or-create, one source of truth.

    >>> reg = MetricsRegistry()
    >>> reg.counter("requests_total").inc(model="gpt-4")
    >>> reg.counter("requests_total").value(model="gpt-4")
    1
    """

    enabled = True

    __slots__ = ("_instruments",)

    def __init__(self):
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind: str):
        inst = self._instruments.get(name)
        if inst is not None and inst.kind != kind:
            raise TypeError(
                f"metric {name!r} already registered as {inst.kind}, not {kind}"
            )
        return inst

    def counter(self, name: str, help: str = "") -> Counter:
        inst = self._get(name, "counter")
        if inst is None:
            inst = self._instruments[name] = Counter(name, help)
        return inst

    def gauge(self, name: str, help: str = "") -> Gauge:
        inst = self._get(name, "gauge")
        if inst is None:
            inst = self._instruments[name] = Gauge(name, help)
        return inst

    def histogram(
        self, name: str, buckets: Iterable[float] = (), help: str = ""
    ) -> Histogram:
        inst = self._get(name, "histogram")
        if inst is None:
            inst = self._instruments[name] = Histogram(name, buckets, help)
        return inst

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def as_dict(self) -> dict[str, object]:
        """JSON-safe snapshot: ``{kind: {name: series...}}``, sorted."""
        out: dict[str, dict[str, object]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            out[inst.kind + "s"][name] = inst.as_dict()
        return out

    def snapshot(self) -> dict[str, object]:
        """Alias for :meth:`as_dict` (a point-in-time copy, safe to keep)."""
        return self.as_dict()

    def render_prometheus(self) -> str:
        """Prometheus text exposition (families sorted by name)."""
        lines: list[str] = []
        for name in sorted(self._instruments):
            lines.extend(self._instruments[name].render())
        return "\n".join(lines) + ("\n" if lines else "")

    def clear(self) -> None:
        self._instruments.clear()


def _discard(value: float = 1) -> None:
    """The bound handle of a null instrument."""


class _NullInstrument:
    """Absorbs every instrument method as a no-op."""

    kind = "null"

    __slots__ = ()

    def inc(self, amount: float = 1, **labels: str) -> None:
        pass

    def dec(self, amount: float = 1, **labels: str) -> None:
        pass

    def set(self, value: float, **labels: str) -> None:
        pass

    def observe(self, value: float, **labels: str) -> None:
        pass

    def bind(self, **labels: str) -> Callable[..., None]:
        return _discard

    def value(self, **labels: str) -> float:
        return 0

    def total(self) -> float:
        return 0

    def count(self, **labels: str) -> float:
        return 0

    def sum(self, **labels: str) -> float:
        return 0


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """Same surface as :class:`MetricsRegistry`, all updates discarded."""

    enabled = False

    __slots__ = ()

    def counter(self, name: str, help: str = "") -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "") -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(
        self, name: str, buckets: Iterable[float] = (), help: str = ""
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def __contains__(self, name: str) -> bool:
        return False

    def __len__(self) -> int:
        return 0

    def names(self) -> list[str]:
        return []

    def as_dict(self) -> dict[str, object]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def snapshot(self) -> dict[str, object]:
        return self.as_dict()

    def render_prometheus(self) -> str:
        return ""

    def clear(self) -> None:
        pass


NULL_REGISTRY = NullRegistry()
