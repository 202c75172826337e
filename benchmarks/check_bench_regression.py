"""Fail CI when a freshly measured benchmark speedup drops below 1.0.

Walks a bench JSON (``BENCH_serving.json``) recursively and collects every
key whose name is ``speedup`` or ends in ``_speedup``; any such value
below the threshold is a regression — a batched/parallel path that is now
slower than the scalar baseline it replaced.

Only robust wins may live under ``speedup``-named keys — the gate is a
contract on naming as much as on performance.  Since the scan/split-ef
rework of the sharded fan-out, ``sharded_index.search.speedup`` is such a
key: sharded search must beat the monolithic index even on one core, at
both the quick tier and the 100k tier.

Latency-percentile keys (``*_p50`` / ``*_p99``) are *trend* keys: the
gate prints them so CI logs carry a tail-latency trajectory PR over PR,
but never fails on them — a p99 is a property of the traffic shape and
the latency model, not a win/loss ratio, so thresholding it would turn
every traffic retune into a false regression.

This module also owns the bench writers' merge helper
(:func:`merge_write`): every bench module read-modify-writes the same
``BENCH_serving.json`` with a *deep* merge, so sibling modules — and
sibling tiers under the shared ``scale`` key — never clobber each other.

The gate also walks ``overhead``-named keys the other way: values like
``obs_off_overhead`` (per-item cost of an instrumented-but-disabled path
over its pre-instrumentation baseline) must stay **at or below** 1.05 —
observability left off must be within noise of free.

``cost_ratio``-named keys are gated the same way under a looser ceiling:
``obs.tracing_on_cost_ratio`` (per-request cost with a live tracer,
registry and event log over the same gateway with observability off)
must stay **at or below** 1.5.  A live tracer may cost something, but
not half again the request it traces.

``uplift``-named keys carry the adaptive-policy contract: the bandit's
judged win-rate minus static PAS's on its best workload family
(``policy.uplift``, written by ``test_bench_policy.py``) must stay **at
or above** 0.0 — learned strategy selection never loses to serving the
static complement blindly.

Usage::

    python benchmarks/check_bench_regression.py BENCH_serving.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

THRESHOLD = 1.0

#: Ratio ceiling for ``*_overhead`` keys (instrumented-off vs baseline).
OVERHEAD_THRESHOLD = 1.05

#: Ratio ceiling for ``*_cost_ratio`` keys (tracing on vs tracing off).
COST_RATIO_THRESHOLD = 1.5

#: Floor for ``uplift``-named keys (adaptive-minus-static win-rate gaps).
UPLIFT_THRESHOLD = 0.0

__all__ = [
    "collect_cost_ratios",
    "collect_overheads",
    "collect_speedups",
    "collect_trends",
    "collect_uplifts",
    "deep_merge",
    "main",
    "merge_write",
]


def deep_merge(base: dict, update: dict) -> dict:
    """Recursively merge ``update`` into ``base`` (in place, returned).

    Dict values merge key by key; everything else is last-writer-wins.
    This is what keeps e.g. ``scale.quick`` and ``scale.large`` alive when
    the two bench tiers run in either order.
    """
    for key, value in update.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            deep_merge(base[key], value)
        else:
            base[key] = value
    return base


def merge_write(path: Path, payload: dict) -> None:
    """Deep-merge ``payload`` into the JSON document at ``path``."""
    merged = json.loads(path.read_text()) if path.is_file() else {}
    deep_merge(merged, payload)
    path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")


def _collect(node: object, matches, prefix: str = "") -> list[tuple[str, float]]:
    """All ``(dotted.path, value)`` pairs for keys where ``matches(key)``."""
    found: list[tuple[str, float]] = []
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            if matches(str(key)) and isinstance(value, (int, float)):
                found.append((path, float(value)))
            else:
                found.extend(_collect(value, matches, path))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            found.extend(_collect(item, matches, f"{prefix}[{i}]"))
    return found


def collect_speedups(node: object, prefix: str = "") -> list[tuple[str, float]]:
    """All ``(dotted.path, value)`` pairs for speedup-named keys in ``node``."""
    return _collect(
        node, lambda key: key == "speedup" or key.endswith("_speedup"), prefix
    )


def collect_overheads(node: object, prefix: str = "") -> list[tuple[str, float]]:
    """All ``(dotted.path, value)`` pairs for overhead-named keys in ``node``."""
    return _collect(
        node, lambda key: key == "overhead" or key.endswith("_overhead"), prefix
    )


def collect_cost_ratios(node: object, prefix: str = "") -> list[tuple[str, float]]:
    """All ``(dotted.path, value)`` pairs for cost-ratio-named keys in ``node``."""
    return _collect(
        node, lambda key: key == "cost_ratio" or key.endswith("_cost_ratio"), prefix
    )


def collect_uplifts(node: object, prefix: str = "") -> list[tuple[str, float]]:
    """All ``(dotted.path, value)`` pairs for uplift-named keys in ``node``.

    ``uplift`` keys record adaptive-minus-static judged win-rate gaps
    (:mod:`repro.experiments.policy_ablation`); learning which strategy to
    serve must never lose to serving the static complement blindly, so
    these are gated **at or above** :data:`UPLIFT_THRESHOLD`.
    """
    return _collect(
        node, lambda key: key == "uplift" or key.endswith("_uplift"), prefix
    )


def collect_trends(node: object, prefix: str = "") -> list[tuple[str, float]]:
    """All latency-percentile keys — reported, never gated."""
    return _collect(
        node, lambda key: key.endswith("_p50") or key.endswith("_p99"), prefix
    )


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: check_bench_regression.py <bench.json>", file=sys.stderr)
        return 2
    path = Path(argv[0])
    if not path.is_file():
        print(f"bench file not found: {path}", file=sys.stderr)
        return 2
    payload = json.loads(path.read_text())
    speedups = collect_speedups(payload)
    if not speedups:
        print(f"no speedup keys found in {path}", file=sys.stderr)
        return 2
    overheads = collect_overheads(payload)
    offenders = [(key, value) for key, value in speedups if value < THRESHOLD]
    for key, value in sorted(speedups):
        marker = "FAIL" if value < THRESHOLD else "ok"
        print(f"  {marker:>4}  {key} = {value:.3f}")
    over_offenders = [
        (key, value) for key, value in overheads if value > OVERHEAD_THRESHOLD
    ]
    for key, value in sorted(overheads):
        marker = "FAIL" if value > OVERHEAD_THRESHOLD else "ok"
        print(f"  {marker:>4}  {key} = {value:.3f} (ceiling {OVERHEAD_THRESHOLD})")
    cost_ratios = collect_cost_ratios(payload)
    cost_offenders = [
        (key, value) for key, value in cost_ratios if value > COST_RATIO_THRESHOLD
    ]
    for key, value in sorted(cost_ratios):
        marker = "FAIL" if value > COST_RATIO_THRESHOLD else "ok"
        print(f"  {marker:>4}  {key} = {value:.3f} (ceiling {COST_RATIO_THRESHOLD})")
    uplifts = collect_uplifts(payload)
    uplift_offenders = [
        (key, value) for key, value in uplifts if value < UPLIFT_THRESHOLD
    ]
    for key, value in sorted(uplifts):
        marker = "FAIL" if value < UPLIFT_THRESHOLD else "ok"
        print(f"  {marker:>4}  {key} = {value:+.3f} (floor {UPLIFT_THRESHOLD})")
    failed = False
    if offenders:
        names = ", ".join(key for key, _ in offenders)
        print(
            f"{len(offenders)} speedup(s) below {THRESHOLD}: {names}",
            file=sys.stderr,
        )
        failed = True
    if over_offenders:
        names = ", ".join(key for key, _ in over_offenders)
        print(
            f"{len(over_offenders)} overhead(s) above {OVERHEAD_THRESHOLD}: {names}",
            file=sys.stderr,
        )
        failed = True
    if cost_offenders:
        names = ", ".join(key for key, _ in cost_offenders)
        print(
            f"{len(cost_offenders)} cost ratio(s) above {COST_RATIO_THRESHOLD}: {names}",
            file=sys.stderr,
        )
        failed = True
    if uplift_offenders:
        names = ", ".join(key for key, _ in uplift_offenders)
        print(
            f"{len(uplift_offenders)} uplift(s) below {UPLIFT_THRESHOLD}: {names}",
            file=sys.stderr,
        )
        failed = True
    trends = collect_trends(payload)
    if trends:
        print(f"  trend (not gated): {len(trends)} latency percentile(s)")
        for key, value in sorted(trends):
            print(f"  trnd  {key} = {value:.3f}")
    if failed:
        return 1
    summary = f"all {len(speedups)} speedups >= {THRESHOLD}"
    if overheads:
        summary += f"; all {len(overheads)} overheads <= {OVERHEAD_THRESHOLD}"
    if cost_ratios:
        summary += f"; all {len(cost_ratios)} cost ratios <= {COST_RATIO_THRESHOLD}"
    if uplifts:
        summary += f"; all {len(uplifts)} uplifts >= {UPLIFT_THRESHOLD}"
    print(summary)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
