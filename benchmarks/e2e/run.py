"""End-to-end benchmark for PAS: four workloads, wall and simulated metrics.

Run every workload, each in its own fresh process::

    python benchmarks/e2e/run.py [--seed N] [--seconds S] [--trace] [--out DIR]

or one workload in this process (the form ``BENCHMARK.json`` names)::

    python benchmarks/e2e/run.py --workload serve_zipf --seed 0 --seconds 20 --trace 0

A workload process sets up once, then measures repeats on freshly built
components until the repeats have used ``--seconds`` (at least three),
setting up again after each repeat until it has five set-up times
(``setup_s`` is their median).  Throughput comes from the median repeat,
both in reference-host seconds (see ``HostSpeed``); simulated metrics run
on the logical clock, are identical in every repeat, and are labelled
``sim``.  With ``--trace 1`` the process instead alternates
untraced and traced repeats and reports per-layer metrics from
bench-side span wrappers (see ``tracing.py``).

Every repeat's outputs are checked: accounting invariants, one sha256
digest of the response or dataset export that must match across repeats
(and traced vs untraced), and at the default seed the digest pinned in
``digests.json``.  A failed check prints which workload and why, and the
exit code is non-zero.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``, carrying the
metrics named in ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
DIGESTS = HERE / "digests.json"

WORKLOAD_NAMES = ("serve_zipf", "serve_unique", "fleet_policy", "curate")
DEFAULT_SEED = 0
DEFAULT_SECONDS = 20
SETUPS = 5
MIN_REPEATS = 3
MAX_UNATTRIBUTED_SHARE = 0.05
#: The host-speed probe's duration on the reference host (the 2-vCPU Intel
#: Xeon VM at 2.1 GHz the README baseline comes from) with nothing else
#: competing for it.  Gated wall metrics are in reference-host seconds:
#: each measured interval times the host speed during it (see ``HostSpeed``).
PROBE_REF_S = 0.0017
#: Seconds between host-speed samples during a measured call.
PROBE_PERIOD_S = 0.1
#: Samples taken just before and just after a measured call.
PROBE_BRACKET = 3
_PROBE_KEYS = [f"{i * 7919 % 20_000}k" for i in range(20_000)]
#: One BLAS thread: the benchmark is single-process, single-thread load.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Per-layer counters (trace runs): name -> unit.  Workloads that never
#: touch a counter's layer report 0.
COUNTERS = {
    "serve.cache.complement_hit_rate": "fraction",
    "serve.cache.embed_hit_rate": "fraction",
    "serve.gateway.requests_per_plan": "req/plan",
    "serve.gateway.fresh_augment_fraction": "fraction",
    "serve.engine.batches": "count",
    "serve.engine.peak_inflight": "count",
    "serve.engine.occupancy_mean": "fraction",
    "serve.router.hedges_launched": "count",
    "serve.router.hedge_win_rate": "fraction",
    "llm.api.retries": "count",
    "policy.pulls": "count",
    "workload.repeat_share": "fraction",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_share": "fraction",
}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _probe() -> float:
    """Seconds a fixed, stdlib-only loop takes right now.

    It shares no code with ``repro``, so it gauges only how fast the host
    is running this process at the moment.
    """
    start = time.perf_counter()
    table = dict.fromkeys(_PROBE_KEYS, 1)
    total = 0
    for key in _PROBE_KEYS[::2]:
        total += table[key]
    return time.perf_counter() - start


class HostSpeed:
    """Probe samples around, and with ``periodic`` during, a measured call.

    While periodic, an interval timer interrupts the call every
    ``PROBE_PERIOD_S`` to run one probe (about 2% of the time), so the
    samples follow slowdowns that come and go within the call.  The host
    speed is ``PROBE_REF_S`` over the mean sample: 1.0 on an idle
    reference host, 0.5 when the host runs this process at half speed.
    """

    def __init__(self, periodic: bool) -> None:
        self.periodic = periodic
        #: (perf_counter() at the start of the probe, its duration)
        self.samples: list[tuple[float, float]] = []

    def _sample(self, *_signal) -> None:
        self.samples.append((time.perf_counter(), _probe()))

    def __enter__(self) -> "HostSpeed":
        for _ in range(PROBE_BRACKET):
            self._sample()
        if self.periodic:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        for _ in range(PROBE_BRACKET):
            self._sample()

    @property
    def speed(self) -> float:
        return PROBE_REF_S / statistics.fmean(took for _, took in self.samples)

    def net(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` less the probes run in between."""
        return end - start - sum(took for at, took in self.samples if start <= at < end)


def _timed(fn, *args, periodic: bool = True) -> tuple[object, float, float]:
    """Call ``fn`` while sampling the host speed.

    Returns its value, the seconds measured less the probes run meanwhile,
    and the host speed over the call.  What is measured is the repeat's own
    timed call when ``fn`` returns a ``Repeat``, the whole call otherwise.
    """
    from workloads import Repeat

    gc.collect()
    with HostSpeed(periodic) as host:
        start = time.perf_counter()
        value = fn(*args)
        end = time.perf_counter()
    if isinstance(value, Repeat):
        start, end = value.start, value.end
    return value, host.net(start, end), host.speed


def _measure(repeat, inputs, seconds: float, between=lambda: None) -> list:
    """``(repeat, seconds, host speed)`` rows until the next repeat would
    take them past ``seconds`` (at least three), calling ``between`` after
    each; its time is not counted."""
    results = []
    spent = 0.0
    while True:
        row = _timed(repeat, inputs)
        results.append(row)
        spent += row[0].wall_s
        between()
        if len(results) >= MIN_REPEATS and spent * (1 + 1 / len(results)) > seconds:
            return results


def _reference_wall(measured) -> float:
    """Median repeat time in reference-host seconds."""
    return statistics.median(took * speed for _, took, speed in measured)


def _consistency_errors(results, reference=None) -> list[str]:
    """Every repeat must export the same bytes and the same sim metrics."""
    first = reference or results[0]
    errors = [error for r in results for error in r.errors]
    if any(r.digest != first.digest for r in results):
        errors.append("output digest differs between repeats")
    if any(r.sim != first.sim for r in results):
        errors.append("simulated metrics differ between repeats")
    return errors


def _pinned_errors(workload: str, seed: int, smoke: bool, digest: str) -> list[str]:
    if seed != DEFAULT_SEED or smoke:
        return []
    pinned = json.loads(DIGESTS.read_text()).get(workload)
    if pinned != digest:
        return [f"digest {digest} != pinned {pinned} at seed {DEFAULT_SEED}"]
    return []


def _write_trace(out: Path, workload: str, recorder, layers: dict, counters: dict) -> None:
    from tracing import LAYERS

    directory = out / workload
    directory.mkdir(parents=True, exist_ok=True)
    origin = recorder.spans[0][1] if recorder.spans else 0.0
    with gzip.open(directory / "spans.jsonl.gz", "wt", encoding="utf-8") as fh:
        for name, start, end, parent, request_id, thread in recorder.spans:
            fh.write(
                json.dumps(
                    {
                        "name": name,
                        "start": start - origin,
                        "end": end - origin,
                        "parent": parent,
                        "request_id": request_id,
                        "thread": thread,
                    }
                )
                + "\n"
            )
    targets = {
        layer: {"module": module, "class": cls, "functions": list(names)}
        for layer, module, cls, names in LAYERS
    }
    for layer, row in layers.items():
        row.update(targets[layer])
    (directory / "layers.json").write_text(
        json.dumps({"workload": workload, "layers": layers, "counters": counters}, indent=2)
    )


def _traced(repeat, inputs, seconds: float, out: Path, workload: str):
    """Alternate untraced and traced repeats; per-layer metrics come from
    the first traced repeat, the overhead ratio from all pairs.

    Host speed is sampled only around these repeats: a probe inside one
    would land in whatever span was open."""
    from tracing import LAYER_NAMES, SpanRecorder, Wrappers, layer_stats, root_time

    plain, traced = [], []  # (repeat, seconds, host speed)
    first_recorder = None
    spent = 0.0
    while True:
        plain.append(_timed(repeat, inputs, periodic=False))
        recorder = SpanRecorder()
        with Wrappers(recorder):
            traced.append(_timed(repeat, inputs, periodic=False))
        if first_recorder is None:
            first_recorder = recorder
        spent += plain[-1][0].wall_s + traced[-1][0].wall_s
        if spent * (1 + 1 / len(plain)) > seconds:
            break

    run = traced[0][0]
    stats = layer_stats(first_recorder.spans)
    layers = {}
    metrics = {}
    for layer in LAYER_NAMES:
        row = stats.get(layer, {"calls": 0, "self_s": 0.0})
        layers[layer] = {
            "calls": row["calls"],
            "self_s": row["self_s"],
            "self_share": row["self_s"] / run.wall_s,
        }
        metrics[f"{layer}.calls"] = _metric(row["calls"], "count")
        metrics[f"{layer}.self_s"] = _metric(row["self_s"], "s")
        metrics[f"{layer}.self_share"] = _metric(row["self_s"] / run.wall_s, "fraction")

    counts = first_recorder.counters
    plans = counts.get("gateway.plans", 0)
    planned = counts.get("gateway.planned_requests", 0)
    counters = dict(run.counters)
    counters["serve.gateway.requests_per_plan"] = planned / plans if plans else 0.0
    counters["serve.gateway.fresh_augment_fraction"] = (
        counts.get("gateway.fresh_augments", 0) / planned if planned else 0.0
    )
    counters["trace.overhead_ratio"] = _reference_wall(traced) / _reference_wall(plain)
    counters["trace.unattributed_share"] = max(
        0.0, 1.0 - root_time(first_recorder.spans) / run.wall_s
    )
    for name, unit in COUNTERS.items():
        metrics[name] = _metric(counters.get(name, 0.0), unit)

    plain = [r for r, _, _ in plain]
    traced = [r for r, _, _ in traced]
    errors = _consistency_errors(plain) + _consistency_errors(traced, reference=plain[0])
    if counters["trace.unattributed_share"] > MAX_UNATTRIBUTED_SHARE:
        errors.append(
            f"trace.unattributed_share {counters['trace.unattributed_share']:.3f} "
            f"> {MAX_UNATTRIBUTED_SHARE}"
        )
    _write_trace(out, workload, first_recorder, layers, counters)
    return plain + traced, metrics, errors


def run_workload(workload: str, seed: int, seconds: float, trace: bool, out: Path, smoke: bool) -> dict:
    """Set up and measure one workload in this process; returns the record
    ``results.json`` keeps for it."""
    from workloads import WORKLOADS

    setup, repeat, rate_name, rate_unit = WORKLOADS[workload]
    inputs, took, speed = _timed(setup, seed, smoke)
    setups = [(took, speed)]

    def another_setup() -> None:
        # Set-ups spread between the repeats sample the host's slow and
        # fast phases alike; back to back they would share one phase.
        if len(setups) < SETUPS:
            setups.append(_timed(setup, seed, smoke)[1:])

    speeds = []
    if trace:
        results, metrics, errors = _traced(repeat, inputs, seconds, out, workload)
        walls = [r.wall_s for r in results]
    else:
        measured = _measure(repeat, inputs, seconds, another_setup)
        while len(setups) < SETUPS:
            another_setup()
        results = [r for r, _, _ in measured]
        walls = [took for _, took, _ in measured]
        speeds = [speed for _, _, speed in measured]
        errors = _consistency_errors(results)
        items = results[0].items
        metrics = {
            "items_per_s": _metric(items / _reference_wall(measured), "items/s"),
            "setup_s": _metric(statistics.median(t * s for t, s in setups), "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
            rate_name: _metric(items / statistics.median(walls), rate_unit),
            "host_speed": _metric(statistics.median(speeds), "ratio"),
        }
        for name, (value, unit) in results[0].sim.items():
            metrics[name] = {"value": value, "unit": unit, "sim": True}
    errors += _pinned_errors(workload, seed, smoke, results[0].digest)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": not errors,
        "errors": errors,
        "digest": results[0].digest,
        "repeats": len(results),
        "repeat_wall_s": walls,
        "repeat_host_speed": speeds,
        "setup_s": [took for took, _ in setups],
        "setup_host_speed": [speed for _, speed in setups],
        "attempted": sum(r.items for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": metrics,
    }


def _declared_metrics(trace: bool) -> list[str]:
    spec = json.loads(BENCHMARK_JSON.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def _print_record(record: dict) -> None:
    for name, metric in record["metrics"].items():
        label = " (sim)" if metric.get("sim") else ""
        print(f"{record['workload']:13s} {name:40s} {metric['value']:>14.6g} {metric['unit']}{label}")
    for error in record["errors"]:
        print(f"CHECK FAILED [{record['workload']}]: {error}")


def _worker(args) -> int:
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.out, args.smoke)
    args.out.mkdir(parents=True, exist_ok=True)
    suffix = ".trace" if args.trace else ""
    (args.out / f"{args.workload}{suffix}.json").write_text(json.dumps(record, indent=2))
    _print_record(record)
    declared = _declared_metrics(bool(args.trace))
    missing = [name for name in declared if name not in record["metrics"]]
    if missing:
        print(f"CHECK FAILED [{args.workload}]: metrics not produced: {missing}")
    summary = {
        "correct": record["correct"] and not missing,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {k: record["metrics"][name][k] for k in ("value", "unit")}
            for name in declared
            if name in record["metrics"]
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def _all(args) -> int:
    """Every workload in its own fresh process; writes ``results.json``."""
    results = {}
    failed = []
    modes = (0, 1) if args.trace else (0,)
    for workload in WORKLOAD_NAMES:
        for trace in modes:
            command = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(trace),
                "--out", str(args.out),
            ] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(command, capture_output=True, text=True, timeout=1800)
            sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
            sys.stderr.write(proc.stderr)
            suffix = ".trace" if trace else ""
            detail = args.out / f"{workload}{suffix}.json"
            if proc.returncode != 0 or not detail.exists():
                failed.append(workload)
            if detail.exists():
                results[workload + suffix] = json.loads(detail.read_text())
    (args.out / "results.json").write_text(json.dumps(results, indent=2))
    print(f"wrote {args.out / 'results.json'}")
    if failed:
        print(f"FAILED: {', '.join(dict.fromkeys(failed))}")
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path, default=HERE / "out")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no PAS sources under {SRC}", file=sys.stderr)
        return 2
    # The thread caps must be in place before numpy is first imported.
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    args.out = args.out.resolve()
    if args.workload is None:
        return _all(args)
    return _worker(args)


if __name__ == "__main__":
    sys.exit(main())
