"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python benchmarks/e2e/compare.py RUNS_A RUNS_B

``RUNS_A`` (the parent) and ``RUNS_B`` (the change) are directories
holding the per-workload records ``run.py`` writes (``<workload>.json``)
at any depth — one ``--out`` directory per run.  Runs are paired in path
order, so alternate the two sides when producing them.

For each workload and each end-to-end metric in ``BENCHMARK.json`` the
table shows both sides' median and quartiles and a verdict:

* ``better`` — the change wins at least nine tenths of at least ten
  pairs (ties count for neither) and the medians differ by more than the
  parent's interquartile range;
* ``worse`` — otherwise, the change's median is worse than the parent's
  by more than the metric's bound;
* ``unresolved`` — otherwise, either side's spread (interquartile range
  over median) is wider than the bound and not every change run reads
  better than every parent run;
* ``unchanged`` — otherwise.

Simulated metrics (labelled ``sim``) and output digests must be identical
between runs of one seed; any difference is reported.  The exit code is 1
when a verdict is ``worse`` or a simulated metric or digest differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_runs(directory: Path) -> dict[str, list[dict]]:
    """Untraced workload records under ``directory``, grouped by workload.

    Reads the per-workload files; ``results.json`` repeats their records.
    """
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.rglob("*.json")):
        if path.name == "results.json":
            continue
        record = json.loads(path.read_text())
        if isinstance(record, dict) and "workload" in record and not record.get("trace"):
            runs.setdefault(record["workload"], []).append(record)
    return runs


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, int, int]:
    """The verdict for one metric on one workload, with pair wins/total."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    losses = sum(1 for a, b in pairs if sign * (b - a) < 0)
    p1, pm, p3 = _quartiles(parent)
    c1, cm, c3 = _quartiles(change)
    gain = (
        len(pairs) >= 10
        and wins >= 0.9 * len(pairs)
        and sign * (cm - pm) > p3 - p1
    )
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    every_better = all(sign * (b - a) > 0 for a in parent for b in change)
    if gain:
        result = "better"
    elif pm and sign * (cm - pm) / abs(pm) < -bound:
        result = "worse"
    elif spread > bound and not every_better:
        result = "unresolved"
    else:
        result = "unchanged"
    return result, wins, wins + losses


def compare(runs_a: dict, runs_b: dict, spec: dict) -> tuple[list[str], bool]:
    lines = []
    ok = True
    header = (
        f"{'workload':13s} {'metric':22s} {'A median [q1, q3]':>32s} "
        f"{'B median [q1, q3]':>32s} {'delta':>8s} {'wins':>6s}  verdict"
    )
    lines.append(header)
    for workload in sorted(set(runs_a) & set(runs_b)):
        a_runs, b_runs = runs_a[workload], runs_b[workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            result, wins, decided = verdict(a, b, metric["better"], metric["bound"])
            ok &= result != "worse"
            a1, am, a3 = _quartiles(a)
            b1, bm, b3 = _quartiles(b)
            delta = (bm - am) / am if am else 0.0
            lines.append(
                f"{workload:13s} {name:22s} {am:>12.5g} [{a1:.5g}, {a3:.5g}]".ljust(69)
                + f" {bm:>12.5g} [{b1:.5g}, {b3:.5g}]".ljust(33)
                + f" {delta:>+8.2%} {wins:>3d}/{decided:<3d} {result}"
            )
        sims = sorted(
            name for name, m in a_runs[0]["metrics"].items() if m.get("sim")
        )
        by_seed_a = {r["seed"]: r for r in a_runs}
        by_seed_b = {r["seed"]: r for r in b_runs}
        for seed in sorted(set(by_seed_a) & set(by_seed_b)):
            ra, rb = by_seed_a[seed], by_seed_b[seed]
            differ = [
                name
                for name in sims
                if ra["metrics"][name]["value"] != rb["metrics"].get(name, {}).get("value")
            ]
            if ra["digest"] != rb["digest"]:
                differ.append("digest")
            ok &= not differ
            state = "identical" if not differ else "DIFFER: " + ", ".join(differ)
            lines.append(f"{workload:13s} sim metrics + digest @ seed {seed}: {state}")
    return lines, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs_a", type=Path, help="parent runs")
    parser.add_argument("runs_b", type=Path, help="change runs")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, ok = compare(load_runs(args.runs_a), load_runs(args.runs_b), spec)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
