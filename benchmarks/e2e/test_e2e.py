"""Tests for the end-to-end benchmark itself (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q

Runs every workload at smoke size, untraced and traced, in subprocesses
(about a minute), and checks the tracing maths on synthetic spans.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from compare import verdict  # noqa: E402
from run import PROBE_BRACKET, HostSpeed  # noqa: E402
from tracing import LAYERS, SpanRecorder, Wrappers, layer_stats, root_time  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, out: Path, trace: int, seed: int = 0) -> tuple[dict, dict]:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
            "--trace", str(trace), "--out", str(out), "--smoke",
        ],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((out / f"{workload}{'.trace' if trace else ''}.json").read_text())
    return summary, detail


@pytest.fixture(scope="module")
def smoke_out(tmp_path_factory):
    return tmp_path_factory.mktemp("e2e")


@pytest.fixture(scope="module")
def smoke(smoke_out):
    return {(w, trace): _run(w, smoke_out, trace) for w in WORKLOADS for trace in (0, 1)}


# -- tracing maths ------------------------------------------------------ #


def test_self_time_on_nested_spans():
    # root [0, 10] -> a [1, 4] -> a' [2, 3];  root -> b [5, 9]
    spans = [
        ["root", 0.0, 10.0, -1, None, 1],
        ["a", 1.0, 4.0, 0, None, 1],
        ["a", 2.0, 3.0, 1, "r1", 1],
        ["b", 5.0, 9.0, 0, None, 1],
        ["root", 12.0, 13.0, -1, None, 1],
    ]
    stats = layer_stats(spans)
    assert stats["root"] == {"calls": 2, "self_s": 3.0 + 1.0}
    assert stats["a"] == {"calls": 2, "self_s": 2.0 + 1.0}
    assert stats["b"] == {"calls": 1, "self_s": 4.0}
    assert sum(row["self_s"] for row in stats.values()) == root_time(spans) == 11.0


def test_recorder_nests_per_thread():
    recorder = SpanRecorder()
    outer = recorder.open("outer", None)

    def other_thread():
        index = recorder.open("worker", None)
        recorder.close(index)

    thread = threading.Thread(target=other_thread)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    inner = recorder.open("inner", "req-1")
    recorder.close(inner)
    recorder.close(outer)
    by_name = {span[0]: span for span in recorder.spans}
    assert by_name["worker"][3] == -1  # no parent across threads
    assert by_name["inner"][3] == outer and by_name["inner"][4] == "req-1"
    assert by_name["outer"][1] <= by_name["inner"][1] <= by_name["inner"][2] <= by_name["outer"][2]


def test_wrappers_record_and_restore():
    import importlib

    originals = {}
    for _, module, cls, names in LAYERS:
        owner = importlib.import_module(module)
        owner = owner if cls is None else getattr(owner, cls)
        originals[(module, cls)] = dict(vars(owner))
    recorder = SpanRecorder()
    with Wrappers(recorder):
        from repro.llm.engine import SimulatedLLM

        SimulatedLLM("gpt-4-0613").respond("How do I sort a list in Python?")
    names = {span[0] for span in recorder.spans}
    assert {"llm.engine", "llm.engine.call_rng", "world.aspects"} <= names
    for _, module, cls, _ in LAYERS:
        owner = importlib.import_module(module)
        owner = owner if cls is None else getattr(owner, cls)
        after = vars(owner)
        for name, value in originals[(module, cls)].items():
            assert after[name] is value, f"{module}.{cls}.{name} not restored"


def test_missing_target_fails_before_patching():
    from repro.llm.engine import SimulatedLLM

    before = SimulatedLLM.respond
    layers = (
        ("llm.engine", "repro.llm.engine", "SimulatedLLM", ("respond",)),
        ("bogus", "repro.llm.engine", "SimulatedLLM", ("no_such_method",)),
    )
    with pytest.raises(LookupError, match="no_such_method"):
        with Wrappers(SpanRecorder(), layers):
            pass
    assert SimulatedLLM.respond is before


def test_host_speed_discounts_its_probes_and_restores_the_timer():
    import signal
    import time

    handler = signal.getsignal(signal.SIGALRM)
    with HostSpeed(periodic=True) as host:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.35:
            pass
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    inside = [took for at, took in host.samples if start <= at < end]
    assert len(inside) >= 2
    assert len(host.samples) >= 2 * PROBE_BRACKET + len(inside)
    assert host.net(start, end) == pytest.approx(end - start - sum(inside))
    assert host.speed > 0


# -- the benchmark end to end ------------------------------------------ #


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_declared_metric(smoke, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        summary, _ = smoke[(workload, trace)]
        assert summary["correct"] is True
        assert summary["attempted"] >= 1 and summary["failed"] == 0
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        emitted = {name: m["unit"] for name, m in summary["metrics"].items()}
        assert emitted == declared


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_digest(smoke, workload, tmp_path):
    _, untraced = smoke[(workload, 0)]
    _, traced = smoke[(workload, 1)]
    assert untraced["digest"] == traced["digest"]
    _, again = _run(workload, tmp_path, 0)
    assert again["digest"] == untraced["digest"]
    _, other = _run(workload, tmp_path, 0, seed=1)
    assert other["digest"] != untraced["digest"]


def test_trace_writes_spans_and_layers(smoke, smoke_out):
    import gzip

    for workload in WORKLOADS:
        _, detail = smoke[(workload, 1)]
        assert detail["metrics"]["trace.unattributed_share"]["value"] <= 0.05
        layers = json.loads((smoke_out / workload / "layers.json").read_text())["layers"]
        assert set(layers) == {row[0] for row in LAYERS}
        with gzip.open(smoke_out / workload / "spans.jsonl.gz", "rt") as fh:
            first = json.loads(fh.readline())
        assert set(first) == {"name", "start", "end", "parent", "request_id", "thread"}
    layers = json.loads((smoke_out / "serve_zipf" / "layers.json").read_text())["layers"]
    assert layers["world.aspects"]["calls"] > 0 and layers["ann.build"]["calls"] == 0


def test_compare_verdicts():
    parent = [100.0 + i % 3 for i in range(10)]
    assert verdict(parent, [p * 1.2 for p in parent], "higher", 0.1)[0] == "better"
    assert verdict(parent, [p * 0.8 for p in parent], "higher", 0.1)[0] == "worse"
    assert verdict(parent, list(parent), "higher", 0.1)[0] == "unchanged"
    noisy = [50.0, 150.0] * 5
    assert verdict(noisy, noisy, "higher", 0.1)[0] == "unresolved"
