"""Tests for the timing harness and the bench regression gate."""

import json
import sys
from pathlib import Path

import pytest

from repro.utils.timing import StageTimer

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from bench_timing import (  # noqa: E402
    TimingResult,
    median_speedup,
    speedup,
    time_call,
    time_pair,
)
from check_bench_regression import (  # noqa: E402
    collect_cost_ratios,
    collect_overheads,
    collect_speedups,
    main,
)


class ManualClock:
    """Deterministic seconds counter; advance() stands in for elapsed time."""

    def __init__(self):
        self.now = 0.0

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


class TestStageTimer:
    def test_three_level_nesting_attribution(self):
        """Regression: the flat lap clock either lost or double-counted a
        nested stage's time; the stack-based timer charges each level its
        own exclusive share while inclusive keeps the caller's view."""
        clock = ManualClock()
        timer = StageTimer(clock=clock)
        with timer.section("ask"):
            clock.advance(1.0)  # gateway bookkeeping
            with timer.section("augment"):
                clock.advance(2.0)  # PAS forward pass
                with timer.section("embed"):
                    clock.advance(4.0)  # the innermost cost
                clock.advance(0.5)  # augment epilogue
            clock.advance(0.25)  # response assembly
        assert timer.inclusive_s == {
            "ask": pytest.approx(7.75),
            "augment": pytest.approx(6.5),
            "embed": pytest.approx(4.0),
        }
        assert timer.exclusive_s == {
            "ask": pytest.approx(1.25),
            "augment": pytest.approx(2.5),
            "embed": pytest.approx(4.0),
        }
        # exclusive times always sum to the root's inclusive time
        assert sum(timer.exclusive_s.values()) == pytest.approx(
            timer.inclusive_s["ask"]
        )

    def test_reentrant_sections_accumulate(self):
        clock = ManualClock()
        timer = StageTimer(clock=clock)
        for _ in range(3):
            with timer.section("stage"):
                clock.advance(1.0)
        assert timer.calls == {"stage": 3}
        assert timer.inclusive_s["stage"] == pytest.approx(3.0)
        assert timer.exclusive_s["stage"] == pytest.approx(3.0)

    def test_siblings_both_charged_to_parent(self):
        clock = ManualClock()
        timer = StageTimer(clock=clock)
        with timer.section("parent"):
            with timer.section("a"):
                clock.advance(1.0)
            with timer.section("b"):
                clock.advance(2.0)
        assert timer.exclusive_s["parent"] == pytest.approx(0.0)
        assert timer.inclusive_s["parent"] == pytest.approx(3.0)

    def test_exception_still_records(self):
        clock = ManualClock()
        timer = StageTimer(clock=clock)
        with pytest.raises(ValueError):
            with timer.section("stage"):
                clock.advance(1.0)
                raise ValueError("boom")
        assert timer.depth == 0
        assert timer.inclusive_s["stage"] == pytest.approx(1.0)

    def test_pop_without_push_raises(self):
        with pytest.raises(RuntimeError):
            StageTimer().pop()

    def test_as_dict_sorted(self):
        clock = ManualClock()
        timer = StageTimer(clock=clock)
        with timer.section("zebra"):
            with timer.section("apple"):
                clock.advance(1.0)
        d = timer.as_dict()
        assert list(d) == ["apple", "zebra"]
        assert d["apple"] == {"calls": 1, "inclusive_s": 1.0, "exclusive_s": 1.0}


class TestTimeCall:
    def test_counts_calls(self):
        calls = []
        time_call(lambda: calls.append(1), repeats=3, warmup=2)
        assert len(calls) == 5

    def test_result_fields(self):
        result = time_call(lambda: None, label="noop", n_items=10, repeats=2)
        assert result.label == "noop"
        assert result.repeats == 2
        assert result.best_s <= result.mean_s
        assert result.items_per_s > 0.0
        assert set(result.to_dict()) == {
            "label", "n_items", "repeats", "best_s", "mean_s", "items_per_s",
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            time_call(lambda: None, repeats=0)
        with pytest.raises(ValueError):
            time_call(lambda: None, warmup=-1)


class TestTimePair:
    def test_interleaves_calls(self):
        order = []
        time_pair(
            lambda: order.append("a"),
            lambda: order.append("b"),
            repeats=3,
            warmup=1,
        )
        assert order == ["a", "b"] * 4  # warmup round + 3 measured rounds

    def test_labels_and_shapes(self):
        base, cont = time_pair(
            lambda: None, lambda: None,
            labels=("x", "y"), n_items=5, repeats=2,
        )
        assert (base.label, cont.label) == ("x", "y")
        assert base.n_items == cont.n_items == 5
        assert speedup(base, cont) > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            time_pair(lambda: None, lambda: None, repeats=0)
        with pytest.raises(ValueError):
            time_pair(lambda: None, lambda: None, warmup=-1)


class TestSpeedup:
    def test_per_item_normalised(self):
        slow = TimingResult(label="s", n_items=10, repeats=1, best_s=2.0, mean_s=2.0)
        fast = TimingResult(label="f", n_items=20, repeats=1, best_s=1.0, mean_s=1.0)
        assert speedup(slow, fast) == pytest.approx(4.0)


class TestMedianSpeedup:
    @staticmethod
    def _result(times, n_items=1):
        return TimingResult(
            label="r", n_items=n_items, repeats=len(times),
            best_s=min(times), mean_s=sum(times) / len(times), times_s=tuple(times),
        )

    def test_median_of_per_round_ratios(self):
        base = self._result([2.0, 2.0, 9.0], n_items=10)
        cont = self._result([1.0, 4.0, 1.0], n_items=20)
        # Per-item ratios by round: 4.0, 1.0, 18.0.
        assert median_speedup(base, cont) == pytest.approx(4.0)

    def test_one_noisy_round_does_not_decide_it(self):
        base = self._result([1.0, 1.0, 1.0, 1.0, 0.2])
        cont = self._result([0.5, 0.5, 0.5, 0.5, 0.5])
        assert median_speedup(base, cont) == pytest.approx(2.0)
        assert speedup(base, cont) < 1.0

    def test_time_pair_keeps_every_round(self):
        base, cont = time_pair(lambda: None, lambda: None, repeats=4)
        assert len(base.times_s) == len(cont.times_s) == 4
        assert min(base.times_s) == base.best_s
        assert len(time_call(lambda: None, repeats=3).times_s) == 3

    def test_rejects_results_without_matching_rounds(self):
        with pytest.raises(ValueError):
            median_speedup(self._result([1.0, 1.0]), self._result([1.0]))
        bare = TimingResult(label="b", n_items=1, repeats=1, best_s=1.0, mean_s=1.0)
        with pytest.raises(ValueError):
            median_speedup(bare, bare)


class TestBenchRegressionGate:
    PAYLOAD = {
        "embed": {"speedup": 2.5},
        "augment": {"speedup": 1.2, "unique_only_speedup": 1.9},
        "sharded": {
            "build": {"speedup": 2.0},
            "search": {"throughput_ratio_vs_single": 0.5},  # not gated
        },
        "scale": {"n_items": 100},
    }

    def test_collects_only_speedup_named_keys(self):
        found = dict(collect_speedups(self.PAYLOAD))
        assert found == {
            "embed.speedup": 2.5,
            "augment.speedup": 1.2,
            "augment.unique_only_speedup": 1.9,
            "sharded.build.speedup": 2.0,
        }

    def test_passes_when_all_above_threshold(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(self.PAYLOAD))
        assert main([str(path)]) == 0
        assert "all 4 speedups" in capsys.readouterr().out

    def test_fails_on_regression(self, tmp_path, capsys):
        bad = {"gateway": {"speedup": 0.9}, "embed": {"speedup": 3.0}}
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(bad))
        assert main([str(path)]) == 1
        captured = capsys.readouterr()
        assert "gateway.speedup" in captured.err

    def test_collects_overhead_named_keys(self):
        payload = {
            "obs": {"obs_off_overhead": 1.01, "tracing_on_slowdown": 1.4},
            "embed": {"speedup": 2.5},
        }
        assert dict(collect_overheads(payload)) == {"obs.obs_off_overhead": 1.01}

    def test_passes_when_overhead_at_ceiling(self, tmp_path, capsys):
        payload = {"embed": {"speedup": 2.0}, "obs": {"obs_off_overhead": 1.05}}
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(payload))
        assert main([str(path)]) == 0
        assert "overheads <= 1.05" in capsys.readouterr().out

    def test_fails_on_overhead_above_ceiling(self, tmp_path, capsys):
        payload = {"embed": {"speedup": 2.0}, "obs": {"obs_off_overhead": 1.2}}
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(payload))
        assert main([str(path)]) == 1
        assert "obs.obs_off_overhead" in capsys.readouterr().err

    def test_collects_cost_ratio_named_keys(self):
        payload = {
            "obs": {"tracing_on_cost_ratio": 1.1, "obs_off_overhead": 1.0},
            "embed": {"speedup": 2.5},
        }
        assert dict(collect_cost_ratios(payload)) == {"obs.tracing_on_cost_ratio": 1.1}

    def test_passes_when_cost_ratio_at_ceiling(self, tmp_path, capsys):
        payload = {"embed": {"speedup": 2.0}, "obs": {"tracing_on_cost_ratio": 1.5}}
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(payload))
        assert main([str(path)]) == 0
        assert "cost ratios <= 1.5" in capsys.readouterr().out

    def test_fails_on_cost_ratio_above_ceiling(self, tmp_path, capsys):
        payload = {"embed": {"speedup": 2.0}, "obs": {"tracing_on_cost_ratio": 1.6}}
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(payload))
        assert main([str(path)]) == 1
        assert "obs.tracing_on_cost_ratio" in capsys.readouterr().err

    def test_rejects_missing_file_and_empty_payload(self, tmp_path):
        assert main([str(tmp_path / "absent.json")]) == 2
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        assert main([str(empty)]) == 2
        assert main([]) == 2

    def test_current_bench_json_passes(self):
        bench = Path(__file__).resolve().parents[1] / "BENCH_serving.json"
        if not bench.is_file():
            pytest.skip("BENCH_serving.json not generated yet")
        assert main([str(bench)]) == 0
