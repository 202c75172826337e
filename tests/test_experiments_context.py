"""Tests for the shared experiment context."""

import dataclasses

import pytest

from repro.baselines.base import NoApe
from repro.core.plug import PasApe
from repro.experiments import significance
from repro.experiments.context import TARGET_MODELS, ExperimentContext, ScaleConfig
from repro.judge.alpaca_eval import AlpacaEvalBenchmark
from repro.judge.arena_hard import ArenaHardBenchmark
from repro.pipeline.collect import PromptCollector

_TINY = ScaleConfig(
    n_corpus_prompts=80, arena_suite_size=10, alpaca_suite_size=10,
    human_eval_per_scenario=2,
)


class TestScaleConfig:
    def test_quick_smaller_than_full(self):
        quick, full = ScaleConfig.quick(), ScaleConfig.full()
        assert quick.n_corpus_prompts < full.n_corpus_prompts
        assert quick.arena_suite_size < full.arena_suite_size
        assert quick.alpaca_suite_size < full.alpaca_suite_size


class TestContextCaching:
    def test_datasets_cached(self, quick_ctx):
        assert quick_ctx.curated_dataset is quick_ctx.curated_dataset
        assert quick_ctx.raw_dataset is quick_ctx.raw_dataset

    def test_models_cached(self, quick_ctx):
        assert quick_ctx.pas is quick_ctx.pas
        assert quick_ctx.bpo is quick_ctx.bpo

    def test_engines_cached_per_name(self, quick_ctx):
        a = quick_ctx.engine("gpt-4-0613")
        b = quick_ctx.engine("gpt-4-0613")
        c = quick_ctx.engine("qwen2-72b-chat")
        assert a is b
        assert a is not c

    def test_benchmarks_cached(self, quick_ctx):
        assert quick_ctx.arena_hard is quick_ctx.arena_hard
        assert quick_ctx.alpaca_eval is quick_ctx.alpaca_eval

    def test_one_collection_for_both_datasets(self, monkeypatch):
        calls = []
        collect = PromptCollector.collect

        def counting(self, corpus):
            calls.append(len(corpus))
            return collect(self, corpus)

        monkeypatch.setattr(PromptCollector, "collect", counting)
        ctx = ExperimentContext(scale=_TINY, seed=3)
        curated, raw = ctx.curated_dataset, ctx.raw_dataset
        assert calls == [80]
        assert 0 < len(curated) <= len(raw)
        assert {p.prompt_uid for p in curated} <= {p.prompt_uid for p in raw}

    def test_curated_and_raw_differ(self, quick_ctx):
        assert quick_ctx.curated_dataset.mean_label_quality() > (
            quick_ctx.raw_dataset.mean_label_quality()
        )


class TestEvaluateArm:
    def test_returns_all_metrics(self, quick_ctx):
        scores = quick_ctx.evaluate_arm("gpt-4-0613", quick_ctx.method_none())
        assert set(scores) == {"arena_hard", "alpaca_eval", "alpaca_eval_lc", "average"}
        assert scores["average"] == pytest.approx(
            (scores["arena_hard"] + scores["alpaca_eval"] + scores["alpaca_eval_lc"]) / 3
        )

    def test_deterministic(self, quick_ctx):
        a = quick_ctx.evaluate_arm("gpt-4-0613", quick_ctx.method_none())
        # A method the context did not build is evaluated afresh.
        b = quick_ctx.evaluate_arm("gpt-4-0613", NoApe())
        assert a == b

    def test_each_built_arm_runs_its_benchmarks_once(self, monkeypatch):
        calls = []
        for bench in (ArenaHardBenchmark, AlpacaEvalBenchmark):
            def counting(self, engine, method, _evaluate=bench.evaluate):
                calls.append((type(self).__name__, engine.name, method.name))
                return _evaluate(self, engine, method)

            monkeypatch.setattr(bench, "evaluate", counting)
        ctx = ExperimentContext(scale=_TINY, seed=3)
        assert ctx.method_pas() is ctx.method_pas()
        first = ctx.evaluate_arm("gpt-4-0613", ctx.method_pas())
        assert len(calls) == 2
        again = ctx.evaluate_arm("gpt-4-0613", ctx.method_pas())
        assert len(calls) == 2
        foreign = ctx.evaluate_arm("gpt-4-0613", PasApe(ctx.pas))
        assert calls[2:] == [
            ("ArenaHardBenchmark", "gpt-4-0613", "pas"),
            ("AlpacaEvalBenchmark", "gpt-4-0613", "pas"),
        ]
        assert first == again == foreign
        ctx.evaluate_arm("gpt-3.5-turbo-1106", ctx.method_pas())
        assert len(calls) == 6

    def test_memoised_scores_cannot_be_mutated_by_a_caller(self):
        ctx = ExperimentContext(scale=_TINY, seed=3)
        scores = ctx.evaluate_arm("gpt-4-0613", ctx.method_none())
        expected = dict(scores)
        scores["average"] = -1.0
        assert ctx.evaluate_arm("gpt-4-0613", ctx.method_none()) == expected


class TestArenaHardResult:
    @staticmethod
    def _arena_hard_calls(monkeypatch):
        """``(model, method name)`` per ``ArenaHardBenchmark.evaluate`` call."""
        calls = []
        evaluate = ArenaHardBenchmark.evaluate

        def counting(self, engine, method):
            calls.append((engine.name, method.name))
            return evaluate(self, engine, method)

        monkeypatch.setattr(ArenaHardBenchmark, "evaluate", counting)
        return calls

    def test_significance_reuses_the_arms_arena_hard_runs(self, monkeypatch):
        calls = self._arena_hard_calls(monkeypatch)
        ctx = ExperimentContext(scale=_TINY, seed=3)
        arms = [ctx.method_none(), ctx.bpo, ctx.method_pas()]
        scores = {
            (model, arm.name): ctx.evaluate_arm(model, arm)
            for model in TARGET_MODELS
            for arm in arms
        }
        assert len(calls) == len(set(calls)) == 3 * len(TARGET_MODELS)
        result = significance.run(ctx)
        assert len(calls) == 3 * len(TARGET_MODELS)
        for c in result.comparisons:
            assert c.pas_score == pytest.approx(scores[(c.model, "pas")]["arena_hard"])
            assert c.arm_score == pytest.approx(scores[(c.model, c.arm)]["arena_hard"])

    def test_memoised_result_cannot_be_mutated_by_a_caller(self):
        ctx = ExperimentContext(scale=_TINY, seed=3)
        first = ctx.arena_hard_result("gpt-4-0613", ctx.method_none())
        assert isinstance(first.outcomes, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.outcomes = ()
        again = ctx.arena_hard_result("gpt-4-0613", ctx.method_none())
        assert again is first and again.outcomes == first.outcomes

    def test_foreign_method_is_judged_afresh(self, monkeypatch):
        calls = self._arena_hard_calls(monkeypatch)
        ctx = ExperimentContext(scale=_TINY, seed=3)
        own = ctx.arena_hard_result("gpt-4-0613", ctx.method_none())
        foreign = ctx.arena_hard_result("gpt-4-0613", NoApe())
        ctx.arena_hard_result("gpt-4-0613", NoApe())
        assert calls == [("gpt-4-0613", "none")] * 3
        assert foreign == own


class TestSeedSeparation:
    def test_different_seeds_different_datasets(self):
        tiny = ScaleConfig(
            n_corpus_prompts=120, arena_suite_size=10, alpaca_suite_size=10,
            human_eval_per_scenario=2,
        )
        a = ExperimentContext(scale=tiny, seed=1).curated_dataset
        b = ExperimentContext(scale=tiny, seed=2).curated_dataset
        assert [p.prompt_text for p in a] != [p.prompt_text for p in b]
