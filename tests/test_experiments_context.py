"""Tests for the shared experiment context."""

import pytest

from repro.experiments.context import ExperimentContext, ScaleConfig
from repro.pipeline.collect import PromptCollector


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
        tiny = ScaleConfig(
            n_corpus_prompts=80, arena_suite_size=10, alpaca_suite_size=10,
            human_eval_per_scenario=2,
        )
        ctx = ExperimentContext(scale=tiny, seed=3)
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
        b = quick_ctx.evaluate_arm("gpt-4-0613", quick_ctx.method_none())
        assert a == b


class TestSeedSeparation:
    def test_different_seeds_different_datasets(self):
        tiny = ScaleConfig(
            n_corpus_prompts=120, arena_suite_size=10, alpaca_suite_size=10,
            human_eval_per_scenario=2,
        )
        a = ExperimentContext(scale=tiny, seed=1).curated_dataset
        b = ExperimentContext(scale=tiny, seed=2).curated_dataset
        assert [p.prompt_text for p in a] != [p.prompt_text for p in b]
