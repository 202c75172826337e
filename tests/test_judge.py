"""Tests for the LLM judge and benchmark machinery."""

import dataclasses

import numpy as np
import pytest

from repro.baselines.base import NoApe
from repro.core.golden import render_complement
from repro.judge import judge as judge_module
from repro.judge.alpaca_eval import AlpacaEvalBenchmark
from repro.judge.arena_hard import ArenaHardBenchmark
from repro.judge.judge import JudgeConfig, LlmJudge
from repro.judge.suites import (
    HUMAN_EVAL_SCENARIOS,
    build_alpaca_suite,
    build_arena_hard_suite,
    build_human_eval_suite,
)
from repro.llm.engine import SimulatedLLM
from repro.world.prompts import PromptFactory


class TestSuites:
    def test_arena_hard_prompts_are_hard(self):
        suite = build_arena_hard_suite(30, seed=1)
        assert len(suite) == 30
        for prompt in suite:
            assert prompt.hard
            assert prompt.needs & {"logic_trap", "constraints", "edge_cases"}

    def test_alpaca_suite_general_mix(self):
        suite = build_alpaca_suite(60, seed=2)
        categories = {p.category for p in suite}
        assert len(categories) >= 8

    def test_suites_deterministic(self):
        a = build_alpaca_suite(10, seed=3)
        b = build_alpaca_suite(10, seed=3)
        assert [p.text for p in a] == [p.text for p in b]

    def test_human_eval_scenarios(self):
        suites = build_human_eval_suite(per_scenario=5, seed=4)
        assert set(suites) == set(HUMAN_EVAL_SCENARIOS)
        for scenario, suite in suites.items():
            assert len(suite) == 5
            assert all(p.category == HUMAN_EVAL_SCENARIOS[scenario] for p in suite)


class TestJudge:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            JudgeConfig(noise_sigma=-1.0).validate()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "name", ["noise_sigma", "length_bias", "tie_margin", "position_bias"]
    )
    def test_non_finite_parameters_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            LlmJudge(JudgeConfig(**{name: value}))

    def test_pairwise_outcomes_valid(self, factory):
        judge = LlmJudge()
        engine = SimulatedLLM("gpt-4-0613")
        for _ in range(10):
            prompt = factory.make_prompt()
            a = engine.respond(prompt.text)
            b = engine.respond(prompt.text, supplement=render_complement(set(prompt.needs), salt="j"))
            verdict = judge.pairwise(prompt, a, b)
            # both-orders averaging yields quarter steps
            assert verdict.outcome in (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_position_bias_cancelled_by_both_orders(self, factory):
        """A strongly position-biased judge is fair when it judges both
        presentation orders — the mitigation the real benchmarks use."""
        prompt = factory.make_prompt()
        engine = SimulatedLLM("gpt-4-0613")
        response = engine.respond(prompt.text)
        other = engine.respond(prompt.text + " ")
        biased_single = LlmJudge(
            JudgeConfig(noise_sigma=0.0, position_bias=2.0, both_orders=False, tie_margin=0.05)
        )
        biased_both = LlmJudge(
            JudgeConfig(noise_sigma=0.0, position_bias=2.0, both_orders=True, tie_margin=0.05)
        )
        # Single order: the first-presented response always wins.
        assert biased_single.pairwise(prompt, response, other).outcome == 1.0
        assert biased_single.pairwise(prompt, other, response).outcome == 1.0
        # Both orders: the bias cancels to a draw.
        assert biased_both.pairwise(prompt, response, other).outcome == 0.5

    def test_identical_responses_tie(self, factory):
        judge = LlmJudge(JudgeConfig(noise_sigma=0.0))
        engine = SimulatedLLM("gpt-4-0613")
        prompt = factory.make_prompt()
        response = engine.respond(prompt.text)
        assert judge.pairwise(prompt, response, response).outcome == 0.5

    def test_much_better_response_wins(self):
        judge = LlmJudge(JudgeConfig(noise_sigma=0.05))
        factory = PromptFactory(rng=np.random.default_rng(5))
        wins = 0
        engine = SimulatedLLM("gpt-4-turbo-2024-04-09")
        weak = SimulatedLLM("gpt-3.5-turbo-1106")
        n = 30
        for _ in range(n):
            prompt = factory.make_prompt(hard=True)
            good = engine.respond(
                prompt.text, supplement=render_complement(set(prompt.needs), salt="g")
            )
            bad = weak.respond(prompt.text)
            wins += judge.pairwise(prompt, good, bad).outcome
        assert wins / n > 0.75

    def test_length_bias_present(self, factory):
        """With zero quality difference, the longer response is favoured."""
        biased = LlmJudge(JudgeConfig(noise_sigma=0.0, length_bias=2.0, tie_margin=0.01))
        prompt = factory.make_prompt()
        short = "Here is a considered answer about things. Done."
        long = short + " " + " ".join(["More supporting sentences follow."] * 20)
        verdict = biased.pairwise(prompt, long, short)
        assert verdict.outcome == 1.0

    def test_absolute_score_bounded(self, factory):
        judge = LlmJudge()
        engine = SimulatedLLM("gpt-3.5-turbo-1106")
        for _ in range(10):
            prompt = factory.make_prompt()
            score = judge.absolute_score(prompt, engine.respond(prompt.text))
            assert 0.0 <= score <= 5.0

    def test_judge_deterministic(self, factory):
        judge = LlmJudge()
        prompt = factory.make_prompt()
        a, b = "response alpha text", "response beta text"
        assert judge.pairwise(prompt, a, b) == judge.pairwise(prompt, a, b)

    def test_pairwise_assesses_each_response_once(self, factory, monkeypatch):
        calls = []
        assess = judge_module.assess_response

        def counting(prompt, response):
            calls.append(response)
            return assess(prompt, response)

        monkeypatch.setattr(judge_module, "assess_response", counting)
        prompt = factory.make_prompt()
        a, b = "a short answer", "a longer answer with steps and an example"
        verdict = LlmJudge().pairwise(prompt, a, b)
        assert sorted(calls) == sorted([a, b])
        assert 0.0 <= verdict.outcome <= 1.0


class TestGradeMemo:
    """absolute_score memoises per (SyntheticPrompt, response)."""

    def test_repeated_scores_equal_a_fresh_judge(self, factory):
        judge = LlmJudge(JudgeConfig(seed=4))
        engine = SimulatedLLM("gpt-4-0613")
        pairs = []
        for _ in range(5):
            prompt = factory.make_prompt()
            complement = render_complement(set(prompt.needs))
            pairs.append((prompt, engine.respond(prompt.text)))
            pairs.append((prompt, engine.respond(prompt.text, supplement=complement)))
        first = [judge.absolute_score(p, r) for p, r in pairs]
        assert [judge.absolute_score(p, r) for p, r in pairs * 2] == first * 2
        fresh = LlmJudge(JudgeConfig(seed=4))
        assert first == [fresh.absolute_score(p, r) for p, r in reversed(pairs)][::-1]
        assert len(judge._grades) == len(set(pairs))

    def test_equal_text_different_needs_graded_separately(self, factory):
        prompt = factory.make_prompt(cue_rate=0.9)
        assert prompt.needs
        other = dataclasses.replace(prompt, needs=frozenset())
        response = SimulatedLLM("gpt-4-0613").respond(prompt.text)
        judge = LlmJudge()
        grades = [judge.absolute_score(p, response) for p in (prompt, other, prompt, other)]
        fresh = [LlmJudge().absolute_score(p, response) for p in (prompt, other)]
        assert grades == fresh * 2
        assert fresh[0] != fresh[1]


class TestBenchmarks:
    @pytest.fixture(scope="class")
    def arena(self):
        return ArenaHardBenchmark(build_arena_hard_suite(40, seed=6))

    @pytest.fixture(scope="class")
    def alpaca(self):
        return AlpacaEvalBenchmark(build_alpaca_suite(50, seed=7))

    def test_arena_scores_in_range(self, arena):
        result = arena.evaluate(SimulatedLLM("gpt-4-0613"), NoApe())
        assert 0.0 <= result.score <= 100.0
        assert result.n_prompts == 40

    def test_arena_stronger_model_scores_higher(self, arena):
        strong = arena.evaluate(SimulatedLLM("gpt-4-turbo-2024-04-09"), NoApe()).score
        weak = arena.evaluate(SimulatedLLM("gpt-3.5-turbo-1106"), NoApe()).score
        assert strong > weak

    def test_alpaca_reference_model_near_fifty(self, alpaca):
        result = alpaca.evaluate(SimulatedLLM("gpt-4-1106-preview"), NoApe())
        assert 40.0 <= result.win_rate <= 60.0

    def test_alpaca_lc_reported(self, alpaca):
        result = alpaca.evaluate(SimulatedLLM("qwen2-72b-chat"), NoApe())
        assert 0.0 <= result.lc_win_rate <= 100.0

    def test_lc_raises_short_models(self, alpaca):
        """The paper's GPT-3.5 row: LC > raw because the model is terse."""
        result = alpaca.evaluate(SimulatedLLM("gpt-3.5-turbo-1106"), NoApe())
        assert result.lc_win_rate > result.win_rate

    def test_benchmark_deterministic(self, arena):
        a = arena.evaluate(SimulatedLLM("gpt-4-0613"), NoApe())
        b = arena.evaluate(SimulatedLLM("gpt-4-0613"), NoApe())
        assert a.score == b.score
