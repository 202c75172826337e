"""Tests for the simulated LLM engine."""

import hashlib

import numpy as np
import pytest

from repro.core.golden import render_complement
from repro.llm.api import ChatClient
from repro.llm.engine import SimulatedLLM
from repro.llm.profiles import CapabilityProfile
from repro.llm.types import build_messages
from repro.world.aspects import aspect_names, find_markers, render_directive
from repro.world.prompts import PromptFactory
from repro.world.quality import assess_response, count_flaws


def _perfect(name="perfect"):
    return SimulatedLLM(
        CapabilityProfile(name, cue_sensitivity=1.0, instruction_following=1.0,
                          error_rate=0.0, verbosity=1.0)
    )


def _blind(name="blind"):
    return SimulatedLLM(
        CapabilityProfile(name, cue_sensitivity=0.0, instruction_following=1.0,
                          error_rate=0.0, verbosity=1.0)
    )


class TestDeterminism:
    def test_same_call_same_output(self):
        eng = SimulatedLLM("gpt-4-0613")
        assert eng.respond("how do i sort a list?") == eng.respond("how do i sort a list?")

    def test_different_prompts_differ(self):
        eng = SimulatedLLM("gpt-4-0613")
        assert eng.respond("how do i sort a list?") != eng.respond("how do i sort a dict?")

    def test_supplement_changes_output(self):
        eng = SimulatedLLM("gpt-4-0613")
        plain = eng.respond("how do i sort a list?")
        guided = eng.respond("how do i sort a list?", supplement=render_directive("examples"))
        assert plain != guided

    def test_seed_changes_output(self):
        a = SimulatedLLM("gpt-4-0613", seed=0).respond("how do i sort a list?")
        b = SimulatedLLM("gpt-4-0613", seed=1).respond("how do i sort a list?")
        assert a != b


class TestInferNeeds:
    def test_perfect_model_sees_all_cues(self):
        eng = _perfect()
        inferred = eng.infer_needs("please explain it in detail and walk me through it")
        assert inferred == {"depth", "step_by_step"}

    def test_blind_model_sees_nothing(self):
        eng = _blind()
        assert eng.infer_needs("please explain it in detail") == set()

    def test_intermediate_sensitivity_partial(self):
        eng = SimulatedLLM("gpt-3.5-turbo-1106")
        factory = PromptFactory(rng=np.random.default_rng(0))
        prompts = [factory.make_prompt(cue_rate=1.0) for _ in range(80)]
        seen = sum(len(eng.infer_needs(p.text) & p.needs) for p in prompts)
        total = sum(len(p.needs) for p in prompts)
        rate = seen / total
        assert 0.2 < rate < 0.7  # around cue_sensitivity=0.42


class TestRespond:
    def test_directives_are_followed_by_perfect_model(self):
        eng = _perfect()
        supplement = render_directive("edge_cases") + " " + render_directive("examples")
        response = eng.respond("write a parser for my csv files", supplement=supplement)
        markers = find_markers(response)
        assert {"edge_cases", "examples"} <= markers

    def test_in_prompt_directives_also_followed(self):
        eng = _perfect()
        rewritten = "write a parser for my csv files. " + render_directive("edge_cases")
        assert "edge_cases" in find_markers(eng.respond(rewritten))

    def test_topic_echoed(self):
        eng = _perfect()
        response = eng.respond("how do i tune my database indexes?")
        assert "database" in response.lower()

    def test_zero_error_model_has_no_flaws(self):
        eng = _perfect()
        for i in range(10):
            assert count_flaws(eng.respond(f"question number {i} about testing")) == 0

    def test_high_error_model_emits_flaws(self):
        eng = SimulatedLLM(
            CapabilityProfile("sloppy", 0.5, 0.5, error_rate=0.9, verbosity=1.5)
        )
        flaws = sum(count_flaws(eng.respond(f"prompt {i} about some topic words")) for i in range(10))
        assert flaws > 10

    def test_missed_trap_produces_blunder(self):
        eng = _blind()
        response = eng.respond("a riddle about two trains: what happens?")
        assert count_flaws(response) >= 2  # the confident blunder

    def test_seen_trap_no_blunder(self):
        eng = _perfect()
        response = eng.respond("a riddle about two trains: what happens?")
        assert "logic_trap" in find_markers(response)
        assert count_flaws(response) == 0

    def test_brevity_shortens_response(self):
        eng = _perfect()
        base = "tell me about container orchestration tradeoffs"
        long = eng.respond(base)
        short = eng.respond(base, supplement=render_directive("brevity"))
        assert len(short.split()) < len(long.split())

    def test_verification_directive_reduces_flaws(self):
        eng = SimulatedLLM(
            CapabilityProfile("sloppy2", 0.0, 1.0, error_rate=0.6, verbosity=1.2)
        )
        prompts = [f"prompt {i} about interesting machinery" for i in range(20)]
        plain = sum(count_flaws(eng.respond(p)) for p in prompts)
        checked = sum(
            count_flaws(eng.respond(p, supplement=render_directive("verification")))
            for p in prompts
        )
        assert checked < plain

    def test_directive_improves_oracle_score(self, factory):
        eng = SimulatedLLM("gpt-4-0613")
        gains = []
        for _ in range(30):
            prompt = factory.make_prompt(cue_rate=0.3)
            supplement = render_complement(set(prompt.needs), salt="test")
            plain = assess_response(prompt, eng.respond(prompt.text)).score
            guided = assess_response(
                prompt, eng.respond(prompt.text, supplement=supplement)
            ).score
            gains.append(guided - plain)
        assert np.mean(gains) > 0.3


class TestCompletionBytes:
    """The completion simulation's output, byte for byte, over a fixed grid.

    ``respond``, ``infer_needs`` and the simulated service latency are pure
    functions of ``(model, seed, prompt, supplement)``; serving exports,
    cached responses and every sim metric inherit their bytes.  The digest
    below was captured before the aspect phrase tables were compiled at
    import, so any drift in phrase matching or in the renderer's RNG draws
    fails here.
    """

    MODELS = ("gpt-4-0613", "gpt-3.5-turbo-1106", "qwen2-7b-chat")
    DIGEST = "5fa9fe97dc490e8096117700e3e7d3f8b3a5442d05643c616490ba98f8d94ba6"

    def _cases(self):
        factory = PromptFactory(rng=np.random.default_rng(0))
        names = aspect_names()
        for i in range(40):
            prompt = factory.make_prompt()
            embedded = f"{prompt.text} {render_directive(names[i % len(names)], i)}"
            yield prompt.text, None
            yield prompt.text, render_complement(set(prompt.needs))
            yield embedded, None

    def test_respond_infer_and_latency_bytes_pinned(self):
        cases = list(self._cases())
        digest = hashlib.sha256()
        for model in self.MODELS:
            engine = SimulatedLLM(model)
            client = ChatClient(engine)
            for text, supplement in cases:
                latency = client.completion_latency(build_messages(text, supplement or ""))
                record = (
                    model,
                    engine.respond(text, supplement),
                    sorted(engine.infer_needs(text)),
                    latency,
                )
                digest.update(repr(record).encode() + b"\n")
        assert digest.hexdigest() == self.DIGEST


class TestGradePromptQuality:
    def test_junk_scores_low(self, factory):
        eng = SimulatedLLM("baichuan-13b")
        grades = [eng.grade_prompt_quality(factory.make_junk().text) for _ in range(20)]
        assert max(grades) < 7.0

    def test_real_prompts_score_high(self, factory):
        eng = SimulatedLLM("baichuan-13b")
        grades = [eng.grade_prompt_quality(factory.make_prompt().text) for _ in range(20)]
        assert min(grades) > 7.0

    def test_empty_text(self):
        assert SimulatedLLM("baichuan-13b").grade_prompt_quality("") == 0.0

    def test_bounded(self, factory):
        eng = SimulatedLLM("baichuan-13b")
        for _ in range(10):
            grade = eng.grade_prompt_quality(factory.make_prompt().text)
            assert 0.0 <= grade <= 10.0
