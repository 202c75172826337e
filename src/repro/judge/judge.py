"""The LLM judge.

GPT-4-as-judge has two well-documented properties this simulation keeps:

* **observation noise** — repeated judgements of the same pair disagree;
* **verbosity bias** — longer answers win more often than their true
  quality justifies.  AlpacaEval 2.0's length-controlled variant exists
  precisely to regress this bias out, and the raw-vs-LC gap in Table 1
  only reproduces if the bias is present in the judge.

A pairwise verdict perceives each response's oracle quality through noise
plus ``length_bias * log(len_a / len_b)`` and declares a tie inside a
margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.utils.rng import stable_hash
from repro.world.prompts import SyntheticPrompt
from repro.world.quality import QualityAssessment, assess_response

__all__ = ["JudgeConfig", "PairwiseVerdict", "LlmJudge"]

#: Most ``(prompt, response)`` grades one judge memoises.  Past it, a new
#: pair is graded on every call and not stored.  A full memo is about
#: 0.5 MB, or 3 MB if it alone keeps 650-character responses alive.
_GRADE_LIMIT = 1 << 12


@dataclass(frozen=True)
class JudgeConfig:
    """Judge behaviour parameters.

    ``position_bias`` models the documented tendency of LLM judges to
    favour the first-presented answer; ``both_orders`` applies the
    benchmarks' standard mitigation (judge A-then-B and B-then-A, average
    the two verdicts), which is what Arena-Hard and AlpacaEval actually do.
    """

    noise_sigma: float = 0.32
    length_bias: float = 0.28
    tie_margin: float = 0.12
    position_bias: float = 0.08
    both_orders: bool = True
    judge_model: str = "gpt-4-judge"
    seed: int = 0

    def validate(self) -> None:
        for name in ("noise_sigma", "length_bias", "tie_margin", "position_bias"):
            # NaN passes the sign check below, and a NaN or infinite
            # parameter turns every grade or verdict into NaN, 0.0 or a tie.
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if (
            self.noise_sigma < 0
            or self.length_bias < 0
            or self.tie_margin < 0
            or self.position_bias < 0
        ):
            raise ValueError(f"judge parameters must be non-negative: {self}")


@dataclass(frozen=True)
class PairwiseVerdict:
    """Outcome of one A-vs-B judgement."""

    outcome: float  # 1.0 A wins, 0.5 tie, 0.0 B wins
    perceived_a: float
    perceived_b: float
    length_log_ratio: float


class LlmJudge:
    """Noisy, length-biased grader over the quality oracle.

    An absolute grade is a pure function of the config, the prompt's
    annotations and the response text, so :meth:`absolute_score`
    memoises it per ``(SyntheticPrompt, response)`` (at most
    ``_GRADE_LIMIT`` pairs).  The key is the whole prompt, not its text:
    the oracle reads its ``needs``.
    """

    def __init__(self, config: JudgeConfig | None = None):
        self.config = config or JudgeConfig()
        self.config.validate()
        self._grades: dict[tuple[SyntheticPrompt, str], float] = {}

    def _noise(self, *material: str) -> float:
        key = stable_hash("␞".join((self.config.judge_model, str(self.config.seed), *material)))
        return float(np.random.default_rng(key).normal(0.0, self.config.noise_sigma))

    def absolute_score(self, prompt: SyntheticPrompt, response: str) -> float:
        """Single-response 0-5 grade (used by the human-eval panel seeding)."""
        key = (prompt, response)
        grade = self._grades.get(key)
        if grade is None:
            true_score = assess_response(prompt, response).score
            noisy = true_score + self._noise("abs", prompt.text, response)
            grade = float(min(max(noisy, 0.0), 5.0))
            if len(self._grades) < _GRADE_LIMIT:
                self._grades[key] = grade
        return grade

    def _one_order(
        self,
        prompt: SyntheticPrompt,
        first: str,
        second: str,
        q_first: QualityAssessment,
        q_second: QualityAssessment,
        tag: str,
    ) -> tuple[float, float, float]:
        """Judge one presentation order from both responses' oracle
        assessments; returns (outcome-for-first, perceived-first,
        perceived-second)."""
        log_ratio = _length_log_ratio(q_first, q_second)
        perceived_first = (
            q_first.score
            + self._noise(f"{tag}-first", prompt.text, first, second)
            + self.config.position_bias  # first answer reads "fresher"
        )
        perceived_second = q_second.score + self._noise(
            f"{tag}-second", prompt.text, first, second
        )
        delta = (perceived_first - perceived_second) + self.config.length_bias * log_ratio
        if delta > self.config.tie_margin:
            outcome = 1.0
        elif delta < -self.config.tie_margin:
            outcome = 0.0
        else:
            outcome = 0.5
        return outcome, perceived_first, perceived_second

    def pairwise(
        self, prompt: SyntheticPrompt, response_a: str, response_b: str
    ) -> PairwiseVerdict:
        """Judge response A against response B for the same prompt.

        With ``both_orders`` (the benchmarks' default), the pair is judged
        in both presentation orders and the verdicts averaged, cancelling
        the judge's position bias.  Each response is assessed by the
        oracle once.
        """
        q_a = assess_response(prompt, response_a)
        q_b = assess_response(prompt, response_b)
        outcome_ab, perceived_a, perceived_b = self._one_order(
            prompt, response_a, response_b, q_a, q_b, "ab"
        )
        if self.config.both_orders:
            outcome_ba, _, _ = self._one_order(
                prompt, response_b, response_a, q_b, q_a, "ba"
            )
            outcome = (outcome_ab + (1.0 - outcome_ba)) / 2.0
        else:
            outcome = outcome_ab
        return PairwiseVerdict(
            outcome=outcome,
            perceived_a=perceived_a,
            perceived_b=perceived_b,
            length_log_ratio=_length_log_ratio(q_a, q_b),
        )


def _length_log_ratio(q_first: QualityAssessment, q_second: QualityAssessment) -> float:
    """``log(len_first / len_second)`` in tokens, each floored at one."""
    return math.log(max(q_first.response_tokens, 1) / max(q_second.response_tokens, 1))
