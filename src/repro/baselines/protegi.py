"""ProTeGi / APO — automatic prompt optimization with "textual gradients"
and beam search (Pryzant et al. 2023).

APO critiques a candidate instruction against failures on training data
(the "gradient"), expands the candidates that fix the most failures, and
keeps a beam of the best.  The stand-in computes the gradient exactly the
way the metaphor describes: for each beam candidate, find the *needs most
often missed* by the target model's responses on the training prompts, and
expand the candidate with directives for them.

Like OPRO it requires labelled per-task data and tunes for one model —
hence the ✗/✗ flexibility row in Table 3.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.baselines.base import ApeMethod, FlexibilityProfile
from repro.core.golden import render_complement
from repro.errors import NotFittedError
from repro.llm.engine import SimulatedLLM
from repro.world.prompts import SyntheticPrompt
from repro.world.quality import assess_response

__all__ = ["ProtegiOptimizer"]


class ProtegiOptimizer(ApeMethod):
    """Beam-search prompt optimizer driven by miss-frequency gradients."""

    name = "protegi"

    def __init__(
        self,
        target_model: str = "gpt-3.5-turbo-1106",
        beam_width: int = 3,
        n_steps: int = 3,
        max_directives: int = 3,
        seed: int = 29,
    ):
        if beam_width < 1 or n_steps < 1:
            raise ValueError("beam_width and n_steps must be >= 1")
        self._engine = SimulatedLLM(target_model, seed=seed)
        self.beam_width = beam_width
        self.n_steps = n_steps
        self.max_directives = max_directives
        self.seed = int(seed)
        self._instruction: str | None = None

    @property
    def instruction(self) -> str:
        if self._instruction is None:
            raise NotFittedError("ProtegiOptimizer used before optimize()")
        return self._instruction

    def _score_and_gradient(
        self, aspects: frozenset[str], train_prompts: list[SyntheticPrompt]
    ) -> tuple[float, Counter[str]]:
        """Mean quality plus the counter of needs the responses missed."""
        instruction = render_complement(set(aspects), salt="protegi") if aspects else None
        missed: Counter[str] = Counter()
        scores = []
        for prompt in train_prompts:
            response = self._engine.respond(prompt.text, supplement=instruction)
            qa = assess_response(prompt, response)
            scores.append(qa.score)
            missed.update(qa.missed_needs)
        return float(np.mean(scores)), missed

    def optimize(self, train_prompts: list[SyntheticPrompt]) -> str:
        """Beam search: expand each candidate along its top missed needs."""
        if not train_prompts:
            raise ValueError("ProTeGi needs a non-empty training set")
        beam: list[frozenset[str]] = [frozenset()]
        scored: dict[frozenset[str], float] = {}
        for _ in range(self.n_steps):
            expansions: set[frozenset[str]] = set(beam)
            for candidate in beam:
                score, missed = self._score_and_gradient(candidate, train_prompts)
                scored[candidate] = score
                if len(candidate) >= self.max_directives:
                    continue
                # Most-missed first, ties by name: most_common() would break
                # ties in first-seen order, which follows set iteration.
                for aspect in sorted(missed, key=lambda a: (-missed[a], a))[:2]:
                    expansions.add(candidate | {aspect})
            for candidate in expansions:
                if candidate not in scored:
                    scored[candidate], _ = self._score_and_gradient(
                        candidate, train_prompts
                    )
            # Ties by sorted aspects, not by the set's hash order.
            beam = sorted(expansions, key=lambda c: (-scored[c], sorted(c)))[: self.beam_width]
        best = max(beam, key=lambda c: scored[c])
        self._instruction = render_complement(set(best), salt="protegi") if best else ""
        return self._instruction

    def transform(self, prompt_text: str) -> tuple[str, str | None]:
        return prompt_text, self.instruction or None

    @property
    def flexibility(self) -> FlexibilityProfile:
        return FlexibilityProfile(
            method="protegi",
            needs_human_labor=True,
            llm_agnostic=False,
            task_agnostic=False,
            training_examples=None,
        )
