"""Scoring candidates and served responses with the LLM judge.

The policy layer's reward signal is :class:`~repro.judge.LlmJudge`'s
absolute 0–5 grade.  The judge's documented observation noise is kept —
a production judge disagrees with itself, and a bandit that can't handle
that is a toy — but it is *seed-pure*: every score is a pure function of
``(judge config, prompt text, response text)``, so replaying a serve
replays its reward bit for bit.

``absolute_score`` needs the :class:`~repro.world.prompts.SyntheticPrompt`
annotations (the quality oracle reads ground-truth needs), while the
serving stack only carries prompt *text*.  :class:`PromptResolver` bridges
the two: a text → annotated-prompt index over the corpus the deployment
serves.  Prompts outside the corpus score as ``None`` — the bandit simply
doesn't learn from them (it still serves them deterministically).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.judge.judge import LlmJudge
from repro.world.prompts import SyntheticPrompt

__all__ = ["PromptResolver", "PolicyScorer"]

#: Context category for prompts the resolver cannot annotate.
UNKNOWN_CATEGORY = "unknown"


class PromptResolver:
    """Text → annotated prompt, for reward lookup at serve time."""

    def __init__(self, prompts: Iterable[SyntheticPrompt] = ()):
        self._by_text: dict[str, SyntheticPrompt] = {}
        self.extend(prompts)

    def add(self, prompt: SyntheticPrompt) -> None:
        self._by_text[prompt.text] = prompt

    def extend(self, prompts: Iterable[SyntheticPrompt]) -> None:
        for prompt in prompts:
            self.add(prompt)

    def resolve(self, text: str) -> SyntheticPrompt | None:
        return self._by_text.get(text)

    def category_for(self, text: str) -> str:
        """The bandit-context category (``"unknown"`` off-corpus)."""
        prompt = self._by_text.get(text)
        return prompt.category if prompt is not None else UNKNOWN_CATEGORY

    def __len__(self) -> int:
        return len(self._by_text)

    def __contains__(self, text: str) -> bool:
        return text in self._by_text


class PolicyScorer:
    """Judge-backed scoring for the policy loop.

    :meth:`score` grades one response to a known prompt; :meth:`reward`
    grades one served response, or returns ``None`` when the prompt can't
    be resolved to its annotations.
    """

    def __init__(self, judge: LlmJudge, resolver: PromptResolver):
        self.judge = judge
        self.resolver = resolver

    def score(self, prompt: SyntheticPrompt, response_text: str) -> float:
        """One seed-pure absolute grade in [0, 5]."""
        return self.judge.absolute_score(prompt, response_text)

    def reward(self, prompt_text: str, response_text: str) -> float | None:
        """The online reward for one served response (``None`` off-corpus)."""
        prompt = self.resolver.resolve(prompt_text)
        if prompt is None:
            return None
        return self.judge.absolute_score(prompt, response_text)
