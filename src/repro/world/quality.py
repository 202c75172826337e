"""Ground-truth response-quality oracle.

Given a prompt's latent needs and a response *text*, compute a 0–5 quality
score.  The oracle recovers everything from the response surface:

* **coverage** — which needed aspects the response evidences (marker
  phrases, :func:`repro.world.aspects.find_markers`);
* **spurious effort** — addressed aspects nobody asked for (the critic
  prompt in the paper's Figure 5 penalises "superfluous additions");
* **flaws** — overreach sentences carrying flaw-marker phrases, plus an
  unhandled logic trap, which in the paper's Case Study 1 flips the answer
  from wrong to right;
* **intent** — whether the response stays on the prompt's topic (rewriting
  baselines can drift; complementing cannot, by construction).

The judges in :mod:`repro.judge` observe this score through noise and a
length bias; human-evaluation panels observe it through per-annotator bias.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.utils import textproc
from repro.world.aspects import ASPECTS, _markers_in
from repro.world.prompts import SyntheticPrompt

__all__ = ["FLAW_MARKERS", "QualityAssessment", "assess_response"]

# Phrases the simulated engines use when they emit an overreaching /
# incorrect content unit.  Their presence is what a careful grader (or our
# oracle) detects as an error.
FLAW_MARKERS: tuple[str, ...] = (
    "always works without exception",
    "it is guaranteed that",
    "no further checks are needed",
    "everyone agrees that",
    "this is trivially true in all cases",
    "the naive answer is clearly right",
)

_BASE_SCORE = 1.6
_COVERAGE_WEIGHT = 2.6
_FLAW_PENALTY = 0.55
_SPURIOUS_PENALTY = 0.35
_INTENT_PENALTY = 1.8
_TRAP_FLAWS = 2  # an unhandled logic trap counts as this many flaws
_MAX_SCORE = 5.0


@dataclass(frozen=True)
class QualityAssessment:
    """Decomposed quality judgement for one (prompt, response) pair."""

    score: float
    coverage: float
    covered_needs: frozenset[str]
    missed_needs: frozenset[str]
    spurious_aspects: frozenset[str]
    flaw_count: int
    intent_overlap: float
    response_tokens: int

    @property
    def addressed_trap(self) -> bool:
        return "logic_trap" in self.covered_needs


def count_flaws(response_text: str) -> int:
    """Count flaw-marker occurrences in a response."""
    return _flaws_in(f" {textproc.wordstream(response_text)} ")


def _flaws_in(padded_stream: str) -> int:
    return sum(padded_stream.count(f" {marker} ") for marker in FLAW_MARKERS)


def intent_overlap(prompt: SyntheticPrompt, response_text: str) -> float:
    """Fraction of the prompt's topic words echoed by the response."""
    return _overlap(prompt, textproc.words(response_text))


def _overlap(prompt: SyntheticPrompt, response_words: Iterable[str]) -> float:
    topic_words = prompt.topic_words
    if not topic_words:
        return 1.0
    return len(topic_words.intersection(response_words)) / len(topic_words)


def assess_response(prompt: SyntheticPrompt, response_text: str) -> QualityAssessment:
    """Score a response against the prompt's ground-truth needs.

    The response is normalised and tokenised once; markers, flaws, intent
    overlap and the token count are all read off that one pass, with the
    same results as :func:`~repro.world.aspects.find_markers`,
    :func:`count_flaws` and :func:`intent_overlap` on the raw text.
    """
    normalized = textproc.normalize(response_text)
    words = textproc.words_normalized(normalized)
    stream = f" {' '.join(words)} "
    evidenced = _markers_in(stream)
    needs = set(prompt.needs)
    covered = evidenced & needs
    missed = needs - evidenced
    spurious = evidenced - needs

    if needs:
        # Summed in registry order: iterating the sets themselves would
        # add the weights in a per-process string-hash order, and float
        # addition is not associative.
        weight_total = sum(a.weight for name, a in ASPECTS.items() if name in needs)
        weight_covered = sum(a.weight for name, a in ASPECTS.items() if name in covered)
        coverage = weight_covered / weight_total
    else:
        coverage = 1.0

    flaws = _flaws_in(stream)
    if "logic_trap" in missed:
        flaws += _TRAP_FLAWS

    overlap = _overlap(prompt, words)
    n_tokens = len(normalized.split())

    score = (
        _BASE_SCORE
        + _COVERAGE_WEIGHT * coverage
        - _FLAW_PENALTY * flaws
        - _SPURIOUS_PENALTY * len(spurious)
        - _INTENT_PENALTY * (1.0 - overlap)
    )
    score = min(max(score, 0.0), _MAX_SCORE)
    return QualityAssessment(
        score=score,
        coverage=coverage,
        covered_needs=frozenset(covered),
        missed_needs=frozenset(missed),
        spurious_aspects=frozenset(spurious),
        flaw_count=flaws,
        intent_overlap=overlap,
        response_tokens=n_tokens,
    )
