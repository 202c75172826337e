"""The four-pass quality oracle, kept here as the reference.

:func:`~repro.world.quality.assess_response` normalises and tokenises a
response once and reads markers, flaws, intent overlap and the token count
off that one pass.  :func:`reference_assess_response` is the form it
replaced: each of the four readings normalises the raw text again, through
:func:`~repro.world.aspects.find_markers` and its own copies of the old
``count_flaws`` and ``intent_overlap`` bodies.  The two must return equal
:class:`~repro.world.quality.QualityAssessment` objects for every text.
"""

from __future__ import annotations

from repro.utils import textproc
from repro.world.aspects import ASPECTS, find_markers
from repro.world.prompts import SyntheticPrompt
from repro.world.quality import (
    _BASE_SCORE,
    _COVERAGE_WEIGHT,
    _FLAW_PENALTY,
    _INTENT_PENALTY,
    _MAX_SCORE,
    _SPURIOUS_PENALTY,
    _TRAP_FLAWS,
    FLAW_MARKERS,
    QualityAssessment,
)


def reference_count_flaws(response_text: str) -> int:
    stream = f" {textproc.wordstream(response_text)} "
    return sum(stream.count(f" {marker} ") for marker in FLAW_MARKERS)


def reference_intent_overlap(prompt: SyntheticPrompt, response_text: str) -> float:
    topic_words = prompt.topic_words
    if not topic_words:
        return 1.0
    response_words = set(textproc.words(response_text))
    return len(topic_words & response_words) / len(topic_words)


def reference_assess_response(
    prompt: SyntheticPrompt, response_text: str
) -> QualityAssessment:
    evidenced = find_markers(response_text)
    needs = set(prompt.needs)
    covered = evidenced & needs
    missed = needs - evidenced
    spurious = evidenced - needs

    if needs:
        weight_total = sum(a.weight for name, a in ASPECTS.items() if name in needs)
        weight_covered = sum(a.weight for name, a in ASPECTS.items() if name in covered)
        coverage = weight_covered / weight_total
    else:
        coverage = 1.0

    flaws = reference_count_flaws(response_text)
    if "logic_trap" in missed:
        flaws += _TRAP_FLAWS

    overlap = reference_intent_overlap(prompt, response_text)
    n_tokens = len(textproc.normalize(response_text).split())

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
