"""Response text rendering for the simulated LLM engine.

A response is composed of:

* an intro sentence that echoes the prompt's topic words (this is what the
  oracle's intent check keys on);
* one section sentence per aspect the engine decided to address — each
  section embeds one of that aspect's *marker phrases*;
* elaboration sentences, some of which may be flawed (they then embed a
  flaw-marker phrase from :data:`repro.world.quality.FLAW_MARKERS`);
* a closing sentence.

The renderer is purely deterministic given its RNG.
"""

from __future__ import annotations

import numpy as np

from repro.utils import textproc
from repro.world.quality import FLAW_MARKERS

__all__ = [
    "RESPONSE_SECTIONS",
    "extract_topic_words",
    "render_response",
]

# One or two section templates per aspect; every template contains a marker
# phrase from repro.world.aspects.ASPECTS[name].marker_phrases verbatim.
RESPONSE_SECTIONS: dict[str, tuple[str, ...]] = {
    "step_by_step": (
        "Let us go step by step: begin with the setup, then proceed through each stage in order.",
        "As a first step, establish the groundwork; each later stage builds on the one before.",
    ),
    "logic_trap": (
        "Careful reading matters here: the trap here is a hidden assumption the wording invites.",
        "Reasoning carefully, we should test the hidden assumption before accepting the obvious reading.",
    ),
    "depth": (
        "Looking at the underlying mechanism, several influencing factors interact to produce the outcome.",
        "A detailed analysis shows how each influencing factor contributes in depth.",
    ),
    "structure": (
        "The answer is organized into sections with clear headings and a logical flow.",
        "Each part below follows a logical flow from premises to conclusion.",
    ),
    "examples": (
        "For example, consider a small concrete case that exhibits the same behaviour.",
        "As an example, a worked example with real numbers makes the pattern visible.",
    ),
    "audience": (
        "In plain terms, and without jargon, the core idea is simpler than it first appears.",
        "For a beginner, it helps to start from the everyday intuition.",
    ),
    "format": (
        "The output below follows the requested format exactly, with no stray prose.",
        "Here is the formatted output, matching the exact format that was asked for.",
    ),
    "constraints": (
        "Everything below stays within the stated limits, respecting the constraint throughout.",
        "As required, no requirement has been relaxed or added.",
    ),
    "context": (
        "In this context, the usual generic advice does not directly apply, so the answer adapts to it.",
        "Given the setting described, the recommendation changes under these conditions.",
    ),
    "edge_cases": (
        "One edge case deserves attention: the empty or degenerate input is a classic failure mode.",
        "A boundary condition worth handling explicitly is the smallest valid input.",
    ),
    "style": (
        "Keeping the requested tone, the wording below stays consistent from start to finish.",
        "The answer is written in the requested style throughout.",
    ),
    "brevity": (
        "In short, the essential point fits in a sentence.",
        "The short answer comes first; details follow only where they earn their place.",
    ),
    "comparison": (
        "Compared with the alternative, the pros and cons fall on different dimensions.",
        "On balance, weighing the options against explicit criteria favours one side.",
    ),
    "verification": (
        "To be precise, each claim below has been verified against what can actually be supported.",
        "With appropriate caution, uncertain claims are flagged rather than asserted.",
    ),
}

# Neutral filler that carries no aspect markers and no flaw markers.
_ELABORATION_BANK: tuple[str, ...] = (
    "This rests on principles that have been studied extensively.",
    "Practitioners usually weigh effort against expected benefit here.",
    "The same idea recurs across many related settings.",
    "Small adjustments to the inputs change the outcome only gradually.",
    "There are several reasonable ways to proceed from this point.",
    "Experience suggests starting simple and refining as needed.",
    "The key quantities interact, so it pays to track them together.",
    "A measured approach avoids most of the common pitfalls.",
)

_INTRO_TEMPLATES: tuple[str, ...] = (
    "Here is a considered answer about {topic}.",
    "Let me address {topic} directly.",
    "Regarding {topic}, here is what matters.",
)

_CLOSING_TEMPLATES: tuple[str, ...] = (
    "Taken together, this should resolve the question.",
    "That covers the substance of the matter.",
    "This gives a solid basis for the next decision.",
)

# The confidently-wrong conclusion a model emits when it misses a logic trap.
_TRAP_BLUNDER = "The naive answer is clearly right, so no further checks are needed."

_STOPWORDS = frozenset(
    "the a an and or of in on for to with about into under is are does do how what "
    "why which can could would should me my i you your it its this that these those "
    "as at by from given versus there here when where then than them they some any "
    "please answer question tell give make keep after will each much very".split()
)


def extract_topic_words(prompt_text: str, limit: int = 6) -> list[str]:
    """Content words the engine treats as the prompt's topic.

    This mirrors what an attentive responder does: echo the question's
    subject matter.  If a rewriting baseline hands the engine a prompt that
    lost the original topic words, the echo drifts with it — which is
    exactly the intent-preservation failure the oracle penalises.
    """
    toks = textproc.words(prompt_text)
    content = [t for t in toks if len(t) > 3 and t not in _STOPWORDS]
    seen: list[str] = []
    for tok in content:
        if len(seen) >= limit:
            break
        if tok not in seen:
            seen.append(tok)
    return seen


def _pick(rng: np.random.Generator, bank: tuple[str, ...]) -> str:
    """One uniform draw from ``bank``.

    Consumes the same generator output as ``rng.choice(bank)`` (which draws
    ``rng.integers(len(bank))``), without converting the tuple to an array.
    """
    return bank[int(rng.integers(len(bank)))]


def render_response(
    prompt_text: str,
    covered_aspects: set[str],
    n_elaborations: int,
    flawed_slots: set[int],
    missed_trap: bool,
    rng: np.random.Generator,
) -> str:
    """Compose the full response text.

    Parameters
    ----------
    prompt_text:
        The (possibly rewritten) user prompt the engine is answering.
    covered_aspects:
        Aspects the engine decided to address; each yields one section.
    n_elaborations:
        Number of filler sentences to emit.
    flawed_slots:
        Indices in ``range(n_elaborations)`` whose sentence is an overreach.
    missed_trap:
        True when the prompt carried a logic-trap cue the engine did not
        pick up — it then blunders confidently.
    """
    topic_words = extract_topic_words(prompt_text)
    topic = " ".join(topic_words[:3]) if topic_words else "the question"
    parts: list[str] = []
    intro = _pick(rng, _INTRO_TEMPLATES).format(topic=topic)
    if len(topic_words) > 3:
        intro += " It touches on " + " and ".join(topic_words[3:5]) + "."
    parts.append(intro)

    for aspect in sorted(covered_aspects):
        parts.append(_pick(rng, RESPONSE_SECTIONS[aspect]))

    for slot in range(max(0, n_elaborations)):
        if slot in flawed_slots:
            parts.append("Note that " + _pick(rng, FLAW_MARKERS) + " in this situation.")
        else:
            parts.append(_pick(rng, _ELABORATION_BANK))

    if missed_trap:
        parts.append(_TRAP_BLUNDER)

    parts.append(_pick(rng, _CLOSING_TEMPLATES))
    return " ".join(parts)
