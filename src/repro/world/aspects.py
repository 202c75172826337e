"""Taxonomy of latent prompt needs ("aspects").

Each aspect bundles three phrase banks:

* ``cue_phrases`` — surface phrases that *signal* the need inside a user
  prompt.  Simulated LLMs detect cues with model-dependent reliability; the
  PAS model learns them from data.
* ``directive_templates`` — sentences a complementary prompt uses to address
  the need (the paper's Figure 4 asks for methodology-level supplements
  within ~30 words; these follow that register).
* ``marker_phrases`` — phrases whose presence in a *response* evidences that
  the aspect was actually addressed.  The quality oracle and the judges scan
  for them.

The separation keeps text as the only interface between components: prompts,
complementary prompts, and responses are all plain strings, and every
consumer recovers structure by parsing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils import textproc

__all__ = [
    "Aspect",
    "ASPECTS",
    "aspect_names",
    "find_cues",
    "find_markers",
    "parse_directives",
    "render_directive",
]


@dataclass(frozen=True)
class Aspect:
    """One latent need.

    Attributes
    ----------
    name:
        Stable identifier used across the library.
    cue_phrases:
        Lowercase phrases that signal the need in a user prompt.
    directive_templates:
        Complementary-prompt sentences that address the need.
    marker_phrases:
        Response phrases that evidence the aspect was addressed.
    weight:
        Relative contribution to response quality when the need is met.
    """

    name: str
    cue_phrases: tuple[str, ...]
    directive_templates: tuple[str, ...]
    marker_phrases: tuple[str, ...]
    weight: float = 1.0


_ASPECT_LIST: tuple[Aspect, ...] = (
    Aspect(
        name="step_by_step",
        cue_phrases=(
            "how do i",
            "how can i",
            "walk me through",
            "what are the steps",
            "guide me through",
            "show me how",
        ),
        directive_templates=(
            "Please explain the process step by step, covering each stage in order.",
            "Break the task into ordered steps so the procedure is easy to follow.",
            "Lay out the solution as a numbered sequence of steps.",
        ),
        marker_phrases=("step by step", "step 1", "first step", "numbered sequence"),
        weight=1.0,
    ),
    Aspect(
        name="logic_trap",
        cue_phrases=(
            "riddle",
            "tricky question",
            "if there are",
            "how many are left",
            "brain teaser",
            "think carefully before",
        ),
        directive_templates=(
            "Watch out for hidden assumptions or logic traps before answering.",
            "Check whether the question contains a trap; reason about what actually happens.",
            "Re-read the question carefully; it may be designed to mislead.",
        ),
        marker_phrases=(
            "hidden assumption",
            "careful reading",
            "the trap here",
            "reasoning carefully",
        ),
        weight=1.4,
    ),
    Aspect(
        name="depth",
        cue_phrases=(
            "in detail",
            "comprehensive",
            "explain why",
            "thorough",
            "deep dive",
            "underlying mechanism",
        ),
        directive_templates=(
            "Provide a detailed analysis covering underlying mechanisms and influencing factors.",
            "Go beyond the surface answer and explain the reasoning behind it in depth.",
            "Cover the relevant mechanisms, causes, and trade-offs thoroughly.",
        ),
        marker_phrases=(
            "underlying mechanism",
            "in depth",
            "influencing factors",
            "detailed analysis",
        ),
        weight=1.0,
    ),
    Aspect(
        name="structure",
        cue_phrases=(
            "well organized",
            "outline",
            "organize the answer",
            "structured",
            "easy to follow",
        ),
        directive_templates=(
            "Organize the answer with clear headings and a logical flow.",
            "Structure the response so each section addresses one point.",
            "Present the answer in a well-organized layout that is easy to scan.",
        ),
        marker_phrases=("clear headings", "organized into sections", "logical flow"),
        weight=0.9,
    ),
    Aspect(
        name="examples",
        cue_phrases=(
            "for example",
            "with examples",
            "such as what",
            "sample",
            "show an example",
        ),
        directive_templates=(
            "Include concrete examples to illustrate each point.",
            "Support each claim with a worked example.",
            "Add illustrative examples so the idea is tangible.",
        ),
        marker_phrases=("for example", "as an example", "worked example"),
        weight=0.9,
    ),
    Aspect(
        name="audience",
        cue_phrases=(
            "for beginners",
            "i am new to",
            "explain to a child",
            "non technical",
            "like i am five",
        ),
        directive_templates=(
            "Tailor the explanation to the reader's stated background and avoid jargon.",
            "Pitch the answer at the audience's level of expertise.",
            "Keep the explanation accessible to the stated audience.",
        ),
        marker_phrases=("in plain terms", "without jargon", "for a beginner"),
        weight=1.0,
    ),
    Aspect(
        name="format",
        cue_phrases=(
            "as json",
            "in a table",
            "bullet points",
            "as a list",
            "in markdown",
            "output format",
        ),
        directive_templates=(
            "Follow the requested output format exactly, with no extra prose.",
            "Produce the answer in the exact format the user specified.",
            "Match the required output format precisely.",
        ),
        marker_phrases=("requested format", "formatted output", "exact format"),
        weight=1.1,
    ),
    Aspect(
        name="constraints",
        cue_phrases=(
            "at most",
            "must use",
            "without using",
            "no more than",
            "only using",
            "within the limit",
        ),
        directive_templates=(
            "Respect every stated constraint and do not relax any requirement.",
            "Honor all limits the user imposed; do not add or drop requirements.",
            "Keep every constraint from the question intact in the answer.",
        ),
        marker_phrases=("within the stated limits", "respecting the constraint", "as required"),
        weight=1.2,
    ),
    Aspect(
        name="context",
        cue_phrases=(
            "in ancient times",
            "in the context of",
            "given that",
            "in my situation",
            "historical setting",
        ),
        directive_templates=(
            "Ground the answer in the specific context mentioned, not a generic setting.",
            "Account for the stated situation and its practical limitations.",
            "Keep the answer anchored to the context the user described.",
        ),
        marker_phrases=("in this context", "given the setting", "under these conditions"),
        weight=1.0,
    ),
    Aspect(
        name="edge_cases",
        cue_phrases=(
            "what if",
            "corner cases",
            "edge cases",
            "robust to",
            "when it fails",
        ),
        directive_templates=(
            "Discuss edge cases and failure modes explicitly.",
            "Call out where the approach breaks down and how to handle it.",
            "Cover boundary conditions and unusual inputs.",
        ),
        marker_phrases=("edge case", "failure mode", "boundary condition"),
        weight=1.0,
    ),
    Aspect(
        name="style",
        cue_phrases=(
            "formal tone",
            "casual tone",
            "in the style of",
            "professional wording",
            "friendly voice",
        ),
        directive_templates=(
            "Match the stylistic register the user requested throughout.",
            "Keep the writing style consistent with the requested tone.",
            "Adopt the requested voice and maintain it across the answer.",
        ),
        marker_phrases=("keeping the requested tone", "in the requested style"),
        weight=0.8,
    ),
    Aspect(
        name="brevity",
        cue_phrases=(
            "briefly",
            "one sentence",
            "tl dr",
            "short answer",
            "be concise",
            "quick summary",
        ),
        directive_templates=(
            "Keep the answer concise and avoid padding.",
            "Answer briefly; include only what is essential.",
            "Prefer a short, direct answer over an exhaustive one.",
        ),
        marker_phrases=("in short", "concisely", "the short answer"),
        weight=0.8,
    ),
    Aspect(
        name="comparison",
        cue_phrases=(
            "versus",
            "compare",
            "pros and cons",
            "which is better",
            "trade offs",
        ),
        directive_templates=(
            "Compare the alternatives along explicit criteria before concluding.",
            "Weigh the options against each other on the dimensions that matter.",
            "Lay out pros and cons for each alternative side by side.",
        ),
        marker_phrases=("compared with", "pros and cons", "on balance"),
        weight=1.0,
    ),
    Aspect(
        name="verification",
        cue_phrases=(
            "is it true",
            "fact check",
            "accurate",
            "double check",
            "verify that",
        ),
        directive_templates=(
            "Verify claims carefully and avoid overgeneralized statements.",
            "State only what can be supported; flag uncertainty explicitly.",
            "Double-check each factual claim before presenting it.",
        ),
        marker_phrases=("verified", "to be precise", "with appropriate caution"),
        weight=1.2,
    ),
)

ASPECTS: dict[str, Aspect] = {a.name: a for a in _ASPECT_LIST}


def _distinctive_fragment(template: str) -> str:
    """A 4-word normalised fragment identifying a directive template."""
    toks = textproc.words(template)
    return " ".join(toks[:4])


# Match tables, compiled once from the banks above, in registry and bank
# order.  Every phrase is padded with one space each side, so a substring
# test against a padded wordstream matches whole words only; the matchers
# below tokenise only their input.  Cue and marker phrases are padded as
# written, so they must already be in ``textproc.wordstream`` form, or they
# can never match.
_CUE_TABLE: tuple[tuple[str, str, str], ...] = tuple(
    (f" {cue} ", aspect.name, cue) for aspect in _ASPECT_LIST for cue in aspect.cue_phrases
)
_MARKER_TABLE: tuple[tuple[str, str], ...] = tuple(
    (f" {marker} ", aspect.name)
    for aspect in _ASPECT_LIST
    for marker in aspect.marker_phrases
)
_DIRECTIVE_TABLE: tuple[tuple[str, str], ...] = tuple(
    (f" {_distinctive_fragment(template)} ", aspect.name)
    for aspect in _ASPECT_LIST
    for template in aspect.directive_templates
)


def _padded_stream(text: str) -> str:
    return f" {textproc.wordstream(text)} "


def aspect_names() -> list[str]:
    """All aspect names in registry order."""
    return [a.name for a in _ASPECT_LIST]


def find_cues(text: str) -> dict[str, str]:
    """Map each aspect whose cue phrase appears in ``text`` to that phrase.

    Matching is word-based (punctuation- and hyphenation-insensitive); the
    first matching cue per aspect wins.
    """
    stream = _padded_stream(text)
    hits: dict[str, str] = {}
    for padded, name, cue in _CUE_TABLE:
        if padded in stream:
            hits.setdefault(name, cue)
    return hits


def find_markers(text: str) -> set[str]:
    """Aspects evidenced by marker phrases in a response text."""
    return _markers_in(_padded_stream(text))


def _markers_in(padded_stream: str) -> set[str]:
    """:func:`find_markers` over a word stream already padded with one
    space at each end, for callers that tokenise the text once."""
    return {name for padded, name in _MARKER_TABLE if padded in padded_stream}


def parse_directives(text: str | None) -> set[str]:
    """Aspects addressed by directive sentences in a complementary prompt.

    Directive parsing is keyword-based on distinctive fragments of each
    template, so paraphrased directives produced by noisy teachers still
    parse as long as they reuse the canonical phrasing.
    """
    if not text:
        return set()
    stream = _padded_stream(text)
    return {name for padded, name in _DIRECTIVE_TABLE if padded in stream}


def render_directive(aspect_name: str, variant: int = 0) -> str:
    """Render one directive sentence for an aspect (variant wraps around)."""
    aspect = ASPECTS[aspect_name]
    templates = aspect.directive_templates
    return templates[variant % len(templates)]
