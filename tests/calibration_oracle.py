"""Capability-profile estimation from observed behaviour, kept as an oracle.

Given only black-box access to an engine (prompt in, text out),
:func:`estimate_profile` estimates the behavioural parameters its profile
was built from.  ``tests/test_llm_calibration.py`` recovers the known
profiles from behaviour alone, which certifies that the simulated engine
exhibits the parameters it claims.

Estimation is method-of-moments over annotated probe prompts:

* ``cue_sensitivity`` — fraction of cue-visible needs the engine covers
  unprompted;
* ``instruction_following`` — fraction of supplied directives (for aspects
  with no cue in the prompt) that show up in the response;
* ``error_rate`` — flaw sentences per elaboration opportunity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.golden import render_complement
from repro.llm.engine import SimulatedLLM
from repro.world.aspects import aspect_names, find_markers
from repro.world.prompts import PromptFactory
from repro.world.quality import count_flaws


@dataclass(frozen=True)
class ProfileEstimate:
    """Estimated behavioural parameters with probe counts."""

    cue_sensitivity: float
    instruction_following: float
    error_rate: float
    n_probes: int

    def close_to(self, profile, tolerance: float = 0.12) -> bool:
        """Whether the estimate matches a profile within tolerance."""
        return (
            abs(self.cue_sensitivity - profile.cue_sensitivity) <= tolerance
            and abs(self.instruction_following - profile.instruction_following)
            <= tolerance
            and abs(self.error_rate - profile.error_rate) <= tolerance
        )


def estimate_profile(
    engine: SimulatedLLM, n_probes: int = 120, seed: int = 202
) -> ProfileEstimate:
    """Estimate an engine's capability parameters from probe responses."""
    if n_probes < 10:
        raise ValueError(f"need at least 10 probes, got {n_probes}")
    factory = PromptFactory(rng=np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)

    cue_seen = cue_total = 0
    followed = directed = 0
    flaws = opportunities = 0

    for _ in range(n_probes):
        prompt = factory.make_prompt(cue_rate=1.0, misleading_cue_rate=0.0)

        # Unprompted coverage of visible needs → cue sensitivity.
        plain = engine.respond(prompt.text)
        markers = find_markers(plain)
        cue_seen += len(markers & prompt.needs)
        cue_total += len(prompt.needs)

        # Directive for an aspect the prompt does not cue → pure
        # instruction following (coverage can't come from inference).
        uncued = [a for a in aspect_names() if a not in prompt.needs]
        probe_aspect = str(uncued[int(rng.integers(len(uncued)))])
        supplement = render_complement({probe_aspect}, salt="calib")
        guided = engine.respond(prompt.text, supplement=supplement)
        followed += probe_aspect in find_markers(guided)
        directed += 1

        # Flaw rate per elaboration opportunity.  Elaborations are the
        # sentences that are neither intro/closing nor aspect sections.
        n_sentences = plain.count(".") + plain.count("!") + plain.count("?")
        n_sections = len(markers)
        n_elab = max(n_sentences - n_sections - 2, 1)
        flaws += count_flaws(plain)
        opportunities += n_elab

    return ProfileEstimate(
        cue_sensitivity=cue_seen / max(cue_total, 1),
        instruction_following=followed / max(directed, 1),
        error_rate=flaws / max(opportunities, 1),
        n_probes=n_probes,
    )
