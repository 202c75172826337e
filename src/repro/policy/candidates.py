"""Candidate complement generation: k strategy variants per prompt.

PAS proper emits exactly one complement per prompt (§3.4).  The policy
layer turns that single answer into a *candidate set* the bandit can
choose from, without ever re-training anything — every variant is a
different deterministic rendering of the same predicted aspect set:

* ``static`` — the PAS answer itself, bit-identical to
  :meth:`~repro.core.pas.PasModel.augment` (same salt, same ranking, same
  cap), so choosing it reproduces today's behaviour exactly;
* ``salted`` — the same aspects rendered through
  :func:`~repro.core.golden.render_complement` with a perturbed salt, so
  each aspect picks a *different directive template variant* (same
  guidance, different phrasing — the knob the paper's Figure 4 wording
  diversity suggests);
* ``subset`` — the lowest-weight rendered aspect is dropped, a hedge for
  prompts whose predicted aspects include a spurious one (misleading
  cues make the predictor over-trigger; a shorter complement can win);
* ``none`` — the no-augment control: the empty complement, i.e. serve
  the raw prompt.  PAS never degrading a prompt is an *assumption* the
  bandit gets to test per category.

Serving renders one candidate per request:
:meth:`~repro.policy.policy.AugmentationPolicy.complement_for` renders
only the selected strategy, from its memoised aspect prediction.
:meth:`CandidateGenerator.generate` renders all k for one prompt from one
``predict_aspects`` call.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.golden import MAX_DIRECTIVES, render_complement
from repro.errors import ConfigError
from repro.world.aspects import ASPECTS

__all__ = ["STRATEGIES", "Candidate", "CandidateSet", "CandidateGenerator"]

#: The strategy vocabulary, in canonical (bandit-arm) order.
STRATEGIES = ("static", "salted", "subset", "none")


@dataclass(frozen=True, slots=True)
class Candidate:
    """One complement variant: the strategy that produced it, and the text."""

    strategy: str
    complement: str


@dataclass(frozen=True)
class CandidateSet:
    """All candidate complements for one prompt, in strategy order."""

    prompt: str
    candidates: tuple[Candidate, ...]

    def complement_for(self, strategy: str) -> str:
        for candidate in self.candidates:
            if candidate.strategy == strategy:
                return candidate.complement
        raise KeyError(f"no candidate for strategy {strategy!r}")

    @property
    def strategies(self) -> tuple[str, ...]:
        return tuple(candidate.strategy for candidate in self.candidates)

    def __len__(self) -> int:
        return len(self.candidates)


def _ranked(aspects: set[str]) -> list[str]:
    """Aspects in render order (highest weight first, capped like PAS)."""
    return sorted(aspects, key=lambda a: (-ASPECTS[a].weight, a))[:MAX_DIRECTIVES]


class CandidateGenerator:
    """Render k complement variants per prompt from one aspect prediction.

    ``salt`` perturbs the ``salted`` strategy's template draw; two
    generators with different salts produce different phrasings, same
    aspects.  The ``static`` candidate is pinned bit-identical to
    ``pas.augment(prompt)`` (the parity test holds the pin), so a policy
    that always picks ``static`` *is* the unpoliced gateway.
    """

    def __init__(self, pas, strategies: Sequence[str] = STRATEGIES, salt: int = 1):
        strategies = tuple(strategies)
        if not strategies:
            raise ConfigError("candidate generator needs at least one strategy")
        unknown = [s for s in strategies if s not in STRATEGIES]
        if unknown:
            raise ConfigError(
                f"unknown strategies {unknown}; expected a subset of {STRATEGIES}"
            )
        if len(set(strategies)) != len(strategies):
            raise ConfigError(f"duplicate strategies: {sorted(strategies)}")
        self.pas = pas
        self.strategies = strategies
        self.salt = int(salt)

    # ------------------------------------------------------------------ #
    # rendering (pure)
    # ------------------------------------------------------------------ #

    def _render(self, strategy: str, prompt_text: str, aspects: set[str]) -> str:
        if strategy == "none" or not aspects:
            return ""
        base = self.pas.base_model_name
        if strategy == "static":
            # The exact PasModel._render salt: byte-identical to augment().
            return render_complement(aspects, salt=f"pas␞{base}␞{prompt_text}")
        if strategy == "salted":
            return render_complement(
                aspects, salt=f"pas-v{self.salt}␞{base}␞{prompt_text}"
            )
        if strategy == "subset":
            keep = _ranked(aspects)[:-1]
            if not keep:
                return ""
            return render_complement(set(keep), salt=f"pas␞{base}␞{prompt_text}")
        raise ConfigError(f"unknown strategy {strategy!r}")

    def variants_from_aspects(self, prompt_text: str, aspects: set[str]) -> CandidateSet:
        """Candidate set from an aspect prediction already in hand."""
        return CandidateSet(
            prompt=prompt_text,
            candidates=tuple(
                Candidate(strategy=s, complement=self._render(s, prompt_text, aspects))
                for s in self.strategies
            ),
        )

    # ------------------------------------------------------------------ #
    # generation (one predictor pass)
    # ------------------------------------------------------------------ #

    def generate(self, prompt_text: str, embed_cache=None) -> CandidateSet:
        """Candidate set for one prompt (one ``predict_aspects`` call)."""
        aspects = self.pas.predictor.predict_aspects(prompt_text, embed_cache=embed_cache)
        return self.variants_from_aspects(prompt_text, aspects)
