"""The simulated LLM engine.

``SimulatedLLM`` is the single stand-in for every model the paper calls via
GPU inference or paid APIs.  All behaviour is driven by the model's
:class:`~repro.llm.profiles.CapabilityProfile` and a per-call deterministic
RNG derived from the model name and the exact input text, so identical calls
always produce identical outputs ("temperature 0"), while different prompts
decorrelate.

The engine's faculties:

* :meth:`infer_needs` — notice latent-need cues in a prompt (probability
  ``cue_sensitivity`` per cue);
* :meth:`respond` — answer a prompt, optionally guided by a complementary
  prompt whose directives it follows with probability
  ``instruction_following``;
* :meth:`grade_prompt_quality` — the 0–10 prompt-quality scoring behaviour
  elicited from BaiChuan 13b in the paper's collection pipeline.
"""

from __future__ import annotations

import numpy as np

from repro.utils import textproc
from repro.utils.rng import stable_hash
from repro.llm.generation import render_response
from repro.llm.profiles import CapabilityProfile, get_profile
from repro.world.aspects import find_cues, parse_directives

__all__ = ["SimulatedLLM"]


class SimulatedLLM:
    """One simulated model instance.

    Parameters
    ----------
    model:
        A registry name (see :mod:`repro.llm.profiles`) or an explicit
        :class:`CapabilityProfile` for custom models.
    seed:
        Session-level salt: two engines with different seeds behave like
        separately sampled deployments of the same model family.
    """

    def __init__(self, model: str | CapabilityProfile, seed: int = 0):
        if isinstance(model, CapabilityProfile):
            self.profile = model
        else:
            self.profile = get_profile(model)
        self.seed = int(seed)

    @property
    def name(self) -> str:
        return self.profile.name

    def call_rng(self, purpose: str, *texts: str) -> np.random.Generator:
        """Deterministic RNG for one faculty invocation.

        Public so wrappers (e.g. :class:`~repro.llm.api.ChatClient`) can
        derive failure/noise streams that are reproducible per
        ``(model, seed, purpose, texts)`` without sharing generator state.
        """
        material = "␞".join((self.name, str(self.seed), purpose, *texts))
        return np.random.default_rng(stable_hash(material))

    # ------------------------------------------------------------------ #
    # faculties
    # ------------------------------------------------------------------ #

    def infer_needs(self, prompt_text: str) -> set[str]:
        """Latent needs the model notices in the prompt on its own.

        Each cue present in the text is detected independently with
        probability ``cue_sensitivity``.
        """
        return self._notice(prompt_text, find_cues(prompt_text))

    def _notice(self, prompt_text: str, cues: dict[str, str]) -> set[str]:
        """Which of the prompt's cue hits this model notices.

        ``cues`` is ``find_cues(prompt_text)``: :meth:`respond` passes the
        scan it already made instead of scanning the prompt twice.
        """
        rng = self.call_rng("infer", prompt_text)
        return {
            aspect
            for aspect in sorted(cues)
            if rng.random() < self.profile.cue_sensitivity
        }

    def respond(self, prompt_text: str, supplement: str | None = None) -> str:
        """Answer ``prompt_text``; ``supplement`` is a complementary prompt.

        The engine unions the needs it inferred itself with the directives
        it chose to follow, renders one section per covered aspect, and adds
        profile-dependent elaboration with a profile-dependent flaw rate.
        A followed ``verification`` directive roughly halves the flaw rate —
        the textual analogue of "be careful" actually making models careful.
        """
        rng = self.call_rng("respond", prompt_text, supplement or "")
        p = self.profile

        cues = find_cues(prompt_text)
        inferred = self._notice(prompt_text, cues)
        # Directives reach the engine either as a supplement (complement-style
        # APE) or embedded in the prompt text itself (rewrite-style APE);
        # an instruction-following model honours both.
        directives = parse_directives(supplement) | parse_directives(prompt_text)
        followed = {a for a in sorted(directives) if rng.random() < p.instruction_following}
        covered = inferred | followed

        missed_trap = "logic_trap" in cues and "logic_trap" not in covered

        if "brevity" in covered:
            n_elab = 1 + int(rng.integers(0, 2))
        else:
            n_elab = 4 + int(round(p.verbosity * 2)) + int(rng.integers(0, 2))
            if "depth" in covered:
                n_elab += 2

        # Explicit guidance makes models more careful: every followed
        # directive trims the overreach rate, and a followed *verification*
        # directive cuts it hardest.
        error_rate = p.error_rate * (0.45 if "verification" in covered else 1.0)
        error_rate *= 0.82 ** min(len(followed), 3)
        # Low-variance flaw draw: expectation equals error_rate * n_elab, but
        # the integer part is deterministic, so individual responses track
        # the model's carefulness instead of coin-flip luck.
        expected_flaws = error_rate * n_elab
        n_flaws = int(expected_flaws) + int(rng.random() < expected_flaws % 1.0)
        n_flaws = min(n_flaws, n_elab)
        flawed_slots = set(rng.choice(n_elab, size=n_flaws, replace=False)) if n_flaws else set()

        return render_response(
            prompt_text=prompt_text,
            covered_aspects=covered,
            n_elaborations=n_elab,
            flawed_slots=flawed_slots,
            missed_trap=missed_trap,
            rng=rng,
        )

    def grade_prompt_quality(self, prompt_text: str) -> float:
        """Score prompt quality on 0–10 (the BaiChuan-grader behaviour).

        The grade rewards substance (enough distinct content words, a
        recognisable request) and punishes degenerate inputs, with mild
        model-dependent noise.  Junk prompts from the synthetic corpus land
        well below 5; real prompts land well above.
        """
        toks = textproc.words(prompt_text)
        if not toks:
            return 0.0
        unique_ratio = len(set(toks)) / len(toks)
        substance = min(len(set(toks)) / 8.0, 1.0)
        has_request = any(
            w in toks
            for w in (
                "how",
                "what",
                "why",
                "which",
                "explain",
                "write",
                "translate",
                "summarize",
                "compare",
                "solve",
                "give",
                "recommend",
                "analyze",
                "extract",
                "draft",
                "act",
                "tell",
                "is",
                "does",
                "can",
                "list",
                "compute",
                "show",
                "help",
                "chat",
                "pull",
                "assess",
                "brainstorm",
                "compose",
                "pretend",
                "condense",
                "fact",
                "my",
                "here",
                "in",
                "provide",
            )
        )
        score = 10.0 * (0.45 * substance + 0.35 * unique_ratio + 0.2 * float(has_request))
        noise = float(self.call_rng("grade", prompt_text).normal(0.0, 0.4))
        penalty = 0.0 if len(toks) >= 5 else 3.0
        return float(np.clip(score + noise - penalty, 0.0, 10.0))

    def grade_prompt_quality_batch(self, prompt_texts: list[str]) -> list[float]:
        """Grade many prompts; bit-identical to the scalar loop.

        Each grade's noise draw is keyed on the prompt text alone (never on
        batch position or shared RNG state), so
        ``grade_prompt_quality_batch(ts) == [grade_prompt_quality(t) for t
        in ts]`` holds exactly — the contract every batched path in the
        repo carries.
        """
        return [self.grade_prompt_quality(text) for text in prompt_texts]
