"""Complementary-prompt generation (paper §3.2, Figure 3b, Algorithm 1).

Two phases, exactly as Algorithm 1 lays out:

* ``FewShotGenerate`` — a teacher LLM, conditioned on the golden exemplars
  of the prompt's (predicted) category, drafts a complementary prompt.  The
  teacher is imperfect: it misses weakly-cued needs, sometimes appends a
  spurious directive, and occasionally commits the classic APE sin of
  *answering* the prompt instead of supplementing it.
* ``IsCorrectPair`` — a critic LLM applies the five error criteria of the
  paper's Figure 5 (intent conflict, superfluous additions, direct
  answering, excessive demands, emptiness).  Failing pairs are regenerated
  with a fresh salt until they pass or the round cap is reached.

The verbatim prompt templates from Figures 4 and 5 are kept as module
constants both for documentation fidelity and because the tests assert the
critic implements each listed criterion.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.golden import MAX_DIRECTIVES, GoldenData, build_golden_data, render_complement
from repro.errors import ConfigError
from repro.llm.engine import SimulatedLLM
from repro.pipeline.collect import SelectedPrompt
from repro.pipeline.dataset import PromptPair, PromptPairDataset
from repro.utils import textproc
from repro.utils.rng import stable_hash
from repro.utils.serialize import Record
from repro.world.aspects import ASPECTS, aspect_names, parse_directives
from repro.world.categories import CATEGORIES

__all__ = [
    "FEW_SHOT_GENERATION_PROMPT",
    "SELECTION_CRITIC_PROMPT",
    "GenerationConfig",
    "FewShotGenerator",
    "CritiqueResult",
    "PairCritic",
    "PairGenerator",
]

# --------------------------------------------------------------------- #
# The paper's prompt templates (Figures 4 and 5), kept verbatim in spirit.
# --------------------------------------------------------------------- #

FEW_SHOT_GENERATION_PROMPT = """\
## Background
You are a master of complementary prompts, skilled only in enhancing user
prompts and unable to respond to them.
Please note:
1. You can only supplement the user prompt, you cannot directly answer it.
2. The complementary information should enhance understanding of the user
   prompt, but cannot extend it.
3. If the user prompt is within a specific writing context, supplement the
   stylistic constraints of that context.
4. The user prompt and the complementary information should be coherent.
5. Supplement the user prompt to cater to human preferences.
Focus on methodology, not specific details; keep it within 30 words.
## Examples
{examples}
## Task
<Prompt>: {prompt}
<Complementary information>:"""

SELECTION_CRITIC_PROMPT = """\
## Background
As an expert in prompt engineering, diagnose whether the automatic prompt
(APE) is a valid supplement to the user input (Prompt).
The criteria for an incorrect APE are:
1. APE deviates from the true intention of the Prompt or conflicts with it.
2. APE provides too many superfluous additions to a complex Prompt.
3. APE directly answers the Prompt instead of supplementing it.
4. APE makes excessive demands on the Prompt.
5. The APE is empty or degenerate.
## Output format
{{ "Reason": str, "Is_correct": "Yes"|"No", "FinalAPE": str }}
## Task
<Prompt>: {prompt}
<APE>: {ape}
<Output>:"""

# Aspect pairs that contradict each other when one is an explicit cue of
# the prompt and the other is demanded by the APE (criterion 1).
_CONFLICTS: tuple[tuple[str, str], ...] = (
    ("brevity", "depth"),
    ("depth", "brevity"),
)

def _pet_aspect(category: str) -> str:
    """The aspect a noisy teacher habitually over-recommends per category."""
    names = aspect_names()
    return names[stable_hash(f"pet␞{category}") % len(names)]


# What a teacher that "directly answers" emits instead of a supplement.
_DIRECT_ANSWER_TEXT = (
    "Here is a considered answer about the question. The short answer is that "
    "it depends on the details, and on balance the first option is preferable."
)


@dataclass(frozen=True)
class GenerationConfig(Record):
    """Noise and loop parameters for Algorithm 1."""

    spurious_rate: float = 0.38
    pet_bias: float = 0.75
    drop_rate: float = 0.12
    direct_answer_rate: float = 0.12
    max_rounds: int = 4
    curate: bool = True

    def validate(self) -> None:
        for name in ("spurious_rate", "pet_bias", "drop_rate", "direct_answer_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if self.max_rounds < 0:
            raise ConfigError(f"max_rounds must be >= 0, got {self.max_rounds}")


class FewShotGenerator:
    """``FewShotGenerate`` of Algorithm 1 — the noisy teacher."""

    def __init__(
        self,
        teacher: SimulatedLLM,
        golden: GoldenData,
        config: GenerationConfig,
    ):
        self.teacher = teacher
        self.golden = golden
        self.config = config

    def render_few_shot_prompt(self, prompt_text: str, category: str) -> str:
        """The exact Figure-4 prompt string sent to the teacher."""
        exemplars = self.golden.exemplars(category)
        examples = "\n".join(
            f"<Prompt>: {g.prompt.text}\n<Complementary information>: {g.complement}"
            for g in exemplars
        )
        return FEW_SHOT_GENERATION_PROMPT.format(examples=examples, prompt=prompt_text)

    def generate(self, prompt_text: str, category: str, salt: int = 0) -> str:
        """Draft one complementary prompt for ``prompt_text``.

        The teacher reads the prompt's cues through its own capability,
        drops/adds aspects at the configured noise rates, and occasionally
        answers directly — every failure mode the critic screens for.
        """
        rng_key = stable_hash(f"fewshot␞{self.teacher.name}␞{prompt_text}␞{salt}")
        rng = self.teacher.call_rng("fewshot", prompt_text, str(salt))

        if rng.random() < self.config.direct_answer_rate:
            return _DIRECT_ANSWER_TEXT

        aspects = set(self.teacher.infer_needs(prompt_text))
        # Category prior from the golden exemplars: if the teacher saw no
        # cue at all, it leans on the few-shot examples' modal aspect.
        if not aspects and category in CATEGORIES:
            prior = CATEGORIES[category].aspect_prior
            aspects.add(max(prior, key=prior.get))

        dropped = {a for a in sorted(aspects) if rng.random() < self.config.drop_rate}
        aspects -= dropped
        if rng.random() < self.config.spurious_rate:
            # Teacher noise is *systematic*, not white: for each category the
            # teacher has a pet directive it habitually tacks on (an LLM
            # style quirk).  Systematic noise survives k-NN averaging
            # downstream, which is what makes curation worth doing.
            if rng.random() < self.config.pet_bias:
                aspects.add(_pet_aspect(category))
            else:
                pool = [a for a in aspect_names() if a not in aspects]
                aspects.add(str(pool[int(rng.integers(len(pool)))]))

        if not aspects:
            prior = CATEGORIES.get(category)
            fallback = (
                max(prior.aspect_prior, key=prior.aspect_prior.get)
                if prior
                else "depth"
            )
            aspects.add(fallback)
        return render_complement(aspects, salt=str(rng_key))


@dataclass(frozen=True)
class CritiqueResult:
    """The critic's verdict, mirroring Figure 5's JSON output."""

    is_correct: bool
    reason: str


class PairCritic:
    """``IsCorrectPair`` of Algorithm 1 — the Figure-5 critic."""

    def __init__(self, critic: SimulatedLLM, max_ape_words: int = 45):
        self.critic = critic
        self.max_ape_words = max_ape_words

    def critique(self, prompt_text: str, ape_text: str) -> CritiqueResult:
        """Apply the five Figure-5 criteria.

        The critic perceives the prompt through its own cue sensitivity, so
        it is imperfect in both directions — the reason curated data is
        *better* but not perfect, which Table 5 depends on.
        """
        ape_aspects = parse_directives(ape_text)

        # Criterion 5: empty or degenerate supplement.
        if not ape_text.strip():
            return CritiqueResult(False, "empty APE")
        # Criterion 3: the APE answers instead of supplementing (it reads
        # like a response: no recognisable directive, substantial length).
        if not ape_aspects:
            return CritiqueResult(False, "APE answers the prompt instead of supplementing it")
        # Criterion 4: excessive demands.
        if len(ape_aspects) > MAX_DIRECTIVES:
            return CritiqueResult(False, "APE makes excessive demands")
        if len(textproc.words(ape_text)) > self.max_ape_words:
            return CritiqueResult(False, "APE is too long to be a supplement")

        perceived_needs = self.critic.infer_needs(prompt_text)
        # Criterion 1: conflict with the prompt's visible intention.
        for cued, demanded in _CONFLICTS:
            if cued in perceived_needs and demanded in ape_aspects:
                return CritiqueResult(
                    False, f"APE demands {demanded} but the prompt asks for {cued}"
                )
        # Criterion 2: superfluous additions beyond the visible needs.  Any
        # directive the critic cannot ground in the prompt counts — this is
        # the criterion that catches the teacher's systematic pet aspects.
        superfluous = ape_aspects - perceived_needs
        if superfluous:
            return CritiqueResult(
                False, f"APE adds superfluous directives: {sorted(superfluous)}"
            )
        return CritiqueResult(True, "valid supplement")


class PairGenerator:
    """Algorithm 1 end to end: generate, critique, regenerate.

    Configure with a :class:`GenerationConfig` — or pass a whole
    :class:`~repro.pipeline.config.PipelineConfig`, whose ``generation``
    section is used.  Those are the only construction paths.
    """

    def __init__(
        self,
        teacher: SimulatedLLM | None = None,
        critic: SimulatedLLM | None = None,
        golden: GoldenData | None = None,
        config=None,
    ):
        if config is not None and hasattr(config, "generation"):
            config = config.generation
        self.config = config or GenerationConfig()
        self.config.validate()
        self.teacher = teacher or SimulatedLLM("teacher-gpt-4")
        self.critic_model = critic or SimulatedLLM("teacher-gpt-4", seed=1)
        self.golden = golden or build_golden_data()
        self.generator = FewShotGenerator(self.teacher, self.golden, self.config)
        self.critic = PairCritic(self.critic_model)

    def build_pair(
        self,
        selected: SelectedPrompt,
        critique: Callable[[str, str], CritiqueResult] | None = None,
    ) -> PromptPair | None:
        """Run the generate/critique/regenerate loop for one prompt.

        Returns ``None`` when curation is on and no draft passed within
        ``max_rounds`` regenerations (Algorithm 1 loops forever; a cap plus
        drop keeps the pipeline total and is recorded in the dataset stats).

        ``critique`` overrides the critic call (default:
        ``self.critic.critique``) — the pipeline runner injects a
        fault-aware wrapper here so a grader outage can skip the pair
        without changing the loop itself.
        """
        check = critique if critique is not None else self.critic.critique
        prompt = selected.prompt
        category = selected.predicted_category
        draft = self.generator.generate(prompt.text, category, salt=0)
        rounds = 0
        if self.config.curate:
            verdict = check(prompt.text, draft)
            while not verdict.is_correct and rounds < self.config.max_rounds:
                rounds += 1
                draft = self.generator.generate(prompt.text, category, salt=rounds)
                verdict = check(prompt.text, draft)
            if not verdict.is_correct:
                return None
        return PromptPair(
            prompt_uid=prompt.uid,
            prompt_text=prompt.text,
            complement_text=draft,
            category=category,
            true_category=prompt.category,
            true_needs=frozenset(prompt.needs),
            regeneration_rounds=rounds,
        )

    def build_dataset(self, selected: list[SelectedPrompt]) -> PromptPairDataset:
        """Build the full complementary dataset from collected prompts."""
        pairs = []
        dropped = 0
        for item in selected:
            pair = self.build_pair(item)
            if pair is None:
                dropped += 1
            else:
                pairs.append(pair)
        return PromptPairDataset(
            pairs=pairs,
            curated=self.config.curate,
            n_dropped=dropped,
        )
