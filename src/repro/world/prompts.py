"""Synthetic prompt corpus generator (LMSYS-1M / WildChat surrogate).

Every prompt is born with ground truth attached: its category, its latent
aspect *needs*, and its topic words.  The surface text expresses needs
through cue phrases — usually, but not always (``cue_rate``), and
occasionally misleadingly (``misleading_cue_rate``) — so downstream
components that only see text face a realistic inference problem.

The corpus builder additionally injects exact duplicates, near-duplicates,
and junk, which is precisely the dirt the paper's collection pipeline
(§3.1) exists to remove.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import ConfigError
from repro.utils.serialize import Record
from repro.world.aspects import ASPECTS, find_cues
from repro.world.categories import CATEGORIES, Category, category_names

__all__ = ["SyntheticPrompt", "CorpusConfig", "PromptFactory", "CUE_SENTENCES"]

# Carrier sentences embedding one cue phrase per aspect; appended to prompt
# text when a sampled need is not already cued by the template itself.
CUE_SENTENCES: dict[str, tuple[str, ...]] = {
    "step_by_step": (
        "Please walk me through it.",
        "Show me how to approach this.",
    ),
    "logic_trap": (
        "It sounds like a tricky question.",
        "Think carefully before you answer.",
    ),
    "depth": (
        "Please explain it in detail.",
        "I want a comprehensive treatment.",
    ),
    "structure": (
        "Make it well organized.",
        "I would like it easy to follow.",
    ),
    "examples": (
        "Please show an example too.",
        "Illustrate it with examples, such as what a practitioner would use.",
    ),
    "audience": (
        "Keep it suitable for beginners.",
        "I am new to this area.",
    ),
    "format": (
        "Return it as json.",
        "Put the result in a table.",
    ),
    "constraints": (
        "Use at most a handful of items.",
        "Do it without using external tools.",
    ),
    "context": (
        "Answer in the context of my situation.",
        "Remember this is a historical setting.",
    ),
    "edge_cases": (
        "Mention what if the input is empty.",
        "I care about corner cases.",
    ),
    "style": (
        "Keep a formal tone.",
        "Use a friendly voice.",
    ),
    "brevity": (
        "Answer briefly.",
        "Be concise.",
    ),
    "comparison": (
        "Weigh the pros and cons.",
        "Tell me which is better.",
    ),
    "verification": (
        "Please double check the facts.",
        "Make sure it is accurate.",
    ),
}

_JUNK_TEXTS: tuple[str, ...] = (
    "hi",
    "test test test",
    "asdf qwer zxcv",
    "?????",
    "lorem ipsum dolor sit amet amet amet",
    "aaaaaa bbbbb cccc",
    "ok",
    "hello hello hello hello",
)

_DETAILS: tuple[str, ...] = (
    "a tight deadline",
    "limited memory",
    "a noisy environment",
    "beginner users",
    "a legacy system",
    "strict regulations",
    "a small budget",
    "high traffic",
    "an offline setting",
    "a mixed audience",
    "unreliable data",
    "a mobile device",
)



@dataclass(frozen=True)
class SyntheticPrompt(Record):
    """A user prompt with its ground-truth annotations.

    Downstream *systems* (PAS, baselines, simulated LLMs) may only read
    ``text``; the annotations exist for corpus construction and for the
    quality oracle / evaluation layer, mirroring how a human study designer
    knows what a test prompt demands.
    """

    uid: int
    text: str
    category: str
    needs: frozenset[str]
    topic: str
    is_junk: bool = False
    dup_of: int | None = None
    hard: bool = False

    @property
    def topic_words(self) -> frozenset[str]:
        return frozenset(w for w in self.topic.lower().split() if len(w) > 3)


@dataclass(frozen=True)
class CorpusConfig:
    """Knobs for the raw corpus (pre-pipeline) composition."""

    n_prompts: int = 2000
    junk_rate: float = 0.08
    exact_duplicate_rate: float = 0.08
    near_duplicate_rate: float = 0.08
    cue_rate: float = 0.85
    misleading_cue_rate: float = 0.04
    max_needs: int = 4

    def validate(self) -> None:
        rates = (
            self.junk_rate,
            self.exact_duplicate_rate,
            self.near_duplicate_rate,
            self.cue_rate,
            self.misleading_cue_rate,
        )
        if any(not 0.0 <= r <= 1.0 for r in rates):
            raise ConfigError(f"all rates must be within [0, 1]: {self}")
        if self.junk_rate + self.exact_duplicate_rate + self.near_duplicate_rate > 0.9:
            raise ConfigError("dirt rates leave too little clean data")
        if self.n_prompts < 0:
            raise ConfigError(f"n_prompts must be non-negative, got {self.n_prompts}")
        if self.max_needs < 1:
            raise ConfigError(f"max_needs must be >= 1, got {self.max_needs}")


@dataclass
class PromptFactory:
    """Deterministic generator of synthetic prompts and corpora."""

    rng: np.random.Generator
    _next_uid: int = field(default=0, init=False)

    def _fresh_uid(self) -> int:
        uid = self._next_uid
        self._next_uid += 1
        return uid

    def _sample_needs(self, category: Category, max_needs: int, hard: bool) -> set[str]:
        needs = {
            aspect
            for aspect, prior in category.aspect_prior.items()
            if self.rng.random() < prior
        }
        if hard:
            hard_pool = [
                a
                for a in ("logic_trap", "constraints", "edge_cases")
                if a in category.aspect_prior or a in ("logic_trap", "constraints")
            ]
            needs.add(str(self.rng.choice(hard_pool)))
            while len(needs) < 2:
                needs.add(str(self.rng.choice(list(category.aspect_prior))))
        if not needs:
            # Guarantee at least one need: take the category's modal aspect.
            needs.add(max(category.aspect_prior, key=category.aspect_prior.get))
        while len(needs) > max_needs:
            needs.discard(str(self.rng.choice(sorted(needs))))
        return needs

    def _render_text(
        self,
        category: Category,
        needs: set[str],
        cue_rate: float,
        misleading_cue_rate: float,
    ) -> tuple[str, str]:
        template = str(self.rng.choice(category.templates))
        topic = str(self.rng.choice(category.topics))
        detail = str(self.rng.choice(_DETAILS))
        text = template.format(topic=topic, detail=detail)

        already_cued = set(find_cues(text))
        for need in sorted(needs):
            if need in already_cued:
                continue
            if self.rng.random() < cue_rate:
                bank = CUE_SENTENCES[need]
                text += " " + str(bank[int(self.rng.integers(len(bank)))])
        if self.rng.random() < misleading_cue_rate:
            decoys = [a for a in ASPECTS if a not in needs]
            decoy = str(self.rng.choice(decoys))
            bank = CUE_SENTENCES[decoy]
            text += " " + str(bank[int(self.rng.integers(len(bank)))])
        return text, topic

    def make_prompt(
        self,
        category: str | None = None,
        hard: bool = False,
        cue_rate: float = 0.85,
        misleading_cue_rate: float = 0.04,
        max_needs: int = 4,
    ) -> SyntheticPrompt:
        """Generate one clean prompt, optionally from a fixed category."""
        if category is None:
            names = category_names()
            shares = np.array([CATEGORIES[n].share for n in names], dtype=float)
            category = str(self.rng.choice(names, p=shares / shares.sum()))
        if category not in CATEGORIES:
            raise ConfigError(f"unknown category {category!r}")
        cat = CATEGORIES[category]
        needs = self._sample_needs(cat, max_needs, hard)
        text, topic = self._render_text(cat, needs, cue_rate, misleading_cue_rate)
        return SyntheticPrompt(
            uid=self._fresh_uid(),
            text=text,
            category=category,
            needs=frozenset(needs),
            topic=topic,
            hard=hard,
        )

    def make_junk(self) -> SyntheticPrompt:
        """Generate one junk prompt (what the quality filter must remove)."""
        text = str(self.rng.choice(_JUNK_TEXTS))
        return SyntheticPrompt(
            uid=self._fresh_uid(),
            text=text,
            category=str(self.rng.choice(category_names())),
            needs=frozenset(),
            topic="",
            is_junk=True,
        )

    def make_near_duplicate(
        self, base: SyntheticPrompt, synonym_rate: float = 0.6
    ) -> SyntheticPrompt:
        """Paraphrase a prompt's surface while keeping meaning and needs."""
        from repro.world.paraphrase import paraphrase

        text = paraphrase(base.text, self.rng, synonym_rate=synonym_rate)
        return replace(base, uid=self._fresh_uid(), text=text, dup_of=base.uid)

    def make_exact_duplicate(self, base: SyntheticPrompt) -> SyntheticPrompt:
        return replace(base, uid=self._fresh_uid(), dup_of=base.uid)

    def make_corpus(self, config: CorpusConfig) -> list[SyntheticPrompt]:
        """Build a raw corpus: clean prompts + duplicates + junk, shuffled."""
        config.validate()
        n = config.n_prompts
        n_junk = int(round(n * config.junk_rate))
        n_exact = int(round(n * config.exact_duplicate_rate))
        n_near = int(round(n * config.near_duplicate_rate))
        n_clean = max(n - n_junk - n_exact - n_near, 0)

        clean = [
            self.make_prompt(
                cue_rate=config.cue_rate,
                misleading_cue_rate=config.misleading_cue_rate,
                max_needs=config.max_needs,
            )
            for _ in range(n_clean)
        ]
        corpus: list[SyntheticPrompt] = list(clean)
        if clean:
            for _ in range(n_exact):
                base = clean[int(self.rng.integers(len(clean)))]
                corpus.append(self.make_exact_duplicate(base))
            for _ in range(n_near):
                base = clean[int(self.rng.integers(len(clean)))]
                corpus.append(self.make_near_duplicate(base))
        corpus.extend(self.make_junk() for _ in range(n_junk))
        order = self.rng.permutation(len(corpus))
        return [corpus[i] for i in order]
