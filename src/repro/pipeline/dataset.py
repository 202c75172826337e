"""The prompt-complementary dataset container (paper §3.3, Figure 6)."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.utils.io import dump_jsonl, load_jsonl
from repro.utils.serialize import Record
from repro.world.aspects import parse_directives

__all__ = ["PromptPair", "PromptPairDataset"]


@dataclass(frozen=True)
class PromptPair(Record):
    """One (prompt, complementary prompt) training pair.

    ``true_needs`` / ``true_category`` carry the generator's ground truth
    for *evaluation only* — training consumers read just the two texts and
    the predicted category, like the paper's SFT stage would.
    """

    prompt_uid: int
    prompt_text: str
    complement_text: str
    category: str
    true_category: str
    true_needs: frozenset[str]
    regeneration_rounds: int = 0

    @property
    def complement_aspects(self) -> frozenset[str]:
        return frozenset(parse_directives(self.complement_text))

    @property
    def label_jaccard(self) -> float:
        """Overlap between the complement's aspects and the true needs."""
        union = self.complement_aspects | self.true_needs
        if not union:
            return 1.0
        return len(self.complement_aspects & self.true_needs) / len(union)


@dataclass
class PromptPairDataset(Record):
    """An ordered collection of pairs plus provenance stats."""

    pairs: list[PromptPair] = field(default_factory=list)
    curated: bool = True
    n_dropped: int = 0

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def category_distribution(self) -> Counter[str]:
        """Pairs per (predicted) category — the Figure 6 histogram."""
        return Counter(p.category for p in self.pairs)

    def mean_label_quality(self) -> float:
        """Average label Jaccard — what curation is supposed to raise."""
        if not self.pairs:
            return 0.0
        return sum(p.label_jaccard for p in self.pairs) / len(self.pairs)

    def training_texts(self) -> list[tuple[str, str]]:
        """(prompt, complement) text pairs — the SFT trainer's view."""
        return [(p.prompt_text, p.complement_text) for p in self.pairs]

    def split(self, train_fraction: float = 0.9) -> tuple["PromptPairDataset", "PromptPairDataset"]:
        """Deterministic prefix/suffix split (the corpus is pre-shuffled)."""
        if not 0.0 < train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
        cut = int(len(self.pairs) * train_fraction)
        return (
            PromptPairDataset(self.pairs[:cut], self.curated, self.n_dropped),
            PromptPairDataset(self.pairs[cut:], self.curated, 0),
        )

    def save(self, path: str | Path) -> int:
        return dump_jsonl(self.pairs, path)

    @classmethod
    def load(cls, path: str | Path, curated: bool = True) -> "PromptPairDataset":
        pairs = [PromptPair.from_dict(rec) for rec in load_jsonl(path)]
        return cls(pairs=pairs, curated=curated)
