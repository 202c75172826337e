"""Training-subset selection strategies (paper §2.3, "Data Selection").

The paper's related work surveys several LLM-era selection recipes; PAS uses
quality-threshold + dedup, but a budgeted deployment must pick *which* k
collected prompts get complementary pairs.  This module implements the
survey's main strategies behind one interface so they can be ablated:

* :class:`RandomSelection` — the control arm.
* :class:`TopQualitySelection` — keep the k highest-scored prompts
  (Alpagasus-style, Chen et al.).
* :class:`ModsSelection` — quality-filter then k-center-greedy for
  diversity (MoDS-style, Du et al.).
* :class:`TagDiversitySelection` — greedy coverage over cue "tags"
  (InsTag-style, Lu et al.): prefer prompts whose visible aspects are
  under-represented in the running selection.

All strategies are deterministic given their seed and return indices into
the input list, ordered by pick.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter

import numpy as np

from repro.cluster.kcenter import k_center_greedy
from repro.embedding.model import EmbeddingModel
from repro.pipeline.collect import SelectedPrompt
from repro.world.aspects import find_cues

__all__ = [
    "SelectionStrategy",
    "RandomSelection",
    "TopQualitySelection",
    "ModsSelection",
    "TagDiversitySelection",
    "apply_strategy",
]


class SelectionStrategy(ABC):
    """Pick ``k`` of the collected prompts for pair generation."""

    name: str = "abstract"

    @abstractmethod
    def select(self, items: list[SelectedPrompt], k: int) -> list[int]:
        """Return up to ``k`` indices into ``items`` (pick order)."""

    def _validate(self, items: list[SelectedPrompt], k: int) -> int:
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        return min(k, len(items))


class RandomSelection(SelectionStrategy):
    """Uniform random subset — the ablation control."""

    name = "random"

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def select(self, items: list[SelectedPrompt], k: int) -> list[int]:
        k = self._validate(items, k)
        rng = np.random.default_rng(self.seed)
        return list(rng.permutation(len(items))[:k])


class TopQualitySelection(SelectionStrategy):
    """Highest quality scores first (Alpagasus-style)."""

    name = "top-quality"

    def select(self, items: list[SelectedPrompt], k: int) -> list[int]:
        k = self._validate(items, k)
        order = sorted(range(len(items)), key=lambda i: (-items[i].quality, i))
        return order[:k]


class ModsSelection(SelectionStrategy):
    """Quality pre-filter, then k-center-greedy diversity (MoDS-style).

    Parameters
    ----------
    quality_fraction:
        Fraction of the pool (by quality rank) eligible for the diversity
        stage; MoDS first drops the low-quality tail.
    """

    name = "mods"

    def __init__(self, quality_fraction: float = 0.7, embedder: EmbeddingModel | None = None):
        if not 0.0 < quality_fraction <= 1.0:
            raise ValueError(f"quality_fraction must be in (0, 1], got {quality_fraction}")
        self.quality_fraction = quality_fraction
        self.embedder = embedder or EmbeddingModel()

    def select(self, items: list[SelectedPrompt], k: int) -> list[int]:
        k = self._validate(items, k)
        if k == 0:
            return []
        by_quality = sorted(range(len(items)), key=lambda i: (-items[i].quality, i))
        pool = by_quality[: max(int(len(items) * self.quality_fraction), k)]
        embeddings = self.embedder.embed_batch([items[i].prompt.text for i in pool])
        picked = k_center_greedy(embeddings, k)
        return [pool[i] for i in picked]


class TagDiversitySelection(SelectionStrategy):
    """Greedy coverage of cue tags (InsTag-style).

    Each prompt's "tags" are the aspects visibly cued in its text plus its
    predicted category.  At every step the strategy picks the prompt whose
    tags are currently rarest in the running selection — maximising tag
    coverage per example, which is InsTag's diversity objective.
    """

    name = "tag-diversity"

    def select(self, items: list[SelectedPrompt], k: int) -> list[int]:
        k = self._validate(items, k)
        if k == 0:
            return []
        # Sorted, so each rarity sum below adds in the same order in every
        # process (a set of strings iterates in string-hash order).
        tags = [
            sorted(find_cues(item.prompt.text).keys() | {f"cat:{item.predicted_category}"})
            for item in items
        ]
        counts: Counter[str] = Counter()
        chosen: list[int] = []
        remaining = set(range(len(items)))
        while len(chosen) < k and remaining:
            # Rarity score: sum over tags of 1 / (1 + seen count); higher
            # means the prompt contributes more unseen structure.
            best = min(
                remaining,
                key=lambda i: (-sum(1.0 / (1 + counts[t]) for t in tags[i]), i),
            )
            chosen.append(best)
            remaining.discard(best)
            counts.update(tags[best])
        return chosen


def apply_strategy(
    strategy: SelectionStrategy, items: list[SelectedPrompt], k: int
) -> list[SelectedPrompt]:
    """Convenience: return the selected items themselves, in pick order."""
    return [items[i] for i in strategy.select(items, k)]
