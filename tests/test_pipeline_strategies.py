"""Tests for data-selection strategies."""

import numpy as np
import pytest

from repro.pipeline.collect import SelectedPrompt
from repro.pipeline.strategies import (
    ModsSelection,
    RandomSelection,
    TagDiversitySelection,
    TopQualitySelection,
    apply_strategy,
)
from repro.world.prompts import PromptFactory


@pytest.fixture(scope="module")
def pool():
    factory = PromptFactory(rng=np.random.default_rng(50))
    rng = np.random.default_rng(51)
    items = []
    for _ in range(80):
        prompt = factory.make_prompt()
        items.append(
            SelectedPrompt(
                prompt=prompt,
                predicted_category=prompt.category,
                quality=float(rng.uniform(0.5, 1.0)),
            )
        )
    return items


_ALL = [
    RandomSelection(seed=1),
    TopQualitySelection(),
    ModsSelection(),
    TagDiversitySelection(),
]


class TestCommonContract:
    @pytest.mark.parametrize("strategy", _ALL, ids=lambda s: s.name)
    def test_returns_k_unique_valid_indices(self, strategy, pool):
        chosen = strategy.select(pool, 20)
        assert len(chosen) == 20
        assert len(set(chosen)) == 20
        assert all(0 <= i < len(pool) for i in chosen)

    @pytest.mark.parametrize("strategy", _ALL, ids=lambda s: s.name)
    def test_k_zero(self, strategy, pool):
        assert strategy.select(pool, 0) == []

    @pytest.mark.parametrize("strategy", _ALL, ids=lambda s: s.name)
    def test_k_capped_at_pool(self, strategy, pool):
        assert len(strategy.select(pool, 1000)) == len(pool)

    @pytest.mark.parametrize("strategy", _ALL, ids=lambda s: s.name)
    def test_negative_k_rejected(self, strategy, pool):
        with pytest.raises(ValueError):
            strategy.select(pool, -1)

    @pytest.mark.parametrize("strategy", _ALL, ids=lambda s: s.name)
    def test_deterministic(self, strategy, pool):
        assert strategy.select(pool, 15) == strategy.select(pool, 15)


class TestTopQuality:
    def test_picks_highest_scores(self, pool):
        chosen = TopQualitySelection().select(pool, 10)
        picked_min = min(pool[i].quality for i in chosen)
        unpicked_max = max(
            item.quality for i, item in enumerate(pool) if i not in set(chosen)
        )
        assert picked_min >= unpicked_max


class TestMods:
    def test_quality_prefilter_respected(self, pool):
        chosen = ModsSelection(quality_fraction=0.5).select(pool, 10)
        cutoff = sorted((item.quality for item in pool), reverse=True)[
            len(pool) // 2 - 1
        ]
        assert all(pool[i].quality >= cutoff - 1e-9 for i in chosen)

    def test_more_diverse_than_top_quality(self, pool):
        from repro.embedding.model import EmbeddingModel

        embedder = EmbeddingModel()

        def mean_pairwise_sim(indices):
            mat = embedder.embed_batch([pool[i].prompt.text for i in indices])
            unit = mat / np.linalg.norm(mat, axis=1, keepdims=True)
            sims = unit @ unit.T
            n = len(indices)
            return (sims.sum() - n) / (n * (n - 1))

        mods = ModsSelection(quality_fraction=1.0).select(pool, 15)
        top = TopQualitySelection().select(pool, 15)
        assert mean_pairwise_sim(mods) <= mean_pairwise_sim(top) + 0.02

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            ModsSelection(quality_fraction=0.0)


class TestTagDiversity:
    def test_covers_more_categories_than_random(self, pool):
        k = 14
        tag_chosen = TagDiversitySelection().select(pool, k)
        rand_chosen = RandomSelection(seed=3).select(pool, k)
        tag_cats = {pool[i].predicted_category for i in tag_chosen}
        rand_cats = {pool[i].predicted_category for i in rand_chosen}
        assert len(tag_cats) >= len(rand_cats)

    def test_first_pick_has_most_tags(self, pool):
        from repro.world.aspects import find_cues

        chosen = TagDiversitySelection().select(pool, 1)
        n_tags = [len(find_cues(item.prompt.text)) + 1 for item in pool]
        assert n_tags[chosen[0]] == max(n_tags)


class TestApplyStrategy:
    def test_returns_items_in_pick_order(self, pool):
        strategy = TopQualitySelection()
        items = apply_strategy(strategy, pool, 5)
        indices = strategy.select(pool, 5)
        assert items == [pool[i] for i in indices]
