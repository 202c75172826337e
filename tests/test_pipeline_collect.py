"""Tests for the Figure-3a collection pipeline."""

import pytest

from repro.errors import ConfigError
from repro.pipeline.collect import CollectionConfig, PromptCollector
from repro.world.categories import category_names


@pytest.fixture(scope="module")
def collected(small_corpus):
    return PromptCollector(seed=5).collect(list(small_corpus))


class TestCollectionConfig:
    @pytest.mark.parametrize("kwargs", [
        {"dedup_threshold": 0.0},
        {"dedup_threshold": 1.5},
        {"quality_threshold": -0.1},
        {"target_size": 0},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            CollectionConfig(**kwargs).validate()

    @pytest.mark.parametrize("field", ["dedup_neighbors", "keep_per_group"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_dedup_counts_must_be_positive(self, field, value):
        with pytest.raises(ConfigError, match=field):
            CollectionConfig(**{field: value}).validate()
        with pytest.raises(ConfigError, match=field):
            PromptCollector(config=CollectionConfig(**{field: value}))


class TestCollect:
    def test_empty_corpus(self):
        result = PromptCollector().collect([])
        assert result.n_input == 0
        assert result.selected == []

    def test_stage_counts_monotone(self, collected):
        assert collected.n_input >= collected.n_after_dedup
        assert collected.n_after_dedup >= collected.n_after_quality
        assert collected.n_after_quality >= collected.n_final

    def test_dedup_removes_duplicates(self, collected, small_corpus):
        n_dups = sum(1 for p in small_corpus if p.dup_of is not None)
        assert collected.stats["removed_by_dedup"] >= n_dups * 0.6

    def test_quality_filter_removes_junk(self, collected):
        assert collected.junk_leak_rate < 0.02

    def test_predicted_categories_valid(self, collected):
        valid = set(category_names())
        assert all(s.predicted_category in valid for s in collected.selected)

    def test_category_prediction_mostly_correct(self, collected):
        hits = sum(
            1
            for s in collected.selected
            if s.predicted_category == s.prompt.category
        )
        assert hits / len(collected.selected) > 0.65

    def test_quality_scores_recorded(self, collected):
        assert all(0.0 <= s.quality <= 1.0 for s in collected.selected)

    def test_skip_flags(self, small_corpus):
        config = CollectionConfig(skip_dedup=True, skip_quality_filter=True)
        result = PromptCollector(config=config, seed=5).collect(list(small_corpus))
        assert result.n_after_dedup == result.n_input
        assert result.n_after_quality == result.n_after_dedup

    def test_target_size_caps_output(self, small_corpus):
        config = CollectionConfig(target_size=30)
        result = PromptCollector(config=config, seed=5).collect(list(small_corpus))
        assert result.n_final == 30

    def test_deterministic(self, small_corpus):
        a = PromptCollector(seed=5).collect(list(small_corpus))
        b = PromptCollector(seed=5).collect(list(small_corpus))
        assert [s.prompt.uid for s in a.selected] == [s.prompt.uid for s in b.selected]
