"""Tests for the PromptPairDataset container."""

from pathlib import Path

import pytest

from repro.pipeline.dataset import PromptPair, PromptPairDataset
from repro.world.aspects import render_directive


def _pair(uid=1, aspects=("depth",), needs=("depth",), category="analysis"):
    complement = " ".join(render_directive(a) for a in aspects)
    return PromptPair(
        prompt_uid=uid,
        prompt_text=f"analyze thing number {uid} in detail",
        complement_text=complement,
        category=category,
        true_category=category,
        true_needs=frozenset(needs),
    )


class TestPromptPair:
    def test_complement_aspects_parsed(self):
        assert _pair(aspects=("depth", "examples")).complement_aspects == {
            "depth",
            "examples",
        }

    def test_label_jaccard_perfect(self):
        assert _pair(aspects=("depth",), needs=("depth",)).label_jaccard == 1.0

    def test_label_jaccard_partial(self):
        pair = _pair(aspects=("depth", "format"), needs=("depth", "examples"))
        assert pair.label_jaccard == pytest.approx(1 / 3)

    def test_label_jaccard_empty_both(self):
        pair = PromptPair(1, "x", "", "chitchat", "chitchat", frozenset())
        assert pair.label_jaccard == 1.0


class TestDataset:
    def test_len_and_iter(self):
        ds = PromptPairDataset([_pair(1), _pair(2)])
        assert len(ds) == 2
        assert len(list(ds)) == 2

    def test_category_distribution(self):
        ds = PromptPairDataset([_pair(1, category="coding"), _pair(2, category="coding"), _pair(3)])
        dist = ds.category_distribution()
        assert dist["coding"] == 2
        assert dist["analysis"] == 1

    def test_mean_label_quality(self):
        ds = PromptPairDataset([
            _pair(aspects=("depth",), needs=("depth",)),
            _pair(aspects=("format",), needs=("depth",)),
        ])
        assert ds.mean_label_quality() == pytest.approx(0.5)

    def test_mean_label_quality_empty(self):
        assert PromptPairDataset([]).mean_label_quality() == 0.0

    def test_training_texts(self):
        ds = PromptPairDataset([_pair(7)])
        texts = ds.training_texts()
        assert texts[0][0].startswith("analyze thing number 7")

    def test_split(self):
        ds = PromptPairDataset([_pair(i) for i in range(10)])
        train, test = ds.split(0.8)
        assert len(train) == 8
        assert len(test) == 2

    def test_split_invalid_fraction(self):
        with pytest.raises(ValueError):
            PromptPairDataset([_pair(1)]).split(1.0)

    def test_save_load_roundtrip(self, tmp_path):
        ds = PromptPairDataset([_pair(i) for i in range(5)], curated=True, n_dropped=2)
        path = tmp_path / "pairs.jsonl"
        assert ds.save(path) == 5
        loaded = PromptPairDataset.load(path)
        assert len(loaded) == 5
        assert loaded.pairs[0].prompt_text == ds.pairs[0].prompt_text
        assert loaded.pairs[0].true_needs == ds.pairs[0].true_needs

    def test_committed_pairs_load_and_resave_byte_identically(self, tmp_path):
        committed = Path(__file__).resolve().parents[1] / "data" / "pas_pairs.jsonl"
        loaded = PromptPairDataset.load(committed)
        assert len(loaded) == 815
        assert loaded.save(tmp_path / "pairs.jsonl") == 815
        assert (tmp_path / "pairs.jsonl").read_bytes() == committed.read_bytes()


class TestSerialization:
    """as_dict()/from_dict() parity with ServeResponse/GatewayStats."""

    def test_pair_round_trip(self):
        pair = _pair(3, aspects=("depth", "examples"), needs=("depth", "brevity"))
        assert PromptPair.from_dict(pair.as_dict()) == pair

    def test_pair_dict_is_stable_and_sorted(self):
        data = _pair(needs=("format", "brevity", "depth")).as_dict()
        assert data["true_needs"] == sorted(data["true_needs"])

    def test_dataset_round_trip(self):
        ds = PromptPairDataset([_pair(i) for i in range(4)], curated=False, n_dropped=3)
        restored = PromptPairDataset.from_dict(ds.as_dict())
        assert restored.pairs == ds.pairs
        assert restored.curated == ds.curated
        assert restored.n_dropped == ds.n_dropped

    def test_dataset_round_trip_through_utils_io(self, tmp_path):
        from repro.utils.io import dump_jsonl, load_jsonl

        ds = PromptPairDataset([_pair(i) for i in range(4)], n_dropped=1)
        path = tmp_path / "dataset.jsonl"
        dump_jsonl([ds.as_dict()], path)
        restored = PromptPairDataset.from_dict(next(load_jsonl(path)))
        assert restored.pairs == ds.pairs
        assert restored.n_dropped == ds.n_dropped

    def test_collection_result_round_trip_through_utils_io(self, tmp_path, small_corpus):
        from repro.pipeline.collect import CollectionResult, PromptCollector
        from repro.utils.io import dump_jsonl, load_jsonl

        result = PromptCollector(seed=4).collect(list(small_corpus)[:60])
        path = tmp_path / "collection.jsonl"
        dump_jsonl([result.as_dict()], path)
        restored = CollectionResult.from_dict(next(load_jsonl(path)))
        assert restored == result
        assert isinstance(restored.stats["dedup_removed_uids"], set)


class TestPipelineProducedDataset(object):
    """Checks on a dataset built by the real pipeline (session fixture)."""

    def test_nonempty(self, tiny_dataset):
        assert len(tiny_dataset) > 50

    def test_label_quality_above_chance(self, tiny_dataset):
        assert tiny_dataset.mean_label_quality() > 0.5

    def test_covers_most_categories(self, tiny_dataset):
        assert len(tiny_dataset.category_distribution()) >= 10

    def test_curated_flag(self, tiny_dataset, tiny_raw_dataset):
        assert tiny_dataset.curated
        assert not tiny_raw_dataset.curated

    def test_curation_beats_raw(self, tiny_dataset, tiny_raw_dataset):
        assert tiny_dataset.mean_label_quality() > tiny_raw_dataset.mean_label_quality()
