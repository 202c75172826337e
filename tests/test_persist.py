"""Tests for saving/loading trained artifacts."""

import numpy as np
import pytest

from repro.core.pas import PasModel
from repro.errors import NotFittedError, ReproError
from repro.llm.persist import load_predictor, save_predictor
from repro.llm.profiles import CapabilityProfile
from repro.llm.sft import SftConfig, SftDirectivePredictor
from repro.world.prompts import PromptFactory


class TestPredictorRoundtrip:
    def test_unfitted_save_rejected(self, tmp_path):
        with pytest.raises(NotFittedError):
            save_predictor(SftDirectivePredictor(), tmp_path / "m")

    def test_roundtrip_predictions_identical(self, trained_pas, tmp_path, factory):
        path = save_predictor(trained_pas.predictor, tmp_path / "predictor")
        loaded = load_predictor(path)
        for _ in range(20):
            prompt = factory.make_prompt()
            assert loaded.predict_aspects(prompt.text) == trained_pas.predictor.predict_aspects(prompt.text)

    def test_npz_suffix_appended(self, trained_pas, tmp_path):
        path = save_predictor(trained_pas.predictor, tmp_path / "model")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_custom_profile_survives(self, tmp_path):
        profile = CapabilityProfile("custom-base", 0.7, 0.9, 0.05, 1.2)
        predictor = SftDirectivePredictor(
            base_model=profile, config=SftConfig(k_neighbors=3), seed=5
        ).fit([("please explain it in detail", "Provide a detailed analysis covering underlying mechanisms and influencing factors.")])
        loaded = load_predictor(save_predictor(predictor, tmp_path / "c"))
        assert loaded.base_profile == profile
        assert loaded.config.k_neighbors == 3
        assert loaded.seed == 5

    def test_bad_format_version_rejected(self, trained_pas, tmp_path):
        import json

        path = save_predictor(trained_pas.predictor, tmp_path / "v")
        with np.load(path, allow_pickle=False) as archive:
            meta = json.loads(str(archive["meta"]))
            labels = archive["labels"]
            matrix = archive["matrix"]
        meta["format_version"] = 99
        np.savez(path, matrix=matrix, labels=labels, meta=np.array(json.dumps(meta)))
        with pytest.raises(ReproError):
            load_predictor(path)

    def test_tampered_embedder_orders_rejected(self, trained_pas, tmp_path):
        import json

        path = save_predictor(trained_pas.predictor, tmp_path / "t")
        with np.load(path, allow_pickle=False) as archive:
            meta = json.loads(str(archive["meta"]))
            labels = archive["labels"]
            matrix = archive["matrix"]
        meta["embedder"]["char_orders"] = [0]
        np.savez(path, matrix=matrix, labels=labels, meta=np.array(json.dumps(meta)))
        with pytest.raises(ValueError, match="n-gram orders"):
            load_predictor(path)


class TestPasModelRoundtrip:
    def test_untrained_save_rejected(self, tmp_path):
        with pytest.raises(NotFittedError):
            PasModel().save(tmp_path / "pas")

    def test_roundtrip_augment_identical(self, trained_pas, tmp_path):
        path = trained_pas.save(tmp_path / "pas-model")
        loaded = PasModel.load(path)
        assert loaded.is_trained
        assert loaded.n_training_pairs == trained_pas.n_training_pairs
        factory = PromptFactory(rng=np.random.default_rng(3))
        for _ in range(15):
            prompt = factory.make_prompt()
            assert loaded.augment(prompt.text) == trained_pas.augment(prompt.text)

    def test_loaded_model_base_name(self, trained_pas, tmp_path):
        loaded = PasModel.load(trained_pas.save(tmp_path / "m2"))
        assert loaded.base_model_name == trained_pas.base_model_name
