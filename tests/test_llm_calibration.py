"""Tests for black-box profile estimation."""

import pytest

from repro.llm.engine import SimulatedLLM
from repro.llm.profiles import CapabilityProfile, get_profile
from tests.calibration_oracle import estimate_profile


class TestEstimateProfile:
    def test_probe_count_validated(self):
        with pytest.raises(ValueError):
            estimate_profile(SimulatedLLM("gpt-4-0613"), n_probes=3)

    @pytest.mark.parametrize(
        "model", ["gpt-4-turbo-2024-04-09", "gpt-4-0613", "gpt-3.5-turbo-1106"]
    )
    def test_recovers_known_profiles(self, model):
        engine = SimulatedLLM(model)
        estimate = estimate_profile(engine, n_probes=150)
        profile = get_profile(model)
        assert estimate.close_to(profile, tolerance=0.15), (estimate, profile)

    def test_orders_models_correctly(self):
        strong = estimate_profile(SimulatedLLM("gpt-4-turbo-2024-04-09"), n_probes=100)
        weak = estimate_profile(SimulatedLLM("gpt-3.5-turbo-1106"), n_probes=100)
        assert strong.cue_sensitivity > weak.cue_sensitivity
        assert strong.instruction_following > weak.instruction_following
        assert strong.error_rate < weak.error_rate

    def test_extreme_profile_recovered(self):
        perfect = CapabilityProfile("probe-perfect", 1.0, 1.0, 0.0, 1.0)
        estimate = estimate_profile(SimulatedLLM(perfect), n_probes=60)
        assert estimate.cue_sensitivity > 0.9
        assert estimate.instruction_following > 0.9
        assert estimate.error_rate < 0.05

    def test_deterministic(self):
        engine = SimulatedLLM("gpt-4-0613")
        assert estimate_profile(engine, n_probes=40) == estimate_profile(engine, n_probes=40)
