"""Tests for the unified PipelineConfig surface and the deprecation shims."""

import json

import pytest

from repro.errors import ConfigError
from repro.pipeline import (
    CollectionConfig,
    GenerationConfig,
    PairGenerator,
    PipelineConfig,
    PromptCollector,
    RunnerConfig,
)
from repro.resilience import FaultPlan, OutageWindow, RetryPolicy


def _full_config():
    return PipelineConfig(
        collection=CollectionConfig(
            dedup_threshold=0.9,
            quality_threshold=0.55,
            target_size=40,
            dedup_shards=4,
        ),
        generation=GenerationConfig(max_rounds=2, curate=False),
        runner=RunnerConfig(
            checkpoint_every=8,
            fault_plan=FaultPlan(
                seed=9,
                completion_failure_rate=0.2,
                latency_spike_rate=0.1,
                latency_spike_ticks=6,
                outages=(OutageWindow(model="teacher-gpt-4", start=5, end=9),),
            ),
            retry_policy=RetryPolicy(max_retries=2, deadline_ticks=40.0, jitter=0.5),
            fail_after_stage="classify",
            fail_after_pairs=3,
        ),
        seed=11,
    )


class TestRoundTrip:
    def test_default_round_trip(self):
        config = PipelineConfig()
        assert PipelineConfig.from_dict(config.as_dict()) == config

    def test_full_round_trip_through_json(self):
        config = _full_config()
        restored = PipelineConfig.from_dict(json.loads(json.dumps(config.as_dict())))
        assert restored == config
        assert restored.runner.fault_plan.outages == config.runner.fault_plan.outages
        assert restored.runner.retry_policy == config.runner.retry_policy

    def test_as_dict_is_json_safe(self):
        json.dumps(_full_config().as_dict())

    def test_section_round_trips(self):
        for section in (CollectionConfig(dedup_shards=2), GenerationConfig(max_rounds=1)):
            assert type(section).from_dict(section.as_dict()) == section

    def test_runner_config_none_fields(self):
        config = RunnerConfig()
        restored = RunnerConfig.from_dict(config.as_dict())
        assert restored == config
        assert restored.fault_plan is None
        assert restored.retry_policy is None


class TestValidation:
    def test_validates_nested_sections(self):
        with pytest.raises(ConfigError):
            PipelineConfig(
                collection=CollectionConfig(dedup_threshold=2.0)
            ).validate()
        with pytest.raises(ConfigError):
            PipelineConfig(generation=GenerationConfig(max_rounds=-1)).validate()

    def test_bad_checkpoint_every(self):
        with pytest.raises(ConfigError):
            PipelineConfig(runner=RunnerConfig(checkpoint_every=0)).validate()

    def test_bad_fail_after_stage(self):
        with pytest.raises(ConfigError):
            PipelineConfig(
                runner=RunnerConfig(fail_after_stage="nonsense")
            ).validate()

    def test_bad_fail_after_pairs(self):
        with pytest.raises(ConfigError):
            PipelineConfig(runner=RunnerConfig(fail_after_pairs=0)).validate()

    def test_bad_dedup_backend(self):
        # The shard count alone picks the dedup index; a config that still
        # names a backend is rejected by its field path, not ignored.
        with pytest.raises(
            TypeError, match="PipelineConfig.collection: unknown key 'dedup_backend'"
        ):
            PipelineConfig.from_dict({"collection": {"dedup_backend": "sharded"}})

    def test_bad_dedup_shards(self):
        with pytest.raises(ConfigError):
            CollectionConfig(dedup_shards=0).validate()


class TestRemovedFlatKwargs:
    def test_collector_flat_kwargs_raise_naming_field(self):
        with pytest.raises(TypeError, match="quality_threshold"):
            PromptCollector(quality_threshold=0.5, skip_dedup=True)

    def test_collector_flat_kwargs_error_points_at_config(self):
        with pytest.raises(TypeError, match="quality_threshold"):
            PromptCollector(config=CollectionConfig(), quality_threshold=0.4)

    def test_collector_unknown_kwarg_raises(self):
        with pytest.raises(TypeError, match="nonsense"):
            PromptCollector(nonsense=1)

    def test_collector_accepts_pipeline_config(self):
        config = PipelineConfig(
            collection=CollectionConfig(quality_threshold=0.5), seed=9
        )
        collector = PromptCollector(config=config)
        assert collector.config == config.collection
        assert collector.seed == 9

    def test_collector_explicit_seed_beats_pipeline_seed(self):
        collector = PromptCollector(config=PipelineConfig(seed=9), seed=2)
        assert collector.seed == 2

    def test_generator_flat_kwargs_raise_naming_field(self):
        with pytest.raises(TypeError, match="max_rounds"):
            PairGenerator(max_rounds=1, curate=False)

    def test_generator_unknown_kwarg_raises(self):
        with pytest.raises(TypeError, match="nonsense"):
            PairGenerator(nonsense=1)

    def test_generator_accepts_pipeline_config(self):
        config = PipelineConfig(generation=GenerationConfig(max_rounds=2))
        generator = PairGenerator(config=config)
        assert generator.config == config.generation

    def test_generator_section_config_is_silent(self, recwarn):
        PairGenerator(config=GenerationConfig(max_rounds=2))
        assert not [w for w in recwarn if w.category is DeprecationWarning]
