"""Tests for the batched, checkpointed, observable pipeline runner.

``PAS_CHAOS_SEED`` offsets the chaos seeds (the CI pipeline job runs the
suite under several offsets), so determinism claims are exercised at more
than one fault pattern without changing the tests.
"""

import os

import numpy as np
import pytest

from repro.obs import Observability
from repro.pipeline import (
    CollectionConfig,
    GenerationConfig,
    PairGenerator,
    PipelineConfig,
    PipelineInterrupted,
    PipelineRunner,
    PromptCollector,
    RunnerConfig,
)
from repro.pipeline.generate import CritiqueResult
from repro.resilience import FaultPlan, OutageWindow, RetryPolicy
from repro.world.prompts import CorpusConfig, PromptFactory

CHAOS_OFFSET = int(os.environ.get("PAS_CHAOS_SEED", "0"))

CHAOS_PLAN = FaultPlan(seed=7 + CHAOS_OFFSET, completion_failure_rate=0.35)
CHAOS_RETRY = RetryPolicy(max_retries=1)


@pytest.fixture(scope="module")
def corpus():
    factory = PromptFactory(rng=np.random.default_rng(5))
    return factory.make_corpus(CorpusConfig(n_prompts=120))


def _export(runner, tmp_path, name):
    out = tmp_path / name
    runner.export_obs(out)
    return (out / "events.jsonl").read_bytes(), (out / "traces.jsonl").read_bytes()


def _chaos_config(**runner_kwargs):
    return PipelineConfig(
        runner=RunnerConfig(
            fault_plan=CHAOS_PLAN, retry_policy=CHAOS_RETRY, **runner_kwargs
        )
    )


class TestScalarParity:
    """The runner's batched stages equal the interactive scalar pipeline."""

    def test_matches_collector_and_generator(self, corpus):
        result = PipelineRunner(PipelineConfig()).run(corpus)
        collected = PromptCollector(seed=0).collect(corpus)
        dataset = PairGenerator(config=GenerationConfig()).build_dataset(
            collected.selected
        )
        assert result.collection == collected
        assert result.dataset.pairs == dataset.pairs
        assert result.dataset.n_dropped == dataset.n_dropped
        assert result.dataset.curated == dataset.curated
        assert result.skipped_uids == []

    def test_pipeline_config_drives_both_apis(self, corpus):
        config = PipelineConfig(
            collection=CollectionConfig(quality_threshold=0.5),
            generation=GenerationConfig(max_rounds=2),
            seed=3,
        )
        result = PipelineRunner(config).run(corpus)
        collected = PromptCollector(config=config).collect(corpus)
        dataset = PairGenerator(config=config).build_dataset(collected.selected)
        assert result.collection == collected
        assert result.dataset.pairs == dataset.pairs

    def test_sharded_dedup_identical(self, corpus):
        # Two shards this small answer with exact scans, so the sharded
        # dedup finds the neighbours the monolithic graph finds.
        mono = PipelineRunner(PipelineConfig()).run(corpus)
        sharded = PipelineRunner(
            PipelineConfig(collection=CollectionConfig(dedup_shards=2))
        ).run(corpus)
        assert sharded.collection.selected == mono.collection.selected
        assert sharded.dataset.pairs == mono.dataset.pairs


class TestCheckpointResume:
    def test_fail_after_each_stage_then_resume_bit_identical(self, corpus, tmp_path):
        obs = Observability.enabled(trace_capacity=512)
        baseline_runner = PipelineRunner(_chaos_config(), obs=obs)
        baseline = baseline_runner.run(corpus)
        base_events, base_traces = _export(baseline_runner, tmp_path, "base")
        base_metrics = obs.metrics.as_dict()

        for stage in PipelineRunner.STAGES:
            ckpt = tmp_path / f"ckpt_{stage}"
            with pytest.raises(PipelineInterrupted):
                PipelineRunner(
                    _chaos_config(fail_after_stage=stage), checkpoint_dir=ckpt
                ).run(corpus)
            resume_obs = Observability.enabled(trace_capacity=512)
            resumer = PipelineRunner(
                _chaos_config(), checkpoint_dir=ckpt, obs=resume_obs
            )
            resumed = resumer.run(corpus)
            events, traces = _export(resumer, tmp_path, f"resume_{stage}")
            assert stage in resumed.resumed_stages
            assert resumed.dataset.pairs == baseline.dataset.pairs
            assert resumed.collection == baseline.collection
            assert resumed.skipped_uids == baseline.skipped_uids
            assert events == base_events
            assert traces == base_traces
            assert resume_obs.metrics.as_dict() == base_metrics

    def test_kill_mid_generate_resumes_bit_identical(self, corpus, tmp_path):
        obs = Observability.enabled(trace_capacity=512)
        baseline_runner = PipelineRunner(_chaos_config(), obs=obs)
        baseline = baseline_runner.run(corpus)
        base_events, base_traces = _export(baseline_runner, tmp_path, "b")

        ckpt = tmp_path / "ckpt_mid"
        with pytest.raises(PipelineInterrupted):
            PipelineRunner(
                _chaos_config(fail_after_pairs=10, checkpoint_every=4),
                checkpoint_dir=ckpt,
            ).run(corpus)
        assert (ckpt / "generate.partial.json").exists()

        resume_obs = Observability.enabled(trace_capacity=512)
        resumer = PipelineRunner(
            _chaos_config(checkpoint_every=4), checkpoint_dir=ckpt, obs=resume_obs
        )
        resumed = resumer.run(corpus)
        events, traces = _export(resumer, tmp_path, "r")
        assert "generate" in resumed.resumed_stages
        assert resumed.dataset.pairs == baseline.dataset.pairs
        assert resumed.skipped_uids == baseline.skipped_uids
        assert events == base_events
        assert traces == base_traces
        # The partial checkpoint is cleaned up once the stage completes.
        assert not (ckpt / "generate.partial.json").exists()

    def test_completed_run_resumes_everything(self, corpus, tmp_path):
        ckpt = tmp_path / "ckpt_full"
        first = PipelineRunner(PipelineConfig(), checkpoint_dir=ckpt).run(corpus)
        second = PipelineRunner(PipelineConfig(), checkpoint_dir=ckpt).run(corpus)
        assert second.resumed_stages == PipelineRunner.STAGES
        assert second.dataset.pairs == first.dataset.pairs

    def test_different_config_ignores_checkpoints(self, corpus, tmp_path):
        ckpt = tmp_path / "ckpt_cfg"
        PipelineRunner(PipelineConfig(), checkpoint_dir=ckpt).run(corpus)
        other = PipelineRunner(
            PipelineConfig(collection=CollectionConfig(quality_threshold=0.5)),
            checkpoint_dir=ckpt,
        ).run(corpus)
        assert other.resumed_stages == ()

    def test_resume_false_reruns_fresh(self, corpus, tmp_path):
        ckpt = tmp_path / "ckpt_fresh"
        first = PipelineRunner(PipelineConfig(), checkpoint_dir=ckpt).run(corpus)
        rerun = PipelineRunner(PipelineConfig(), checkpoint_dir=ckpt).run(
            corpus, resume=False
        )
        assert rerun.resumed_stages == ()
        assert rerun.dataset.pairs == first.dataset.pairs

    def test_in_memory_checkpoints(self, corpus):
        runner = PipelineRunner(PipelineConfig())
        first = runner.run(corpus)
        second = runner.run(corpus)
        assert second.resumed_stages == PipelineRunner.STAGES
        assert second.dataset.pairs == first.dataset.pairs


class TestChaosDegradation:
    def test_chaos_run_is_deterministic(self, corpus):
        a = PipelineRunner(_chaos_config()).run(corpus)
        b = PipelineRunner(_chaos_config()).run(corpus)
        assert a.dataset.pairs == b.dataset.pairs
        assert a.skipped_uids == b.skipped_uids

    def test_skips_and_logs_instead_of_aborting(self, corpus):
        obs = Observability.enabled()
        result = PipelineRunner(_chaos_config(), obs=obs).run(corpus)
        assert result.n_pairs_skipped > 0
        skipped_events = obs.events.by_kind("pipeline.pair_skipped")
        assert {e.attrs["uid"] for e in skipped_events} == set(result.skipped_uids)
        assert obs.metrics.counter("pas_pipeline_pairs_total").value(
            outcome="skipped"
        ) == len(result.skipped_uids)
        assert obs.metrics.counter("pas_faults_total").value(stage="completion") > 0

    def test_critic_outage_skips_every_pair(self, corpus):
        plan = FaultPlan(
            seed=3 + CHAOS_OFFSET,
            outages=(OutageWindow(model="teacher-gpt-4", start=0, end=10**6),),
        )
        obs = Observability.enabled()
        result = PipelineRunner(
            PipelineConfig(
                runner=RunnerConfig(fault_plan=plan, retry_policy=RetryPolicy(max_retries=1))
            ),
            obs=obs,
        ).run(corpus)
        assert len(result.dataset) == 0
        assert result.n_pairs_skipped == result.collection.n_final
        assert obs.metrics.counter("pas_faults_total").value(stage="outage") > 0

    def test_deadline_budget_skips(self, corpus):
        plan = FaultPlan(
            seed=11 + CHAOS_OFFSET,
            completion_failure_rate=0.5,
            latency_spike_rate=0.5,
            latency_spike_ticks=100,
        )
        result = PipelineRunner(
            PipelineConfig(
                runner=RunnerConfig(
                    fault_plan=plan,
                    retry_policy=RetryPolicy(max_retries=3, deadline_ticks=8.0),
                )
            )
        ).run(corpus)
        assert result.n_pairs_skipped > 0

    def test_resume_under_chaos_preserves_fault_stream(self, corpus, tmp_path):
        ckpt = tmp_path / "ckpt_chaos"
        with pytest.raises(PipelineInterrupted):
            PipelineRunner(
                _chaos_config(fail_after_pairs=7, checkpoint_every=3),
                checkpoint_dir=ckpt,
            ).run(corpus)
        resumed = PipelineRunner(_chaos_config(), checkpoint_dir=ckpt).run(corpus)
        baseline = PipelineRunner(_chaos_config()).run(corpus)
        assert resumed.skipped_uids == baseline.skipped_uids
        assert resumed.dataset.pairs == baseline.dataset.pairs


class TestAlgorithmOneEdges:
    def test_critic_never_passes_caps_and_drops(self, corpus):
        """A critic that rejects everything: every pair hits the round cap
        and is dropped with an event — never an infinite loop."""
        max_rounds = 2
        obs = Observability.enabled()
        config = PipelineConfig(generation=GenerationConfig(max_rounds=max_rounds))
        runner = PipelineRunner(config, obs=obs)
        runner.pair_generator.critic.critique = lambda prompt, ape: CritiqueResult(
            False, "always wrong"
        )
        result = runner.run(corpus)
        assert len(result.dataset) == 0
        assert result.dataset.n_dropped == result.collection.n_final
        dropped = obs.events.by_kind("pipeline.pair_dropped")
        assert len(dropped) == result.collection.n_final
        assert all(e.attrs["rounds"] == max_rounds for e in dropped)
        assert obs.metrics.counter("pas_pipeline_regenerations_total").total() == (
            max_rounds * result.collection.n_final
        )

    def test_empty_corpus(self):
        result = PipelineRunner(PipelineConfig()).run([])
        assert len(result.dataset) == 0
        assert result.collection.n_input == 0
        assert result.collection.stats == {}
        assert result.skipped_uids == []

    def test_empty_selection_after_quality(self, corpus):
        config = PipelineConfig(collection=CollectionConfig(quality_threshold=1.0))
        result = PipelineRunner(config).run(corpus)
        collected = PromptCollector(config=config).collect(corpus)
        assert result.collection == collected
        assert result.collection.n_final == 0
        assert len(result.dataset) == 0

    def test_uncurated_run_never_drops(self, corpus):
        config = PipelineConfig(generation=GenerationConfig(curate=False))
        result = PipelineRunner(config).run(corpus)
        assert result.dataset.n_dropped == 0
        assert not result.dataset.curated
        assert len(result.dataset) == result.collection.n_final


class TestObservability:
    def test_stage_spans_and_checkpoints(self, corpus):
        obs = Observability.enabled(trace_capacity=512)
        PipelineRunner(PipelineConfig(), obs=obs).run(corpus)
        roots = [t.root.name for t in obs.tracer.store]
        assert roots == [f"pipeline.{s}" for s in PipelineRunner.STAGES]
        checkpoints = obs.events.by_kind("pipeline.checkpoint")
        assert [e.attrs["stage"] for e in checkpoints] == list(PipelineRunner.STAGES)
        items = obs.metrics.counter("pas_pipeline_items_total")
        assert items.value(stage="dedup") == len(corpus)

    def test_ticks_are_monotone_across_stages(self, corpus):
        obs = Observability.enabled(trace_capacity=512)
        PipelineRunner(PipelineConfig(), obs=obs).run(corpus)
        windows = [(t.root.start_tick, t.root.end_tick) for t in obs.tracer.store]
        for (_, prev_end), (start, _) in zip(windows, windows[1:]):
            assert start >= prev_end
