"""Tests for the pipeline health diagnostics."""

import pytest

from repro.pipeline.collect import PromptCollector
from repro.pipeline.diagnostics import (
    StageReport,
    classifier_report,
    dedup_report,
    junk_filter_report,
    pipeline_health,
)


@pytest.fixture(scope="module")
def graded(small_corpus):
    corpus = list(small_corpus)
    result = PromptCollector(seed=9).collect(corpus)
    return corpus, result


class TestStageReport:
    def test_precision_recall_f1(self):
        report = StageReport("x", true_positives=8, false_positives=2, false_negatives=2)
        assert report.precision == pytest.approx(0.8)
        assert report.recall == pytest.approx(0.8)
        assert report.f1 == pytest.approx(0.8)

    def test_degenerate_cases(self):
        empty = StageReport("x", 0, 0, 0)
        assert empty.precision == 1.0
        assert empty.recall == 1.0
        assert empty.f1 == 1.0


class TestDedupReport:
    def test_high_recall_on_generated_duplicates(self, graded):
        corpus, result = graded
        report = dedup_report(corpus, result)
        assert report.recall > 0.6

    def test_counts_consistent(self, graded):
        corpus, result = graded
        report = dedup_report(corpus, result)
        n_dups = sum(1 for p in corpus if p.dup_of is not None)
        assert report.true_positives + report.false_negatives == n_dups


class TestJunkFilterReport:
    def test_junk_caught(self, graded):
        corpus, result = graded
        report = junk_filter_report(corpus, result)
        assert report.recall > 0.9

    def test_few_clean_prompts_lost(self, graded):
        corpus, result = graded
        report = junk_filter_report(corpus, result)
        n_clean = sum(1 for p in corpus if not p.is_junk and p.dup_of is None)
        assert report.false_positives / max(n_clean, 1) < 0.25


class TestClassifierReport:
    def test_accuracy_reported(self, graded):
        _, result = graded
        report = classifier_report(result)
        assert report["accuracy"] > 0.6
        assert report["n"] == len(result.selected)

    def test_empty_result(self):
        from repro.pipeline.collect import CollectionResult

        assert classifier_report(CollectionResult([], 0, 0, 0, 0))["accuracy"] == 0.0


class TestPipelineHealth:
    def test_full_report_shape(self, graded):
        corpus, result = graded
        health = pipeline_health(corpus, result)
        assert set(health) == {
            "dedup",
            "junk_filter",
            "classifier",
            "junk_leak_rate",
            "survival_rate",
        }
        assert 0.0 < health["survival_rate"] <= 1.0


class TestRunnerAndShardedInputs:
    """The reports accept PipelineResult and sharded-dedup output alike."""

    @pytest.fixture(scope="class")
    def runner_result(self, small_corpus):
        from repro.pipeline import PipelineConfig, PipelineRunner

        return PipelineRunner(PipelineConfig(seed=9)).run(list(small_corpus))

    def test_reports_accept_pipeline_result(self, small_corpus, runner_result):
        corpus = list(small_corpus)
        health = pipeline_health(corpus, runner_result)
        assert health["dedup"] == dedup_report(corpus, runner_result.collection)
        assert classifier_report(runner_result) == classifier_report(
            runner_result.collection
        )

    def test_sharded_reports_identical(self, small_corpus):
        from repro.pipeline.collect import CollectionConfig

        corpus = list(small_corpus)
        mono = PromptCollector(seed=9).collect(corpus)
        sharded = PromptCollector(
            config=CollectionConfig(dedup_shards=2), seed=9
        ).collect(corpus)
        mono_health = pipeline_health(corpus, mono)
        sharded_health = pipeline_health(corpus, sharded)
        assert sharded_health["dedup"] == mono_health["dedup"]
        assert sharded_health["junk_filter"] == mono_health["junk_filter"]
        assert sharded_health["classifier"] == mono_health["classifier"]
        assert sharded_health["survival_rate"] == mono_health["survival_rate"]

    def test_list_valued_stats_accepted(self, graded):
        """A JSON round trip turns the uid sets into lists; reports must
        still produce identical numbers."""
        import dataclasses

        corpus, result = graded
        listified = dataclasses.replace(
            result,
            stats={
                k: sorted(v) if isinstance(v, (set, frozenset)) else v
                for k, v in result.stats.items()
            },
        )
        assert dedup_report(corpus, listified) == dedup_report(corpus, result)
        assert junk_filter_report(corpus, listified) == junk_filter_report(
            corpus, result
        )
