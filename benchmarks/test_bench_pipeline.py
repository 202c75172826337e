"""Offline curation pipeline benchmark: batched runner vs scalar loops.

One gated number:

* ``pipeline_batch_speedup`` — per-prompt cost of the frozen
  :class:`ScalarReferencePipeline` (the pre-batching per-item loops:
  ``embed`` per prompt, the pre-vectorization
  :class:`~test_bench_throughput.ScalarReferenceHnsw` built and queried
  one element at a time, ``score`` / ``predict`` per text) relative to
  :class:`~repro.pipeline.runner.PipelineRunner`, which rides the
  batched stage kernels (``embed_batch``, ``knn_graph``,
  ``score_batch``, ``predict_batch``) *and* pays the write-then-reload
  checkpoint round trip on every stage.  The regression gate
  (``check_bench_regression.py``) fails the build below 1.0: the
  industrial pipeline, checkpointing included, must never be slower
  than the per-item loops it replaced.

Both sides share one pre-fitted classifier (fitting takes about 0.2 s,
about half a batched runner pass over this corpus on a shared 2-vCPU VM,
most of it generating the labelled prompts, and is identical work for
either path, so it would only dilute the ratio).  A parity assert runs before any timing: the
scalar reference must curate the exact same prompts into the exact same
pairs, or the ratio compares different work.

Results merge into ``BENCH_serving.json`` next to the serving keys:

    PYTHONPATH=src python -m pytest benchmarks/test_bench_pipeline.py -q
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from bench_timing import speedup, time_pair
from check_bench_regression import merge_write
from test_bench_throughput import ScalarReferenceHnsw

from repro.classify.model import CategoryClassifier
from repro.embedding.model import EmbeddingModel
from repro.llm.engine import SimulatedLLM
from repro.pipeline.collect import SelectedPrompt
from repro.pipeline.config import PipelineConfig
from repro.pipeline.generate import PairGenerator
from repro.pipeline.runner import PipelineRunner
from repro.pipeline.select import QualityScorer
from repro.utils.unionfind import UnionFind
from repro.world.prompts import PromptFactory

N_PROMPTS = 140

RESULTS: dict[str, object] = {}


class ScalarReferencePipeline:
    """The pre-batching per-item curation loops, frozen.

    A faithful copy of what collection + generation cost per prompt
    before the batched kernels existed: one ``embed`` call per prompt,
    the pre-vectorization HNSW reference built and queried one element
    at a time, one grader call per survivor, one ``predict`` per text,
    then the per-item Algorithm-1 loop.  Kept here as the stable
    baseline the ``pipeline_batch_speedup`` gate measures against — do
    not "improve" it.
    """

    def __init__(self, config: PipelineConfig, classifier: CategoryClassifier):
        self.config = config
        self.embedder = EmbeddingModel()
        self.grader = SimulatedLLM(config.runner.grader_model)
        self.classifier = classifier

    def run(self, corpus):
        cfg = self.config.collection
        seed = self.config.seed

        # Stage 1: dedup — per-item embed, per-item index add + search.
        vectors = [self.embedder.embed(p.text) for p in corpus]
        index = ScalarReferenceHnsw(dim=vectors[0].shape[0], ef_search=64, seed=seed)
        for i, vector in enumerate(vectors):
            index.add(vector, i)
        uf = UnionFind(len(corpus))
        max_distance = 1.0 - cfg.dedup_threshold
        for i, vector in enumerate(vectors):
            hits = index.search(vector, cfg.dedup_neighbors + 1, ef=64)
            for other, dist in hits:
                if other != i and dist <= max_distance:
                    uf.union(i, other)
        kept: list[int] = []
        for group in sorted(uf.groups().values(), key=lambda g: g[0]):
            group.sort()
            kept.extend(group[: cfg.keep_per_group])
        survivors = [corpus[i] for i in sorted(kept)]

        # Stage 2: quality — one grader call per survivor.
        texts = [p.text for p in survivors]
        scorer = QualityScorer(grader=self.grader).fit(texts)
        graded = [
            (p, score)
            for p, score in ((p, scorer.score(p.text)) for p in survivors)
            if score >= cfg.quality_threshold
        ]

        # Stage 3: classify — one predict call per text.
        selected = [
            SelectedPrompt(
                prompt=p,
                predicted_category=self.classifier.predict(p.text),
                quality=score,
            )
            for p, score in graded
        ]

        # Stage 4: generate — the per-item Algorithm-1 loop (unchanged).
        generator = PairGenerator(config=self.config.generation)
        return selected, generator.build_dataset(selected)


@pytest.fixture(scope="module")
def corpus():
    factory = PromptFactory(rng=np.random.default_rng(5))
    return [factory.make_prompt() for _ in range(N_PROMPTS)]


@pytest.fixture(scope="module")
def classifier():
    """One pre-fitted classifier shared by both variants (fit excluded
    from timing; the runner's default would fit an identical one)."""
    return CategoryClassifier().fit_synthetic(seed=17)


@pytest.fixture(scope="module", autouse=True)
def _write_bench_json():
    """Deep-merge this module's keys into BENCH_serving.json (never clobber)."""
    yield
    merge_write(Path(__file__).resolve().parents[1] / "BENCH_serving.json", RESULTS)


def test_pipeline_batch_speedup(corpus, classifier):
    config = PipelineConfig()

    def run_scalar():
        return ScalarReferencePipeline(config, classifier).run(corpus)

    def run_batched():
        runner = PipelineRunner(config, checkpoint_dir=None, classifier=classifier)
        return runner.run(corpus)

    # Parity before timing: the reference graph draws identical levels
    # (same RNG stream) and its distances agree with the vectorized
    # kernel's, so the frozen loops must curate the exact same prompts
    # into the exact same pairs.
    selected, dataset = run_scalar()
    result = run_batched()
    assert selected == result.collection.selected
    assert dataset.pairs == result.dataset.pairs
    assert dataset.n_dropped == result.dataset.n_dropped

    scalar, batched = time_pair(
        run_scalar,
        run_batched,
        labels=("scalar loops", "batched runner"),
        n_items=len(corpus),
        repeats=5,
    )
    ratio = speedup(scalar, batched)  # scalar_per_item / batched_per_item
    RESULTS["pipeline"] = {
        "pipeline_batch_speedup": ratio,
        "scalar_prompts_per_s": scalar.items_per_s,
        "batched_prompts_per_s": batched.items_per_s,
    }
    assert ratio >= 1.0
