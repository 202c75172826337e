"""Bench — ANN backend comparison: HNSW vs IVF-flat vs exact scan.

The collection pipeline's dedup stage runs on HNSW (the ``hnsw``,
``sharded`` and ``auto`` backends of ``deduplicate``; the paper's choice).
IVF-flat, the classical alternative, is measured here as an ablation: this
bench records the recall/latency trade-off between the two on clustered
prompt embeddings.  IVF-flat searches through ``repro.ann.ivf._IvfLists``,
the same kernel as the sharded index's routed scan.
"""

import numpy as np
import pytest

from repro.ann.bruteforce import BruteForceIndex
from repro.ann.hnsw import HnswIndex
from repro.ann.ivf import IvfFlatIndex
from repro.embedding.model import EmbeddingModel
from repro.world.prompts import CorpusConfig, PromptFactory


@pytest.fixture(scope="module")
def corpus_embeddings():
    factory = PromptFactory(rng=np.random.default_rng(80))
    corpus = factory.make_corpus(CorpusConfig(n_prompts=500))
    return EmbeddingModel().embed_batch([p.text for p in corpus])


@pytest.fixture(scope="module")
def exact(corpus_embeddings):
    index = BruteForceIndex(dim=corpus_embeddings.shape[1])
    for i, vec in enumerate(corpus_embeddings):
        index.add(vec, key=i)
    return index


def _recall(index, corpus_embeddings, exact, queries, k=10, **search_kwargs):
    total = 0.0
    for qi in queries:
        reference = {key for key, _ in exact.search(corpus_embeddings[qi], k)}
        got = {key for key, _ in index.search(corpus_embeddings[qi], k, **search_kwargs)}
        total += len(got & reference) / k
    return total / len(queries)


def test_hnsw_backend(benchmark, corpus_embeddings, exact):
    index = HnswIndex(dim=corpus_embeddings.shape[1], ef_search=48, seed=0)
    for i, vec in enumerate(corpus_embeddings):
        index.add(vec, key=i)
    queries = list(range(0, 500, 10))

    def search_all():
        return [index.search(corpus_embeddings[q], 10) for q in queries]

    benchmark(search_all)
    recall = _recall(index, corpus_embeddings, exact, queries)
    print(f"\nHNSW recall@10 on prompt embeddings: {recall:.3f}")
    assert recall > 0.9


def test_ivf_backend(benchmark, corpus_embeddings, exact):
    index = IvfFlatIndex(dim=corpus_embeddings.shape[1], n_lists=24, n_probe=6, seed=0)
    index.train(corpus_embeddings)
    for i, vec in enumerate(corpus_embeddings):
        index.add(vec, key=i)
    queries = list(range(0, 500, 10))

    def search_all():
        return [index.search(corpus_embeddings[q], 10) for q in queries]

    benchmark(search_all)
    recall = _recall(index, corpus_embeddings, exact, queries)
    print(f"\nIVF-flat recall@10 on prompt embeddings: {recall:.3f}")
    assert recall > 0.6


def test_exact_backend(benchmark, corpus_embeddings, exact):
    queries = list(range(0, 500, 10))

    def search_all():
        return [exact.search(corpus_embeddings[q], 10) for q in queries]

    results = benchmark(search_all)
    assert len(results) == len(queries)
