"""The 100k-vector ANN bench tier: where sharded search has to prove itself.

The quick tier (``test_bench_throughput.py``, 400 vectors) hides every
real effect of corpus size: shards that small are answered by exact scans,
and beam costs are dominated by fixed per-query overhead.  This module
builds a 100_000-vector clustered corpus — the regime HNSW's diversity
heuristic is designed for, and the regime the PAS dedup/retrieval layer
actually runs in — and measures, at an honest 100k-index/1k-query shape:

* monolithic vs sharded build throughput (recorded as a plain ratio:
  the quick tier's 2x build win comes from graph-size scaling, which
  thins to a log factor at 100k),
* monolithic beam vs sharded *routed* search throughput (``speedup`` —
  gated >= 1.0 by ``check_bench_regression.py``, same as the quick
  tier), plus the split-ef beam fan-out as an informational mode (it
  pays a fixed per-shard descent cost per query, so on one core it can
  never beat one monolithic beam — the routed scan exists precisely
  because of that measurement),
* recall vs the exact :class:`BruteForceIndex` ground truth for every
  path (at this scale all of them are approximate, so overlap between
  them is no longer 1.0 by construction — recall against ground truth
  is the honest quality metric, and the sharded path must not trade
  quality for its speedup),
* the int8-quantised sharded path, forced onto the beam (the routed
  scan re-ranks on exact float rows, so only the beam actually
  exercises the int8 codes): recall against the float beam at matched
  ef, and bytes per vector.

Slow (minutes of index construction): only runs with
``PAS_BENCH_SCALE=large`` in the environment, which CI's dedicated bench
job sets::

    PAS_BENCH_SCALE=large PYTHONPATH=src python -m pytest \
        benchmarks/test_bench_ann_scale.py -q

Results deep-merge into ``BENCH_serving.json`` under ``ann_scale_100k``
(and ``scale.large``), alongside — never clobbering — the quick tier.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest

from bench_timing import speedup, time_pair
from check_bench_regression import merge_write
from repro.ann.bruteforce import BruteForceIndex
from repro.ann.hnsw import HnswIndex
from repro.ann.sharded import ShardedHnswIndex

pytestmark = [
    pytest.mark.slow,
    pytest.mark.skipif(
        os.environ.get("PAS_BENCH_SCALE", "").lower() != "large",
        reason="100k tier only runs with PAS_BENCH_SCALE=large",
    ),
]

N_INDEX = 100_000
N_QUERIES = 1_000
DIM = 64
K = 10
N_SHARDS = 4
N_CLUSTERS = 2_000
# Wide enough that clusters genuinely overlap: at 0.05 the corpus is
# 2 000 near-point blobs — the monolithic beam early-terminates at low
# recall and the int8 quantisation step (max|v|/127) rivals the
# intra-cluster spread, so every number degenerates.  0.5 keeps the
# clustered structure the retrieval layer sees without the degeneracy.
CLUSTER_SPREAD = 0.5
# Smaller graph parameters than the quick tier's defaults: at 100k nodes,
# m=16/efc=200 construction costs tens of minutes for recall this
# workload does not need.  These are the knobs a deployment at this scale
# would actually run with.
M = 8
EF_CONSTRUCTION = 48
EF_SEARCH = 50

RESULTS: dict[str, object] = {}


@pytest.fixture(scope="module")
def corpus():
    """Clustered synthetic corpus: N_CLUSTERS centers, Gaussian spread."""
    rng = np.random.default_rng(0)
    centers = rng.normal(size=(N_CLUSTERS, DIM))
    assign = np.arange(N_INDEX) % N_CLUSTERS
    return centers[assign] + CLUSTER_SPREAD * rng.normal(size=(N_INDEX, DIM))


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(1)
    centers = np.random.default_rng(0).normal(size=(N_CLUSTERS, DIM))
    picks = rng.integers(0, N_CLUSTERS, size=N_QUERIES)
    return centers[picks] + CLUSTER_SPREAD * rng.normal(size=(N_QUERIES, DIM))


@pytest.fixture(scope="module")
def exact_topk(corpus, queries):
    """Ground-truth key sets from the exact reference index."""
    brute = BruteForceIndex(dim=DIM)
    brute.add_batch(corpus, range(N_INDEX))
    return [
        {key for key, _ in hits} for hits in brute.search_batch(queries, K)
    ]


def _mean_recall(hit_lists, exact_topk):
    return float(
        np.mean(
            [
                len({key for key, _ in hits} & exact) / K
                for hits, exact in zip(hit_lists, exact_topk)
            ]
        )
    )


@pytest.fixture(scope="module")
def built(corpus):
    """Single + sharded indexes, built once, with wall-clock build times.

    Construction at this scale runs minutes per index, so each build runs
    exactly once (no repeats) and every test shares the result.
    """
    start = time.perf_counter()
    single = HnswIndex(
        dim=DIM, m=M, ef_construction=EF_CONSTRUCTION, ef_search=EF_SEARCH, seed=0
    )
    single.add_batch(corpus, range(N_INDEX))
    single_s = time.perf_counter() - start

    start = time.perf_counter()
    sharded = ShardedHnswIndex(
        dim=DIM,
        n_shards=N_SHARDS,
        m=M,
        ef_construction=EF_CONSTRUCTION,
        ef_search=EF_SEARCH,
        seed=0,
    )
    sharded.add_batch(corpus, range(N_INDEX))
    sharded_s = time.perf_counter() - start
    return single, sharded, single_s, sharded_s


@pytest.fixture(scope="module", autouse=True)
def _write_bench_json():
    """Deep-merge this tier's keys into BENCH_serving.json."""
    yield
    payload = {
        "scale": {
            "large": {
                "n_index": N_INDEX,
                "n_queries": N_QUERIES,
                "k": K,
                "dim": DIM,
                "n_clusters": N_CLUSTERS,
                "m": M,
                "ef_construction": EF_CONSTRUCTION,
                "ef_search": EF_SEARCH,
            },
        },
        "ann_scale_100k": RESULTS,
    }
    merge_write(Path(__file__).resolve().parents[1] / "BENCH_serving.json", payload)


def test_build_throughput(built):
    single, sharded, single_s, sharded_s = built
    assert len(single) == N_INDEX and len(sharded) == N_INDEX
    RESULTS["build"] = {
        "n_shards": N_SHARDS,
        "single_s": single_s,
        "sharded_s": sharded_s,
        "single_vectors_per_s": N_INDEX / single_s,
        "sharded_vectors_per_s": N_INDEX / sharded_s,
        # Deliberately NOT named `speedup` (ungated): the shards build one
        # after another on the calling thread, and building K graphs of
        # n/K nodes saves only a log factor at this scale, so the ratio
        # sits near 1.0 and would gate on noise.  The build win the quick
        # tier shows (2.1x at 400 vectors) is graph-size scaling, and the
        # search speedup below is what this tier gates.
        "throughput_ratio_vs_single": single_s / sharded_s,
    }
    # Sanity bound only: sharding must not make builds pathologically slow.
    assert single_s / sharded_s > 0.7


def test_search_speedup_and_recall(built, queries, exact_topk):
    single, sharded, _, _ = built
    single_res, sharded_res = time_pair(
        lambda: single.search_batch(queries, K),
        lambda: sharded.search_batch(queries, K),
        labels=("monolithic search_batch (100k)", "sharded search_batch (100k)"),
        n_items=N_QUERIES,
        repeats=3,
    )
    single_hits = single.search_batch(queries, K)
    sharded_hits = sharded.search_batch(queries, K)
    single_recall = _mean_recall(single_hits, exact_topk)
    sharded_recall = _mean_recall(sharded_hits, exact_topk)
    overlap = float(
        np.mean(
            [
                len({k for k, _ in a} & {k for k, _ in b}) / K
                for a, b in zip(single_hits, sharded_hits)
            ]
        )
    )
    RESULTS["search"] = {
        "mode": sharded.large_shard_search,
        "route_probes_per_shard": sharded._probe_width(sharded._router(0).n_lists),
        "single_queries_per_s": single_res.items_per_s,
        "sharded_queries_per_s": sharded_res.items_per_s,
        "speedup": speedup(single_res, sharded_res),
        "single_recall_vs_exact": single_recall,
        "sharded_recall_vs_exact": sharded_recall,
        # Two independent approximate searches at 100k: their mutual
        # overlap is informational — recall vs exact is the quality gate.
        "overlap_vs_single_shard": overlap,
    }
    assert speedup(single_res, sharded_res) > 1.0
    # The routed scan must not buy its speedup with quality.
    assert sharded_recall >= 0.9
    assert sharded_recall >= single_recall - 0.05


def test_search_beam_mode_informational(built, queries, exact_topk):
    """The split-ef beam fan-out, recorded but deliberately not gated.

    Each per-shard beam pays a fixed greedy-descent cost per query
    (~130 us measured), so four of them exceed one monolithic search on a
    single core regardless of ef splitting.  The ratio is recorded so the
    regression history shows *why* routed is the default — the key is not
    named ``*speedup`` on purpose, which keeps it out of the >= 1.0 gate.
    """
    single, sharded, _, _ = built
    sharded.large_shard_search = "beam"
    try:
        single_res, beam_res = time_pair(
            lambda: single.search_batch(queries, K),
            lambda: sharded.search_batch(queries, K),
            labels=("monolithic search_batch (100k)", "sharded beam (100k)"),
            n_items=N_QUERIES,
            repeats=1,
        )
        beam_recall = _mean_recall(sharded.search_batch(queries, K), exact_topk)
    finally:
        sharded.large_shard_search = "routed"
    RESULTS["search_beam"] = {
        "queries_per_s": beam_res.items_per_s,
        "throughput_ratio_vs_single": beam_res.items_per_s / single_res.items_per_s,
        "recall_vs_exact": beam_recall,
    }
    assert beam_recall >= 0.8


def test_int8_sharded_path(built, corpus, queries, exact_topk):
    _, sharded_float, _, _ = built
    start = time.perf_counter()
    quantized = ShardedHnswIndex(
        dim=DIM,
        n_shards=N_SHARDS,
        m=M,
        ef_construction=EF_CONSTRUCTION,
        ef_search=EF_SEARCH,
        seed=0,
        quantization="int8",
    )
    quantized.add_batch(corpus, range(N_INDEX))
    build_s = time.perf_counter() - start

    # The routed scan re-ranks on exact float rows and never touches the
    # int8 codes, so the quantisation gate forces the beam on both sides
    # at a matched ef: the delta is then purely quantisation loss.
    quantized.large_shard_search = "beam"
    sharded_float.large_shard_search = "beam"
    ef = 2 * EF_SEARCH
    try:
        start = time.perf_counter()
        hits = quantized.search_batch(queries, K, ef=ef)
        search_s = time.perf_counter() - start
        recall = _mean_recall(hits, exact_topk)
        float_recall = _mean_recall(
            sharded_float.search_batch(queries, K, ef=ef), exact_topk
        )
    finally:
        quantized.large_shard_search = "routed"
        sharded_float.large_shard_search = "routed"
    RESULTS["int8"] = {
        "build_s": build_s,
        "beam_ef": ef,
        "beam_queries_per_s": N_QUERIES / search_s,
        "recall_vs_exact": recall,
        "float_recall_vs_exact": float_recall,
        # One int8 code row + one float64 scale per vector, vs float64 rows
        # (the float copy is also kept for exact re-ranking; this ratio is
        # the traversal working set, which is what beam search touches).
        "traversal_bytes_per_vector_ratio": (DIM + 8) / (DIM * 8),
    }
    # The ISSUE gate: int8 recall >= 0.95 vs exact, and exact re-ranking
    # keeps it within a whisker of the float beam at the same ef.
    assert recall >= 0.95
    assert recall >= float_recall - 0.02
