"""Tour the parallel serving layer: sharded ANN, micro-batching, two tiers.

Three independent pieces, one shared guarantee — everything parallel or
batched is bit-identical to the scalar loop it accelerates:

1. ``ShardedHnswIndex`` partitions an index round-robin over K HNSW
   shards, builds and searches them one after another, and merges results
   in a declared total order.
2. ``ServingEngine`` queues a timed trace in its ``MicroBatcher``, pulls
   batches on size/wait triggers and plans each with one
   ``PasGateway.plan_batch``; at ``max_inflight=1`` it serves exactly
   what the gateway's ``ask`` loop would.
3. The gateway's two cache tiers (complement LRU over an embedding memo)
   make repeat traffic cheap even when the complement cache thrashes.

Run:  python examples/parallel_serving.py
"""

from __future__ import annotations

import numpy as np

from repro import PasModel, build_default_dataset
from repro.ann.hnsw import HnswIndex
from repro.ann.sharded import ShardedHnswIndex
from repro.embedding.model import EmbeddingModel
import json
from collections import Counter

from repro.obs import Observability
from repro.serve.engine import EngineConfig, ServingEngine
from repro.serve.gateway import GatewayConfig, PasGateway, derive_stage_timings
from repro.serve.traffic import TimedRequest
from repro.serve.types import ServeRequest
from repro.world.prompts import PromptFactory


def sharded_index_demo() -> None:
    print("=== 1. sharded HNSW ===")
    embedder = EmbeddingModel()
    factory = PromptFactory(rng=np.random.default_rng(0))
    corpus = embedder.embed_batch(
        [factory.make_prompt().text for _ in range(200)]
    )
    queries = embedder.embed_batch(
        [factory.make_prompt().text for _ in range(10)]
    )

    mono = HnswIndex(dim=embedder.dim, seed=0)
    mono.add_batch(corpus, range(len(corpus)))
    sharded = ShardedHnswIndex(dim=embedder.dim, n_shards=4, seed=0)
    sharded.add_batch(corpus, range(len(corpus)))
    print(f"  {len(sharded)} vectors over shards {sharded.shard_sizes}")

    hits_mono = mono.search_batch(queries, 5, ef=256)
    hits_shard = sharded.search_batch(queries, 5, ef=256)
    overlap = np.mean([
        len({k for k, _ in a} & {k for k, _ in b}) / 5
        for a, b in zip(hits_mono, hits_shard)
    ])
    per_query = [sharded.search(q, 5, ef=256) for q in queries]
    print(f"  top-5 overlap vs monolithic at exhaustive ef: {overlap:.2f}")
    print(f"  search_batch == per-query search: {hits_shard == per_query}\n")


def micro_batching_demo(pas: PasModel, traffic: list[str]) -> None:
    print("=== 2. deterministic micro-batching ===")
    config = GatewayConfig(cache_size=256)
    trace = [
        TimedRequest(tick=tick, request=ServeRequest(prompt=p, model="gpt-4-0613"))
        for tick, p in enumerate(traffic, start=1)
    ]
    engine = ServingEngine(
        PasGateway(pas=pas, config=config),
        EngineConfig(max_inflight=1, max_batch=8, max_wait=4),
    )
    result = engine.run(trace)
    records = result.batch_records
    triggers = dict(sorted(Counter(record.trigger for record in records).items()))
    print(f"  {len(trace)} requests -> {len(records)} batches "
          f"(mean size {len(trace) / len(records):.1f}), triggers {triggers}")
    for record in records[:3]:
        print(f"    tick {record.tick:3d}: size {record.size}, "
              f"trigger={record.trigger}, occupancy {record.occupancy:.2f}, "
              f"mean wait {record.mean_wait_ticks:.1f} ticks")
    scalar = PasGateway(pas=pas, config=config)
    same = result.responses == [scalar.ask(timed.request) for timed in trace]
    print(f"  responses in arrival order: {len(result.responses)}, "
          f"identical to the ask loop: {same}")
    print(f"  first response as JSON: {json.dumps(result.responses[0].as_dict())[:100]}...\n")


def two_tier_demo(pas: PasModel, traffic: list[str]) -> None:
    print("=== 3. two-tier caching ===")
    # A tiny complement LRU thrashes on this traffic; the embedding memo
    # underneath still absorbs the expensive half of each re-augmentation.
    config = GatewayConfig(cache_size=4, embed_cache_size=256)
    gateway = PasGateway(pas=pas, config=config)
    for prompt in traffic:
        gateway.ask(ServeRequest(prompt=prompt, model="gpt-4-0613"))
    stats = gateway.stats.as_dict()
    print(f"  {stats['requests']} requests, "
          f"complement hit rate {gateway.cache_hit_rate:.2f}, "
          f"embed hit rate {gateway.embed_cache_hit_rate:.2f}")
    print(f"  embed tier: {stats['embed_cache_hits']} hits / "
          f"{stats['embed_cache_misses']} misses")
    print(f"  stats export keys: {', '.join(list(stats)[:6])}, ...")

    timed = PasGateway(pas=pas, config=config, obs=Observability.enabled(wall=True))
    timed.ask_batch([ServeRequest(prompt=p, model="gpt-4-0613") for p in traffic])
    timings = derive_stage_timings(timed.obs.tracer)
    total = sum(timings.values())
    print("  per-stage time share:", ", ".join(
        f"{stage} {share / total:.0%}" for stage, share in timings.items()
    ))


def main() -> None:
    sharded_index_demo()

    dataset = build_default_dataset(n_prompts=120, seed=5, curate=True)
    pas = PasModel(base_model="qwen2-7b-chat", seed=5).train(dataset)
    factory = PromptFactory(rng=np.random.default_rng(11))
    pool = [factory.make_prompt().text for _ in range(12)]
    rng = np.random.default_rng(12)
    traffic = [pool[i] for i in rng.integers(0, len(pool), size=60)]

    micro_batching_demo(pas, traffic)
    two_tier_demo(pas, traffic)


if __name__ == "__main__":
    main()
