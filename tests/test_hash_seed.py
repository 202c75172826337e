"""Exports must not depend on ``PYTHONHASHSEED``.

Python salts ``str`` hashing per process, so a ``set`` of strings iterates
in a different order in every process.  A float sum taken in that order
can differ in its last ulp, and through the judge that reaches the
bandit's exact reward sums.  Tests that compare two runs inside one
process cannot see it, so this one serves a small policy fleet with
injected faults in two interpreters, under hash seeds 0 and 1, and
compares the bytes of what they export: judge grades, the bandit's JSON
state, the trace and event JSONL, and the responses.  The workload seeds
are ones on which summing aspect weights in set order moved grades.  The
same run also covers two tie-breaks that once followed set order: the
ProTeGi baseline's beam and the tag-diversity selector.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import hashlib, json, sys, tempfile
from pathlib import Path

import numpy as np

from repro import build_default_dataset
from repro.baselines.protegi import ProtegiOptimizer
from repro.core.pas import PasModel
from repro.judge.judge import JudgeConfig, LlmJudge
from repro.obs import Observability
from repro.pipeline.collect import SelectedPrompt
from repro.pipeline.strategies import TagDiversitySelection
from repro.policy import AugmentationPolicy, PolicyConfig
from repro.resilience import FaultPlan, RetryPolicy
from repro.serve.config import ServingConfig
from repro.serve.engine import EngineConfig, ServingEngine
from repro.serve.gateway import GatewayConfig
from repro.serve.router import FleetPlan, HedgePolicy, Router, RouterConfig
from repro.serve.traffic import TrafficConfig, TrafficGenerator
from repro.world.prompts import PromptFactory

pas = PasModel(base_model="qwen2-7b-chat", seed=3).train(
    build_default_dataset(n_prompts=60, seed=3, curate=True)
)
exports = {}
out = Path(tempfile.mkdtemp())
for seed in (3, 4):
    factory = PromptFactory(rng=np.random.default_rng(seed))
    corpus = [factory.make_prompt() for _ in range(200)]
    trace = TrafficGenerator(
        [p.text for p in corpus], TrafficConfig(n_requests=200, seed=seed, mean_gap_ticks=2.0)
    ).trace()
    config = ServingConfig(
        router=RouterConfig(n_replicas=2, policy="least_loaded", seed=7),
        gateway=GatewayConfig(
            seed=5,
            fault_plan=FaultPlan(seed=5, completion_failure_rate=0.05),
            retry_policy=RetryPolicy(max_retries=4),
        ),
        engine=EngineConfig(max_inflight=4, max_queue=4096),
        policy=PolicyConfig(enabled=True, epsilon=0.2, judge_seed=7),
        fleet=FleetPlan(hedge=HedgePolicy(percentile=95)),
    )
    policy = AugmentationPolicy.from_config(pas, config.policy, corpus=corpus)
    obs = Observability.enabled(trace_capacity=8192)
    router = Router(pas, config, obs, policy=policy)
    result = ServingEngine(router, config).run(trace)
    judge = LlmJudge(JudgeConfig(seed=7))
    by_text = {p.text: p for p in corpus}
    obs.tracer.store.export_jsonl(out / f"trace{seed}.jsonl")
    obs.events.export_jsonl(out / f"events{seed}.jsonl")
    parts = {
        "grades": json.dumps([
            judge.absolute_score(by_text[timed.request.prompt], response.response).hex()
            for timed, response in zip(trace, result.responses)
        ]),
        "bandit": json.dumps(policy.snapshot(), sort_keys=True),
        "trace": (out / f"trace{seed}.jsonl").read_text(),
        "events": (out / f"events{seed}.jsonl").read_text(),
        "responses": json.dumps([r.as_dict() for r in result.responses], sort_keys=True),
    }
    for name, text in parts.items():
        exports[f"{name}@{seed}"] = hashlib.sha256(text.encode()).hexdigest()

# Tie-breaks: ProTeGi's beam and most-missed needs, and the tag-diversity
# selector's rarity sums, on inputs where set order once decided them.
factory = PromptFactory(rng=np.random.default_rng(4))
exports["protegi"] = ProtegiOptimizer(beam_width=2, n_steps=2).optimize(
    [factory.make_prompt() for _ in range(8)]
)
factory = PromptFactory(rng=np.random.default_rng(100))
items = [
    SelectedPrompt(p, p.category, 1.0)
    for p in (factory.make_prompt(cue_rate=0.9) for _ in range(120))
]
exports["tag_diversity"] = TagDiversitySelection().select(items, 60)
json.dump(exports, sys.stdout, indent=1, sort_keys=True)
"""


def _exports(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    return json.loads(done.stdout)


def test_exports_are_identical_under_two_hash_seeds():
    first, second = _exports("0"), _exports("1")
    assert len(first) == 12
    assert first == second
