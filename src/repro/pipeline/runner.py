"""The industrial curation pipeline: batched, checkpointed, resumable.

:class:`PipelineRunner` executes the paper's offline data-curation flow
(§3.1–3.2) as five units of work on one logical clock::

    dedup ──▶ quality ──▶ classify ──▶ generate ──▶ dataset

The three collection stages (paper §3.1, Figure 3a) are written once, as
the module functions :func:`_dedup`, :func:`_filter_quality` and
:func:`_classify`: :meth:`PromptCollector.collect
<repro.pipeline.collect.PromptCollector.collect>` calls them directly, and
the runner's ``_stage_*`` methods wrap the same calls in checkpoint
payloads, ticks and obs.  Generation runs ``PairGenerator.build_pair``.

Each stage consumes the *reloaded* JSON payload of its predecessor and
writes a content-hashed checkpoint when it completes, so a run killed
between (or inside) stages resumes bit-identically: because every
consumer reads the JSON round-trip of its input, an uninterrupted run and
a resumed run see byte-for-byte the same bytes.

Observability rides along deterministically.  Every stage records its
span window, events, and counter increments into its checkpoint; resuming
*replays* them at their original ticks, so the exported trace and event
JSONL of a resumed run is byte-identical to the uninterrupted run's — the
same guarantee the serving path makes for chaos runs at a fixed seed.

Failure containment mirrors the gateway: an optional
:class:`~repro.resilience.FaultPlan` injects deterministic critic outages
and per-attempt failures into the Algorithm-1 regeneration loop, retried
under a :class:`~repro.resilience.RetryPolicy`; when retries exhaust, the
pair is *skipped and logged* (``pipeline.pair_skipped``) instead of
aborting the run — curation degrades, it does not fail.

The deterministic kill switches (``fail_after_stage`` /
``fail_after_pairs`` on :class:`~repro.pipeline.config.RunnerConfig`)
raise :class:`PipelineInterrupted` right after a checkpoint lands,
exactly like a SIGKILL between units of work; resume with the switch
removed (the run key ignores it) to continue.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from repro.classify.model import CategoryClassifier
from repro.cluster.dedup import deduplicate
from repro.cluster.kcenter import k_center_greedy
from repro.core.golden import GoldenData
from repro.embedding.model import EmbeddingModel
from repro.errors import ReproError
from repro.llm.engine import SimulatedLLM
from repro.obs import NULL_OBS, Observability
from repro.pipeline.collect import CollectionResult, PromptCollector, SelectedPrompt
from repro.pipeline.config import PIPELINE_STAGES, PipelineConfig
from repro.pipeline.dataset import PromptPair, PromptPairDataset
from repro.pipeline.generate import PairGenerator
from repro.pipeline.select import QualityScorer
from repro.resilience import RetryPolicy
from repro.utils.io import dump_jsonl, load_jsonl, to_jsonable
from repro.utils.rng import stable_hash
from repro.world.prompts import SyntheticPrompt

__all__ = [
    "PipelineInterrupted",
    "CheckpointError",
    "PipelineResult",
    "PipelineRunner",
]


class PipelineInterrupted(ReproError):
    """The run was killed by a deterministic kill switch.

    The checkpoint that triggered the switch is already on disk, so a new
    runner pointed at the same checkpoint directory resumes from it.
    """


class CheckpointError(ReproError):
    """A checkpoint's payload does not match its recorded content hash."""


class _CriticUnavailable(ReproError):
    """Internal: the critic could not be reached within the retry budget."""


@dataclass
class PipelineResult:
    """Outcome of one :meth:`PipelineRunner.run`.

    ``resumed_stages`` lists the stages satisfied from checkpoints rather
    than executed (the ``generate`` stage counts as resumed when it
    continued from a partial checkpoint).  ``skipped_uids`` are prompts
    whose pairs were abandoned because the critic stayed unreachable —
    the degraded-not-aborted outcome.
    """

    dataset: PromptPairDataset
    collection: CollectionResult
    skipped_uids: list[int] = field(default_factory=list)
    resumed_stages: tuple[str, ...] = ()
    run_key: str = ""

    @property
    def n_pairs_skipped(self) -> int:
        return len(self.skipped_uids)


def _payload_hash(payload: dict) -> str:
    """Content hash of a checkpoint payload, stable across the JSON trip."""
    material = json.dumps(to_jsonable(payload), sort_keys=True, ensure_ascii=False)
    return f"{stable_hash(material):016x}"


# ---------------------------------------------------------------------- #
# the collection stage math (paper §3.1, Figure 3a)
# ---------------------------------------------------------------------- #
# These live here rather than in ``collect.py`` (which this module imports)
# so the dedup call goes through this module's ``deduplicate`` binding, the
# one ``benchmarks/e2e/tracing.py`` wraps as the ``cluster.dedup`` layer.


def _dedup(collector: PromptCollector, corpus: list[SyntheticPrompt]) -> list[SyntheticPrompt]:
    """Stage 1: embed the corpus and keep ``keep_per_group``
    representatives of each near-duplicate group, in corpus order."""
    cc = collector.config
    if not corpus or cc.skip_dedup:
        return list(corpus)
    embeddings = collector.embedder.embed_batch([p.text for p in corpus])
    result = deduplicate(
        embeddings,
        threshold=cc.dedup_threshold,
        k_neighbors=cc.dedup_neighbors,
        keep_per_group=cc.keep_per_group,
        seed=collector.seed,
        n_shards=cc.dedup_shards,
    )
    return [corpus[i] for i in result.kept]


def _filter_quality(
    collector: PromptCollector, survivors: list[SyntheticPrompt]
) -> list[tuple[SyntheticPrompt, float]]:
    """Stage 2: grade the survivors in one batch and keep ``(prompt,
    quality)`` for those at or above ``quality_threshold``."""
    cc = collector.config
    if not survivors or cc.skip_quality_filter:
        return [(p, 1.0) for p in survivors]
    texts = [p.text for p in survivors]
    scorer = QualityScorer(grader=collector.grader).fit(texts)
    return [
        (p, score)
        for p, score in zip(survivors, scorer.score_batch(texts), strict=True)
        if score >= cc.quality_threshold
    ]


def _classify(
    collector: PromptCollector,
    corpus: list[SyntheticPrompt],
    survivors: list[SyntheticPrompt],
    graded: list[tuple[SyntheticPrompt, float]],
) -> CollectionResult:
    """Stage 3: predict each graded prompt's category, cap the output at
    ``target_size`` by k-center greedy, and count what each stage removed.

    Without a classifier the collector fits the default one, once, and
    only when a prompt is left to classify.
    """
    cc = collector.config
    selected: list[SelectedPrompt] = []
    if graded:
        if collector.classifier is None:
            collector.classifier = CategoryClassifier().fit_synthetic(
                seed=collector.seed + 17
            )
        categories = collector.classifier.predict_batch([p.text for p, _ in graded])
        selected = [
            SelectedPrompt(prompt=p, predicted_category=cat, quality=score)
            for (p, score), cat in zip(graded, categories, strict=True)
        ]
    if cc.target_size is not None and len(selected) > cc.target_size:
        embeddings = collector.embedder.embed_batch([s.prompt.text for s in selected])
        chosen = k_center_greedy(embeddings, cc.target_size)
        selected = [selected[i] for i in sorted(chosen)]
    survivor_uids = {p.uid for p in survivors}
    stats = {
        "removed_by_dedup": len(corpus) - len(survivors),
        "removed_by_quality": len(survivors) - len(graded),
        "dedup_removed_uids": {p.uid for p in corpus} - survivor_uids,
        "quality_removed_uids": survivor_uids - {p.uid for p, _ in graded},
    }
    return CollectionResult(
        selected=selected,
        n_input=len(corpus),
        n_after_dedup=len(survivors),
        n_after_quality=len(graded),
        n_final=len(selected),
        stats=stats if corpus else {},
    )


class PipelineRunner:
    """Runs the five-stage curation pipeline with checkpoints and obs.

    Parameters
    ----------
    config:
        The unified :class:`~repro.pipeline.config.PipelineConfig`
        (defaults throughout when omitted).
    checkpoint_dir:
        Where stage checkpoints live.  ``None`` keeps them in memory —
        same write-then-reload semantics, no resume across processes.
    embedder, grader, classifier, teacher, critic, golden:
        Component overrides for the runner's ``PromptCollector`` and
        ``PairGenerator`` (models default to the ones named in
        ``config.runner``).  Note component overrides are *not* part of
        the run key — resume with the same overrides.
    obs:
        An :class:`~repro.obs.Observability` bundle; the runner binds its
        logical clock into it.  Defaults to all-null.
    """

    STAGES = PIPELINE_STAGES

    def __init__(
        self,
        config: PipelineConfig | None = None,
        checkpoint_dir: str | Path | None = None,
        *,
        embedder: EmbeddingModel | None = None,
        grader: SimulatedLLM | None = None,
        classifier: CategoryClassifier | None = None,
        teacher: SimulatedLLM | None = None,
        critic: SimulatedLLM | None = None,
        golden: GoldenData | None = None,
        obs: Observability = NULL_OBS,
    ):
        self.config = config or PipelineConfig()
        self.config.validate()
        self.checkpoint_dir = None if checkpoint_dir is None else Path(checkpoint_dir)
        self._memory: dict[str, str] = {}
        self.collector = PromptCollector(
            embedder,
            grader or SimulatedLLM(self.config.runner.grader_model),
            classifier,
            config=self.config,
        )
        self.pair_generator = PairGenerator(
            teacher=teacher or SimulatedLLM(self.config.runner.teacher_model),
            critic=critic or SimulatedLLM(self.config.runner.critic_model, seed=1),
            golden=golden,
            config=self.config.generation,
        )
        self.obs = obs
        self._tick = 0
        self.obs.bind_clock(lambda: self._tick)
        #: The live stage's obs record (events + metric increments); None
        #: outside stage execution.
        self._rec: dict | None = None

    # ------------------------------------------------------------------ #
    # observability plumbing
    # ------------------------------------------------------------------ #

    def _emit(self, kind: str, **attrs: object) -> None:
        """Emit an event now and record it for checkpoint replay."""
        self.obs.events.emit(kind, **attrs)
        if self._rec is not None:
            self._rec["events"].append(
                {"tick": self._tick, "kind": kind, "attrs": attrs}
            )

    def _inc(self, name: str, help: str = "", amount: float = 1, **labels: str) -> None:
        """Bump a counter now and record the increment for replay."""
        self.obs.metrics.counter(name, help=help).inc(amount, **labels)
        if self._rec is not None:
            self._rec["metrics"].append(
                {"name": name, "help": help, "amount": amount, "labels": labels}
            )

    def _fault_observer(self, stage: str, key: str, detail) -> None:
        """Mirror of the gateway's fault observer, checkpoint-recorded."""
        self._inc("pas_faults_total", help="Injected faults by stage.", stage=stage)
        self._emit("fault.injected", stage=stage, key=key, detail=detail)

    def _replay(self, name: str, obs_rec: dict) -> None:
        """Re-emit a completed stage's spans/events/metrics at their ticks."""
        self._tick = int(obs_rec["start_tick"])
        with self.obs.tracer.span(f"pipeline.{name}") as span:
            span.set(**obs_rec["span_attrs"])
            for event in obs_rec["events"]:
                self._tick = int(event["tick"])
                self.obs.events.emit(event["kind"], **event["attrs"])
            for metric in obs_rec["metrics"]:
                self.obs.metrics.counter(metric["name"], help=metric["help"]).inc(
                    metric["amount"], **metric["labels"]
                )
            self._tick = int(obs_rec["end_tick"])

    def export_obs(self, directory: str | Path) -> dict[str, int]:
        """Export the bound obs bundle's events/traces as JSONL files."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        return {
            "events": self.obs.events.export_jsonl(directory / "events.jsonl"),
            "traces": self.obs.tracer.store.export_jsonl(directory / "traces.jsonl"),
        }

    # ------------------------------------------------------------------ #
    # checkpoint store
    # ------------------------------------------------------------------ #

    def _checkpoint_path(self, name: str) -> Path:
        assert self.checkpoint_dir is not None
        return self.checkpoint_dir / f"{name}.json"

    def _write_checkpoint(self, name: str, run_key: str, payload: dict, obs_rec: dict) -> None:
        record = {
            "run_key": run_key,
            "stage": name,
            "payload_hash": _payload_hash(payload),
            "payload": payload,
            "obs": obs_rec,
        }
        if self.checkpoint_dir is None:
            self._memory[name] = json.dumps(to_jsonable(record), ensure_ascii=False)
        else:
            dump_jsonl([record], self._checkpoint_path(name))

    def _load_checkpoint(self, name: str, run_key: str) -> dict | None:
        """The checkpoint record for ``name``, or None when absent or from
        a different (config, corpus) run.  Corruption raises."""
        if self.checkpoint_dir is None:
            raw = self._memory.get(name)
            if raw is None:
                return None
            record = json.loads(raw)
        else:
            path = self._checkpoint_path(name)
            if not path.exists():
                return None
            record = next(load_jsonl(path), None)
            if record is None:
                return None
        if record.get("run_key") != run_key:
            return None
        if _payload_hash(record["payload"]) != record["payload_hash"]:
            raise CheckpointError(
                f"checkpoint {name!r} failed its content-hash verification"
            )
        return record

    def _drop_checkpoint(self, name: str) -> None:
        if self.checkpoint_dir is None:
            self._memory.pop(name, None)
        else:
            self._checkpoint_path(name).unlink(missing_ok=True)

    def _run_key(self, corpus: list[SyntheticPrompt]) -> str:
        """Content key binding checkpoints to (config, corpus).

        The kill switches and checkpoint cadence are excluded: they shape
        *when* the run stops, never what it computes, and a resumed run
        must keep matching the checkpoints its killed predecessor wrote.
        """
        cfg = self.config.as_dict()
        for transient in ("fail_after_stage", "fail_after_pairs", "checkpoint_every"):
            cfg["runner"].pop(transient)
        cfg_key = stable_hash(json.dumps(cfg, sort_keys=True, ensure_ascii=False))
        corpus_key = stable_hash(
            "␟".join(f"{p.uid}␟{p.text}␟{p.category}" for p in corpus)
        )
        return f"{cfg_key:016x}-{corpus_key:016x}"

    # ------------------------------------------------------------------ #
    # stage driver
    # ------------------------------------------------------------------ #

    def _stage(self, name: str, run_key: str, resume: bool, fn) -> tuple[dict, bool]:
        """Run (or replay) one simple stage; returns its reloaded payload.

        ``fn`` returns ``(payload, span_attrs)``; the payload handed
        downstream always comes back off the checkpoint, so consumers see
        the JSON round trip whether the stage ran or resumed.
        """
        record = self._load_checkpoint(name, run_key) if resume else None
        if record is not None:
            self._replay(name, record["obs"])
            return record["payload"], True
        events: list[dict] = []
        metrics: list[dict] = []
        self._rec = {"events": events, "metrics": metrics}
        start = self._tick
        try:
            with self.obs.tracer.span(f"pipeline.{name}") as span:
                payload, attrs = fn()
                self._emit("pipeline.checkpoint", stage=name)
                self._inc(
                    "pas_pipeline_checkpoints_total",
                    help="Completed stage checkpoints written.",
                    stage=name,
                )
                span.set(**attrs)
                end = self._tick
        finally:
            self._rec = None
        self._write_checkpoint(
            name,
            run_key,
            payload,
            {
                "start_tick": start,
                "end_tick": end,
                "span_attrs": attrs,
                "events": events,
                "metrics": metrics,
            },
        )
        if self.config.runner.fail_after_stage == name:
            raise PipelineInterrupted(f"injected kill after stage {name!r}")
        return self._load_checkpoint(name, run_key)["payload"], False

    # ------------------------------------------------------------------ #
    # the five stages
    # ------------------------------------------------------------------ #

    def _processed(self, stage: str, n_items: int) -> None:
        """Advance the clock one tick per item and count the items."""
        self._tick += n_items
        self._inc(
            "pas_pipeline_items_total",
            help="Items processed per pipeline stage.",
            amount=n_items,
            stage=stage,
        )

    def _stage_dedup(self, corpus: list[SyntheticPrompt]) -> tuple[dict, dict]:
        survivors = _dedup(self.collector, corpus)
        self._processed("dedup", len(corpus))
        payload = {"survivors": [p.as_dict() for p in survivors]}
        return payload, {"n_input": len(corpus), "n_kept": len(survivors)}

    def _stage_quality(self, dedup_payload: dict) -> tuple[dict, dict]:
        survivors = [SyntheticPrompt.from_dict(p) for p in dedup_payload["survivors"]]
        graded = _filter_quality(self.collector, survivors)
        self._processed("quality", len(survivors))
        payload = {"graded": [{"prompt": p.as_dict(), "quality": s} for p, s in graded]}
        return payload, {"n_graded": len(survivors), "n_kept": len(graded)}

    def _stage_classify(
        self, corpus: list[SyntheticPrompt], dedup_payload: dict, quality_payload: dict
    ) -> tuple[dict, dict]:
        survivors = [SyntheticPrompt.from_dict(p) for p in dedup_payload["survivors"]]
        graded = [
            (SyntheticPrompt.from_dict(g["prompt"]), float(g["quality"]))
            for g in quality_payload["graded"]
        ]
        collection = _classify(self.collector, corpus, survivors, graded)
        self._processed("classify", len(graded))
        return {"collection": collection.as_dict()}, {"n_selected": collection.n_final}

    # -- generate: Algorithm 1 under faults, partial checkpoints -------- #

    def _fault_aware_critique(self, uid: int):
        """A critique callable for one pair that routes every critic call
        through the fault plan and retry policy.

        Each critique round is one logical "completion" keyed by
        ``(uid, round)``; attempts against it cost a tick (plus injected
        latency), failures back off per the policy, and exhaustion (or a
        blown per-pair deadline) raises :class:`_CriticUnavailable`, which
        the generate loop turns into a skipped pair.
        """
        plan = self.config.runner.fault_plan
        policy = self.config.runner.retry_policy or RetryPolicy()
        critic_model = self.pair_generator.critic_model.name
        state = {"round": 0, "spent": 0}

        def critique(prompt_text: str, ape_text: str):
            round_index = state["round"]
            state["round"] += 1
            key = f"critic:{uid}:{round_index}"
            attempt = 0
            while True:
                cost = 1 + (plan.latency_ticks(key, attempt) if plan else 0)
                if (
                    policy.deadline_ticks is not None
                    and state["spent"] + cost > policy.deadline_ticks
                ):
                    raise _CriticUnavailable(
                        f"critic deadline exhausted for pair {uid} "
                        f"(round {round_index}, attempt {attempt})"
                    )
                self._tick += cost
                state["spent"] += cost
                failed = plan is not None and (
                    plan.completion_fails(key, attempt)
                    or plan.in_outage(critic_model, self._tick)
                )
                if not failed:
                    return self.pair_generator.critic.critique(prompt_text, ape_text)
                attempt += 1
                if attempt > policy.max_retries:
                    raise _CriticUnavailable(
                        f"critic retries exhausted for pair {uid} "
                        f"(round {round_index}, attempts {attempt})"
                    )
                pause = math.ceil(policy.backoff_ticks(key, attempt - 1))
                self._tick += pause
                state["spent"] += pause

        return critique

    def _write_partial(self, run_key: str, done: list[dict], start: int) -> None:
        """Mid-generate checkpoint.  Obs-silent: no checkpoint event, so
        the event stream stays byte-identical across kill/resume."""
        assert self._rec is not None
        self._write_checkpoint(
            "generate.partial",
            run_key,
            {"done": done},
            {
                "start_tick": start,
                "tick": self._tick,
                "events": list(self._rec["events"]),
                "metrics": list(self._rec["metrics"]),
            },
        )

    def _stage_generate(self, run_key: str, classify_payload: dict, resume: bool) -> tuple[dict, bool]:
        rc = self.config.runner
        record = self._load_checkpoint("generate", run_key) if resume else None
        if record is not None:
            self._replay("generate", record["obs"])
            return record["payload"], True

        collection = CollectionResult.from_dict(classify_payload["collection"])
        partial = self._load_checkpoint("generate.partial", run_key) if resume else None
        done: list[dict] = []
        events: list[dict] = []
        metrics: list[dict] = []
        self._rec = {"events": events, "metrics": metrics}
        if rc.fault_plan is not None:
            rc.fault_plan.attach_observer(self._fault_observer)
        if partial is not None:
            self._tick = int(partial["obs"]["start_tick"])
        start = self._tick
        try:
            with self.obs.tracer.span("pipeline.generate") as span:
                if partial is not None:
                    done = list(partial["payload"]["done"])
                    for event in partial["obs"]["events"]:
                        self._tick = int(event["tick"])
                        self._emit(event["kind"], **event["attrs"])
                    for metric in partial["obs"]["metrics"]:
                        self._inc(
                            metric["name"],
                            help=metric["help"],
                            amount=metric["amount"],
                            **metric["labels"],
                        )
                    self._tick = int(partial["obs"]["tick"])
                total = len(collection.selected)
                for item in collection.selected[len(done):]:
                    self._generate_one(item, done)
                    if (
                        rc.fail_after_pairs is not None
                        and len(done) >= rc.fail_after_pairs
                        and len(done) < total
                    ):
                        self._write_partial(run_key, done, start)
                        raise PipelineInterrupted(
                            f"injected kill after {len(done)} generated pairs"
                        )
                    if len(done) % rc.checkpoint_every == 0 and len(done) < total:
                        self._write_partial(run_key, done, start)
                self._emit("pipeline.checkpoint", stage="generate")
                self._inc(
                    "pas_pipeline_checkpoints_total",
                    help="Completed stage checkpoints written.",
                    stage="generate",
                )
                outcomes = [d["outcome"] for d in done]
                attrs = {
                    "n_items": total,
                    "n_built": outcomes.count("built"),
                    "n_dropped": outcomes.count("dropped"),
                    "n_skipped": outcomes.count("skipped"),
                }
                span.set(**attrs)
                end = self._tick
        finally:
            self._rec = None
            if rc.fault_plan is not None:
                rc.fault_plan.attach_observer(None)
        self._write_checkpoint(
            "generate",
            run_key,
            {"done": done},
            {
                "start_tick": start,
                "end_tick": end,
                "span_attrs": attrs,
                "events": events,
                "metrics": metrics,
            },
        )
        self._drop_checkpoint("generate.partial")
        if rc.fail_after_stage == "generate":
            raise PipelineInterrupted("injected kill after stage 'generate'")
        return (
            self._load_checkpoint("generate", run_key)["payload"],
            partial is not None,
        )

    def _generate_one(self, item: SelectedPrompt, done: list[dict]) -> None:
        """Build one pair under the fault plan and append its outcome."""
        uid = item.prompt.uid
        critique = self._fault_aware_critique(uid)
        try:
            pair = self.pair_generator.build_pair(item, critique=critique)
        except _CriticUnavailable as exc:
            done.append({"uid": uid, "outcome": "skipped", "pair": None})
            self._inc(
                "pas_pipeline_pairs_total",
                help="Generated pairs by outcome.",
                outcome="skipped",
            )
            self._emit("pipeline.pair_skipped", uid=uid, reason=str(exc))
            return
        if pair is None:
            rounds = self.config.generation.max_rounds
            done.append({"uid": uid, "outcome": "dropped", "pair": None})
            self._inc(
                "pas_pipeline_pairs_total",
                help="Generated pairs by outcome.",
                outcome="dropped",
            )
            self._inc(
                "pas_pipeline_regenerations_total",
                help="Critic-driven regeneration rounds.",
                amount=rounds,
            )
            self._emit("pipeline.pair_dropped", uid=uid, rounds=rounds)
            return
        done.append({"uid": uid, "outcome": "built", "pair": pair.as_dict()})
        self._inc(
            "pas_pipeline_pairs_total",
            help="Generated pairs by outcome.",
            outcome="built",
        )
        if pair.regeneration_rounds:
            self._inc(
                "pas_pipeline_regenerations_total",
                help="Critic-driven regeneration rounds.",
                amount=pair.regeneration_rounds,
            )

    def _stage_dataset(self, generate_payload: dict) -> tuple[dict, dict]:
        done = generate_payload["done"]
        pairs = [
            PromptPair.from_dict(d["pair"]) for d in done if d["outcome"] == "built"
        ]
        n_dropped = sum(1 for d in done if d["outcome"] == "dropped")
        skipped = [int(d["uid"]) for d in done if d["outcome"] == "skipped"]
        dataset = PromptPairDataset(
            pairs=pairs, curated=self.config.generation.curate, n_dropped=n_dropped
        )
        self._processed("dataset", len(done))
        payload = {"dataset": dataset.as_dict(), "skipped_uids": skipped}
        attrs = {
            "n_pairs": len(pairs),
            "n_dropped": n_dropped,
            "n_skipped": len(skipped),
        }
        return payload, attrs

    # ------------------------------------------------------------------ #
    # the run
    # ------------------------------------------------------------------ #

    def run(self, corpus: list[SyntheticPrompt], resume: bool = True) -> PipelineResult:
        """Execute (or resume) the full pipeline over ``corpus``.

        Checkpoints from a different config or corpus are ignored, not
        reused: the run key is a content hash over both.  With
        ``resume=False`` every stage executes fresh (existing checkpoints
        are overwritten as stages complete).
        """
        run_key = self._run_key(corpus)
        self._tick = 0
        dedup_payload, r_dedup = self._stage(
            "dedup", run_key, resume, lambda: self._stage_dedup(corpus)
        )
        quality_payload, r_quality = self._stage(
            "quality", run_key, resume, lambda: self._stage_quality(dedup_payload)
        )
        classify_payload, r_classify = self._stage(
            "classify",
            run_key,
            resume,
            lambda: self._stage_classify(corpus, dedup_payload, quality_payload),
        )
        generate_payload, r_generate = self._stage_generate(
            run_key, classify_payload, resume
        )
        dataset_payload, r_dataset = self._stage(
            "dataset", run_key, resume, lambda: self._stage_dataset(generate_payload)
        )
        resumed = tuple(
            name
            for name, flag in zip(
                self.STAGES,
                (r_dedup, r_quality, r_classify, r_generate, r_dataset),
                strict=True,
            )
            if flag
        )
        return PipelineResult(
            dataset=PromptPairDataset.from_dict(dataset_payload["dataset"]),
            collection=CollectionResult.from_dict(classify_payload["collection"]),
            skipped_uids=[int(uid) for uid in dataset_payload["skipped_uids"]],
            resumed_stages=resumed,
            run_key=run_key,
        )
