"""Bench-side layer tracing: wrap public ``repro`` functions, record spans.

The benchmark measures the program from outside.  A traced run replaces
each target in :data:`LAYERS` with a thin wrapper that records one span
per call (name, start, end, parent, request id, thread) into an in-memory
:class:`SpanRecorder`; :func:`layer_stats` turns the spans into per-layer
call counts and self time.  :class:`Wrappers` installs the wrappers and
puts every original back on exit, so an untraced repeat in the same
process runs the unmodified code.

Targets are named the way the program looks them up: methods on their
class, and imported functions on the *caller's* module (a function bound
into ``repro.llm.engine`` by ``from ... import`` is only intercepted if
the wrapper replaces that binding).
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import threading
import time

#: One row per layer: (layer, module, class or None for module-level
#: functions, attribute names or glob patterns).  A trailing ``?`` marks an
#: optional target; every other target must resolve, or installing fails.
LAYERS: tuple[tuple[str, str, str | None, tuple[str, ...]], ...] = (
    ("serve.engine", "repro.serve.engine", "ServingEngine", ("run",)),
    (
        "serve.router",
        "repro.serve.router",
        "Router",
        (
            "admit",
            "route",
            "resolve",
            "release",
            "wfq_tags",
            "hedge_candidate",
            "plan_batch",
            "completion_latency",
            "serve_planned",
        ),
    ),
    (
        "serve.gateway",
        "repro.serve.gateway",
        "PasGateway",
        ("plan_batch", "serve_planned", "completion_latency"),
    ),
    (
        "core.pas",
        "repro.core.pas",
        "PasModel",
        ("embed_prompts", "augment_with_embeddings", "augment"),
    ),
    ("embedding", "repro.embedding.model", "EmbeddingModel", ("embed*",)),
    ("llm.sft", "repro.llm.sft", "SftDirectivePredictor", ("predict_aspects*",)),
    ("llm.api", "repro.llm.api", "ChatClient", ("complete", "completion_latency")),
    ("llm.engine", "repro.llm.engine", "SimulatedLLM", ("respond", "infer_needs")),
    # ``_call_rng`` is a class-level alias of ``call_rng`` that ``respond``
    # and ``FewShotGenerator`` call directly, so it needs its own wrapper.
    ("llm.engine.call_rng", "repro.llm.engine", "SimulatedLLM", ("call_rng", "_call_rng?")),
    ("world.aspects", "repro.llm.engine", None, ("parse_directives", "find_cues")),
    (
        "policy",
        "repro.policy.policy",
        "AugmentationPolicy",
        ("select", "complement_for", "observe"),
    ),
    ("judge", "repro.judge.judge", "LlmJudge", ("absolute_score",)),
    ("pipeline", "repro.pipeline.runner", "PipelineRunner", ("run",)),
    ("cluster.dedup", "repro.pipeline.runner", None, ("deduplicate",)),
    ("ann.build", "repro.ann.hnsw", "HnswIndex", ("add_batch",)),
    ("ann.knn_graph", "repro.ann.hnsw", "HnswIndex", ("knn_graph",)),
    ("pipeline.select", "repro.pipeline.select", "QualityScorer", ("*",)),
    ("classify", "repro.classify.model", "CategoryClassifier", ("*",)),
    ("pipeline.generate", "repro.pipeline.generate", "PairGenerator", ("build_pair",)),
    ("utils.io", "repro.pipeline.runner", None, ("to_jsonable",)),
    ("llm.sft.fit", "repro.core.pas", "PasModel", ("train",)),
)

LAYER_NAMES: tuple[str, ...] = tuple(row[0] for row in LAYERS)


class SpanRecorder:
    """In-memory spans, one row per wrapped call.

    A row is ``[name, start, end, parent, request_id, thread]``: times are
    ``time.perf_counter()`` seconds, ``parent`` is the index of the
    enclosing span on the same thread (``-1`` for a root).  Nesting is
    tracked on a per-thread stack, so spans on one thread never overlap
    their siblings.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stacks: dict[int, list[int]] = {}
        #: Free-form counters that wrapper hooks bump (see ``HOOKS``).
        self.counters: dict[str, float] = {}

    def open(self, name: str, request_id: str | None) -> int:
        thread = threading.get_ident()
        stack = self._stacks.get(thread)
        if stack is None:
            stack = self._stacks[thread] = []
        index = len(self.spans)
        self.spans.append(
            [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, request_id, thread]
        )
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stacks[threading.get_ident()].pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount


def layer_stats(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per-layer ``calls`` and ``self_s`` from recorded spans.

    A span's self time is its duration minus the time its direct children
    cover; children on one thread are sequential and nested inside their
    parent, so that is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats: dict[str, dict[str, float]] = {}
    for (name, start, end, _, _, _), child_time in zip(spans, covered):
        row = stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time
    return stats


def root_time(spans: list[list]) -> float:
    """Wall time covered by root spans (the traced share of a repeat)."""
    return sum(end - start for _, start, end, parent, _, _ in spans if parent < 0)


def _plan_batch_hook(recorder: SpanRecorder, args: tuple, result) -> None:
    """Count requests planned and prompts freshly augmented per plan.

    A fresh augment carries the embedding the planner computed; a
    complement held from the cache peek carries ``None``.
    """
    recorder.count("gateway.plans")
    recorder.count("gateway.planned_requests", len(args[1]))
    recorder.count(
        "gateway.fresh_augments",
        sum(1 for _, vector in result.precomputed.values() if vector is not None),
    )


#: Extra per-target bookkeeping: (layer, attribute) -> hook(recorder, args, result).
HOOKS = {("serve.gateway", "plan_batch"): _plan_batch_hook}


def _make_wrapper(recorder: SpanRecorder, layer: str, func, hook, request_type):
    open_span, close_span = recorder.open, recorder.close

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        request_id = None
        for arg in args:
            if isinstance(arg, request_type):
                request_id = arg.request_id
                break
        index = open_span(layer, request_id)
        try:
            result = func(*args, **kwargs)
        finally:
            close_span(index)
        if hook is not None:
            hook(recorder, args, result)
        return result

    return wrapper


def _is_function(value) -> bool:
    if isinstance(value, (staticmethod, classmethod)):
        return True
    return callable(value) and not isinstance(value, type)


def _resolve(owner, pattern: str) -> list[str]:
    """Function attributes defined on ``owner`` that match one pattern;
    ``*`` means every public one."""
    candidates = [
        name
        for name, value in vars(owner).items()
        if not name.startswith("__") and _is_function(value)
    ]
    if pattern == "*":
        return sorted(name for name in candidates if not name.startswith("_"))
    if "*" in pattern:
        return sorted(fnmatch.filter(candidates, pattern))
    return [pattern] if pattern in candidates else []


class Wrappers:
    """Install span wrappers on every :data:`LAYERS` target; restore on exit.

    Use as a context manager.  A required target that does not resolve
    raises :class:`LookupError` before anything is patched.
    """

    def __init__(self, recorder: SpanRecorder, layers=LAYERS):
        self.recorder = recorder
        self.layers = layers
        self._saved: list[tuple[object, str, object]] = []

    def _targets(self) -> list[tuple[str, object, str]]:
        targets = []
        for layer, module_name, class_name, patterns in self.layers:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name)
            for pattern in patterns:
                optional = pattern.endswith("?")
                pattern = pattern.rstrip("?")
                names = _resolve(owner, pattern)
                if not names and not optional:
                    where = module_name + ("" if class_name is None else f".{class_name}")
                    raise LookupError(f"trace target {where}.{pattern} ({layer}) not found")
                targets.extend((layer, owner, name) for name in names)
        return targets

    def __enter__(self) -> "Wrappers":
        from repro.serve.types import ServeRequest

        for layer, owner, name in self._targets():
            raw = vars(owner)[name]
            hook = HOOKS.get((layer, name))
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(
                    _make_wrapper(self.recorder, layer, raw.__func__, hook, ServeRequest)
                )
            else:
                wrapped = _make_wrapper(self.recorder, layer, raw, hook, ServeRequest)
            self._saved.append((owner, name, raw))
            setattr(owner, name, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)
