"""The PAS gateway: one trained augmenter in front of many target models.

This is the deployment shape the paper's Figure 1(a) draws: user prompts
enter, PAS complements them, the chosen target LLM answers the concatenated
prompt.  The gateway adds what a production front-end needs —

* lazy per-model :class:`~repro.llm.api.ChatClient` construction with a
  shared retry/budget policy,
* two tiers of caching: an LRU complement cache keyed by prompt text, and
  under it an embedding memo cache so complement-cache misses that
  re-augment a prompt skip re-embedding it,
* **outcome-based serving**: :meth:`PasGateway.ask` / :meth:`ask_batch`
  return one :class:`~repro.serve.types.ServeResponse` per request instead
  of raising — augmentation failures *degrade* to completing the raw
  prompt (the plug-and-play fallback: the user always gets an answer) and
  completion failures come back as ``failed`` responses.  ``strict=True``
  restores the raising behaviour for callers that want exceptions,
* per-model **circuit breakers** (closed → open after N consecutive
  completion failures → half-open probe on the logical clock) that fail
  fast while a backend is down,
* **observability**: every request runs inside a ``gateway.ask`` span tree
  (augment → cache/embed → complete → retry[n]) stamped on the logical
  clock, after the ``gateway.plan`` trace of its batch (a batch of one,
  for :meth:`ask`); outcome/cache/token counters land in a metrics
  registry, and faults, breaker transitions, evictions, and
  failed/degraded serves emit into an event log.  Pass
  ``obs=Observability.enabled()`` to collect; the default all-null
  bundle makes instrumentation free.  Cumulative
  :class:`GatewayStats` count this gateway's own serves, with
  observability on or off, and read the live clients/breakers/caches;
  a registry shared by several gateways holds the sum of their counts.

Message construction follows the library-wide
:func:`~repro.llm.types.build_messages` convention (prompt as the ``user``
turn, complement as a preceding ``system`` turn).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # the policy layer is optional; never imported at runtime
    from repro.policy.policy import AugmentationPolicy

from repro.core.pas import PasModel
from repro.errors import AugmentationError, CircuitOpenError, ReproError, UnknownModelError
from repro.llm.api import ChatClient, CompletionMemo, LatencyModel
from repro.llm.engine import SimulatedLLM
from repro.llm.types import build_messages
from repro.obs import NULL_OBS, Observability
from repro.resilience import CircuitBreaker, FaultPlan, RetryPolicy
from repro.serve.cache import LruCache
from repro.serve.types import ServeRequest, ServeResponse
from repro.utils.serialize import Record, register
from repro.utils.timing import StageTimer

__all__ = [
    "BatchPlan",
    "GatewayConfig",
    "GatewayStats",
    "PasGateway",
    "build_messages",
    "derive_stage_timings",
]

#: Stage keys reported by :func:`derive_stage_timings`.
STAGES = ("augment", "cache", "completion", "stats")

#: Attempt-count buckets for the per-request ``pas_attempts`` histogram.
_ATTEMPT_BUCKETS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0)

#: Judged-reward buckets for the ``pas_policy_reward`` histogram (0-5 grades).
_REWARD_BUCKETS = (1.0, 2.0, 3.0, 3.5, 4.0, 4.5, 5.0)


@dataclass(frozen=True)
class GatewayConfig(Record):
    """Everything configurable about a :class:`PasGateway`.

    ``cache_size`` bounds the complement LRU (prompt → complement);
    ``embed_cache_size`` bounds the embedding memo tier beneath it (``0``
    disables the tier).  ``failure_rate`` / ``max_retries`` configure the
    per-model :class:`~repro.llm.api.ChatClient`\\ s; ``seed`` salts the
    simulated engines.  ``strict`` picks the default serving mode
    (``False``: every request yields a response; ``True``: failures
    raise).  ``fault_plan`` / ``retry_policy`` are injected into every
    client (and the fault plan into augmentation); ``breaker_threshold``
    consecutive completion failures open a model's circuit, which
    half-opens for a probe after ``breaker_recovery_ticks`` on the
    gateway's logical clock.  ``latency_model`` gives every client a
    seeded per-completion latency distribution (``None`` picks the
    library default) and ``max_inflight`` is the per-model concurrency
    limit the :class:`~repro.serve.engine.ServingEngine` honours — both
    are inert on the synchronous paths, which never consult them.
    """

    cache_size: int = 1024
    embed_cache_size: int = 1024
    failure_rate: float = 0.0
    max_retries: int = 3
    seed: int = 0
    strict: bool = False
    fault_plan: FaultPlan | None = None
    retry_policy: RetryPolicy | None = None
    breaker_threshold: int = 5
    breaker_recovery_ticks: int = 16
    latency_model: LatencyModel | None = None
    max_inflight: int = 1


register(GatewayConfig)


@dataclass(frozen=True)
class BatchPlan:
    """The augmentation plan for a batch of requests.

    Produced by :meth:`PasGateway.plan_batch`: ``precomputed`` maps each
    unique augmentable prompt to its ``(complement, embedding)`` (the
    embedding is ``None`` when the complement was held from the LRU
    peek), ``degraded`` holds the prompts the fault plan will degrade.
    Every augmentable prompt of the batch is in exactly one of the two.
    Feed it back through :meth:`PasGateway.serve_planned` — immediately
    (what :meth:`PasGateway.ask` does with a one-request plan and
    :meth:`PasGateway.ask_batch` with a whole batch) or spread over later
    ticks (what the serving engine does while completions overlap).
    """

    precomputed: Mapping[str, tuple[str, np.ndarray | None]]
    degraded: frozenset[str]

    def complement_for(self, request: ServeRequest) -> str:
        """The complement ``serve_planned`` will concatenate (may be "")."""
        if not request.augment or request.prompt in self.degraded:
            return ""
        entry = self.precomputed.get(request.prompt)
        return entry[0] if entry is not None else ""


class GatewayStats:
    """Cumulative request accounting — a live view, not a mutable bag.

    Outcome, augmentation, cache-hit and token counts are the gateway's
    own tallies.  The same updates feed the bundle's registry series
    (``pas_requests_total{model,status}``, ``pas_augmented_total``,
    ``pas_cache_hits_total``, ``pas_tokens_total{kind}``) when metrics are
    on, but a registry can be shared (a :class:`~repro.serve.router.Router`
    gives one bundle to every replica), so only the sum over the gateways
    writing a series equals it.  Retry/backoff totals, breaker snapshots,
    and embedding-tier counters are read straight off the live clients,
    breakers, and cache.  ``==`` compares :meth:`as_dict`.

    ``requests`` counts every request the gateway attempted; ``failures``
    counts the ones that produced **no answer** — completion retries
    exhausted, deadline budget blown, or the model's circuit breaker open
    — so ``requests - failures`` is the number *served* (also available as
    :attr:`served`).  ``degraded`` counts served requests whose
    augmentation failed and fell back to the raw prompt; degraded
    responses are answers, so they are **not** failures.  ``per_model``
    mirrors ``requests`` per target model (attempts, served *and* failed);
    ``failures_per_model`` mirrors ``failures``, so the served count per
    model is their difference.  ``embed_cache_hits`` /
    ``embed_cache_misses`` track the embedding memo tier under the
    complement LRU (a hit means an augmentation skipped re-embedding).
    ``retries`` totals failed completion attempts across all model
    clients, ``backoff_ticks`` the logical-time pauses their retry
    policies inserted; ``breaker_state`` / ``breaker_trips`` snapshot each
    model's circuit (state string, and how often it opened).
    """

    __slots__ = ("_gateway",)

    def __init__(self, gateway: "PasGateway"):
        self._gateway = gateway

    # -- the gateway's own tallies ------------------------------------- #

    @property
    def requests(self) -> int:
        return sum(self._gateway._outcomes.values())

    def _status_series(self) -> list[tuple[str, str, int]]:
        """Flat ``(model, status, count)`` rows, in first-seen order."""
        return [
            (model, status, n)
            for (model, status), n in self._gateway._outcomes.items()
        ]

    @property
    def failures(self) -> int:
        return sum(n for _, status, n in self._status_series() if status == "failed")

    @property
    def degraded(self) -> int:
        return sum(n for _, status, n in self._status_series() if status == "degraded")

    @property
    def per_model(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for model, _, n in self._status_series():
            out[model] = out.get(model, 0) + n
        return out

    @property
    def failures_per_model(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for model, status, n in self._status_series():
            if status == "failed":
                out[model] = out.get(model, 0) + n
        return out

    @property
    def augmented(self) -> int:
        return self._gateway._augmented

    @property
    def cache_hits(self) -> int:
        return self._gateway._cache_hits

    @property
    def prompt_tokens(self) -> int:
        return self._gateway._prompt_tokens

    @property
    def completion_tokens(self) -> int:
        return self._gateway._completion_tokens

    # -- live component reads ------------------------------------------ #

    @property
    def embed_cache_hits(self) -> int:
        cache = self._gateway._embed_cache
        return cache.hits if cache is not None else 0

    @property
    def embed_cache_misses(self) -> int:
        cache = self._gateway._embed_cache
        return cache.misses if cache is not None else 0

    @property
    def retries(self) -> int:
        return sum(c.usage.failures for c in self._gateway._clients.values())

    @property
    def backoff_ticks(self) -> float:
        return sum(c.usage.backoff_ticks for c in self._gateway._clients.values())

    @property
    def breaker_state(self) -> dict[str, str]:
        return {m: b.state for m, b in self._gateway._breakers.items()}

    @property
    def breaker_trips(self) -> dict[str, int]:
        return {m: b.trips for m, b in self._gateway._breakers.items() if b.trips}

    # -- derived ------------------------------------------------------- #

    @property
    def served(self) -> int:
        """Requests that got an answer (``ok`` + ``degraded``)."""
        return self.requests - self.failures

    @property
    def augmentation_rate(self) -> float:
        if self.requests == 0:
            return 0.0
        return self.augmented / self.requests

    def as_dict(self) -> dict:
        """JSON-safe dict with a stable key order (for structured export)."""
        return {
            "requests": self.requests,
            "served": self.served,
            "failures": self.failures,
            "degraded": self.degraded,
            "augmented": self.augmented,
            "augmentation_rate": self.augmentation_rate,
            "cache_hits": self.cache_hits,
            "embed_cache_hits": self.embed_cache_hits,
            "embed_cache_misses": self.embed_cache_misses,
            "prompt_tokens": self.prompt_tokens,
            "completion_tokens": self.completion_tokens,
            "retries": self.retries,
            "backoff_ticks": self.backoff_ticks,
            "per_model": dict(sorted(self.per_model.items())),
            "failures_per_model": dict(sorted(self.failures_per_model.items())),
            "breaker_state": dict(sorted(self.breaker_state.items())),
            "breaker_trips": dict(sorted(self.breaker_trips.items())),
        }

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GatewayStats):
            return self.as_dict() == other.as_dict()
        return NotImplemented

    def __repr__(self) -> str:
        return f"GatewayStats({self.as_dict()!r})"


def derive_stage_timings(tracer) -> dict[str, float]:
    """Per-stage wall-clock buckets from a wall-enabled tracer.

    This is the span-based replacement for the old flat stage clock.  The
    mapping from span names to the legacy :data:`STAGES` buckets:

    * ``augment`` — the augment spans' *exclusive* time (the planner's
      PAS forward pass, and each serve's complement step) plus any
      explicit ``embed`` child spans;
    * ``cache`` — all ``cache`` spans, inclusive (both tiers, scalar gets
      and batch-planning peeks);
    * ``completion`` — all ``complete`` spans, inclusive (retries and
      backoff included);
    * ``stats`` — the *exclusive* remainder of the ``gateway.ask`` and
      ``gateway.plan`` roots: breaker checks, response assembly, batch
      bookkeeping.

    Returns all-zero buckets when the tracer has no wall timer.
    """
    timer: StageTimer | None = getattr(tracer, "timer", None)
    if timer is None:
        return {stage: 0.0 for stage in STAGES}
    inc, exc = timer.inclusive_s, timer.exclusive_s
    return {
        "augment": exc.get("augment", 0.0) + inc.get("embed", 0.0),
        "cache": inc.get("cache", 0.0),
        "completion": inc.get("complete", 0.0),
        "stats": exc.get("gateway.ask", 0.0) + exc.get("gateway.plan", 0.0),
    }


class PasGateway:
    """Serve augmented completions for any registered target model.

    Configure with a :class:`GatewayConfig` (``PasGateway(pas, config=...)``)
    — the single construction path.

    ``obs`` takes an :class:`~repro.obs.Observability` bundle; the gateway
    binds its logical clock into it, threads it through every client and
    both caches, and instruments the full request path.  The default
    :data:`~repro.obs.NULL_OBS` keeps everything off.  Observability never
    touches results: responses, stats, and cache state are bit-identical
    with it on or off.

    Both caches are transparent: cached values are bit-identical to
    recomputation.  The serving API is outcome-based — see :meth:`ask`.

    ``completion_memos`` maps a target model to the
    :class:`~repro.llm.api.CompletionMemo` its client reads and fills; the
    gateway adds a memo for each model it meets that the mapping lacks.
    A :class:`~repro.serve.router.Router` passes one mapping to every
    replica it builds, so a pair is completed once per fleet; ``None``
    gives this gateway a private mapping.  Share one only between
    gateways with equal ``seed`` and ``latency_model``: the memo holds
    results of the engine and latency model of whichever client computed
    them first.
    """

    def __init__(
        self,
        pas: PasModel,
        config: GatewayConfig | None = None,
        obs: Observability = NULL_OBS,
        *,
        complement_cache: LruCache | None = None,
        embed_cache: LruCache | None = None,
        policy: "AugmentationPolicy | None" = None,
        completion_memos: dict[str, CompletionMemo] | None = None,
    ):
        self.config = config or GatewayConfig()
        self.pas = pas
        self.seed = int(self.config.seed)
        self._clock = 0
        self._clients: dict[str, ChatClient] = {}
        self._completion_memos: dict[str, CompletionMemo] = (
            completion_memos if completion_memos is not None else {}
        )
        self._breakers: dict[str, CircuitBreaker] = {}
        # Injected caches let a Router share one two-tier cache across
        # replicas (``cache_scope="shared"``); ``None`` builds private
        # tiers sized by the config, as before.
        self._complement_cache: LruCache[str, str] = (
            complement_cache
            if complement_cache is not None
            else LruCache(capacity=self.config.cache_size)
        )
        if embed_cache is not None:
            self._embed_cache: LruCache[str, np.ndarray] | None = embed_cache
        else:
            self._embed_cache = (
                LruCache(capacity=self.config.embed_cache_size)
                if self.config.embed_cache_size > 0
                else None
            )
        self.obs = obs
        self.obs.bind_clock(lambda: self._clock)
        # Stats count this gateway's serves alone: (model, status) ->
        # requests, in first-seen order, and the served totals.
        self._outcomes: Counter[tuple[str, str]] = Counter()
        self._augmented = self._cache_hits = 0
        self._prompt_tokens = self._completion_tokens = 0
        # The same updates go to the bundle's registry, which other
        # components may share (null instruments when metrics are off).
        metrics = obs.metrics
        self._m_requests = metrics.counter(
            "pas_requests_total", help="Requests by model and outcome status."
        )
        self._m_augmented = metrics.counter(
            "pas_augmented_total", help="Served requests that carried a complement."
        )
        self._m_cache_hits = metrics.counter(
            "pas_cache_hits_total", help="Complement-cache hits on served requests."
        )
        self._m_tokens = metrics.counter(
            "pas_tokens_total", help="Tokens by kind (prompt/completion)."
        )
        self._m_attempts = metrics.histogram(
            "pas_attempts",
            buckets=_ATTEMPT_BUCKETS,
            help="Completion attempts per served request.",
        )
        # Bound handles for the six updates every served request makes:
        # each label set is canonicalised once, not per request.  The
        # per-model ones are bound in client_for.
        self._count_augmented = self._m_augmented.bind()
        self._count_cache_hit = self._m_cache_hits.bind()
        self._count_prompt_tokens = self._m_tokens.bind(kind="prompt")
        self._count_completion_tokens = self._m_tokens.bind(kind="completion")
        self._served_series: dict[str, tuple[dict[str, Callable], Callable]] = {}
        # Policy instruments exist only when a policy does: a registered-
        # but-empty series would still appear in metrics snapshots and
        # break byte-parity with the unpoliced gateway (the same rule the
        # trivial Router follows).
        self._policy = policy
        if policy is not None:
            self._m_policy_pulls = metrics.counter(
                "pas_policy_pulls_total",
                help="Policy arm pulls by strategy and context category.",
            )
            self._m_policy_reward = metrics.histogram(
                "pas_policy_reward",
                buckets=_REWARD_BUCKETS,
                help="Judged reward (0-5) per policy-served request.",
            )
        else:
            self._m_policy_pulls = None
            self._m_policy_reward = None
        if self.obs.active:
            self._complement_cache.observer = self._cache_observer("complement")
            if self._embed_cache is not None:
                self._embed_cache.observer = self._cache_observer("embed")
            if self.config.fault_plan is not None:
                self.config.fault_plan.attach_observer(self._fault_observer)
        self.stats = GatewayStats(self)

    @property
    def clock(self) -> int:
        """Logical time: how many requests this gateway has attempted."""
        return self._clock

    @property
    def policy(self) -> "AugmentationPolicy | None":
        """The adaptive augmentation policy, when one is plugged in.

        With ``policy=None`` (the default) the gateway is byte-identical
        to the pre-policy gateway: no ``policy.select`` spans, no
        ``pas_policy_*`` metric series, no ``strategy`` key in response
        exports.  With a policy, each augmentable ``ok`` serve routes
        through candidate → select → complete → judge → bandit update,
        and the chosen arm lands in :attr:`ServeResponse.strategy
        <repro.serve.types.ServeResponse.strategy>`.
        """
        return self._policy

    # ------------------------------------------------------------------ #
    # observability wiring
    # ------------------------------------------------------------------ #

    def _cache_observer(self, tier: str):
        ops = self.obs.metrics.counter(
            "pas_cache_ops_total", help="Cache operations by tier and op."
        )

        def observe(op: str, key) -> None:
            ops.inc(tier=tier, op=op)
            if op == "evict":
                self.obs.events.emit("cache.evict", tier=tier, key=key)

        return observe

    def _fault_observer(self, stage: str, key: str, detail) -> None:
        self.obs.metrics.counter(
            "pas_faults_total", help="Injected faults by stage."
        ).inc(stage=stage)
        self.obs.events.emit("fault.injected", stage=stage, key=key, detail=detail)

    def _breaker_observer(self, model: str):
        transitions = self.obs.metrics.counter(
            "pas_breaker_transitions_total",
            help="Circuit-breaker transitions by model and new state.",
        )

        def observe(tick: int, state: str) -> None:
            transitions.inc(model=model, state=state)
            self.obs.events.emit("breaker.transition", model=model, state=state)

        return observe

    # ------------------------------------------------------------------ #
    # components
    # ------------------------------------------------------------------ #

    def client_for(self, model: str) -> ChatClient:
        """The (lazily created) client serving one target model."""
        if model not in self._clients:
            engine = SimulatedLLM(model, seed=self.seed)  # raises for unknown names
            memo = self._completion_memos.setdefault(model, CompletionMemo())
            self._clients[model] = ChatClient(
                engine=engine,
                failure_rate=self.config.failure_rate,
                max_retries=self.config.max_retries,
                fault_plan=self.config.fault_plan,
                retry_policy=self.config.retry_policy,
                clock=lambda: self._clock,
                latency_model=self.config.latency_model,
                max_inflight=self.config.max_inflight,
                obs=self.obs,
                memo=memo,
            )
            self._served_series[model] = (
                {
                    status: self._m_requests.bind(model=model, status=status)
                    for status in ("ok", "degraded")
                },
                self._m_attempts.bind(model=model),
            )
        return self._clients[model]

    def breaker_for(self, model: str) -> CircuitBreaker:
        """The (lazily created) circuit breaker guarding one target model."""
        if model not in self._breakers:
            breaker = CircuitBreaker(
                failure_threshold=self.config.breaker_threshold,
                recovery_ticks=self.config.breaker_recovery_ticks,
            )
            if self.obs.active:
                breaker.observer = self._breaker_observer(model)
            self._breakers[model] = breaker
        return self._breakers[model]

    def _complement(self, prompt: str, plan: BatchPlan) -> tuple[str, bool]:
        """The complement for ``prompt``: a cache hit, else the plan's.

        On a miss the tiers are touched in the order an augment through
        the embedding memo touches them: one embedding-tier get and, on a
        miss, a put of the same vector (held from planning, or recomputed
        when the complement was held from the LRU peek); then the
        complement put.  A prompt the planner found faulty raises its
        injected fault here instead, at serve time.
        """
        tracer = self.obs.tracer
        with tracer.span("cache", tier="complement") as cache_span:
            cached = self._complement_cache.get(prompt)
            cache_span.set(hit=cached is not None)
        if cached is not None:
            return cached, True
        if prompt in plan.degraded:
            raise self.config.fault_plan.augment_fault(prompt)
        complement, embedding = plan.precomputed[prompt]
        if self._embed_cache is not None:
            with tracer.span("cache", tier="embed") as embed_span:
                hit = self._embed_cache.get(prompt) is not None
                embed_span.set(hit=hit)
            if not hit:
                if embedding is None:
                    with tracer.span("embed"):
                        embedding = self.pas.embed_prompts([prompt])[0]
                self._embed_cache.put(prompt, embedding)
        self._complement_cache.put(prompt, complement)
        return complement, False

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #

    def ask(self, request: ServeRequest, *, strict: bool | None = None) -> ServeResponse:
        """Serve one request end to end, returning a structured outcome.

        Non-strict (the default, ``config.strict=False``): always returns
        a :class:`~repro.serve.types.ServeResponse` — ``ok`` on the happy
        path, ``degraded`` when augmentation failed and the *raw prompt*
        was completed instead (plug-and-play: the original prompt is
        always a valid input), ``failed`` when no completion could be
        produced (retries exhausted, deadline blown, or circuit open);
        failed responses carry the error string and the attempt count.

        Strict (``strict=True``): preserves the historical contract — the
        underlying :class:`~repro.errors.ReproError` propagates.  Either
        way the request, its model, and a :attr:`GatewayStats.failures`
        tick are recorded before a failure surfaces.

        An unknown model name raises :class:`~repro.errors.UnknownModelError`
        in strict mode and yields a ``failed`` response otherwise.

        This is :meth:`serve_planned` over a one-request
        :meth:`plan_batch`, the same path :meth:`ask_batch` and the
        serving engine take.  With tracing on, each ask records its
        ``gateway.plan`` trace, then its ``gateway.ask`` trace.
        """
        return self.serve_planned(request, self.plan_batch([request]), strict=strict)

    def _strictness(self, strict: bool | None) -> bool:
        return self.config.strict if strict is None else strict

    def _fail(
        self,
        root,
        request: ServeRequest,
        complement: str,
        was_cached: bool,
        error: Exception,
        strict: bool,
        *,
        stage: str,
    ) -> ServeResponse:
        """Record one no-answer outcome: counters, span, event, response."""
        self._outcomes[request.model, "failed"] += 1
        self._m_requests.inc(model=request.model, status="failed")
        message = f"{type(error).__name__}: {error}"
        attempts = getattr(error, "attempts", 0)
        root.status = "failed"
        root.set(stage=stage, error=message, attempts=attempts)
        self.obs.events.emit(
            "serve.failed",
            model=request.model,
            stage=stage,
            error=message,
            attempts=attempts,
        )
        if strict:
            raise error
        return ServeResponse(
            request_id=request.request_id,
            model=request.model,
            response="",
            complement=complement,
            complement_cached=was_cached,
            prompt_tokens=0,
            completion_tokens=0,
            status="failed",
            error=message,
            attempts=attempts,
        )

    def _serve(self, request: ServeRequest, plan: BatchPlan, *, strict: bool) -> ServeResponse:
        self._clock += 1
        tracer = self.obs.tracer
        with tracer.span("gateway.ask", model=request.model) as root:
            if request.request_id is not None:
                root.set(request_id=request.request_id)
            if request.tenant is not None:
                root.set(tenant=request.tenant)
            try:
                client = self.client_for(request.model)
            except UnknownModelError as error:
                return self._fail(root, request, "", False, error, strict, stage="route")
            breaker = self.breaker_for(request.model)

            if not breaker.allow(self._clock):
                root.set(breaker="open")
                error = CircuitOpenError(
                    f"circuit open for model {request.model!r}: "
                    f"{breaker.consecutive_failures} consecutive failures, "
                    f"probe at tick {(breaker.opened_at or 0) + breaker.recovery_ticks}"
                )
                return self._fail(
                    root, request, "", False, error, strict, stage="breaker"
                )

            degraded_error: str | None = None
            if request.augment:
                try:
                    with tracer.span("augment") as augment_span:
                        complement, was_cached = self._complement(request.prompt, plan)
                        augment_span.set(cached=was_cached)
                except AugmentationError as error:
                    if strict:
                        return self._fail(
                            root, request, "", False, error, strict, stage="augment"
                        )
                    # The plug-and-play fallback: the raw prompt is always a
                    # valid input, so serve it unaugmented.
                    complement, was_cached = "", False
                    degraded_error = f"{type(error).__name__}: {error}"
                    self.obs.events.emit(
                        "serve.degraded", model=request.model, error=degraded_error
                    )
            else:
                complement, was_cached = "", False

            # The policy decision: pick a strategy arm and swap in its
            # complement.  The static complement was already computed
            # through the cache tiers above — so cache state, hits, and
            # scalar/batch parity are exactly what they are without a
            # policy — and the ``static`` arm serves it verbatim.
            strategy: str | None = None
            policy_context: tuple[str, str] | None = None
            if (
                self._policy is not None
                and request.augment
                and degraded_error is None
            ):
                with tracer.span("policy.select") as policy_span:
                    policy_context = self._policy.context_for(
                        request.prompt, request.tenant
                    )
                    strategy = self._policy.select(policy_context, self._clock)
                    complement = self._policy.complement_for(
                        request.prompt,
                        strategy,
                        static=complement,
                        embed_cache=self._embed_cache,
                    )
                    policy_span.set(
                        strategy=strategy,
                        category=policy_context[0],
                        tenant=policy_context[1],
                    )

            try:
                completion = client.complete(build_messages(request.prompt, complement))
            except ReproError as error:
                breaker.record_failure(self._clock)
                return self._fail(
                    root, request, complement, was_cached, error, strict, stage="complete"
                )
            breaker.record_success(self._clock)

            status = "ok" if degraded_error is None else "degraded"
            self._outcomes[request.model, status] += 1
            count_status, observe_attempts = self._served_series[request.model]
            count_status[status]()
            if complement:
                self._augmented += 1
                self._count_augmented()
            if was_cached:
                self._cache_hits += 1
                self._count_cache_hit()
            self._prompt_tokens += completion.prompt_tokens
            self._completion_tokens += completion.completion_tokens
            self._count_prompt_tokens(completion.prompt_tokens)
            self._count_completion_tokens(completion.completion_tokens)
            observe_attempts(completion.retries + 1)
            if strategy is not None:
                # Close the loop: judge the served answer, pay the bandit.
                # Off-corpus prompts yield no reward and no update.
                reward = self._policy.observe(
                    request.prompt,
                    policy_context,
                    strategy,
                    complement,
                    completion.content,
                )
                self._m_policy_pulls.inc(
                    strategy=strategy, category=policy_context[0]
                )
                if reward is not None:
                    self._m_policy_reward.observe(reward, strategy=strategy)
                root.set(strategy=strategy)
            root.status = status
            root.set(
                attempts=completion.retries + 1,
                cached=was_cached,
                breaker=breaker.state,
            )
            if degraded_error is not None:
                root.set(stage="augment", error=degraded_error)
            return ServeResponse(
                request_id=request.request_id,
                model=request.model,
                response=completion.content,
                complement=complement,
                complement_cached=was_cached,
                prompt_tokens=completion.prompt_tokens,
                completion_tokens=completion.completion_tokens,
                status=status,
                error=degraded_error,
                attempts=completion.retries + 1,
                strategy=strategy,
            )

    def ask_batch(
        self, requests: Sequence[ServeRequest], *, strict: bool | None = None
    ) -> list[ServeResponse]:
        """Serve many requests, augmenting all cache misses in one pass.

        One :meth:`plan_batch` over the whole batch, then
        :meth:`serve_planned` per request in order.  Each serve touches
        both cache tiers, the breakers, the clients and the counters
        exactly as its own :meth:`ask` would, so responses (including
        ``degraded`` and ``failed`` outcomes), ``GatewayStats``, both
        caches' hit/miss/recency state, events and metrics are all
        bit-identical to ``[self.ask(r) for r in requests]`` — for any
        partition of the requests into batches.

        With tracing on, planning runs inside one ``gateway.plan`` trace
        (cache peeks + the batched augment), then each request produces
        the same ``gateway.ask`` trace shape an :meth:`ask` would.

        Non-strict (default): returns one response per request, always.
        Strict: the first failure raises the same exception from the same
        request the ask loop would (earlier responses are counted but
        not returned).
        """
        strict = self._strictness(strict)
        requests = list(requests)
        if not requests:
            return []
        plan = self.plan_batch(requests)
        return [self._serve(request, plan, strict=strict) for request in requests]

    def plan_batch(self, requests: Sequence[ServeRequest]) -> BatchPlan:
        """Plan the augmentation of a batch, inside a ``gateway.plan`` span.

        Dedupes prompts, peeks both cache tiers (without touching their
        accounting), sets the prompts the fault plan degrades aside, and
        computes every remaining missing embedding in one
        :meth:`~repro.core.pas.PasModel.embed_prompts` pass and every
        missing complement in one
        :meth:`~repro.core.pas.PasModel.augment_with_embeddings` pass.
        Planning changes no cache, counter or event; the returned
        :class:`BatchPlan` can be served through :meth:`serve_planned` at
        any later tick.  :meth:`ask` plans one request, :meth:`ask_batch`
        a whole batch, and the serving engine each drained batch, whose
        requests it finishes as their simulated completions land.
        """
        requests = list(requests)
        tracer = self.obs.tracer
        plan = self.config.fault_plan
        planned: set[str] = set()
        degraded: set[str] = set()
        precomputed: dict[str, tuple[str, np.ndarray | None]] = {}
        to_augment: list[str] = []
        with tracer.span("gateway.plan", n_requests=len(requests)) as plan_span:
            with tracer.span("cache", tier="complement"):
                for request in requests:
                    if not request.augment or request.prompt in planned:
                        continue
                    planned.add(request.prompt)
                    cached = self._complement_cache.peek(request.prompt)
                    if cached is not None:
                        # Hold the value: if the entry is evicted mid-batch, the
                        # serve still has what a re-augment would compute.
                        precomputed[request.prompt] = (cached, None)
                    elif plan is not None and plan.augment_fails(request.prompt):
                        # Keep a faulting prompt out of the forward pass (and
                        # both cache tiers); its serve raises the fault.
                        degraded.add(request.prompt)
                    else:
                        to_augment.append(request.prompt)
            if to_augment:
                with tracer.span("augment", n_prompts=len(to_augment)):
                    if self._embed_cache is None:
                        complements = self.pas.augment_batch(to_augment)
                        vectors: list[np.ndarray | None] = [None] * len(to_augment)
                    else:
                        held: dict[str, np.ndarray] = {}
                        missing: list[str] = []
                        for prompt in to_augment:
                            vector = self._embed_cache.peek(prompt)
                            if vector is None:
                                missing.append(prompt)
                            else:
                                held[prompt] = vector
                        if missing:
                            for prompt, row in zip(
                                missing, self.pas.embed_prompts(missing)
                            ):
                                held[prompt] = row
                        vectors = [held[prompt] for prompt in to_augment]
                        complements = self.pas.augment_with_embeddings(
                            to_augment, vectors
                        )
                    for prompt, complement, vector in zip(
                        to_augment, complements, vectors
                    ):
                        precomputed[prompt] = (complement, vector)
            plan_span.set(
                unique=len(planned),
                augmented=len(to_augment),
                degraded=len(degraded),
            )
        return BatchPlan(precomputed=precomputed, degraded=frozenset(degraded))

    def serve_planned(
        self, request: ServeRequest, plan: BatchPlan, *, strict: bool | None = None
    ) -> ServeResponse:
        """Serve one request against a prepared :class:`BatchPlan`.

        The one serving step behind :meth:`ask`, :meth:`ask_batch` and
        the serving engine: route and check the breaker; take the
        complement (a complement-cache hit, else the injected fault the
        planner found, else the planned complement with its
        embedding-tier touches); complete; count.  Callable one request
        at a time, so the serving engine can finish planned requests in
        completion order rather than arrival order.
        """
        return self._serve(request, plan, strict=self._strictness(strict))

    def completion_latency(self, request: ServeRequest, plan: BatchPlan | None = None) -> int:
        """Simulated completion cost of ``request``, in logical ticks.

        Builds the exact messages :meth:`serve_planned` would send (the
        planned complement as the system turn) and asks the model's
        client for its seeded latency draw.  Pure — no clocks move, no
        caches are touched — and deterministic per (engine seed, prompt,
        complement), so the serving engine can price a completion at
        dispatch time and the finish event lands where a re-run lands it.
        Raises :class:`~repro.errors.UnknownModelError` for unregistered
        model names (such requests fail at routing with no latency).
        """
        complement = plan.complement_for(request) if plan is not None else ""
        client = self.client_for(request.model)
        return client.completion_latency(build_messages(request.prompt, complement))

    def ask_text(self, prompt: str, model: str) -> str:
        """Convenience: prompt in, augmented response text out.

        Uses the configured strictness; a non-strict failure returns the
        empty string (check :meth:`ask` for the structured outcome).
        """
        return self.ask(ServeRequest(prompt=prompt, model=model)).response

    @property
    def cache_hit_rate(self) -> float:
        return self._complement_cache.hit_rate

    @property
    def embed_cache_hit_rate(self) -> float:
        """Hit rate of the embedding memo tier (0.0 when disabled)."""
        if self._embed_cache is None:
            return 0.0
        return self._embed_cache.hit_rate

    @property
    def registered_models(self) -> list[str]:
        return sorted(self._clients)
