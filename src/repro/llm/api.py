"""API-client wrapper around a simulated engine.

The paper accesses GPT-series models "via API" (§4.1); real API access means
usage accounting, transient failures, and retries.  ``ChatClient`` adds all
three on top of :class:`~repro.llm.engine.SimulatedLLM`, so pipeline code is
written the way production data-generation code is written — and the failure
path is testable.

Resilience hooks (all optional, all no-ops when unset):

* ``fault_plan`` — a :class:`~repro.resilience.FaultPlan` injecting
  deterministic per-attempt completion failures, latency spikes, and
  per-model outage windows on a logical clock;
* ``retry_policy`` — a :class:`~repro.resilience.RetryPolicy` replacing the
  flat ``max_retries`` loop with capped exponential backoff (deterministic
  jitter) and an optional per-request deadline budget in logical ticks;
* ``clock`` — a supplier of logical time used to evaluate outage windows
  (the gateway passes its own request clock; standalone clients fall back
  to their request counter).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import BudgetExceededError, ConfigError, DeadlineExceededError, ReproError
from repro.llm.engine import SimulatedLLM
from repro.llm.types import ChatCompletion, Message, build_messages
from repro.obs import NULL_OBS, Observability
from repro.resilience import FaultPlan, RetryPolicy, require_finite
from repro.text.tokenizer import Tokenizer
from repro.utils.serialize import Record

__all__ = [
    "Usage",
    "TransientApiError",
    "LatencyModel",
    "DEFAULT_LATENCY",
    "ChatClient",
    "CompletionMemo",
]

#: Most distinct ``(prompt, supplement)`` pairs one :class:`CompletionMemo`
#: holds, per table (completions and latency ticks).  Past it, a new pair
#: is computed on every call and not stored.  The bound is per memo, so a
#: fleet whose replicas share one memo per model holds one set of entries,
#: not one per replica.  An entry keeps its response text alive: both
#: tables full hold about 4 MB (940 B per pair at 650-character responses),
#: plus the prompt and supplement strings if nothing else does.
_MEMO_LIMIT = 1 << 12


@dataclass(frozen=True)
class LatencyModel(Record):
    """Deterministic simulated service latency for one completion.

    Real API completions take time — roughly an affine function of the
    work (tokens in/out) stretched by load jitter.  This model reproduces
    that shape on the repo's logical clock so the serving engine can
    overlap completions in flight: each request costs

    ``(base_ticks + per_token_ticks * n_tokens) * (1 + jitter * u)``

    rounded to an integer >= 1, where ``u`` is one U[0, 1) draw from the
    engine's per-call RNG keyed on ``(model, seed, "latency", prompt,
    supplement)``.  Latency is therefore a pure function of the request —
    never of arrival order or wall time — which is what keeps the event
    loop's schedules byte-reproducible.
    """

    base_ticks: float = 6.0
    per_token_ticks: float = 0.25
    jitter: float = 0.25

    def __post_init__(self) -> None:
        require_finite(self, "base_ticks", "per_token_ticks", "jitter")
        if self.base_ticks < 0 or self.per_token_ticks < 0:
            raise ConfigError(
                "latency components must be >= 0, got "
                f"base_ticks={self.base_ticks}, per_token_ticks={self.per_token_ticks}"
            )
        if self.jitter < 0:
            raise ConfigError(f"jitter must be >= 0, got {self.jitter}")

    def ticks(
        self,
        engine: SimulatedLLM,
        prompt: str,
        supplement: str | None,
        n_tokens: int,
    ) -> int:
        """Simulated service ticks for one completion (always >= 1)."""
        raw = self.base_ticks + self.per_token_ticks * n_tokens
        if self.jitter > 0.0:
            u = float(engine.call_rng("latency", prompt, supplement or "").random())
            raw *= 1.0 + self.jitter * u
        return max(1, int(round(raw)))


#: The latency profile assumed when a client has none configured.
DEFAULT_LATENCY = LatencyModel()


class TransientApiError(ReproError):
    """A simulated transient API failure (retryable)."""


@dataclass
class Usage:
    """Cumulative token / request accounting.

    ``failures`` counts failed *attempts* (each one either retried or
    terminal); ``backoff_ticks`` totals the logical-time pauses a
    :class:`~repro.resilience.RetryPolicy` inserted between attempts.
    """

    requests: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    failures: int = 0
    backoff_ticks: float = 0.0

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens


class CompletionMemo:
    """The pure results of one target model's completions.

    ``completions`` maps a ``(prompt, supplement)`` pair to its response
    text with the prompt and completion token counts; ``latencies`` maps
    it to its latency ticks before any fault-plan spike.  Each is a pure
    function of the pair once the engine (model and seed), the latency
    model and the tokenizer are fixed, so clients that agree on those may
    share one memo: a :class:`~repro.serve.router.Router` hands one memo
    per target model to every replica it builds from its one
    :class:`~repro.serve.gateway.GatewayConfig`.  A client built without
    one owns a private memo.  Each table holds at most ``_MEMO_LIMIT``
    pairs.
    """

    __slots__ = ("completions", "latencies")

    def __init__(self) -> None:
        self.completions: dict[tuple[str, str | None], tuple[str, int, int]] = {}
        self.latencies: dict[tuple[str, str | None], int] = {}


@dataclass
class ChatClient:
    """Chat-completions client with retries and budget enforcement.

    Parameters
    ----------
    engine:
        The simulated model to call.
    failure_rate:
        Probability that an individual attempt fails transiently; failures
        are deterministic per (input, attempt), so tests can rely on them.
    max_retries:
        Attempts beyond the first before giving up (superseded by
        ``retry_policy.max_retries`` when a policy is set).
    max_requests:
        Optional hard request budget; exceeding it raises
        :class:`~repro.errors.BudgetExceededError`.
    fault_plan:
        Optional :class:`~repro.resilience.FaultPlan` injecting completion
        failures, latency spikes, and outage windows.
    retry_policy:
        Optional :class:`~repro.resilience.RetryPolicy` adding backoff and a
        per-request deadline budget.
    clock:
        Optional logical-time supplier for outage-window evaluation;
        defaults to this client's own request counter.
    latency_model:
        Optional :class:`LatencyModel` giving each completion a simulated
        service time on the logical clock (see :meth:`completion_latency`).
        ``None`` falls back to :data:`DEFAULT_LATENCY`; latency never
        affects :meth:`complete` itself — it is advisory, consumed by the
        event-loop serving engine.
    max_inflight:
        Advisory concurrency limit for this model, mirroring real API
        per-key concurrency caps.  The client itself is synchronous; the
        serving engine reads this as the default number of completions it
        may hold in flight against this model.
    obs:
        Optional :class:`~repro.obs.Observability` bundle.  When live,
        every :meth:`complete` runs inside a ``complete`` span (one
        ``retry[n]`` child per failed attempt, carrying the failure cause
        and backoff) and outcome counters land in the metrics registry.
        Defaults to the all-null bundle: no overhead, no state.
    memo:
        The :class:`CompletionMemo` this client reads and fills.  Share one
        only between clients with the same engine model and seed, latency
        model and tokenizer; the default is a private memo.

    A response, its token counts and its latency ticks are pure functions
    of ``(engine, latency_model, prompt, supplement)``, so the client
    looks them up in ``memo`` per ``(prompt, supplement)`` pair and
    computes only the pairs it misses.  Everything that depends on the
    call rather than the pair runs every time: the request budget,
    ``usage``, the per-attempt fault, outage and failure draws with their
    observer events, retries, backoff, the deadline, spans and counters,
    and the fault plan's latency spike.
    """

    engine: SimulatedLLM
    failure_rate: float = 0.0
    max_retries: int = 3
    max_requests: int | None = None
    fault_plan: FaultPlan | None = None
    retry_policy: RetryPolicy | None = None
    clock: Callable[[], int] | None = None
    latency_model: LatencyModel | None = None
    max_inflight: int = 1
    obs: Observability = field(default=NULL_OBS, repr=False)
    usage: Usage = field(default_factory=Usage)
    memo: CompletionMemo = field(default_factory=CompletionMemo, repr=False, compare=False)
    _tokenizer: Tokenizer = field(default_factory=Tokenizer, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.failure_rate < 1.0:
            raise ValueError(f"failure_rate must be in [0, 1), got {self.failure_rate}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {self.max_inflight}")

    def _now(self) -> int:
        """Logical time for outage windows (gateway clock or request count)."""
        if self.clock is not None:
            return self.clock()
        return self.usage.requests

    def _attempt_cause(self, text: str, attempt: int, tick: int) -> str | None:
        """Why this attempt fails — ``"outage"`` / ``"injected"`` /
        ``"random"`` — or None for a clean attempt.

        Checks run in the same order (and make the same RNG draws) as the
        original boolean predicate, so fault sequences are unchanged.
        """
        if self.fault_plan is not None:
            if self.fault_plan.in_outage(self.engine.name, tick):
                return "outage"
            if self.fault_plan.completion_fails(text, attempt):
                return "injected"
        if self.failure_rate <= 0.0:
            return None
        rng = self.engine.call_rng("api-failure", text, str(attempt))
        return "random" if bool(rng.random() < self.failure_rate) else None

    def _attempt_fails(self, text: str, attempt: int, tick: int) -> bool:
        return self._attempt_cause(text, attempt, tick) is not None

    @staticmethod
    def _parse(messages: list[Message]) -> tuple[str, str | None]:
        """Extract ``(prompt, supplement)`` from a message list.

        The last user message is the prompt; system messages join into the
        complementary supplement — the same convention :meth:`complete`
        applies, factored out so latency estimation sees identical keys.
        """
        if not messages:
            raise ValueError("messages must be non-empty")
        user_messages = [m for m in messages if m.role == "user"]
        if not user_messages:
            raise ValueError("at least one user message is required")
        prompt = user_messages[-1].content
        system_parts = [m.content for m in messages if m.role == "system"]
        return prompt, (" ".join(system_parts) if system_parts else None)

    def _prompt_tokens(self, prompt: str, supplement: str | None) -> int:
        count = self._tokenizer.count
        return count(prompt) + (count(supplement) if supplement else 0)

    def _completion(self, pair: tuple[str, str | None]) -> tuple[str, int, int]:
        """``(content, prompt_tokens, completion_tokens)`` for one pair."""
        completions = self.memo.completions
        pure = completions.get(pair)
        if pure is None:
            prompt, supplement = pair
            content = self.engine.respond(prompt, supplement=supplement)
            pure = (
                content,
                self._prompt_tokens(prompt, supplement),
                self._tokenizer.count(content),
            )
            if len(completions) < _MEMO_LIMIT:
                completions[pair] = pure
        return pure

    def completion_latency(self, messages: list[Message]) -> int:
        """Simulated service ticks this completion will occupy in flight.

        A pure function of the request: the configured (or default)
        :class:`LatencyModel` evaluated on this client's engine, plus any
        deterministic latency spike the fault plan injects for the first
        attempt.  Never calls the engine's response faculty and never
        advances usage — safe to evaluate at scheduling time, before (or
        without) :meth:`complete`.
        """
        pair = self._parse(messages)
        prompt, supplement = pair
        latencies = self.memo.latencies
        ticks = latencies.get(pair)
        if ticks is None:
            model = self.latency_model if self.latency_model is not None else DEFAULT_LATENCY
            ticks = model.ticks(
                self.engine, prompt, supplement, self._prompt_tokens(prompt, supplement)
            )
            if len(latencies) < _MEMO_LIMIT:
                latencies[pair] = ticks
        if self.fault_plan is not None:
            ticks += self.fault_plan.latency_ticks(prompt + (supplement or ""), 0)
        return ticks

    def complete(self, messages: list[Message]) -> ChatCompletion:
        """Run one chat completion: system+user prompts in, response out.

        The last user message is the prompt; an optional preceding system
        message is treated as the complementary supplement (this mirrors how
        PAS deploys: original prompt plus complement, concatenated).

        Raises :class:`TransientApiError` when every allowed attempt failed,
        or :class:`~repro.errors.DeadlineExceededError` when the retry
        policy's deadline budget cannot fit another attempt; both carry an
        ``attempts`` attribute with the number of attempts actually made.
        """
        pair = self._parse(messages)
        prompt, supplement = pair

        if self.max_requests is not None and self.usage.requests >= self.max_requests:
            raise BudgetExceededError(
                f"request budget of {self.max_requests} exhausted for {self.engine.name}"
            )
        self.usage.requests += 1

        key = prompt + (supplement or "")
        tick = self._now()
        max_retries = (
            self.retry_policy.max_retries if self.retry_policy is not None else self.max_retries
        )
        budget = self.retry_policy.deadline_ticks if self.retry_policy is not None else None
        model = self.engine.name
        outcomes = self.obs.metrics.counter(
            "pas_completions_total", help="Completion calls by model and outcome."
        )
        retry_counter = self.obs.metrics.counter(
            "pas_completion_retries_total",
            help="Failed completion attempts by model and cause.",
        )
        elapsed = 0.0
        retries = 0
        with self.obs.tracer.span("complete", model=model) as span:
            for attempt in range(max_retries + 1):
                cost = 1.0
                if self.fault_plan is not None:
                    cost += self.fault_plan.latency_ticks(key, attempt)
                if budget is not None and elapsed + cost > budget:
                    error = DeadlineExceededError(
                        f"{self.engine.name}: deadline of {budget} ticks cannot fit "
                        f"attempt {attempt + 1} (elapsed {elapsed}, attempt cost {cost})"
                    )
                    error.attempts = attempt
                    span.set(attempts=attempt, deadline_ticks=budget)
                    outcomes.inc(model=model, outcome="deadline")
                    raise error
                elapsed += cost
                cause = self._attempt_cause(key, attempt, tick)
                if cause is not None:
                    self.usage.failures += 1
                    retries += 1
                    retry_counter.inc(model=model, cause=cause)
                    pause = 0.0
                    if self.retry_policy is not None and attempt < max_retries:
                        pause = self.retry_policy.backoff_ticks(key, attempt)
                        elapsed += pause
                        self.usage.backoff_ticks += pause
                    with self.obs.tracer.span(f"retry[{attempt}]") as retry_span:
                        retry_span.status = "error"
                        retry_span.set(cause=cause, backoff_ticks=pause)
                    continue
                content, prompt_tokens, completion_tokens = self._completion(pair)
                self.usage.prompt_tokens += prompt_tokens
                self.usage.completion_tokens += completion_tokens
                span.set(attempts=attempt + 1, retries=retries)
                outcomes.inc(model=model, outcome="ok")
                return ChatCompletion(
                    model=self.engine.name,
                    content=content,
                    prompt_tokens=prompt_tokens,
                    completion_tokens=completion_tokens,
                    retries=retries,
                )
            error = TransientApiError(
                f"{self.engine.name}: all {max_retries + 1} attempts failed transiently"
            )
            error.attempts = max_retries + 1
            span.set(attempts=max_retries + 1)
            outcomes.inc(model=model, outcome="exhausted")
            raise error

    def ask(self, prompt: str, supplement: str | None = None) -> str:
        """Convenience wrapper returning just the response text."""
        return self.complete(build_messages(prompt, supplement or "")).content
