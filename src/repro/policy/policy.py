"""The adaptive augmentation policy: candidates → score → select → feedback.

:class:`AugmentationPolicy` ties the four policy parts together behind
the small surface the gateway needs:

* :meth:`select` — one bandit decision per serve, keyed on the request's
  ``(category, tenant)`` context and the gateway's logical clock;
* :meth:`complement_for` — the chosen strategy's complement text
  (``static`` reuses the complement the gateway already computed, so the
  cache tiers behave exactly as they do without a policy);
* :meth:`observe` — the online reward: judge the served response, update
  the bandit, and buffer the pair for golden promotion.  Off-corpus
  prompts yield no reward and no update — the policy still serves them,
  it just doesn't learn from them;
* :meth:`as_dict` / :meth:`from_config` — full state serialization: a
  :class:`PolicyConfig` whose ``state`` carries the bandit's exact
  counts resumes the policy bit-identically.

Everything is a pure function of ``(config, corpus, request stream)`` —
no wall clock, no global RNG — so two gateways serving the same trace
with the same policy config make byte-identical decisions.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.judge.judge import JudgeConfig, LlmJudge
from repro.policy.bandit import BANDIT_ALGORITHMS, ContextualBandit
from repro.policy.candidates import STRATEGIES, CandidateGenerator, CandidateSet
from repro.policy.feedback import GoldenRefresh
from repro.policy.scoring import PolicyScorer, PromptResolver
from repro.resilience import require_finite
from repro.utils.serialize import Record, register
from repro.world.prompts import SyntheticPrompt

__all__ = ["PolicyConfig", "AugmentationPolicy"]

#: Tenant label used for anonymous traffic in bandit contexts.
ANONYMOUS_TENANT = "anonymous"

#: Most prompts one policy's aspect memo holds (see
#: :meth:`AugmentationPolicy.complement_for`).  Past it, a new prompt is
#: predicted on every call and not stored.  An entry is the prompt string
#: and a small frozenset of interned aspect names.
_ASPECT_LIMIT = 1 << 12


@dataclass(frozen=True)
class PolicyConfig(Record):
    """Everything configurable about an :class:`AugmentationPolicy`.

    ``enabled`` is the deployment switch read by
    :class:`~repro.serve.config.ServingConfig` consumers — the config
    section exists (and round-trips) either way, but only an enabled
    section should be materialised into a live policy.  ``strategies``
    are the bandit arms (k = ``len(strategies)``); ``algorithm`` /
    ``epsilon`` / ``ucb_c`` / ``seed`` parameterise the bandit; ``salt``
    perturbs the ``salted`` candidate's template draw; ``judge_seed``
    seeds the reward judge (required when enabled — scoring without a
    pinned judge seed would break replay); ``quality_gate`` and
    ``max_promoted_per_category`` shape the golden-refresh feedback hook.
    ``state`` carries a serialized bandit (``ContextualBandit.as_dict``)
    so a checkpointed policy round-trips through the config.
    """

    enabled: bool = False
    strategies: tuple[str, ...] = STRATEGIES
    algorithm: str = "epsilon_greedy"
    epsilon: float = 0.1
    ucb_c: float = 2.0
    salt: int = 1
    seed: int = 0
    judge_seed: int | None = None
    quality_gate: float = 4.0
    max_promoted_per_category: int = 3
    state: dict | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.strategies, tuple):
            object.__setattr__(self, "strategies", tuple(self.strategies))
        if len(self.strategies) < 1:
            raise ConfigError("policy needs at least one strategy (k >= 1)")
        unknown = [s for s in self.strategies if s not in STRATEGIES]
        if unknown:
            raise ConfigError(
                f"unknown strategies {unknown}; expected a subset of {STRATEGIES}"
            )
        if len(set(self.strategies)) != len(self.strategies):
            raise ConfigError(f"duplicate strategies: {sorted(self.strategies)}")
        if self.algorithm not in BANDIT_ALGORITHMS:
            raise ConfigError(
                f"unknown bandit algorithm {self.algorithm!r}; "
                f"expected one of {BANDIT_ALGORITHMS}"
            )
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError(f"epsilon must be in [0, 1], got {self.epsilon}")
        require_finite(self, "ucb_c")
        if self.ucb_c < 0:
            raise ConfigError(f"ucb_c must be >= 0, got {self.ucb_c}")
        if not 0.0 <= self.quality_gate <= 5.0:
            raise ConfigError(
                f"quality_gate must be in [0, 5], got {self.quality_gate}"
            )
        if self.max_promoted_per_category < 1:
            raise ConfigError(
                "max_promoted_per_category must be >= 1, "
                f"got {self.max_promoted_per_category}"
            )

    def validate(self) -> None:
        """The cross-section check: an enabled policy needs a judge seed.

        Scoring rewards with an unpinned judge would make serve replays
        diverge, so :class:`~repro.serve.config.ServingConfig.validate`
        refuses the combination.
        """
        if self.enabled and self.judge_seed is None:
            raise ConfigError(
                "an enabled policy requires judge_seed (the reward judge "
                "must be seed-pinned for replay determinism)"
            )


register(PolicyConfig)


class AugmentationPolicy:
    """One live policy: generator + scorer + bandit + feedback.

    ``corpus`` is the annotated prompt population the deployment serves
    (reward lookup and context categories come from it); ``judge``
    overrides the reward judge (defaults to one seeded by
    ``config.judge_seed``); ``feedback=None`` builds a
    :class:`~repro.policy.feedback.GoldenRefresh` from the config
    (``checkpoint_dir`` is threaded into it).

    The policy keeps one memo, prompt → predicted aspects, for
    :meth:`complement_for`.  It lives and dies with the policy, is never
    serialized, and assumes ``pas`` is not retrained while the policy
    serves (the gateway's complement cache assumes the same).
    """

    def __init__(
        self,
        pas,
        config: PolicyConfig | None = None,
        *,
        corpus: Iterable[SyntheticPrompt] = (),
        judge: LlmJudge | None = None,
        feedback: GoldenRefresh | None = None,
        checkpoint_dir=None,
    ):
        self.config = config or PolicyConfig()
        self.pas = pas
        self.generator = CandidateGenerator(
            pas, strategies=self.config.strategies, salt=self.config.salt
        )
        if judge is None:
            judge = LlmJudge(JudgeConfig(seed=self.config.judge_seed or 0))
        self.resolver = PromptResolver(corpus)
        self.scorer = PolicyScorer(judge, self.resolver)
        if self.config.state is not None:
            self.bandit = ContextualBandit.from_dict(self.config.state)
            if self.bandit.arms != self.config.strategies:
                raise ConfigError(
                    f"serialized bandit arms {self.bandit.arms} do not match "
                    f"config strategies {self.config.strategies}"
                )
        else:
            self.bandit = ContextualBandit(
                self.config.strategies,
                algorithm=self.config.algorithm,
                epsilon=self.config.epsilon,
                ucb_c=self.config.ucb_c,
                seed=self.config.seed,
            )
        self.feedback = (
            feedback
            if feedback is not None
            else GoldenRefresh(
                quality_gate=self.config.quality_gate,
                max_per_category=self.config.max_promoted_per_category,
                checkpoint_dir=checkpoint_dir,
            )
        )
        self._aspects: dict[str, frozenset[str]] = {}

    @classmethod
    def from_config(
        cls,
        pas,
        config: PolicyConfig,
        *,
        corpus: Iterable[SyntheticPrompt] = (),
        judge: LlmJudge | None = None,
        checkpoint_dir=None,
    ) -> "AugmentationPolicy":
        """Materialise an enabled config section into a live policy."""
        config.validate()
        return cls(
            pas, config, corpus=corpus, judge=judge, checkpoint_dir=checkpoint_dir
        )

    # ------------------------------------------------------------------ #
    # the gateway surface
    # ------------------------------------------------------------------ #

    @property
    def strategies(self) -> tuple[str, ...]:
        return self.generator.strategies

    def context_for(self, prompt_text: str, tenant: str | None) -> tuple[str, str]:
        """The bandit context of one request."""
        return (
            self.resolver.category_for(prompt_text),
            tenant if tenant is not None else ANONYMOUS_TENANT,
        )

    def select(
        self, context: tuple[str, str], tick: int, *, explore: bool = True
    ) -> str:
        """One pure bandit decision at logical time ``tick``."""
        return self.bandit.select(context, tick, explore=explore)

    def complement_for(
        self,
        prompt_text: str,
        strategy: str,
        *,
        static: str | None = None,
        embed_cache=None,
    ) -> str:
        """The chosen strategy's complement text.

        ``static`` short-circuits the ``static`` and ``none`` strategies
        without a predictor pass — the gateway hands in the complement it
        already computed through its cache tiers, which is bit-identical
        to the generator's ``static`` render (the parity test pins this).

        Every other strategy renders the prompt's predicted aspects, which
        are a pure function of the prompt text, so the k-NN vote runs once
        per prompt per policy (at most ``_ASPECT_LIMIT`` prompts memoised).
        The embedding tier is touched first, hit or not, exactly as an
        unmemoised prediction through it would be, so its hits, misses
        and recency do not depend on the memo.
        """
        if strategy == "none":
            return ""
        if strategy == "static" and static is not None:
            return static
        predictor = self.pas.predictor
        embedding = None
        if embed_cache is not None:
            embedding = predictor.embedder.embed_cached(prompt_text, embed_cache)
        aspects = self._aspects.get(prompt_text)
        if aspects is None:
            if embedding is None:
                aspects = frozenset(predictor.predict_aspects(prompt_text))
            else:
                aspects = frozenset(
                    predictor.predict_aspects_from_embedding(prompt_text, embedding)
                )
            if len(self._aspects) < _ASPECT_LIMIT:
                self._aspects[prompt_text] = aspects
        return self.generator._render(strategy, prompt_text, aspects)

    def candidates(self, prompt_text: str, embed_cache=None) -> CandidateSet:
        """All k candidates for one prompt (the offline scoring surface)."""
        return self.generator.generate(prompt_text, embed_cache=embed_cache)

    def observe(
        self,
        prompt_text: str,
        context: tuple[str, str],
        strategy: str,
        complement: str,
        response_text: str,
    ) -> float | None:
        """Judge one served response and learn from it.

        Returns the reward, or ``None`` when the prompt is off-corpus
        (no annotations → no oracle → no update).
        """
        prompt = self.resolver.resolve(prompt_text)
        if prompt is None:
            return None
        reward = self.scorer.score(prompt, response_text)
        self.bandit.observe(context, strategy, reward)
        self.feedback.record(prompt, complement, reward)
        return reward

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict:
        """The bandit's exact state (JSON-safe)."""
        return self.bandit.as_dict()

    def as_dict(self) -> dict:
        """The policy as a resumable config section: ``PolicyConfig
        .from_dict(policy.as_dict())`` + the same corpus rebuilds a
        policy that decides bit-identically from here on."""
        config = self.config.as_dict()
        config["state"] = self.snapshot()
        return config

    def __repr__(self) -> str:
        return (
            f"AugmentationPolicy(strategies={self.strategies!r}, "
            f"algorithm={self.bandit.algorithm!r}, corpus={len(self.resolver)}, "
            f"pulls={self.bandit.total_pulls})"
        )
