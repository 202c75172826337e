"""Shared experiment context: build expensive artifacts once, reuse across
every table and figure harness.

All artifacts are lazily constructed and cached.  The same seed plus the
same :class:`ScaleConfig` reproduces every number exactly.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.baselines.base import ApeMethod, NoApe
from repro.baselines.bpo import BpoModel
from repro.core.pas import PasModel
from repro.core.plug import PasApe
from repro.judge.alpaca_eval import AlpacaEvalBenchmark
from repro.judge.arena_hard import ArenaHardBenchmark, ArenaHardResult
from repro.judge.suites import (
    BenchmarkSuite,
    build_alpaca_suite,
    build_arena_hard_suite,
    build_human_eval_suite,
)
from repro.llm.engine import SimulatedLLM
from repro.llm.profiles import TARGET_MODELS
from repro.pipeline.collect import CollectionResult, PromptCollector
from repro.pipeline.dataset import PromptPairDataset
from repro.pipeline.generate import GenerationConfig, PairGenerator
from repro.world.prompts import CorpusConfig, PromptFactory

__all__ = ["ScaleConfig", "ExperimentContext", "TARGET_MODELS"]


@dataclass(frozen=True)
class ScaleConfig:
    """Experiment sizes.

    ``quick`` keeps CI / pytest-benchmark runs in seconds-to-a-minute;
    ``full`` is the EXPERIMENTS.md configuration.
    """

    n_corpus_prompts: int = 1600
    arena_suite_size: int = 150
    alpaca_suite_size: int = 200
    human_eval_per_scenario: int = 25

    @classmethod
    def quick(cls) -> "ScaleConfig":
        return cls(
            n_corpus_prompts=700,
            arena_suite_size=90,
            alpaca_suite_size=120,
            human_eval_per_scenario=10,
        )

    @classmethod
    def full(cls) -> "ScaleConfig":
        return cls()


class ExperimentContext:
    """Lazily built shared artifacts for the experiment harnesses."""

    def __init__(self, scale: ScaleConfig | None = None, seed: int = 0):
        self.scale = scale or ScaleConfig.full()
        self.seed = int(seed)
        self._engines: dict[str, SimulatedLLM] = {}
        # The methods this context built, by name, and their arm results.
        self._methods: dict[str, ApeMethod] = {}
        self._arm_scores: dict[tuple[str, str], dict[str, float]] = {}
        self._arena_results: dict[tuple[str, str], ArenaHardResult] = {}

    # -------------------------------------------------------------- #
    # data pipeline artifacts
    # -------------------------------------------------------------- #

    @cached_property
    def _collection(self) -> CollectionResult:
        """§3.1 collection over the seed's corpus.  Both datasets build on
        it: ``curate`` changes only pair generation."""
        factory = PromptFactory(rng=np.random.default_rng(self.seed))
        corpus = factory.make_corpus(
            CorpusConfig(n_prompts=self.scale.n_corpus_prompts)
        )
        return PromptCollector(seed=self.seed).collect(corpus)

    def _build_dataset(self, curate: bool) -> PromptPairDataset:
        generator = PairGenerator(config=GenerationConfig(curate=curate))
        return generator.build_dataset(self._collection.selected)

    @cached_property
    def curated_dataset(self) -> PromptPairDataset:
        """The §3.2 dataset with selection + regeneration on."""
        return self._build_dataset(curate=True)

    @cached_property
    def raw_dataset(self) -> PromptPairDataset:
        """The ablation dataset: same pipeline, no selection/regeneration."""
        return self._build_dataset(curate=False)

    # -------------------------------------------------------------- #
    # models and methods
    # -------------------------------------------------------------- #

    @cached_property
    def pas(self) -> PasModel:
        """The main PAS model (Qwen2-7B base, curated data) — Table 1."""
        return PasModel(base_model="qwen2-7b-chat", seed=self.seed).train(
            self.curated_dataset
        )

    @cached_property
    def pas_llama_base(self) -> PasModel:
        """PAS on BPO's base model (LLaMA-2-7B) — Table 2."""
        return PasModel(base_model="llama-2-7b-instruct", seed=self.seed).train(
            self.curated_dataset
        )

    @cached_property
    def pas_uncurated(self) -> PasModel:
        """PAS trained without selection/regeneration — Table 5."""
        return PasModel(base_model="qwen2-7b-chat", seed=self.seed).train(
            self.raw_dataset
        )

    def _method(self, name: str, build: Callable[[], ApeMethod]) -> ApeMethod:
        """The context's one ``name`` method, built on first use."""
        if name not in self._methods:
            self._methods[name] = build()
        return self._methods[name]

    @property
    def bpo(self) -> BpoModel:
        return self._method("bpo", lambda: BpoModel(seed=self.seed + 7))

    def method_none(self) -> ApeMethod:
        return self._method("none", NoApe)

    def method_pas(self) -> ApeMethod:
        return self._method("pas", lambda: PasApe(self.pas))

    def method_pas_llama(self) -> ApeMethod:
        return self._method(
            "pas-llama2", lambda: PasApe(self.pas_llama_base, name="pas-llama2")
        )

    def method_pas_uncurated(self) -> ApeMethod:
        return self._method(
            "pas-wo-selection",
            lambda: PasApe(self.pas_uncurated, name="pas-wo-selection"),
        )

    def engine(self, model: str) -> SimulatedLLM:
        """Target-model engine, cached per name."""
        if model not in self._engines:
            self._engines[model] = SimulatedLLM(model, seed=self.seed)
        return self._engines[model]

    # -------------------------------------------------------------- #
    # benchmarks
    # -------------------------------------------------------------- #

    @cached_property
    def arena_hard(self) -> ArenaHardBenchmark:
        suite = build_arena_hard_suite(
            self.scale.arena_suite_size, seed=self.seed + 500
        )
        return ArenaHardBenchmark(suite, seed=self.seed)

    @cached_property
    def alpaca_eval(self) -> AlpacaEvalBenchmark:
        suite = build_alpaca_suite(self.scale.alpaca_suite_size, seed=self.seed + 600)
        return AlpacaEvalBenchmark(suite, seed=self.seed)

    @cached_property
    def human_eval_suites(self) -> dict[str, BenchmarkSuite]:
        return build_human_eval_suite(
            self.scale.human_eval_per_scenario, seed=self.seed + 700
        )

    # -------------------------------------------------------------- #
    # the shared evaluation primitive
    # -------------------------------------------------------------- #

    def _owns(self, method: ApeMethod) -> bool:
        """Whether ``method`` is the one this context built under its name."""
        return self._methods.get(method.name) is method

    def arena_hard_result(self, model: str, method: ApeMethod) -> ArenaHardResult:
        """One arm's Arena-Hard result, per-prompt outcomes included.

        Memoised under :meth:`evaluate_arm`'s rule, so table1 and the
        significance harness judge each built arm once.  The result is a
        frozen dataclass holding its outcomes as a tuple: a caller cannot
        change the memo through it.
        """
        key = (model, method.name)
        own = self._owns(method)
        if own and key in self._arena_results:
            return self._arena_results[key]
        result = self.arena_hard.evaluate(self.engine(model), method)
        if own:
            self._arena_results[key] = result
        return result

    def evaluate_arm(self, model: str, method: ApeMethod) -> dict[str, float]:
        """Run one (model, method) arm over all three §4.1 benchmarks.

        An arm whose method this context built (``bpo`` or a ``method_*``)
        is a pure function of seed, scale, model and method, so its scores
        are memoised: table2 and table5 reuse table1's arms.  Any other
        method object is evaluated on every call, whatever its name.
        """
        key = (model, method.name)
        own = self._owns(method)
        if own and key in self._arm_scores:
            return dict(self._arm_scores[key])
        arena = self.arena_hard_result(model, method)
        alpaca = self.alpaca_eval.evaluate(self.engine(model), method)
        average = (arena.score + alpaca.win_rate + alpaca.lc_win_rate) / 3.0
        scores = {
            "arena_hard": arena.score,
            "alpaca_eval": alpaca.win_rate,
            "alpaca_eval_lc": alpaca.lc_win_rate,
            "average": average,
        }
        if own:
            self._arm_scores[key] = dict(scores)
        return scores
