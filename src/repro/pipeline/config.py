"""The unified configuration surface for the offline curation pipeline.

:class:`PipelineConfig` mirrors :class:`~repro.serve.gateway.GatewayConfig`
on the serving side: one frozen dataclass with nested per-stage sections —
``collection`` (:class:`~repro.pipeline.collect.CollectionConfig`),
``generation`` (:class:`~repro.pipeline.generate.GenerationConfig`), and
``runner`` (:class:`RunnerConfig`, the execution knobs that belong to the
*run* rather than to any stage's math) — plus the run ``seed``.  It
round-trips losslessly through :meth:`PipelineConfig.as_dict` /
:meth:`PipelineConfig.from_dict`, fault plans and retry policies included,
so a checkpointed run can re-validate that it resumes under the exact
configuration it started with.

``PromptCollector`` and ``PairGenerator`` both accept a ``PipelineConfig``
directly (they read their own section); that nested surface is the only
construction path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.pipeline.collect import CollectionConfig
from repro.pipeline.generate import GenerationConfig
from repro.resilience import FaultPlan, RetryPolicy
from repro.utils.serialize import Record, register

__all__ = ["RunnerConfig", "PipelineConfig"]

#: Stage order of the industrial pipeline; ``fail_after_stage`` must name one.
PIPELINE_STAGES = ("dedup", "quality", "classify", "generate", "dataset")


@dataclass(frozen=True)
class RunnerConfig(Record):
    """Execution knobs for :class:`~repro.pipeline.runner.PipelineRunner`.

    These govern *how* the run executes — checkpoint cadence, which
    simulated models play each role, what faults are injected and how
    they are retried — never *what* the stages compute; stage math lives
    in the ``collection`` / ``generation`` sections of
    :class:`PipelineConfig`.

    ``fail_after_stage`` / ``fail_after_pairs`` are deterministic kill
    switches for the resume tests and the example: the runner raises
    :class:`~repro.pipeline.runner.PipelineInterrupted` right after the
    named stage's checkpoint (or after that many generated pairs) lands
    on disk, exactly like a SIGKILL between two units of work.
    """

    checkpoint_every: int = 64
    teacher_model: str = "teacher-gpt-4"
    critic_model: str = "teacher-gpt-4"
    grader_model: str = "baichuan-13b"
    fault_plan: FaultPlan | None = None
    retry_policy: RetryPolicy | None = None
    fail_after_stage: str | None = None
    fail_after_pairs: int | None = None

    def validate(self) -> None:
        if self.checkpoint_every < 1:
            raise ConfigError(
                f"checkpoint_every must be >= 1: {self.checkpoint_every}"
            )
        if self.fail_after_stage is not None and self.fail_after_stage not in PIPELINE_STAGES:
            raise ConfigError(
                f"fail_after_stage must be one of {PIPELINE_STAGES}: "
                f"{self.fail_after_stage!r}"
            )
        if self.fail_after_pairs is not None and self.fail_after_pairs < 1:
            raise ConfigError(
                f"fail_after_pairs must be >= 1: {self.fail_after_pairs}"
            )


@dataclass(frozen=True)
class PipelineConfig(Record):
    """Every knob of the offline curation pipeline, in one place.

    Mirrors ``GatewayConfig``'s shape: nested frozen sections, a
    ``validate()`` that recurses, and a lossless ``as_dict()`` /
    ``from_dict()`` round-trip.  The ``seed`` is the single source of
    randomness for the whole run (dedup graph, classifier fit salt,
    checkpoint run key).
    """

    collection: CollectionConfig = field(default_factory=CollectionConfig)
    generation: GenerationConfig = field(default_factory=GenerationConfig)
    runner: RunnerConfig = field(default_factory=RunnerConfig)
    seed: int = 0

    def validate(self) -> None:
        self.collection.validate()
        self.generation.validate()
        self.runner.validate()


register(PipelineConfig)
