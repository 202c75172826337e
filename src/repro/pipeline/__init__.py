"""The PAS data pipeline: collection (§3.1) and generation (§3.2).

Interactive use goes through :class:`PromptCollector` /
:class:`PairGenerator`; production runs go through
:class:`PipelineRunner`, which checkpoints and observes the same stages
under one :class:`PipelineConfig`.  Each stage has one implementation:
``PromptCollector.collect`` calls the collection stage functions in
:mod:`repro.pipeline.runner` directly, and the runner wraps those calls
and ``PairGenerator.build_pair`` in checkpoints, ticks and obs.
"""

from repro.pipeline.collect import (
    CollectionConfig,
    CollectionResult,
    PromptCollector,
    SelectedPrompt,
)
from repro.pipeline.config import PipelineConfig, RunnerConfig
from repro.pipeline.dataset import PromptPair, PromptPairDataset
from repro.pipeline.diagnostics import (
    StageReport,
    classifier_report,
    dedup_report,
    junk_filter_report,
    pipeline_health,
)
from repro.pipeline.generate import (
    CritiqueResult,
    FewShotGenerator,
    GenerationConfig,
    PairCritic,
    PairGenerator,
)
from repro.pipeline.runner import (
    CheckpointError,
    PipelineInterrupted,
    PipelineResult,
    PipelineRunner,
)
from repro.pipeline.select import QualityScorer
from repro.pipeline.strategies import (
    ModsSelection,
    RandomSelection,
    SelectionStrategy,
    TagDiversitySelection,
    TopQualitySelection,
    apply_strategy,
)

__all__ = [
    "CollectionConfig",
    "CollectionResult",
    "SelectedPrompt",
    "PromptCollector",
    "PipelineConfig",
    "RunnerConfig",
    "PipelineRunner",
    "PipelineResult",
    "PipelineInterrupted",
    "CheckpointError",
    "PromptPair",
    "PromptPairDataset",
    "GenerationConfig",
    "FewShotGenerator",
    "CritiqueResult",
    "PairCritic",
    "PairGenerator",
    "QualityScorer",
    "StageReport",
    "dedup_report",
    "junk_filter_report",
    "classifier_report",
    "pipeline_health",
    "SelectionStrategy",
    "RandomSelection",
    "TopQualitySelection",
    "ModsSelection",
    "TagDiversitySelection",
    "apply_strategy",
]
