"""Prompt collection pipeline (paper §3.1, Figure 3a).

Three stages over a raw prompt corpus:

1. **Deduplication** — embed every prompt, cluster near-duplicates through
   the HNSW index, keep a small number of representatives per group.
2. **Quality filtering** — grade each survivor with the LLM+fluency scorer
   and drop entries below threshold.
3. **Classification** — assign each survivor a category with the trained
   classifier (predicted categories drive the generation stage's few-shot
   exemplar choice, so classifier errors propagate realistically).

An optional k-center-greedy diversity stage caps the output size.

This module holds the collection's config, its records and
:class:`PromptCollector`, which owns the stage components.  The stage math
itself is written once, in :mod:`repro.pipeline.runner`:
:meth:`PromptCollector.collect` calls those functions directly, and
:class:`~repro.pipeline.runner.PipelineRunner` wraps the same calls in
checkpoints and obs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.classify.model import CategoryClassifier
from repro.embedding.model import EmbeddingModel
from repro.errors import ConfigError
from repro.llm.engine import SimulatedLLM
from repro.utils.serialize import Record
from repro.world.prompts import SyntheticPrompt

__all__ = ["CollectionConfig", "SelectedPrompt", "CollectionResult", "PromptCollector"]


@dataclass(frozen=True)
class CollectionConfig(Record):
    """Knobs for the three collection stages.

    ``dedup_shards`` picks the ANN index behind the dedup stage (see
    :func:`~repro.cluster.dedup.deduplicate`): the default, one shard, is
    the monolithic HNSW graph; ``dedup_shards > 1`` routes through
    :class:`~repro.ann.sharded.ShardedHnswIndex`.
    """

    dedup_threshold: float = 0.88
    dedup_neighbors: int = 8
    keep_per_group: int = 1
    quality_threshold: float = 0.62
    target_size: int | None = None
    skip_dedup: bool = False
    skip_quality_filter: bool = False
    dedup_shards: int = 1

    def validate(self) -> None:
        if not 0.0 < self.dedup_threshold <= 1.0:
            raise ConfigError(f"dedup_threshold must be in (0, 1]: {self.dedup_threshold}")
        if not 0.0 <= self.quality_threshold <= 1.0:
            raise ConfigError(
                f"quality_threshold must be in [0, 1]: {self.quality_threshold}"
            )
        if self.dedup_neighbors < 1:
            raise ConfigError(f"dedup_neighbors must be >= 1: {self.dedup_neighbors}")
        if self.keep_per_group < 1:
            raise ConfigError(f"keep_per_group must be >= 1: {self.keep_per_group}")
        if self.target_size is not None and self.target_size < 1:
            raise ConfigError(f"target_size must be >= 1: {self.target_size}")
        if self.dedup_shards < 1:
            raise ConfigError(f"dedup_shards must be >= 1: {self.dedup_shards}")


@dataclass(frozen=True)
class SelectedPrompt(Record):
    """A prompt that survived collection, with its *predicted* category."""

    prompt: SyntheticPrompt
    predicted_category: str
    quality: float


@dataclass
class CollectionResult:
    """Survivors plus per-stage accounting."""

    selected: list[SelectedPrompt]
    n_input: int
    n_after_dedup: int
    n_after_quality: int
    n_final: int
    stats: dict = field(default_factory=dict)

    @property
    def junk_leak_rate(self) -> float:
        """Fraction of final survivors that are ground-truth junk."""
        if not self.selected:
            return 0.0
        junk = sum(1 for s in self.selected if s.prompt.is_junk)
        return junk / len(self.selected)

    #: ``stats`` keys holding uid sets (serialised as sorted lists).
    _SET_STATS = ("dedup_removed_uids", "quality_removed_uids")

    def as_dict(self) -> dict:
        """JSON-safe dict with a stable key order (uid sets become sorted
        lists), mirroring :meth:`ServeResponse.as_dict`."""
        stats = {}
        for key in sorted(self.stats):
            value = self.stats[key]
            stats[key] = sorted(value) if isinstance(value, (set, frozenset)) else value
        return {
            "selected": [s.as_dict() for s in self.selected],
            "n_input": self.n_input,
            "n_after_dedup": self.n_after_dedup,
            "n_after_quality": self.n_after_quality,
            "n_final": self.n_final,
            "stats": stats,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CollectionResult":
        """Inverse of :meth:`as_dict` (uid-set stats are restored as sets):
        ``CollectionResult.from_dict(r.as_dict()) == r``."""
        stats = dict(data["stats"])
        for key in cls._SET_STATS:
            if key in stats:
                stats[key] = {int(uid) for uid in stats[key]}
        return cls(
            selected=[SelectedPrompt.from_dict(s) for s in data["selected"]],
            n_input=int(data["n_input"]),
            n_after_dedup=int(data["n_after_dedup"]),
            n_after_quality=int(data["n_after_quality"]),
            n_final=int(data["n_final"]),
            stats=stats,
        )


class PromptCollector:
    """Runs the full Figure-3a pipeline over a raw corpus.

    Configure with a :class:`CollectionConfig` — or pass a whole
    :class:`~repro.pipeline.config.PipelineConfig`, whose ``collection``
    section (and ``seed``, unless given explicitly) is used.  Those are
    the only construction paths.  Without a ``classifier``, the default
    one is fitted the first time a prompt is left to classify.
    """

    def __init__(
        self,
        embedder: EmbeddingModel | None = None,
        grader: SimulatedLLM | None = None,
        classifier: CategoryClassifier | None = None,
        config=None,
        seed: int | None = None,
    ):
        # A PipelineConfig carries the collection section plus the run seed
        # (duck-typed to keep this module import-cycle free).
        if config is not None and hasattr(config, "collection"):
            if seed is None:
                seed = config.seed
            config = config.collection
        self.embedder = embedder or EmbeddingModel()
        self.grader = grader or SimulatedLLM("baichuan-13b")
        self.classifier = classifier
        self.config = config or CollectionConfig()
        self.config.validate()
        self.seed = int(seed if seed is not None else 0)

    def collect(self, corpus: list[SyntheticPrompt]) -> CollectionResult:
        """Run dedup → quality filter → classify (→ optional diversity cap)."""
        # Imported here: the runner module imports this one.
        from repro.pipeline.runner import _classify, _dedup, _filter_quality

        survivors = _dedup(self, corpus)
        graded = _filter_quality(self, survivors)
        return _classify(self, corpus, survivors, graded)
