"""The PAS model: ``M_p <- SFT(M; D_generated)`` (paper §3.4).

``PasModel`` is the fine-tuned prompt-complementary model.  Training fits an
:class:`~repro.llm.sft.SftDirectivePredictor` on the generated dataset;
inference maps a user prompt to a complementary prompt *without altering the
original input* — the defining difference from rewrite-style APE (BPO).
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path

from repro.core.golden import render_complement
from repro.embedding.model import EmbeddingModel
from repro.errors import NotFittedError
from repro.llm.persist import load_predictor, save_predictor
from repro.llm.profiles import CapabilityProfile
from repro.llm.sft import SftConfig, SftDirectivePredictor
from repro.pipeline.dataset import PromptPairDataset

__all__ = ["PasModel", "PAS_PAPER_DATA_SIZE"]

#: Pairs in the paper's released dataset (§3.3) — the Figure 7 anchor.
PAS_PAPER_DATA_SIZE = 9_000


class PasModel:
    """A trained plug-and-play prompt augmenter.

    Parameters
    ----------
    base_model:
        The base LLM being fine-tuned (``qwen2-7b-chat`` in the paper's
        main setup, ``llama-2-7b-instruct`` in the BPO-parity setup).
    embedder:
        Sentence encoder; defaults to the library-wide hashed n-gram model.
    sft_config:
        Fit hyper-parameters (k-NN width, vote threshold).
    seed:
        Training-run salt.
    """

    def __init__(
        self,
        base_model: str | CapabilityProfile = "qwen2-7b-chat",
        embedder: EmbeddingModel | None = None,
        sft_config: SftConfig | None = None,
        seed: int = 0,
    ):
        self.predictor = SftDirectivePredictor(
            base_model=base_model,
            embedder=embedder,
            config=sft_config,
            seed=seed,
        )
        self._trained_on: int = 0

    @property
    def base_model_name(self) -> str:
        return self.predictor.base_profile.name

    @property
    def is_trained(self) -> bool:
        return self.predictor.is_fitted

    @property
    def n_training_pairs(self) -> int:
        return self._trained_on

    def train(self, dataset: PromptPairDataset) -> "PasModel":
        """Fine-tune on a prompt-complementary dataset."""
        pairs = dataset.training_texts()
        self.predictor.fit(pairs)
        self._trained_on = len(pairs)
        return self

    def augment(self, prompt_text: str, embed_cache=None) -> str:
        """Produce the complementary prompt ``p_c = M_p(p)``.

        Returns an empty string when the model predicts no directive —
        plugging PAS in never degrades a prompt it has nothing to add to.
        ``embed_cache`` (an :class:`~repro.serve.cache.LruCache`-shaped
        memo of prompt → embedding) skips the hashing pass for prompts
        embedded before; results are bit-identical either way.
        """
        if not self.is_trained:
            raise NotFittedError("PasModel must be trained before augment()")
        aspects = self.predictor.predict_aspects(prompt_text, embed_cache=embed_cache)
        return self._render(prompt_text, aspects)

    def augment_batch(self, prompts: Sequence[str], embed_cache=None) -> list[str]:
        """Complementary prompts for a whole batch in one forward pass.

        Identical prompts are deduplicated (augmentation is a pure
        function of the prompt), the unique ones go through one
        :meth:`SftDirectivePredictor.predict_aspects_batch` call, and the
        results map back per request.  Bit-identical to
        ``[self.augment(p) for p in prompts]``; an empty batch is a no-op.
        ``embed_cache`` is forwarded to the predictor (one lookup per
        unique prompt).
        """
        if not self.is_trained:
            raise NotFittedError("PasModel must be trained before augment_batch()")
        prompts = list(prompts)
        if not prompts:
            return []
        unique: list[str] = []
        seen: set[str] = set()
        for prompt_text in prompts:
            if prompt_text not in seen:
                seen.add(prompt_text)
                unique.append(prompt_text)
        aspect_sets = self.predictor.predict_aspects_batch(
            unique, embed_cache=embed_cache
        )
        complements = {
            text: self._render(text, aspects)
            for text, aspects in zip(unique, aspect_sets)
        }
        return [complements[prompt_text] for prompt_text in prompts]

    def embed_prompts(self, prompts: Sequence[str]):
        """Embeddings for ``prompts`` as an ``(n, dim)`` matrix.

        Exposes the predictor's encoder so serving-layer caches can hold
        the exact vectors augmentation would compute (``embed_batch``
        rows are bit-identical to per-text ``embed`` calls).
        """
        return self.predictor.embedder.embed_batch(prompts)

    def augment_with_embeddings(self, prompts: Sequence[str], embeddings) -> list[str]:
        """Complements for prompts whose embeddings are already in hand.

        ``embeddings[i]`` must be the encoder's vector for
        ``prompts[i]`` (from :meth:`embed_prompts` or an embedding
        cache); each complement is then bit-identical to
        ``self.augment(prompts[i])`` without re-embedding anything.
        """
        if not self.is_trained:
            raise NotFittedError(
                "PasModel must be trained before augment_with_embeddings()"
            )
        return [
            self._render(
                text, self.predictor.predict_aspects_from_embedding(text, vector)
            )
            for text, vector in zip(prompts, embeddings)
        ]

    def _render(self, prompt_text: str, aspects: set[str]) -> str:
        if not aspects:
            return ""
        return render_complement(aspects, salt=f"pas␞{self.base_model_name}␞{prompt_text}")

    def enhance(self, prompt_text: str) -> str:
        """The concatenated prompt ``cat(p, p_c)`` fed to the target LLM."""
        complement = self.augment(prompt_text)
        if not complement:
            return prompt_text
        return f"{prompt_text}\n{complement}"

    def enhance_batch(self, prompts: Sequence[str]) -> list[str]:
        """Batched :meth:`enhance`: concatenated prompts for the target LLM."""
        return [
            prompt_text if not complement else f"{prompt_text}\n{complement}"
            for prompt_text, complement in zip(prompts, self.augment_batch(prompts))
        ]

    def save(self, path: str | Path) -> Path:
        """Persist the trained model to one ``.npz`` file (train once,
        serve many times)."""
        if not self.is_trained:
            raise NotFittedError("cannot save an untrained PasModel")
        return save_predictor(self.predictor, path)

    @classmethod
    def load(cls, path: str | Path) -> "PasModel":
        """Reconstruct a model saved with :meth:`save`."""
        model = cls.__new__(cls)
        model.predictor = load_predictor(path)
        model._trained_on = model.predictor.n_examples
        return model
