"""The prompt-category classifier used by the collection pipeline.

In the paper, 60,000 internally labelled examples fine-tune a BaiChuan 13b
model into a category classifier.  Here a labelled synthetic corpus trains a
hashed-feature multinomial Naive Bayes — a genuinely fitted component whose
accuracy is measured by the test suite and whose mistakes propagate into the
dataset's category mix just as a real classifier's would.
"""

from __future__ import annotations

import numpy as np

from repro.classify.features import FeatureHasher
from repro.classify.naive_bayes import MultinomialNaiveBayes
from repro.errors import EmptyDatasetError
from repro.world.prompts import PromptFactory, SyntheticPrompt

__all__ = ["CategoryClassifier"]


class CategoryClassifier:
    """fit/predict wrapper: text in, category name out."""

    def __init__(self, n_features: int = 4096, alpha: float = 0.5):
        self._hasher = FeatureHasher(n_features=n_features)
        self._nb = MultinomialNaiveBayes(alpha=alpha)
        self._fitted = False

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    def fit(self, texts: list[str], categories: list[str]) -> "CategoryClassifier":
        """Fit from per-category gram counts: no per-text feature row is built."""
        if not texts:
            raise EmptyDatasetError("classifier requires training texts")
        if len(texts) != len(categories):
            raise ValueError(
                f"texts ({len(texts)}) and categories ({len(categories)}) disagree"
            )
        classes, rows = self._nb.encode(categories)
        self._nb.fit_counts(
            classes,
            self._hasher.transform_into(texts, rows, len(classes)),
            np.bincount(rows, minlength=len(classes)),
        )
        self._fitted = True
        return self

    def fit_synthetic(
        self, n_train: int = 1500, seed: int = 1234
    ) -> "CategoryClassifier":
        """Train on a freshly generated labelled corpus.

        This mirrors the paper's use of internal labelled data: the labels
        come from the corpus generator's ground truth, not from the
        pipeline under evaluation.
        """
        factory = PromptFactory(rng=np.random.default_rng(seed))
        prompts = [factory.make_prompt() for _ in range(n_train)]
        return self.fit([p.text for p in prompts], [p.category for p in prompts])

    def predict(self, text: str) -> str:
        return str(self._nb.predict_one(self._hasher.transform(text)))

    def predict_batch(self, texts: list[str]) -> list[str]:
        if not texts:
            return []
        return [str(c) for c in self._nb.predict(self._hasher.transform_batch(texts))]

    def accuracy(self, prompts: list[SyntheticPrompt]) -> float:
        """Ground-truth accuracy on annotated synthetic prompts."""
        if not prompts:
            return 0.0
        predicted = self.predict_batch([p.text for p in prompts])
        hits = sum(1 for pred, p in zip(predicted, prompts) if pred == p.category)
        return hits / len(prompts)
