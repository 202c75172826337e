"""Multinomial Naive Bayes on dense count features."""

from __future__ import annotations

import numpy as np

from repro.errors import EmptyDatasetError, NotFittedError

__all__ = ["MultinomialNaiveBayes"]


class MultinomialNaiveBayes:
    """Multinomial NB with Lidstone smoothing.

    Works on any non-negative count matrix; labels are arbitrary hashable
    values and come back as given.
    """

    def __init__(self, alpha: float = 0.5):
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self.alpha = alpha
        self._classes: list = []
        self._log_prior: np.ndarray | None = None
        self._log_likelihood: np.ndarray | None = None

    @property
    def classes(self) -> list:
        return list(self._classes)

    @staticmethod
    def encode(labels: list) -> tuple[list, np.ndarray]:
        """The classes ``labels`` name, sorted by ``str``, and each label's
        index among them."""
        classes = sorted(set(labels), key=str)
        class_index = {c: i for i, c in enumerate(classes)}
        return classes, np.array([class_index[label] for label in labels], dtype=np.intp)

    def fit(self, features: np.ndarray, labels: list) -> "MultinomialNaiveBayes":
        matrix = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if matrix.shape[0] == 0:
            raise EmptyDatasetError("cannot fit NB on an empty feature matrix")
        if matrix.shape[0] != len(labels):
            raise ValueError(
                f"features ({matrix.shape[0]}) and labels ({len(labels)}) disagree"
            )
        if (matrix < 0).any():
            raise ValueError("multinomial NB requires non-negative counts")
        classes, rows = self.encode(labels)
        counts = np.zeros((len(classes), matrix.shape[1]), dtype=np.float64)
        # add.at adds the rows in order, as a per-row loop would.
        np.add.at(counts, rows, matrix)
        return self.fit_counts(classes, counts, np.bincount(rows, minlength=len(classes)))

    def fit_counts(
        self, classes: list, counts: np.ndarray, class_sizes: np.ndarray
    ) -> "MultinomialNaiveBayes":
        """Fit from per-class sums: row ``c`` of ``counts`` sums the feature
        rows of the ``class_sizes[c]`` examples of ``classes[c]``.

        :meth:`fit` reduces a dense matrix to these sums, and a caller that
        can count features per class directly never builds one.
        """
        counts = np.asarray(counts, dtype=np.float64)
        class_sizes = np.asarray(class_sizes, dtype=np.float64)
        if counts.ndim != 2 or not len(classes) == len(counts) == len(class_sizes):
            raise ValueError(
                f"{len(classes)} classes, {len(counts)} count rows and "
                f"{len(class_sizes)} class sizes disagree"
            )
        self._classes = list(classes)
        self._log_prior = np.log(class_sizes / class_sizes.sum())
        smoothed = counts + self.alpha
        self._log_likelihood = np.log(smoothed / smoothed.sum(axis=1, keepdims=True))
        return self

    def log_posterior(self, features: np.ndarray) -> np.ndarray:
        if self._log_prior is None or self._log_likelihood is None:
            raise NotFittedError("MultinomialNaiveBayes used before fit()")
        matrix = np.atleast_2d(np.asarray(features, dtype=np.float64))
        return matrix @ self._log_likelihood.T + self._log_prior

    def predict(self, features: np.ndarray) -> list:
        scores = self.log_posterior(features)
        return [self._classes[i] for i in np.argmax(scores, axis=1)]

    def predict_one(self, feature_vector: np.ndarray):
        return self.predict(np.atleast_2d(feature_vector))[0]
