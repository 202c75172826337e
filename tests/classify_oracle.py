"""The dense classifier fit, kept here as the reference.

:class:`~repro.classify.features.FeatureHasher` looks grams up in a gram
table and counts them with one ``np.bincount``, and
:meth:`~repro.classify.model.CategoryClassifier.fit` sums those counts per
class without building a per-text row.  The functions below are the forms
they replaced: a blake2b digest per gram occurrence into a dense row per
text, the rows stacked into one matrix, and the Naive Bayes fit adding
that matrix into per-class sums one row at a time.  Every count is an
integer, so the two must agree byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.utils import textproc
from repro.utils.rng import stable_hash


def reference_transform(text: str, n_features: int) -> np.ndarray:
    """Dense count vector of hashed uni+bigram features."""
    vec = np.zeros(n_features, dtype=np.float64)
    toks = textproc.words(text)
    for tok in toks:
        vec[stable_hash(f"u|{tok}") % n_features] += 1.0
    for gram in textproc.word_ngrams(toks, 2):
        vec[stable_hash(f"b|{gram[0]} {gram[1]}") % n_features] += 1.0
    return vec


def reference_transform_batch(texts: list[str], n_features: int) -> np.ndarray:
    if not texts:
        return np.zeros((0, n_features), dtype=np.float64)
    return np.vstack([reference_transform(t, n_features) for t in texts])


def reference_nb_fit(
    matrix: np.ndarray, labels: list, alpha: float
) -> tuple[list, np.ndarray, np.ndarray]:
    """``(classes, log_prior, log_likelihood)`` of a multinomial NB fit."""
    classes = sorted(set(labels), key=str)
    class_index = {c: i for i, c in enumerate(classes)}
    counts = np.zeros((len(classes), matrix.shape[1]), dtype=np.float64)
    class_counts = np.zeros(len(classes), dtype=np.float64)
    for row, label in zip(matrix, labels, strict=True):
        idx = class_index[label]
        counts[idx] += row
        class_counts[idx] += 1
    log_prior = np.log(class_counts / class_counts.sum())
    smoothed = counts + alpha
    log_likelihood = np.log(smoothed / smoothed.sum(axis=1, keepdims=True))
    return classes, log_prior, log_likelihood


def reference_fit(
    texts: list[str], labels: list, n_features: int = 4096, alpha: float = 0.5
) -> tuple[list, np.ndarray, np.ndarray]:
    """The whole dense classifier fit: featurise every text, then fit."""
    return reference_nb_fit(reference_transform_batch(texts, n_features), labels, alpha)
