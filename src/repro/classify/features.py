"""Hashed bag-of-n-grams feature extraction for classification."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.embedding.hashing import table_codes
from repro.utils import textproc
from repro.utils.rng import stable_hash

__all__ = ["FeatureHasher"]


class FeatureHasher:
    """Map text to sparse count features by hashing word uni/bigrams.

    Unlike the embedding model (which is signed, for cosine geometry),
    classification features are plain non-negative counts, which is what a
    multinomial Naive Bayes likelihood expects.
    """

    def __init__(self, n_features: int = 4096):
        if n_features <= 0:
            raise ValueError(f"n_features must be positive, got {n_features}")
        self.n_features = n_features
        # word gram -> bucket under ``n_features`` (see _bucket): unigrams
        # are keyed by their string and bigrams by their token pair.  It
        # lives as long as the hasher, like the embedder's gram table.
        self._table: dict[str | tuple[str, str], int] = {}

    def _bucket(self, gram: str | tuple[str, str]) -> int:
        if isinstance(gram, str):
            return stable_hash(f"u|{gram}") % self.n_features
        return stable_hash(f"b|{gram[0]} {gram[1]}") % self.n_features

    def transform(self, text: str) -> np.ndarray:
        """Dense count vector of hashed uni+bigram features."""
        return self.transform_batch([text])[0]

    def transform_batch(self, texts: list[str]) -> np.ndarray:
        """One count row per text, an ``(n, n_features)`` float matrix."""
        return self.transform_into(texts, np.arange(len(texts)), len(texts))

    def transform_into(
        self, texts: list[str], rows: Sequence[int], n_rows: int
    ) -> np.ndarray:
        """Sum each text's count vector into row ``rows[i]`` of an
        ``(n_rows, n_features)`` float matrix.

        Every gram of every text lands in one ``np.bincount`` over
        ``row * n_features + bucket``, so no per-text dense row is ever
        built.  Counts are integers far below 2**53, so each entry is exact
        whatever order its grams arrive in.
        """
        buckets: list[int] = []
        lengths: list[int] = []
        for text in texts:
            toks = textproc.words(text)
            grams = [*toks, *zip(toks, toks[1:])]
            buckets += table_codes(self._table, grams, self._bucket)
            lengths.append(len(grams))
        index = np.repeat(np.asarray(rows, dtype=np.intp), lengths)
        counts = np.bincount(
            index * self.n_features + np.array(buckets, dtype=np.intp),
            weights=np.ones(len(buckets)),
            minlength=n_rows * self.n_features,
        )
        # bincount of no grams at all comes back as int64 zeros.
        return counts.astype(np.float64, copy=False).reshape(n_rows, self.n_features)
