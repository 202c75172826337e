"""Signed feature hashing (the "hashing trick") for sparse text features.

Each feature string is hashed twice: once to pick a bucket, once to pick a
sign.  The signed variant keeps the inner product an unbiased estimator of
the true sparse inner product, which is what makes hashed embeddings usable
for cosine-similarity dedup.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable
from typing import TypeVar

import numpy as np

from repro.utils.rng import stable_hash

__all__ = ["bucket_sign", "hash_features", "table_codes"]

#: Most keys one table (see :func:`table_codes`) holds.  A gram entry
#: costs about 120 B, so a full gram table is about 4 MB; a 10k-prompt
#: generated corpus has under 8k distinct grams.
_TABLE_LIMIT = 1 << 15

_Code = TypeVar("_Code")


def bucket_sign(feature: str, dim: int) -> tuple[int, float]:
    """The (bucket, sign) a feature string hashes to under ``dim``.

    The sign comes from a high bit so it is independent of the bucket
    (low bits select the bucket via ``h % dim``; reusing a low bit would
    correlate sign with bucket and break cancellation).
    """
    h = stable_hash(feature)
    return h % dim, 1.0 if (h >> 47) & 1 else -1.0


def hash_features(
    features: Iterable[str],
    dim: int,
    weights: Iterable[float] | None = None,
) -> np.ndarray:
    """Project weighted string features into a dense ``dim`` vector.

    Parameters
    ----------
    features:
        Feature strings (e.g. character n-grams).
    dim:
        Output dimensionality; must be positive.
    weights:
        Optional per-feature weights (defaults to 1.0 each).
    """
    if dim <= 0:
        raise ValueError(f"dim must be positive, got {dim}")
    vec = np.zeros(dim, dtype=np.float64)
    if weights is None:
        for feat in features:
            bucket, sign = bucket_sign(feat, dim)
            vec[bucket] += sign
    else:
        for feat, w in zip(features, weights, strict=True):
            bucket, sign = bucket_sign(feat, dim)
            vec[bucket] += sign * w
    return vec


def table_codes(
    table: dict, grams: list[Hashable], code: Callable[[Hashable], _Code]
) -> list[_Code]:
    """The codes of ``grams``, looked up in ``table`` and memoised there.

    A gram the table lacks costs one ``code(gram)`` call (a blake2b digest
    in the gram tables; the embedder's window table fills a window from
    its gram table) and is stored while the table holds fewer than
    ``_TABLE_LIMIT`` keys; past that it is recomputed on every
    occurrence.  A gram's code must depend on the gram alone, so a table
    changes no result, only how often a code is computed.  Threads need no
    lock: two that miss one gram store equal codes, and at worst the
    table passes its limit by a few entries.
    """
    codes = list(map(table.get, grams))
    if None in codes:
        for i, found in enumerate(codes):
            if found is None:
                gram = grams[i]
                found = table.get(gram)
                if found is None:
                    found = code(gram)
                    if len(table) < _TABLE_LIMIT:
                        table[gram] = found
                codes[i] = found
    return codes
