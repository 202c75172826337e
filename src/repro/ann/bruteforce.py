"""Exact nearest-neighbour index used as ground truth in recall tests."""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.ann.hnsw import _require_finite
from repro.errors import IndexError_

__all__ = ["BruteForceIndex"]


class BruteForceIndex:
    """Exact k-NN via a full distance scan.

    Distances follow the same convention as :class:`repro.ann.hnsw.HnswIndex`:
    cosine *distance* (``1 - cosine similarity``) or squared L2.

    The stacked ``(n, dim)`` matrix and its row norms are cached between
    searches and invalidated on insert, so ground-truth sweeps at bench
    scale (1k queries against 100k rows) do not re-stack the corpus per
    query.
    """

    def __init__(self, dim: int, metric: str = "cosine"):
        if dim <= 0:
            raise IndexError_(f"dim must be positive, got {dim}")
        if metric not in ("cosine", "l2"):
            raise IndexError_(f"unknown metric {metric!r}")
        self.dim = dim
        self.metric = metric
        self._vectors: list[np.ndarray] = []
        self._keys: list[int] = []
        self._matrix: np.ndarray | None = None
        self._row_norms: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._keys)

    def add(self, vector: np.ndarray, key: int) -> None:
        vec = np.asarray(vector, dtype=np.float64).reshape(-1)
        if vec.shape[0] != self.dim:
            raise IndexError_(f"expected dim {self.dim}, got {vec.shape[0]}")
        _require_finite(vec, "vector")
        self._append(vec, int(key))

    def _append(self, vec: np.ndarray, key: int) -> None:
        self._vectors.append(vec)
        self._keys.append(key)
        self._matrix = None
        self._row_norms = None

    def add_batch(
        self, vectors: np.ndarray, keys: Iterable[int] | None = None
    ) -> None:
        """Insert many vectors at once (keys default to ``0..n-1``).

        The batch is validated whole before any row is stored."""
        matrix = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        if matrix.shape[0] == 0:
            return
        if matrix.shape[1] != self.dim:
            raise IndexError_(f"expected dim {self.dim}, got {matrix.shape[1]}")
        _require_finite(matrix, "vectors")
        key_list = list(range(matrix.shape[0])) if keys is None else [int(k) for k in keys]
        if len(key_list) != matrix.shape[0]:
            raise IndexError_(
                f"got {matrix.shape[0]} vectors but {len(key_list)} keys"
            )
        for row, key in zip(matrix, key_list):
            self._append(row, key)

    def _ensure_matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = np.vstack(self._vectors)
            if self.metric == "cosine":
                self._row_norms = np.linalg.norm(self._matrix, axis=1)
        return self._matrix

    def _distances(self, query: np.ndarray) -> np.ndarray:
        mat = self._ensure_matrix()
        if self.metric == "l2":
            diff = mat - query
            return np.einsum("ij,ij->i", diff, diff)
        qn = np.linalg.norm(query)
        mn = self._row_norms
        denom = np.where(mn * qn < 1e-12, 1.0, mn * qn)
        return 1.0 - (mat @ query) / denom

    def search(self, query: np.ndarray, k: int) -> list[tuple[int, float]]:
        """Return up to ``k`` ``(key, distance)`` pairs, nearest first."""
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        if query.shape[0] != self.dim:
            raise IndexError_(f"expected dim {self.dim}, got {query.shape[0]}")
        _require_finite(query, "query")
        if not self._keys:
            return []
        return self._search_row(query, k)

    def _search_row(self, query: np.ndarray, k: int) -> list[tuple[int, float]]:
        dists = self._distances(query)
        k = min(k, len(self._keys))
        order = np.argsort(dists, kind="stable")[:k]
        return [(self._keys[i], float(dists[i])) for i in order]

    def search_batch(
        self, queries: np.ndarray, k: int
    ) -> list[list[tuple[int, float]]]:
        """k-NN lists for a ``(n, dim)`` query matrix, one per row.

        Result-identical to ``[self.search(q, k) for q in queries]`` (each
        row runs through the same per-query kernel), with the batch
        validated once.
        """
        matrix = np.asarray(queries, dtype=np.float64)
        if matrix.size == 0 and matrix.ndim <= 2:
            return []
        matrix = np.atleast_2d(matrix)
        if matrix.ndim != 2:
            raise IndexError_(f"queries must be 2-D, got shape {matrix.shape}")
        if matrix.shape[1] != self.dim:
            raise IndexError_(f"expected dim {self.dim}, got {matrix.shape[1]}")
        _require_finite(matrix, "queries")
        if not self._keys:
            return [[] for _ in range(matrix.shape[0])]
        return [self._search_row(row, k) for row in matrix]
