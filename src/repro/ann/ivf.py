"""Inverted-file (IVF) search: one kernel, two indexes.

An inverted file buckets every row under its nearest coarse centroid; a
query scans only its ``n_probe`` nearest buckets.  :class:`_IvfLists` is
the package's one such search, and each caller passes only its centroids
and its own exact distance kernel:

* :class:`IvfFlatIndex`, the classical ablation alternative to HNSW, with
  k-means centroids fitted by :meth:`IvfFlatIndex.train`, as in FAISS;
* :class:`~repro.ann.sharded.ShardedHnswIndex`'s routed scan, with
  ~sqrt(n) of a shard's own rows, sampled at a fixed stride.

Rows and centroids are unit-normalised under cosine, so one ranking rule
per metric serves both: ``-q.c`` for cosine, ``|c|^2 - 2 q.c`` for l2.
A search (1) ranks the centroids with one float32 GEMV *per query*, so
bucket choice never depends on the batch (this BLAS is not row-consistent
across batch shapes); (2) groups queries by probed bucket and scores each
bucket's rows against all its queries with one float32 GEMM over a
bucket-ordered copy, so a candidate row is read once per batch, not once
per query; (3) re-ranks each query's best ``k + 32`` by float32 score
with the exact kernel under the ``(distance, row id)`` order.  Returned
distances are exact and only coverage is approximate: the float32 scores
decide the pool, never the order, and an exact float32 tie across the
pool boundary re-ranks every candidate.  Probing every bucket, or probing
only empty ones, is the exact scan.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.ann.hnsw import _require_finite
from repro.cluster.kmeans import kmeans
from repro.errors import IndexError_, NotFittedError

__all__ = ["IvfFlatIndex"]

#: Row-chunk size for the bucket-assignment matmul, bounding the
#: (chunk x n_lists) score block's memory whatever the index size.
_ASSIGN_CHUNK = 8192

#: Candidates re-ranked exactly per query beyond the ``k`` asked for.
_POOL_PAD = 32


def _unit_rows32(
    vectors: np.ndarray, metric: str, norms: np.ndarray | None = None
) -> np.ndarray:
    """Float32 copy of ``vectors``, each row unit-normalised under cosine.

    ``norms`` are the rows' float64 norms when the caller caches them.
    """
    rows = vectors.astype(np.float32)
    if metric == "cosine":
        if norms is None:
            norms = np.linalg.norm(vectors, axis=1)
        rows /= np.maximum(norms, 1e-12).astype(np.float32)[:, None]
    return rows


def _scores(dots: np.ndarray, bias: np.ndarray | None) -> np.ndarray:
    """Nearest-first float32 scores: ``-dot`` on unit rows (cosine), else
    ``|r|^2 - 2 q.r``, the squared l2 distance less the query's ``|q|^2``."""
    return -dots if bias is None else bias - np.float32(2.0) * dots


class _IvfLists:
    """Rows bucketed under their nearest centroid, ready to search.

    ``rows`` and ``centroids`` are float32 matrices from :func:`_unit_rows32`.
    The layout is a pure function of them, so equal inputs route equally.
    It does not track later inserts: its owner rebuilds it.
    """

    def __init__(self, rows: np.ndarray, centroids: np.ndarray, metric: str):
        n = rows.shape[0]
        self._bias = self._centroid_bias = None
        if metric == "l2":
            self._bias = np.einsum("ij,ij->i", rows, rows)
            self._centroid_bias = np.einsum("ij,ij->i", centroids, centroids)
        centroids_t = centroids.T
        assign = np.empty(n, dtype=np.intp)
        for lo in range(0, n, _ASSIGN_CHUNK):
            hi = min(n, lo + _ASSIGN_CHUNK)
            scores = _scores(rows[lo:hi] @ centroids_t, self._centroid_bias)
            assign[lo:hi] = np.argmin(scores, axis=1)
        order = np.argsort(assign, kind="stable").astype(np.intp)
        counts = np.bincount(assign, minlength=centroids.shape[0])
        self.n_rows = n
        self._bucket_ids = order
        self._offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.intp)
        self._rows = np.ascontiguousarray(rows[order])
        self._centroids = np.ascontiguousarray(centroids)
        if self._bias is not None:
            self._bias = self._bias[order]

    @property
    def n_lists(self) -> int:
        return self._centroids.shape[0]

    def search(
        self,
        queries: np.ndarray,
        k: int,
        n_probe: int,
        exact: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` ``(row_ids, distances)`` blocks of shape ``(n_queries, k)``.

        Padded with ``-1`` / ``+inf``.  ``exact(query, row_ids)`` returns the
        float64 distances; ``queries`` must be C-contiguous float64.
        """
        nq = queries.shape[0]
        out_ids = np.full((nq, k), -1, dtype=np.intp)
        out_dists = np.full((nq, k), np.inf, dtype=np.float64)
        if self.n_rows == 0 or nq == 0:
            return out_ids, out_dists

        def fill_row(i: int, pool: np.ndarray) -> None:
            dists = exact(queries[i], pool)
            order = np.lexsort((pool, dists))[:k]
            out_ids[i, : order.shape[0]] = pool[order]
            out_dists[i, : order.shape[0]] = dists[order]

        everything = np.arange(self.n_rows, dtype=np.intp)
        p = min(n_probe, self.n_lists)
        if p >= self.n_lists:
            for i in range(nq):
                fill_row(i, everything)
            return out_ids, out_dists

        offsets = self._offsets
        bucket_len = offsets[1:] - offsets[:-1]
        q32 = queries.astype(np.float32)
        cmat_t = self._centroids.T
        probes = np.empty((nq, p), dtype=np.intp)
        for i in range(nq):
            centroid_scores = _scores(q32[i] @ cmat_t, self._centroid_bias)
            probes[i] = np.sort(np.argpartition(centroid_scores, p - 1)[:p])

        # Flat per-query candidate segments, pieces laid out in sorted
        # bucket order; (query, bucket) pairs grouped by bucket for GEMM.
        pair_q = np.repeat(np.arange(nq, dtype=np.intp), p)
        pair_b = probes.reshape(-1)
        pair_len = bucket_len[pair_b].reshape(nq, p)
        seg_start = np.concatenate(([0], np.cumsum(pair_len.sum(axis=1))))
        within = np.zeros_like(pair_len)
        within[:, 1:] = np.cumsum(pair_len[:, :-1], axis=1)
        pair_pos = (seg_start[:-1, np.newaxis] + within).reshape(-1)
        flat_scores = np.empty(int(seg_start[-1]), dtype=np.float32)

        by_bucket = np.argsort(pair_b, kind="stable")
        b_sorted = pair_b[by_bucket]
        group_edges = np.concatenate(
            ([0], np.nonzero(np.diff(b_sorted))[0] + 1, [b_sorted.size])
        )
        for g in range(group_edges.size - 1):
            glo, ghi = group_edges[g], group_edges[g + 1]
            b = int(b_sorted[glo])
            lo, hi = int(offsets[b]), int(offsets[b + 1])
            if hi == lo:
                continue
            pairs = by_bucket[glo:ghi]
            block = q32[pair_q[pairs]] @ self._rows[lo:hi].T
            bias = None if self._bias is None else self._bias[lo:hi][np.newaxis, :]
            dest = pair_pos[pairs][:, np.newaxis] + np.arange(hi - lo)
            flat_scores[dest] = _scores(block, bias)

        def segment_ids(i: int, positions: np.ndarray) -> np.ndarray:
            # Map within-segment positions back to row ids through the
            # per-query piece layout (cheaper than scattering an id copy
            # alongside every score).
            piece = np.searchsorted(within[i], positions, side="right") - 1
            starts = offsets[probes[i][piece]]
            return self._bucket_ids[starts + (positions - within[i][piece])]

        width = k + _POOL_PAD
        for i in range(nq):
            s0, s1 = int(seg_start[i]), int(seg_start[i + 1])
            if s0 == s1:
                fill_row(i, everything)
                continue
            scores = flat_scores[s0:s1]
            pool = None
            if scores.shape[0] > width:
                part = np.argpartition(scores, width - 1)[:width]
                threshold = scores[part].max()
                if int(np.count_nonzero(scores <= threshold)) <= width:
                    pool = segment_ids(i, part)
            if pool is None:
                pool = segment_ids(i, np.arange(s1 - s0))
            fill_row(i, pool)
        return out_ids, out_dists


class IvfFlatIndex:
    """Inverted-file flat index over L2 or cosine distance.

    API mirrors :class:`repro.ann.hnsw.HnswIndex` (add / search with
    ``(key, distance)`` results) except that IVF requires an explicit
    :meth:`train` step, as its FAISS counterpart does.  Every call
    validates its input before it changes any state.
    """

    def __init__(
        self,
        dim: int,
        n_lists: int = 16,
        n_probe: int = 4,
        metric: str = "cosine",
        seed: int = 0,
    ):
        if dim <= 0:
            raise IndexError_(f"dim must be positive, got {dim}")
        if n_lists < 1:
            raise IndexError_(f"n_lists must be >= 1, got {n_lists}")
        if n_probe < 1:
            raise IndexError_(f"n_probe must be >= 1, got {n_probe}")
        if metric not in ("cosine", "l2"):
            raise IndexError_(f"unknown metric {metric!r}")
        self.dim = dim
        self.n_lists = n_lists
        self.n_probe = n_probe
        self.metric = metric
        self.seed = int(seed)
        self._centroids: np.ndarray | None = None
        self._vectors: list[np.ndarray] = []
        self._keys: list[int] = []
        self._keys_seen: set[int] = set()
        # Stacked rows and their buckets, rebuilt by the first search
        # after an add or a train.
        self._matrix: np.ndarray | None = None
        self._lists: _IvfLists | None = None

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def is_trained(self) -> bool:
        return self._centroids is not None

    def _prep(self, vector: np.ndarray, what: str) -> np.ndarray:
        vec = np.asarray(vector, dtype=np.float64).reshape(-1)
        if vec.shape[0] != self.dim:
            raise IndexError_(f"expected dim {self.dim}, got {vec.shape[0]}")
        _require_finite(vec, what)
        if self.metric == "cosine":
            norm = float(np.linalg.norm(vec))
            if norm > 1e-12:
                vec = vec / norm
        return vec

    def train(self, sample: np.ndarray) -> "IvfFlatIndex":
        """Fit the coarse quantizer on a (representative) sample."""
        matrix = np.atleast_2d(np.asarray(sample, dtype=np.float64))
        if matrix.shape[0] == 0:
            raise IndexError_("cannot train on an empty sample")
        prepared = np.vstack([self._prep(row, "sample") for row in matrix])
        k = min(self.n_lists, prepared.shape[0])
        self._centroids = kmeans(prepared, k, seed=self.seed).centroids
        self._lists = None
        return self

    def add(self, vector: np.ndarray, key: int) -> None:
        """Store a finite vector under a key not stored before."""
        if not self.is_trained:
            raise NotFittedError("IvfFlatIndex.add() before train()")
        vec = self._prep(vector, "vector")
        key = int(key)
        if key in self._keys_seen:
            raise IndexError_(f"duplicate key {key}")
        self._keys_seen.add(key)
        self._vectors.append(vec)
        self._keys.append(key)
        self._lists = None

    def _exact(self, query: np.ndarray, ids: np.ndarray) -> np.ndarray:
        rows = self._matrix[ids]
        if self.metric == "l2":
            return np.sum((rows - query) ** 2, axis=1)
        return 1.0 - rows @ query

    def search(
        self, query: np.ndarray, k: int, n_probe: int | None = None
    ) -> list[tuple[int, float]]:
        """Scan the ``n_probe`` closest lists; return (key, distance)."""
        if not self.is_trained:
            raise NotFittedError("IvfFlatIndex.search() before train()")
        if k < 1:
            raise IndexError_(f"k must be >= 1, got {k}")
        if n_probe is None:
            n_probe = self.n_probe
        elif n_probe < 1:
            raise IndexError_(f"n_probe must be >= 1, got {n_probe}")
        vec = self._prep(query, "query")
        if not self._keys:
            return []
        if self._lists is None:
            self._matrix = np.vstack(self._vectors)
            self._lists = _IvfLists(
                _unit_rows32(self._matrix, self.metric),
                _unit_rows32(self._centroids, self.metric),
                self.metric,
            )
        ids, dists = self._lists.search(vec[np.newaxis, :], k, n_probe, self._exact)
        found = ids[0] >= 0
        keys = [self._keys[i] for i in ids[0][found].tolist()]
        return list(zip(keys, dists[0][found].tolist()))
