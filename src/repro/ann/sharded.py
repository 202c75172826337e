"""A sharded HNSW index: K independent graphs, one deterministic merge.

The monolithic :class:`~repro.ann.hnsw.HnswIndex` builds one graph over the
whole corpus; at serving scale both construction and the per-query beam
search grow with corpus size.  ``ShardedHnswIndex`` partitions the vectors
round-robin across K independent ``HnswIndex`` shards, so

* **build** inserts into K graphs of ``n / K`` nodes each, which is
  cheaper than one ``n``-node graph because insertion cost grows with
  graph size;
* **search** asks every shard for its top-k and merges the per-shard
  answers in one vectorised pass.

Both loop over the shards on the calling thread.  A build is mostly
Python that holds the GIL, and a routed search is BLAS calls, so a
thread per shard bought contention, not overlap: on a 2-vCPU host,
20,000 rows in four routed shards built 1.5-2.4x and searched 1.7-1.8x
slower with one than with this loop.

Sharded search only pays off if each shard does *less* work than the
single index would, so the fan-out picks a per-shard strategy by size:

* a shard at or below ``scan_threshold`` elements answers with one exact
  vectorised scan (:meth:`~repro.ann.hnsw.HnswIndex._scan_raw`), which
  reads the shard's stored rows in place — at small n one ``vecdot`` over
  the whole shard is an order of magnitude cheaper than walking the
  graph, and it is exhaustive, so small-corpus recall can only improve;
* a larger shard answers with a *routed* scan, the IVF kernel
  :class:`~repro.ann.ivf._IvfLists` over ~sqrt(n) of the shard's rows,
  sampled at a fixed stride, as centroids: one float32 GEMM per probed
  bucket scores its rows against every query probing it, and each
  query's best pool is re-ranked with the shard's exact kernel.  This
  beats walking K graphs per query twice over: a beam search pays a
  fixed per-query descent cost (~130 us measured) *per shard*, so K
  descents alone exceed one whole monolithic search, and per-query
  distance kernels are memory-bound where the grouped GEMM is not;
* ``large_shard_search="beam"`` instead runs each big shard's beam with a
  *split* ef budget, ``max(k, ceil(ef / n_shards) + pad)`` — each shard
  holds ~1/K of the corpus, so it needs ~1/K of the candidate list to
  cover its share of the true top-k, and the additive pad absorbs the
  unlucky shard.  This is the mode for when the graph must be the source
  of truth, and the only one that reads int8 codes (the routed scan
  ranks float rows); the K descents per query keep it from being the
  default.

``n_shards=1`` bypasses all of that and delegates to the monolithic index
untouched (same ef, beam only), keeping the long-standing bit-parity
contract with a plain ``HnswIndex`` of the same seed.

Results are a pure function of the data: each shard's graph depends only
on its own slice of it, and the merge orders candidates by the declared
key ``(distance, shard index, within-shard rank)``.  ``search_batch`` is
bit-identical to ``[search(q, k) for q in queries]`` — the same contract
every other batched path in the repo carries (``tests/test_ann_sharded.py``
pins it).
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from repro.ann.hnsw import HnswIndex, _require_finite
from repro.ann.ivf import _IvfLists, _unit_rows32
from repro.errors import IndexError_
from repro.obs import NULL_OBS, Observability

__all__ = ["ShardedHnswIndex"]

#: Additive slack on the split per-shard ef budget: covers the shard whose
#: slice of the true top-k is larger than the round-robin expectation.
_EF_SPLIT_PAD = 8

#: Buckets for the ``pas_ann_search_ticks`` histogram (ticks are the
#: tracer's deterministic logical clock, one tick per span boundary).
_SEARCH_TICK_BUCKETS = (1, 2, 5, 10, 25, 50, 100, 250, 1000)


class ShardedHnswIndex:
    """Round-robin sharded HNSW with deterministic top-k merging.

    Parameters
    ----------
    dim:
        Vector dimensionality.
    n_shards:
        Number of independent ``HnswIndex`` shards.  ``n_shards=1`` is
        graph-identical to a plain ``HnswIndex`` with the same seed.
    m / ef_construction / ef_search / metric / quantization:
        Forwarded to every shard (see :class:`~repro.ann.hnsw.HnswIndex`).
    seed:
        Shard ``s`` draws its levels from ``seed + s``, so shard graphs
        are independent but the whole index is reproducible.
    scan_threshold:
        Shards at or below this many elements answer queries with an
        exact vectorised scan instead of a routed scan or beam search
        (multi-shard configurations only).  ``0`` disables the scan path.
    large_shard_search:
        Strategy for shards above ``scan_threshold``: ``"routed"``
        (default) probes the nearest coarse-router buckets and re-ranks
        exactly; ``"beam"`` walks each shard's graph with a split ef
        budget.
    route_probes:
        How many router buckets a routed scan visits per shard (default:
        15% of the ~sqrt(n) centroids, floor 8).  More probes trade
        throughput for recall; ``>= n_centroids`` degenerates to the
        exact scan.  The default is tuned for *clustered* corpora (the
        embedding-retrieval regime: 0.98 recall at the 100k bench tier).
        On unstructured data a query's true neighbours spread evenly
        across buckets, so recall degrades toward the coverage fraction
        itself — raise ``route_probes`` or use
        ``large_shard_search="beam"`` there.
    obs:
        Optional :class:`~repro.obs.Observability` bundle: every
        :meth:`search` / :meth:`search_batch` runs inside an
        ``ann.search`` span, counts into ``pas_ann_searches_total``,
        and records its span duration into the ``pas_ann_search_ticks``
        histogram (labels: ``mode``, ``quantized``).  Null (free) by
        default.
    """

    def __init__(
        self,
        dim: int,
        n_shards: int = 4,
        m: int = 16,
        ef_construction: int = 200,
        ef_search: int = 50,
        metric: str = "cosine",
        seed: int = 0,
        scan_threshold: int = 2048,
        large_shard_search: str = "routed",
        route_probes: int | None = None,
        quantization: str = "none",
        obs: Observability = NULL_OBS,
    ):
        if n_shards < 1:
            raise IndexError_(f"n_shards must be >= 1, got {n_shards}")
        if scan_threshold < 0:
            raise IndexError_(f"scan_threshold must be >= 0, got {scan_threshold}")
        if large_shard_search not in ("routed", "beam"):
            raise IndexError_(
                "large_shard_search must be 'routed' or 'beam', "
                f"got {large_shard_search!r}"
            )
        if route_probes is not None and route_probes < 1:
            raise IndexError_(f"route_probes must be >= 1, got {route_probes}")
        self.dim = dim
        self.n_shards = n_shards
        self.ef_search = ef_search
        self.scan_threshold = scan_threshold
        self.large_shard_search = large_shard_search
        self.route_probes = route_probes
        self.quantization = quantization
        self.obs = obs
        self._shards = [
            HnswIndex(
                dim=dim,
                m=m,
                ef_construction=ef_construction,
                ef_search=ef_search,
                metric=metric,
                seed=seed + shard,
                quantization=quantization,
            )
            for shard in range(n_shards)
        ]
        self._count = 0
        self._keys_seen: set[int] = set()
        # Per shard: (element count it was built at, coarse router).
        self._routers: list[tuple[int, _IvfLists] | None] = [None] * n_shards

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._count

    @property
    def shard_sizes(self) -> list[int]:
        """Per-shard element counts (round-robin keeps them within 1)."""
        return [len(shard) for shard in self._shards]

    def _check_key(self, key: int) -> int:
        key = int(key)
        if key in self._keys_seen:
            raise IndexError_(f"duplicate key {key}")
        self._keys_seen.add(key)
        return key

    # ------------------------------------------------------------------ #
    # fan-out + merge core (arrays end to end)
    # ------------------------------------------------------------------ #

    def _split_ef(self, k: int, ef: int | None) -> int:
        """Per-shard beam budget: ~1/K of the global ef, plus slack."""
        budget = ef if ef is not None else self.ef_search
        return max(k, -(-budget // self.n_shards) + _EF_SPLIT_PAD)

    def _probe_width(self, n_centroids: int) -> int:
        """Routed-scan probe count: explicit setting or 15% of centroids."""
        if self.route_probes is not None:
            return self.route_probes
        return max(8, -(-3 * n_centroids // 20))

    def _router(self, shard_idx: int) -> _IvfLists:
        """The shard's coarse router, rebuilt by the first search after an insert.

        Its centroids, ~sqrt(n) rows sampled at a fixed stride, make it a
        pure function of the stored vectors: identical shards route alike.
        """
        shard = self._shards[shard_idx]
        n = len(shard)
        cached = self._routers[shard_idx]
        if cached is None or cached[0] != n:
            c = max(1, int(round(math.sqrt(n))))
            cids = np.unique(np.linspace(0, n - 1, c).round().astype(np.intp))
            rows = _unit_rows32(shard.vectors, shard.metric, shard._norms[:n])
            cached = (n, _IvfLists(rows, rows[cids], shard.metric))
            self._routers[shard_idx] = cached
        return cached[1]

    def _shard_arrays(
        self, shard_idx: int, matrix: np.ndarray, k: int, ef: int | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """One shard's ``(keys, dists)`` answer blocks, padded -1/inf."""
        shard = self._shards[shard_idx]
        n = len(shard)
        if n == 0:
            return shard.search_batch_arrays(matrix, k, ef=ef)
        if n <= self.scan_threshold:
            n_queries = matrix.shape[0]
            keys = np.full((n_queries, k), -1, dtype=np.int64)
            dists = np.full((n_queries, k), np.inf, dtype=np.float64)
            for i, row in enumerate(matrix):
                ids, row_dists = shard._scan_raw(row, shard._query_norm(row), k)
                keys[i, : ids.shape[0]] = shard._key_arr[ids]
                dists[i, : row_dists.shape[0]] = row_dists
            return keys, dists
        if self.large_shard_search == "beam":
            return shard.search_batch_arrays(matrix, k, ef=self._split_ef(k, ef))
        router = self._router(shard_idx)

        def exact(query: np.ndarray, ids: np.ndarray) -> np.ndarray:
            return shard._distances_to(query, ids, shard._query_norm(query))

        ids, dists = router.search(matrix, k, self._probe_width(router.n_lists), exact)
        keys = np.full(ids.shape, -1, dtype=np.int64)
        valid = ids >= 0
        keys[valid] = shard._key_arr[ids[valid]]
        return keys, dists

    @staticmethod
    def _merge_arrays(
        per_shard: list[tuple[np.ndarray, np.ndarray]], k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Merge per-shard answer blocks under the declared deterministic order.

        One lexsort over the stacked ``(n_queries, n_shards * k)`` blocks,
        keyed by ``(distance, shard index, within-shard rank)`` — the same
        total order the old per-query Python tuple sort produced, since
        ``(shard, rank)`` is already unique.  Pad entries carry distance
        ``+inf`` so they sort after every real candidate.
        """
        all_keys = np.concatenate([keys for keys, _ in per_shard], axis=1)
        all_dists = np.concatenate([dists for _, dists in per_shard], axis=1)
        n_queries, width = all_keys.shape
        shard_ids = np.repeat(np.arange(len(per_shard)), k)
        ranks = np.tile(np.arange(k), len(per_shard))
        order = np.lexsort(
            (
                np.broadcast_to(ranks, (n_queries, width)),
                np.broadcast_to(shard_ids, (n_queries, width)),
                all_dists,
            ),
            axis=-1,
        )[:, :k]
        return (
            np.take_along_axis(all_keys, order, axis=1),
            np.take_along_axis(all_dists, order, axis=1),
        )

    def _fan_out(
        self, matrix: np.ndarray, k: int, ef: int | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Merged ``(keys, dists)`` arrays for a validated query matrix."""
        if self.n_shards == 1:
            # Pure delegation: same ef, beam only — bit-identical to the
            # monolithic index (pinned by tests).
            return self._shards[0].search_batch_arrays(matrix, k, ef)
        per_shard = [
            self._shard_arrays(s, matrix, k, ef) for s in range(self.n_shards)
        ]
        return self._merge_arrays(per_shard, k)

    @staticmethod
    def _rows_to_tuples(
        keys: np.ndarray, dists: np.ndarray
    ) -> list[list[tuple[int, float]]]:
        """Tuple view of padded result arrays (pads are a sorted tail)."""
        out: list[list[tuple[int, float]]] = []
        for row_keys, row_dists in zip(keys, dists):
            pad = (row_keys == -1) & np.isinf(row_dists)
            n_valid = int(row_keys.shape[0] - np.count_nonzero(pad))
            out.append(
                list(zip(row_keys[:n_valid].tolist(), row_dists[:n_valid].tolist()))
            )
        return out

    def _observe_search(self, span, mode: str) -> None:
        self.obs.metrics.histogram(
            "pas_ann_search_ticks",
            buckets=_SEARCH_TICK_BUCKETS,
            help="ANN search span duration in tracer ticks.",
        ).observe(
            span.duration_ticks,
            mode=mode,
            quantized=str(self.quantization != "none").lower(),
        )

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def add(self, vector: np.ndarray, key: int) -> None:
        """Insert one vector; element ``i`` lands on shard ``i % n_shards``.

        The vector is validated before the key is taken, so a rejected
        vector leaves its key free.
        """
        vec = np.asarray(vector, dtype=np.float64).reshape(-1)
        if vec.shape[0] != self.dim:
            raise IndexError_(f"expected dim {self.dim}, got {vec.shape[0]}")
        _require_finite(vec, "vector")
        key = self._check_key(key)
        self._shards[self._count % self.n_shards].add(vec, key)
        self._count += 1

    def add_batch(
        self, vectors: np.ndarray, keys: Iterable[int] | None = None
    ) -> None:
        """Insert many vectors, one ``add_batch`` per shard's slice.

        The whole batch is validated — shapes, finiteness *and* keys,
        including duplicates within the batch — before any shard is
        touched, so a rejected batch leaves the index byte-identical.
        Round-robin assignment continues from the current element count, so
        the shard contents are identical to calling :meth:`add` per row.
        """
        matrix = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        if matrix.shape[0] == 0:
            return
        if matrix.shape[1] != self.dim:
            raise IndexError_(f"expected dim {self.dim}, got {matrix.shape[1]}")
        _require_finite(matrix, "vectors")
        key_list = (
            list(range(self._count, self._count + matrix.shape[0]))
            if keys is None
            else [int(k) for k in keys]
        )
        if len(key_list) != matrix.shape[0]:
            raise IndexError_(
                f"got {matrix.shape[0]} vectors but {len(key_list)} keys"
            )
        batch_seen: set[int] = set()
        for key in key_list:
            if key in self._keys_seen or key in batch_seen:
                raise IndexError_(f"duplicate key {key}")
            batch_seen.add(key)
        for shard, index in enumerate(self._shards):
            # Batch row r lands on shard (count + r) % n_shards.
            first = (shard - self._count) % self.n_shards
            index.add_batch(
                matrix[first :: self.n_shards], key_list[first :: self.n_shards]
            )
        self._keys_seen |= batch_seen
        self._count += matrix.shape[0]

    def search(
        self, query: np.ndarray, k: int, ef: int | None = None
    ) -> list[tuple[int, float]]:
        """Up to ``k`` ``(key, distance)`` pairs merged across all shards."""
        if k < 1:
            raise IndexError_(f"k must be >= 1, got {k}")
        query = np.ascontiguousarray(query, dtype=np.float64).reshape(-1)
        if query.shape[0] != self.dim:
            raise IndexError_(f"expected dim {self.dim}, got {query.shape[0]}")
        _require_finite(query, "query")
        if self._count == 0:
            return []
        with self.obs.tracer.span(
            "ann.search", mode="scalar", k=k, n_shards=self.n_shards
        ) as span:
            self.obs.metrics.counter(
                "pas_ann_searches_total", help="ANN searches by mode."
            ).inc(mode="scalar")
            keys, dists = self._fan_out(query[np.newaxis, :], k, ef)
            hits = self._rows_to_tuples(keys, dists)[0]
        self._observe_search(span, "scalar")
        return hits

    def search_batch(
        self, queries: np.ndarray, k: int, ef: int | None = None
    ) -> list[list[tuple[int, float]]]:
        """k-NN lists for a ``(n, dim)`` query matrix, one per row.

        A thin tuple view over :meth:`search_batch_arrays` — bit-identical
        to ``[self.search(q, k, ef) for q in queries]``, because scalar and
        batched paths share one fan-out/merge core.
        """
        keys, dists, n_queries = self._search_batch_validated(queries, k, ef)
        if keys is None:
            return [[] for _ in range(n_queries)]
        return self._rows_to_tuples(keys, dists)

    def search_batch_arrays(
        self, queries: np.ndarray, k: int, ef: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Array-native batch search: ``(keys, dists)`` of shape ``(n, k)``.

        Row ``i`` holds the same hits, in the same order, as
        ``search_batch(queries, k, ef)[i]``; when fewer than ``k``
        elements exist the row tail is padded with key ``-1`` and distance
        ``+inf`` (a pad entry always has both).
        """
        keys, dists, n_queries = self._search_batch_validated(queries, k, ef)
        if keys is None:
            return (
                np.full((n_queries, k), -1, dtype=np.int64),
                np.full((n_queries, k), np.inf, dtype=np.float64),
            )
        return keys, dists

    def _search_batch_validated(
        self, queries: np.ndarray, k: int, ef: int | None
    ) -> tuple[np.ndarray | None, np.ndarray | None, int]:
        """Shared validation + instrumented fan-out for both batch surfaces.

        Returns ``(keys, dists, n_queries)``; ``keys is None`` signals an
        empty index (callers render their own empty shape).
        """
        if k < 1:
            raise IndexError_(f"k must be >= 1, got {k}")
        matrix = np.ascontiguousarray(queries, dtype=np.float64)
        if matrix.size == 0 and matrix.ndim <= 2:
            return None, None, 0
        matrix = np.atleast_2d(matrix)
        if matrix.ndim != 2:
            raise IndexError_(f"queries must be 2-D, got shape {matrix.shape}")
        if matrix.shape[1] != self.dim:
            raise IndexError_(f"expected dim {self.dim}, got {matrix.shape[1]}")
        _require_finite(matrix, "queries")
        if self._count == 0:
            return None, None, int(matrix.shape[0])
        with self.obs.tracer.span(
            "ann.search",
            mode="batch",
            k=k,
            n_queries=int(matrix.shape[0]),
            n_shards=self.n_shards,
        ) as span:
            self.obs.metrics.counter(
                "pas_ann_searches_total", help="ANN searches by mode."
            ).inc(mode="batch")
            keys, dists = self._fan_out(matrix, k, ef)
        self._observe_search(span, "batch")
        return keys, dists, int(matrix.shape[0])
