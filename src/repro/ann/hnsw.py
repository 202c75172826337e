"""Hierarchical Navigable Small World graphs, implemented from scratch.

This is the index the paper uses to cluster prompt embeddings before
deduplication (§3.1).  The implementation follows Malkov & Yashunin (2016):

* each element is inserted at a geometrically distributed maximum layer;
* greedy search descends from the top layer to layer 0;
* ``SEARCH-LAYER`` maintains a dynamic candidate list of size ``ef``;
* neighbours are chosen with the diversity heuristic (``SELECT-NEIGHBORS-
  HEURISTIC``), which keeps the graph navigable in clustered data — the
  regime our prompt corpus is explicitly constructed to be in.

Only the features the pipeline needs are implemented (add + k-NN search);
there is no deletion.

Storage is one contiguous, preallocated ``(capacity, dim)`` array grown
geometrically, with per-row norms cached at insert time.  Every exact
distance comes from one kernel, a single gather plus one row-wise dot
product (:meth:`HnswIndex._distances_to`), instead of a per-neighbour
Python loop.  Each pair's distance depends only on the two rows: not on
which one is the query, nor on the other ids gathered with it.  That
pairwise property is what makes the batched paths, the scans and the beam
agree bit for bit, and it is what lets the neighbour heuristic compute one
distance row per *kept* neighbour instead of one per examined candidate.
It holds for C-contiguous queries only, so every public entry point makes
its query contiguous once.

Distances between two *stored* rows are read from a table.  While its
capacity is at most ``_PAIR_LIMIT`` (2048) rows, an index keeps a
``(capacity, capacity)`` float64 table, 32 MiB at the limit.  Storing row
``i`` fills row and column ``i`` with one kernel call over rows ``0..i``,
self-distance included.  From then on, every distance whose query is a
stored row is a table read (:meth:`HnswIndex._stored_distances`).  A
float traversal from a stored row takes that row once, as a Python list,
and reads ``row[nb]`` per visited neighbour
(:meth:`HnswIndex._query_kernel`): every insert's greedy descent and
construction beams, and every search in ``knn_graph``.  Neighbour
selection over at most ``_MASK_WIDTH`` candidates, which covers every
``_link`` overflow, takes its dominance tests from one gather of the
candidates' pairwise sub-table, as one bitmask per candidate.  The bits
cannot differ from the kernel's: the table holds the kernel's own values,
and by the pairwise property each is the value any other call would
compute for that pair.  At dedup sizes a call's fixed cost, not its
arithmetic, sets the price: one 250-row build plus its k-NN graph went
from 31,308 kernel calls to 250, and a visited node costs a list read
instead of a numpy call.  Reserving past the limit (as ``add_batch``
does for a large batch) drops the table for good, and the index runs the
table-free path, which the tests use as the oracle.  External queries,
the exact and routed scans (the routed one lives in
:mod:`repro.ann.ivf`) and the int8 code kernel never read the table.

One beam, ``_search_layer`` over the list adjacency and a visited set,
serves every layer of every search: construction, ``knn_graph``, external
queries, int8 traversal and the table-free path.  Only its kernel
differs: a table row read per visited node, or one numpy call per batch
of fresh ids.

Two result surfaces share one search core: the tuple API (``search`` /
``search_batch``, lists of ``(key, distance)`` pairs) and the array API
(:meth:`HnswIndex.search_batch_arrays`, ``(keys, dists)`` ndarrays padded
with ``-1`` / ``inf``).  The tuple lists are a thin view over the array
results, so the two never disagree — bit for bit.

``quantization="int8"`` turns on a scalar-quantised traversal kernel:
vectors are additionally stored as contiguous int8 codes with one scale
per vector, beam traversal measures distances on the codes, and the final
candidate set is re-ranked with the exact float kernel before the top-k
cut (see :meth:`HnswIndex._search_one_raw`).  Returned distances are
therefore always exact; only the *traversal order* is approximate, and
the recall tests pin it against :class:`~repro.ann.bruteforce.BruteForceIndex`.
"""

from __future__ import annotations

import functools
import heapq
import math
from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import IndexError_

__all__ = ["HnswIndex"]

#: First allocation; capacity doubles whenever the table fills.
_INITIAL_CAPACITY = 64

#: Largest capacity at which an index keeps its stored-pair distance table,
#: a ``(capacity, capacity)`` float64 array: 32 MiB at 2048 rows, so the
#: paper-scale 1,600-row dedup keeps it.  Reserving past it drops the table
#: for good (see :meth:`HnswIndex._reserve`).
_PAIR_LIMIT = 2048

#: Candidate sets of at most this many ids prune from one gather of their
#: pairwise sub-table, one bitmask word per candidate
#: (see :meth:`HnswIndex._select_neighbors`).
_MASK_WIDTH = 64
_BITS = np.left_shift(np.uint64(1), np.arange(_MASK_WIDTH, dtype=np.uint64))


def _require_finite(values: np.ndarray, what: str) -> None:
    """Reject NaN/inf input once per call: one would poison every distance."""
    if not np.isfinite(values).all():
        raise IndexError_(f"{what} must be finite")


class HnswIndex:
    """HNSW approximate nearest-neighbour index.

    Parameters
    ----------
    dim:
        Vector dimensionality.
    m:
        Target out-degree on layers > 0 (layer 0 allows ``2 * m``).
    ef_construction:
        Candidate-list width during insertion.
    ef_search:
        Default candidate-list width during queries (>= k is enforced).
    metric:
        ``"cosine"`` (distance = 1 - cosine similarity) or ``"l2"``
        (squared Euclidean).
    seed:
        Seed for the level-assignment RNG; fixes the graph shape.
    quantization:
        ``"none"`` (default) or ``"int8"``.  With ``"int8"``, beam
        traversal measures distances on scalar-quantised codes (one int8
        row + one scale per vector) and the final candidate set is
        re-ranked exactly before the top-k cut.
    """

    def __init__(
        self,
        dim: int,
        m: int = 16,
        ef_construction: int = 200,
        ef_search: int = 50,
        metric: str = "cosine",
        seed: int = 0,
        quantization: str = "none",
    ):
        if dim <= 0:
            raise IndexError_(f"dim must be positive, got {dim}")
        if m < 2:
            raise IndexError_(f"m must be >= 2, got {m}")
        if ef_construction < 1 or ef_search < 1:
            raise IndexError_("ef parameters must be >= 1")
        if metric not in ("cosine", "l2"):
            raise IndexError_(f"unknown metric {metric!r}")
        if quantization not in ("none", "int8"):
            raise IndexError_(f"unknown quantization {quantization!r}")
        self.dim = dim
        self.m = m
        self.m0 = 2 * m
        self.ef_construction = ef_construction
        self.ef_search = ef_search
        self.metric = metric
        self.quantization = quantization
        self._quantized = quantization == "int8"
        self._level_mult = 1.0 / math.log(m)
        self._rng = np.random.default_rng(seed)
        self._vectors = np.zeros((0, dim), dtype=np.float64)
        self._norms = np.zeros(0, dtype=np.float64)
        # int8 scalar quantisation: codes[i] * scales[i] ~= vectors[i].
        self._codes = np.zeros((0, dim), dtype=np.int8)
        self._code_scales = np.zeros(0, dtype=np.float64)
        self._count = 0
        self._keys: list[int] = []
        self._key_arr = np.zeros(0, dtype=np.int64)  # same keys, array view
        # _neighbors[node_id][layer] -> list of node ids
        self._neighbors: list[list[list[int]]] = []
        self._entry: int | None = None  # node id of the entry point
        self._keys_seen: set[int] = set()
        self._min_norm = math.inf  # smallest stored norm, for the fast path
        # Stored-pair distances: _pairs[i, j] == dist(row i, row j) for
        # i, j < count, filled by add; None once capacity passed _PAIR_LIMIT.
        self._pairs: np.ndarray | None = np.zeros((0, 0), dtype=np.float64)

    # ------------------------------------------------------------------ #
    # basic plumbing
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._count

    @property
    def vectors(self) -> np.ndarray:
        """Read-only view of the stored vectors, insertion order."""
        view = self._vectors[: self._count]
        view.flags.writeable = False
        return view

    def _reserve(self, n: int) -> None:
        """Grow the vector table geometrically to hold ``n`` rows.

        The pair table grows with it while the new capacity is at most
        ``_PAIR_LIMIT``; past that it is dropped, and every stored-row
        distance goes back to :meth:`_distances_to`.
        """
        capacity = self._vectors.shape[0]
        if n <= capacity:
            return
        new_capacity = max(capacity, _INITIAL_CAPACITY)
        while new_capacity < n:
            new_capacity *= 2
        vectors = np.zeros((new_capacity, self.dim), dtype=np.float64)
        vectors[: self._count] = self._vectors[: self._count]
        norms = np.zeros(new_capacity, dtype=np.float64)
        norms[: self._count] = self._norms[: self._count]
        self._vectors = vectors
        self._norms = norms
        keys = np.zeros(new_capacity, dtype=np.int64)
        keys[: self._count] = self._key_arr[: self._count]
        self._key_arr = keys
        if self._quantized:
            codes = np.zeros((new_capacity, self.dim), dtype=np.int8)
            codes[: self._count] = self._codes[: self._count]
            scales = np.zeros(new_capacity, dtype=np.float64)
            scales[: self._count] = self._code_scales[: self._count]
            self._codes = codes
            self._code_scales = scales
        if self._pairs is not None:
            if new_capacity <= _PAIR_LIMIT:
                pairs = np.zeros((new_capacity, new_capacity), dtype=np.float64)
                pairs[: self._count, : self._count] = self._pairs[
                    : self._count, : self._count
                ]
                self._pairs = pairs
            else:
                self._pairs = None

    def _distances_to(
        self, query: np.ndarray, ids: Sequence[int] | slice, qnorm: float
    ) -> np.ndarray:
        """Distances from ``query`` to the stored vectors ``ids``.

        One gather plus one row-wise reduction per call: ``np.vecdot`` for
        cosine, a squared-difference ``einsum`` for l2.  A ``slice`` of ids
        reads those stored rows in place instead of gathering a copy (the
        exact scan passes all of them).  Each value is a function of its
        pair alone.  ``dist(a, b)`` has the same bits whichever row is the
        query, whatever other ids share the gather, in whatever order, and
        whether the rows are gathered or read in place.
        :meth:`_select_neighbors` relies on that symmetry, and every
        scalar, batched, scan and beam path agrees bit for bit because of
        it.  A BLAS matrix-vector product has neither property: it blocks
        rows, so a pair's last ulp moves with the gather's shape.

        ``query`` must be C-contiguous: ``vecdot`` rounds a strided
        operand differently.  Stored rows are contiguous, and every public
        entry point copies a strided query once before it gets here.
        """
        idx = ids if isinstance(ids, slice) else np.asarray(ids, dtype=np.intp)
        sub = self._vectors[idx]
        if self.metric == "l2":
            diff = sub - query
            return np.einsum("ij,ij->i", diff, diff)
        dots = np.vecdot(sub, query)
        denom = self._norms[idx] * qnorm
        if self._min_norm * qnorm >= 1e-12:
            # Every stored norm is >= _min_norm, so no denom can be
            # degenerate; skip the elementwise check (same result).
            return 1.0 - dots / denom
        near_zero = denom < 1e-12
        if near_zero.any():
            return np.where(near_zero, 1.0, 1.0 - dots / np.where(near_zero, 1.0, denom))
        return 1.0 - dots / denom

    def _query_norm(self, query: np.ndarray) -> float:
        return float(np.linalg.norm(query)) if self.metric == "cosine" else 0.0

    @staticmethod
    def _quantize(vec: np.ndarray) -> tuple[np.ndarray, float]:
        """Scalar-quantise one vector: ``codes * scale ~= vec`` (codes in ±127).

        A zero row, or one whose peak is so small (below about 6e-322) that
        ``peak / 127`` underflows to 0, takes scale 1.0 and codes to zeros.
        A subnormal scale can round below ``peak / 127``, so the quotient is
        clipped to ±127 before the int8 cast, which would wrap it.
        """
        peak = float(np.max(np.abs(vec))) if vec.size else 0.0
        scale = peak / 127.0
        if scale <= 0.0:
            scale = 1.0
        return np.clip(np.rint(vec / scale), -127.0, 127.0).astype(np.int8), scale

    def _qdistances_to(
        self, qcodes: np.ndarray, qscale: float, qnorm: float, qsq: float, ids
    ) -> np.ndarray:
        """Approximate distances on the int8 codes (traversal only).

        ``qcodes`` is the query's code row pre-cast to float64 so each call
        is one int8 gather, one cast, one GEMV.  Cosine uses the *true*
        cached norms in the denominator; l2 expands ``|a-q|^2`` around the
        quantised dot product with the true squared norms.
        """
        idx = np.asarray(ids, dtype=np.intp)
        dots = (self._codes[idx].astype(np.float64) @ qcodes) * (
            self._code_scales[idx] * qscale
        )
        if self.metric == "l2":
            return self._norms[idx] ** 2 + qsq - 2.0 * dots
        denom = self._norms[idx] * qnorm
        if self._min_norm * qnorm >= 1e-12:
            return 1.0 - dots / denom
        near_zero = denom < 1e-12
        return np.where(near_zero, 1.0, 1.0 - dots / np.where(near_zero, 1.0, denom))

    def _stored_distances(self, node: int, ids) -> np.ndarray:
        """Exact distances from stored row ``node`` to stored rows ``ids``:
        a gather from the pair table while the index keeps one, otherwise
        one :meth:`_distances_to` call.  The bits are the same either way:
        the table holds that kernel's own values, and each one depends on
        its pair alone."""
        if self._pairs is not None:
            return self._pairs[node, ids]
        return self._distances_to(self._vectors[node], ids, self._norms[node])

    def _reads_row(self, node: int | None) -> bool:
        """Whether a float traversal from stored row ``node`` reads its
        distances from one Python row of the pair table."""
        return node is not None and self._pairs is not None and not self._quantized

    def _query_kernel(self, query: np.ndarray, qnorm: float, node: int | None = None):
        """Traversal kernel bound to one query: ``kernel(ids)`` yields the
        distances to ``ids``, in order, as Python floats.

        When :meth:`_reads_row` holds, the kernel maps ids through row
        ``node`` of the pair table, taken once per query as a Python list,
        so a visited node costs a list read and no numpy call.  Otherwise
        float mode binds :meth:`_distances_to` and int8 mode quantises the
        query once and binds the code kernel, one numpy call per batch of
        ids.  Every traversal routine (greedy descent, the beam) goes
        through the kernel, so the modes share identical control flow.
        """
        if self._reads_row(node):
            row = self._pairs[node, : self._count].tolist()
            return functools.partial(map, row.__getitem__)
        if not self._quantized:
            return lambda ids: self._distances_to(query, ids, qnorm).tolist()
        codes, qscale = self._quantize(query)
        qcodes = codes.astype(np.float64)
        qsq = float(query @ query) if self.metric == "l2" else 0.0
        return lambda ids: self._qdistances_to(qcodes, qscale, qnorm, qsq, ids).tolist()

    def _draw_level(self) -> int:
        u = float(self._rng.random())
        u = max(u, 1e-12)
        return int(-math.log(u) * self._level_mult)

    # ------------------------------------------------------------------ #
    # core graph routines
    # ------------------------------------------------------------------ #

    def _greedy_descend(
        self, kernel, curr: int, d_curr: float, layer: int
    ) -> tuple[int, float]:
        """Move to the closest neighbour until no neighbour improves.

        Of equally close neighbours the first in the list wins, the one
        ``argmin`` would pick.
        """
        neighbors = self._neighbors
        while True:
            nbrs = neighbors[curr][layer]
            if not nbrs:
                return curr, d_curr
            best = curr
            for d, nb in zip(kernel(nbrs), nbrs):
                if d < d_curr:
                    best, d_curr = nb, d
            if best == curr:
                return curr, d_curr
            curr = best

    def _search_layer(
        self, kernel, entry_ids: list[int], ef: int, layer: int
    ) -> list[tuple[float, int]]:
        """Beam search on one layer; returns (distance, node_id), unsorted.

        The only beam: construction runs it on every layer, and every
        search (:meth:`_search_one_raw`) on layer 0.  A candidate is
        popped nearest first; its unvisited neighbours, in adjacency-list
        order, go through the kernel in one call, and each enters the
        beam if the beam is not full or it beats the farthest kept.
        """
        visited = set(entry_ids)
        # candidates: min-heap by distance; results: max-heap via negation
        candidates: list[tuple[float, int]] = []
        results: list[tuple[float, int]] = []
        push, pop = heapq.heappush, heapq.heappop
        for d, nid in zip(kernel(entry_ids), entry_ids):
            push(candidates, (d, nid))
            push(results, (-d, nid))
        neighbors = self._neighbors
        while candidates:
            d_cand, nid = pop(candidates)
            if d_cand > -results[0][0] and len(results) >= ef:
                break
            fresh = [nb for nb in neighbors[nid][layer] if nb not in visited]
            if not fresh:
                continue
            visited.update(fresh)
            for d, nb in zip(kernel(fresh), fresh):
                if len(results) < ef or d < -results[0][0]:
                    push(candidates, (d, nb))
                    push(results, (-d, nb))
                    if len(results) > ef:
                        pop(results)
        return [(-nd, nid) for nd, nid in results]

    def _select_neighbors(
        self, candidates: list[tuple[float, int]], m: int
    ) -> list[int]:
        """Diversity heuristic (Malkov & Yashunin, Alg. 4).

        Walks ``(distance, node_id)`` candidates nearest-first and keeps
        one only if it is closer to the query than to every neighbour
        already kept; if fewer than ``m`` survive, the nearest rejected
        candidates backfill the list.

        No distance is measured per examined candidate.  With the pair
        table and at most ``_MASK_WIDTH`` candidates (every ``_link``
        overflow), one gather of the candidates' pairwise sub-table gives
        each candidate ``c`` a bitmask of the candidates ``s`` with
        ``dist(s, c) < d(c)``, and the walk rejects ``c`` iff its mask
        meets the kept set.  Otherwise the kernel computes one distance
        row per *kept* neighbour: keeping ``s`` measures ``dist(s, c)`` for
        every later candidate ``c`` still in play, in one call, and drops
        each ``c`` with ``dist(s, c) < d(c)``.  Both are the per-candidate
        test, because the kernel is symmetric and independent of the
        gather (see :meth:`_distances_to`).
        """
        ordered = sorted(candidates)
        n = len(ordered)
        ids = [nid for _, nid in ordered]
        idx = np.array(ids, dtype=np.intp)
        dists = np.array([d for d, _ in ordered], dtype=np.float64)
        kept: list[int] = []  # positions in ``ordered``
        if self._pairs is not None and n <= _MASK_WIDTH:
            closer = self._pairs[idx[:, None], idx] < dists
            kept_bits = 0
            for c, beaten_by in enumerate(_BITS[:n].dot(closer).tolist()):
                if not beaten_by & kept_bits:
                    kept.append(c)
                    if len(kept) == m:
                        break
                    kept_bits |= 1 << c
        else:
            alive = np.arange(n)  # positions not yet kept or rejected
            while alive.size and len(kept) < m:
                head, rest = int(alive[0]), alive[1:]
                kept.append(head)
                if rest.size and len(kept) < m:
                    row = self._stored_distances(idx[head], idx[rest])
                    rest = rest[~(row < dists[rest])]
                alive = rest
        if len(kept) < m:  # backfill with the nearest rejected candidates
            taken = set(kept)
            kept += [i for i in range(n) if i not in taken][: m - len(kept)]
        return [ids[i] for i in kept]

    def _link(self, source: int, target: int, layer: int, cap: int) -> None:
        """Add a directed edge, shrinking with the heuristic if over capacity."""
        nbrs = self._neighbors[source][layer]
        if target == source or target in nbrs:
            return
        nbrs.append(target)
        if len(nbrs) > cap:
            dists = self._stored_distances(source, nbrs)
            cands = list(zip(dists.tolist(), nbrs))
            self._neighbors[source][layer] = self._select_neighbors(cands, cap)

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def add(self, vector: np.ndarray, key: int) -> None:
        """Insert a finite vector under an application-level integer key."""
        vec = np.asarray(vector, dtype=np.float64).reshape(-1)
        if vec.shape[0] != self.dim:
            raise IndexError_(f"expected dim {self.dim}, got {vec.shape[0]}")
        _require_finite(vec, "vector")
        key = int(key)
        if key in self._keys_seen:
            raise IndexError_(f"duplicate key {key}")
        self._insert(vec, key)

    def _insert(self, vec: np.ndarray, key: int) -> None:
        """Store and link one validated row.

        While the index keeps its pair table, one kernel call over rows
        ``0..i`` fills row and column ``i`` (self-distance included), and
        every later distance whose query is a stored row reads the table:
        the new row's greedy descent and construction beams read it as one
        Python list.
        """
        self._keys_seen.add(key)
        level = self._draw_level()
        node_id = self._count
        self._reserve(node_id + 1)
        self._vectors[node_id] = vec
        self._norms[node_id] = float(np.linalg.norm(self._vectors[node_id]))
        self._min_norm = min(self._min_norm, float(self._norms[node_id]))
        if self._quantized:
            codes, scale = self._quantize(vec)
            self._codes[node_id] = codes
            self._code_scales[node_id] = scale
        self._count += 1
        self._keys.append(key)
        self._key_arr[node_id] = key
        self._neighbors.append([[] for _ in range(level + 1)])
        stored = self._vectors[node_id]
        qnorm = self._norms[node_id] if self.metric == "cosine" else 0.0
        if self._pairs is not None:
            row = self._distances_to(stored, slice(0, node_id + 1), qnorm)
            self._pairs[node_id, : node_id + 1] = row
            self._pairs[: node_id + 1, node_id] = row

        if self._entry is None:
            self._entry = node_id
            return

        entry = self._entry
        top = len(self._neighbors[entry]) - 1
        kernel = self._query_kernel(stored, qnorm, node_id)

        # 1. greedy descent through layers above the new node's level
        curr = entry
        (d_curr,) = kernel([curr])
        for layer in range(top, level, -1):
            curr, d_curr = self._greedy_descend(kernel, curr, d_curr, layer)

        # 2. insert on each layer from min(level, top) down to 0
        entries = [curr]
        for layer in range(min(level, top), -1, -1):
            found = self._search_layer(kernel, entries, self.ef_construction, layer)
            cap = self.m0 if layer == 0 else self.m
            neighbors = self._select_neighbors(found, self.m)
            self._neighbors[node_id][layer] = list(neighbors)
            for nb in neighbors:
                self._link(nb, node_id, layer, cap)
            entries = [nid for _, nid in sorted(found)[: self.ef_construction]]

        if level > top:
            self._entry = node_id

    def add_batch(
        self, vectors: np.ndarray, keys: Iterable[int] | None = None
    ) -> None:
        """Insert many vectors at once (keys default to ``0..n-1``).

        Validates shapes, finiteness *and keys* once, up front, before any
        insertion — a rejected batch leaves the index untouched instead of
        stranding a prefix of it inserted.  Insertion order (and therefore
        the graph) is identical to calling :meth:`add` per row.
        """
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
        batch_seen: set[int] = set()
        for key in key_list:
            if key in self._keys_seen or key in batch_seen:
                raise IndexError_(f"duplicate key {key}")
            batch_seen.add(key)
        self._reserve(self._count + matrix.shape[0])
        for row, key in zip(matrix, key_list):
            self._insert(row, key)

    def _search_one_raw(
        self,
        query: np.ndarray,
        qnorm: float,
        k: int,
        ef: int | None,
        node: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Array-native search core: ``(node_ids, distances)``, nearest first.

        Shared by every public path (scalar, batched, tuple, array), which
        is what keeps them bit-identical.  Ties on distance break by node
        id, i.e. insertion order.  In int8 mode the beam runs on the code
        kernel and the surviving candidate set is re-ranked here with the
        exact float kernel before the top-k cut, so returned distances are
        always exact.  ``node`` names the stored row that ``query`` is, if
        any, so its exact distances come from the pair table, and a float
        traversal from it reads one Python row (:meth:`_query_kernel`).
        Greedy descent crosses the upper layers and :meth:`_search_layer`
        runs layer 0.
        """
        assert self._entry is not None
        width = max(ef if ef is not None else self.ef_search, k)
        kernel = self._query_kernel(query, qnorm, node)
        curr = self._entry
        top = len(self._neighbors[curr]) - 1
        if top > 0:
            (d_curr,) = kernel([curr])
            for layer in range(top, 0, -1):
                curr, d_curr = self._greedy_descend(kernel, curr, d_curr, layer)
        found = self._search_layer(kernel, [curr], width, 0)
        ids = np.fromiter((nid for _, nid in found), dtype=np.intp, count=len(found))
        if self._quantized:
            dists = (
                self._distances_to(query, ids, qnorm)
                if node is None
                else self._stored_distances(node, ids)
            )
        else:
            dists = np.fromiter(
                (d for d, _ in found), dtype=np.float64, count=len(found)
            )
        order = np.lexsort((ids, dists))[:k]
        return ids[order], dists[order]

    def _scan_raw(
        self, query: np.ndarray, qnorm: float, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact top-k by full scan: ``(node_ids, distances)``, nearest first.

        Same result contract as :meth:`_search_one_raw` (ties break by node
        id) but exhaustive, always on the exact float kernel, and without
        touching the graph.  The kernel reads the stored rows in place.  A
        partition finds the k-th smallest distance, and one stable sort of
        the rows at or below it, taken in id order, ranks them: that is the
        ``(distance, id)`` order's first k without sorting the whole shard.
        The sharded layer uses this for shards small enough that one
        vectorised scan beats a beam traversal.
        """
        n = self._count
        if n == 0:
            empty = np.zeros(0, dtype=np.intp)
            return empty, np.zeros(0, dtype=np.float64)
        dists = self._distances_to(query, slice(0, n), qnorm)
        kth = min(k, n) - 1
        # ``not >`` rather than ``<=`` keeps every row when the k-th is NaN.
        ids = np.flatnonzero(~(dists > np.partition(dists, kth)[kth]))
        ids = ids[np.argsort(dists[ids], kind="stable")[:k]]
        return ids, dists[ids]

    def _search_one(
        self,
        query: np.ndarray,
        qnorm: float,
        k: int,
        ef: int | None,
        node: int | None = None,
    ) -> list[tuple[int, float]]:
        """Tuple view over :meth:`_search_one_raw`."""
        ids, dists = self._search_one_raw(query, qnorm, k, ef, node)
        return list(zip(self._key_arr[ids].tolist(), dists.tolist()))

    def search(
        self, query: np.ndarray, k: int, ef: int | None = None
    ) -> list[tuple[int, float]]:
        """Return up to ``k`` ``(key, distance)`` pairs, nearest first."""
        if k < 1:
            raise IndexError_(f"k must be >= 1, got {k}")
        query = np.ascontiguousarray(query, dtype=np.float64).reshape(-1)
        if query.shape[0] != self.dim:
            raise IndexError_(f"expected dim {self.dim}, got {query.shape[0]}")
        _require_finite(query, "query")
        if self._entry is None:
            return []
        return self._search_one(query, self._query_norm(query), k, ef)

    def search_batch(
        self, queries: np.ndarray, k: int, ef: int | None = None
    ) -> list[list[tuple[int, float]]]:
        """k-NN lists for a ``(n, dim)`` query matrix, one per row.

        Bit-identical to ``[self.search(q, k, ef) for q in queries]`` —
        every row runs through the same vectorized kernel — while
        validating and converting the whole batch once.  An empty batch
        returns an empty list.
        """
        if k < 1:
            raise IndexError_(f"k must be >= 1, got {k}")
        matrix = np.ascontiguousarray(queries, dtype=np.float64)
        if matrix.size == 0 and matrix.ndim <= 2:
            return []
        matrix = np.atleast_2d(matrix)
        if matrix.ndim != 2:
            raise IndexError_(f"queries must be 2-D, got shape {matrix.shape}")
        if matrix.shape[1] != self.dim:
            raise IndexError_(f"expected dim {self.dim}, got {matrix.shape[1]}")
        _require_finite(matrix, "queries")
        if self._entry is None:
            return [[] for _ in range(matrix.shape[0])]
        return [
            self._search_one(row, self._query_norm(row), k, ef) for row in matrix
        ]

    def search_batch_arrays(
        self, queries: np.ndarray, k: int, ef: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Array-native batch search: ``(keys, dists)`` of shape ``(n, k)``.

        Row ``i`` holds the same hits, in the same order, as
        ``search_batch(queries, k, ef)[i]``; when fewer than ``k`` elements
        exist the row tail is padded with key ``-1`` and distance ``+inf``
        (a pad entry always has both).  No Python tuples are materialised,
        which is what the sharded hot loop rides.
        """
        if k < 1:
            raise IndexError_(f"k must be >= 1, got {k}")
        matrix = np.ascontiguousarray(queries, dtype=np.float64)
        if matrix.size == 0 and matrix.ndim <= 2:
            return (
                np.full((0, k), -1, dtype=np.int64),
                np.full((0, k), np.inf, dtype=np.float64),
            )
        matrix = np.atleast_2d(matrix)
        if matrix.ndim != 2:
            raise IndexError_(f"queries must be 2-D, got shape {matrix.shape}")
        if matrix.shape[1] != self.dim:
            raise IndexError_(f"expected dim {self.dim}, got {matrix.shape[1]}")
        _require_finite(matrix, "queries")
        n_queries = matrix.shape[0]
        keys = np.full((n_queries, k), -1, dtype=np.int64)
        dists = np.full((n_queries, k), np.inf, dtype=np.float64)
        if self._entry is None:
            return keys, dists
        for i, row in enumerate(matrix):
            ids, row_dists = self._search_one_raw(row, self._query_norm(row), k, ef)
            keys[i, : ids.shape[0]] = self._key_arr[ids]
            dists[i, : row_dists.shape[0]] = row_dists
        return keys, dists

    def knn_graph(self, k: int, ef: int | None = None) -> dict[int, list[tuple[int, float]]]:
        """k-NN lists for every indexed element (self-match excluded).

        Queries the stored rows directly (no copies, cached norms), so
        while the index keeps its pair table each float query takes its
        distances as one Python row of it and makes no numpy call per
        visited node.
        """
        if k < 1:
            raise IndexError_(f"k must be >= 1, got {k}")
        out: dict[int, list[tuple[int, float]]] = {}
        for nid in range(self._count):
            query = self._vectors[nid]
            qnorm = self._norms[nid] if self.metric == "cosine" else 0.0
            hits = self._search_one(query, qnorm, k + 1, ef, nid)
            key = self._keys[nid]
            out[key] = [(other, d) for other, d in hits if other != key][:k]
        return out
