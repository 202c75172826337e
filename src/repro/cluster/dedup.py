"""Near-duplicate grouping via HNSW neighbour graphs (paper §3.1, step 1).

The paper embeds prompts, clusters them with HNSW, and keeps a small number
of representatives per cluster.  Here: build an HNSW index over the
embeddings, take each element's k nearest neighbours, union every pair whose
cosine similarity is at or above a threshold, and keep up to
``keep_per_group`` representatives (lowest original index first, so results
are stable).  The shard count picks the index: one shard is the monolithic
:class:`~repro.ann.hnsw.HnswIndex`, more is a
:class:`~repro.ann.sharded.ShardedHnswIndex`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ann.hnsw import HnswIndex
from repro.ann.sharded import ShardedHnswIndex
from repro.utils.unionfind import UnionFind

__all__ = ["DedupResult", "deduplicate"]

#: Smallest distance cut.  A row and an exact or positive-scaled copy of it
#: land a few ulps off cosine distance 0 (up to 4.4e-16 on Gaussian rows of
#: 4 to 1024 dims), because the dot product and both norms round
#: separately, so ``threshold=1.0`` ("exact duplicates only") needs a cut
#: above 0.  The rounding grows at worst like ``2 * dim * eps``, about 9e-13
#: at 4096 dims; only thresholds within 1e-12 of 1 reach this floor.
_COPY_DISTANCE_TOL = 1e-12


@dataclass(frozen=True)
class DedupResult:
    """Outcome of a deduplication pass.

    Attributes
    ----------
    kept:
        Indices of retained elements, in ascending original order.
    groups:
        Each duplicate group as a sorted list of original indices
        (singletons included).
    representative_of:
        Maps every original index to its group's representative (the group
        member with the lowest original index).
    """

    kept: list[int]
    groups: list[list[int]] = field(repr=False)
    representative_of: dict[int, int] = field(repr=False)

    @property
    def n_duplicates_removed(self) -> int:
        return len(self.representative_of) - len(self.kept)


def _knn_graph_sharded(
    matrix: np.ndarray,
    k_neighbors: int,
    ef_search: int,
    seed: int,
    n_shards: int,
) -> dict[int, list[tuple[int, float]]]:
    """k-NN lists over a :class:`ShardedHnswIndex` (self-match excluded).

    Each element queries the whole sharded index for ``k + 1`` neighbours
    (one batched fan-out per shard), then drops its self-hit — the same
    contract :meth:`HnswIndex.knn_graph` provides, so with ``n_shards=1``
    and an equal seed the graph is bit-identical to the monolithic one.
    """
    index = ShardedHnswIndex(
        dim=matrix.shape[1], n_shards=n_shards, ef_search=ef_search, seed=seed
    )
    index.add_batch(matrix)
    keys, dists = index.search_batch_arrays(matrix, k_neighbors + 1, ef=ef_search)
    graph: dict[int, list[tuple[int, float]]] = {}
    for i in range(matrix.shape[0]):
        row_keys, row_dists = keys[i], dists[i]
        valid = ~((row_keys == -1) & np.isinf(row_dists))
        graph[i] = [
            (other, dist)
            for other, dist in zip(row_keys[valid].tolist(), row_dists[valid].tolist())
            if other != i
        ][:k_neighbors]
    return graph


def deduplicate(
    embeddings: np.ndarray,
    threshold: float = 0.9,
    k_neighbors: int = 8,
    keep_per_group: int = 1,
    ef_search: int = 64,
    seed: int = 0,
    n_shards: int = 1,
) -> DedupResult:
    """Group near-duplicate embeddings and pick representatives.

    Parameters
    ----------
    embeddings:
        ``(n, dim)`` matrix of (ideally L2-normalised) vectors.
    threshold:
        Cosine similarity at or above which two elements count as
        duplicates.  ``1.0`` groups exact and positive-scaled copies only.
    k_neighbors:
        Neighbours examined per element when proposing duplicate pairs.
    keep_per_group:
        Representatives retained per duplicate group (paper keeps "a small
        amount of data" per cluster).
    n_shards:
        ``1`` builds the monolithic :class:`~repro.ann.hnsw.HnswIndex`;
        more builds a :class:`~repro.ann.sharded.ShardedHnswIndex` with
        that many shards.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    if k_neighbors < 1:
        raise ValueError(f"k_neighbors must be >= 1, got {k_neighbors}")
    if keep_per_group < 1:
        raise ValueError(f"keep_per_group must be >= 1, got {keep_per_group}")
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    matrix = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    n = matrix.shape[0]
    if n == 0:
        return DedupResult(kept=[], groups=[], representative_of={})

    if n_shards > 1:
        graph = _knn_graph_sharded(matrix, k_neighbors, ef_search, seed, n_shards)
    else:
        index = HnswIndex(dim=matrix.shape[1], ef_search=ef_search, seed=seed)
        index.add_batch(matrix, range(n))
        graph = index.knn_graph(k_neighbors, ef=ef_search)

    uf = UnionFind(n)
    max_distance = max(1.0 - threshold, _COPY_DISTANCE_TOL)  # cosine distance
    for key, hits in graph.items():
        for other, dist in hits:
            if dist <= max_distance:
                uf.union(key, other)

    groups = sorted(uf.groups().values(), key=lambda g: g[0])
    kept: list[int] = []
    representative_of: dict[int, int] = {}
    for group in groups:
        group.sort()
        kept.extend(group[:keep_per_group])
        for member in group:
            representative_of[member] = group[0]
    kept.sort()
    return DedupResult(kept=kept, groups=groups, representative_of=representative_of)
