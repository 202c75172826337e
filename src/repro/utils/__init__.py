"""Shared utilities: deterministic RNG, text processing, IO, statistics."""

from repro.utils.rng import RngFactory, derive_rng, stable_hash
from repro.utils.unionfind import UnionFind

__all__ = [
    "RngFactory",
    "derive_rng",
    "stable_hash",
    "UnionFind",
]
