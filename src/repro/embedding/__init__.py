"""Deterministic text embeddings (SimCSE/bge stand-in, paper §3.1)."""

from repro.embedding.model import EmbeddingModel

__all__ = ["EmbeddingModel"]
