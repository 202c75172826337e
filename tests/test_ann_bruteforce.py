"""Tests for the exact brute-force index."""

import numpy as np
import pytest

from repro.ann.bruteforce import BruteForceIndex
from repro.errors import IndexError_


class TestBruteForce:
    def test_empty(self):
        assert BruteForceIndex(dim=3).search(np.zeros(3), 5) == []

    def test_nearest_first(self):
        index = BruteForceIndex(dim=2, metric="l2")
        index.add(np.array([0.0, 0.0]), key=0)
        index.add(np.array([1.0, 1.0]), key=1)
        hits = index.search(np.array([0.1, 0.1]), 2)
        assert [k for k, _ in hits] == [0, 1]

    def test_l2_distance_value(self):
        index = BruteForceIndex(dim=2, metric="l2")
        index.add(np.array([3.0, 4.0]), key=0)
        _, dist = index.search(np.zeros(2), 1)[0]
        assert dist == pytest.approx(25.0)

    def test_cosine_distance_value(self):
        index = BruteForceIndex(dim=2, metric="cosine")
        index.add(np.array([0.0, 1.0]), key=0)
        _, dist = index.search(np.array([1.0, 0.0]), 1)[0]
        assert dist == pytest.approx(1.0)

    def test_invalid_metric(self):
        with pytest.raises(IndexError_):
            BruteForceIndex(dim=2, metric="manhattan")

    def test_invalid_dim(self):
        with pytest.raises(IndexError_):
            BruteForceIndex(dim=-1)

    def test_dim_mismatch(self):
        index = BruteForceIndex(dim=2)
        with pytest.raises(IndexError_):
            index.add(np.zeros(3), key=0)
        index.add(np.zeros(2), key=0)
        with pytest.raises(IndexError_):
            index.search(np.zeros(3), 1)

    def test_len(self):
        index = BruteForceIndex(dim=2)
        index.add(np.zeros(2), key=0)
        assert len(index) == 1

    def test_stable_ordering_for_ties(self):
        index = BruteForceIndex(dim=2, metric="l2")
        index.add(np.array([1.0, 0.0]), key=5)
        index.add(np.array([1.0, 0.0]), key=9)
        hits = index.search(np.array([1.0, 0.0]), 2)
        assert [k for k, _ in hits] == [5, 9]


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestNonFiniteInput:
    """NaN or inf would poison every distance the oracle reports, so each
    entry point rejects it once per call, before any state changes."""

    @staticmethod
    def _index() -> BruteForceIndex:
        index = BruteForceIndex(dim=3)
        index.add(np.array([1.0, 0.0, 0.0]), key=0)
        return index

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_add_rejects(self, bad):
        index = self._index()
        with pytest.raises(IndexError_, match="vector must be finite"):
            index.add(np.array([bad, 0.0, 1.0]), key=1)
        assert len(index) == 1
        assert index.search(np.array([1.0, 0.0, 0.0]), 2) == [(0, 0.0)]

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_add_batch_rejects_before_storing_any_row(self, bad):
        index = self._index()
        rows = np.array([[0.0, 1.0, 0.0], [bad, 0.0, 1.0]])
        with pytest.raises(IndexError_, match="vectors must be finite"):
            index.add_batch(rows, keys=[1, 2])
        assert len(index) == 1

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("empty", [False, True])
    def test_search_rejects(self, bad, empty):
        index = BruteForceIndex(dim=3) if empty else self._index()
        with pytest.raises(IndexError_, match="query must be finite"):
            index.search(np.array([1.0, bad, 0.0]), 1)

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("empty", [False, True])
    def test_search_batch_rejects(self, bad, empty):
        index = BruteForceIndex(dim=3) if empty else self._index()
        queries = np.array([[1.0, 0.0, 0.0], [0.0, bad, 0.0]])
        with pytest.raises(IndexError_, match="queries must be finite"):
            index.search_batch(queries, 1)

    def test_batch_search_still_matches_scalar_loop(self):
        index = self._index()
        index.add(np.array([0.0, 1.0, 0.0]), key=1)
        queries = np.array([[1.0, 0.1, 0.0], [0.0, 1.0, 0.2]])
        assert index.search_batch(queries, 2) == [index.search(q, 2) for q in queries]
        assert BruteForceIndex(dim=3).search_batch(queries, 2) == [[], []]
