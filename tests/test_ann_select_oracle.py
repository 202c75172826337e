"""The per-candidate neighbour heuristic, kept here as the reference.

:meth:`HnswIndex._select_neighbors` computes one distance row per *kept*
neighbour.  The loop below is the textbook form it replaced: one kernel
call per *examined* candidate, against every neighbour kept so far.  The
two agree decision for decision only because the distance kernel is
symmetric and independent of the gather (``tests/test_properties.py``
pins that), so these tests compare them on selections and on whole
graphs, over data full of exact copies, scaled copies and zero rows —
the inputs whose last-ulp distances a non-symmetric kernel would flip.
"""

import numpy as np
import pytest

from unittest import mock

from repro.ann import hnsw
from repro.ann.hnsw import HnswIndex
from repro.embedding.model import EmbeddingModel
from repro.world.prompts import CorpusConfig, PromptFactory


def reference_select_neighbors(index, candidates, m):
    """Per-candidate diversity heuristic: keep a candidate only if it is
    closer to the query than to every already-selected neighbour."""
    selected: list[tuple[float, int]] = []
    selected_ids: list[int] = []
    for d, nid in sorted(candidates):
        if len(selected) >= m:
            break
        if selected_ids:
            to_selected = index._distances_to(
                index._vectors[nid], selected_ids, index._norms[nid]
            )
            if bool((to_selected < d).any()):
                continue
        selected.append((d, nid))
        selected_ids.append(nid)
    if len(selected) < m:  # backfill with nearest remaining candidates
        chosen = set(selected_ids)
        for d, nid in sorted(candidates):
            if len(selected) >= m:
                break
            if nid not in chosen:
                selected.append((d, nid))
                chosen.add(nid)
    return [nid for _, nid in selected]


class PerCandidateHnsw(HnswIndex):
    """An ``HnswIndex`` that prunes with the reference heuristic."""

    def _select_neighbors(self, candidates, m):
        return reference_select_neighbors(self, candidates, m)


SETTINGS = [
    ("cosine", "none"),
    ("cosine", "int8"),
    ("l2", "none"),
    ("l2", "int8"),
]


def _copies_and_zeros(seed=0, n_base=120, dim=16):
    """Gaussian rows plus exact copies, positive-scaled copies and zero rows."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(n_base, dim))
    exact = base[rng.integers(0, n_base, size=n_base // 2)]
    scaled = base[rng.integers(0, n_base, size=n_base // 4)] * rng.uniform(
        0.1, 10.0, size=(n_base // 4, 1)
    )
    zeros = np.zeros((6, dim))
    rows = np.concatenate([base, exact, scaled, zeros])
    return rows[rng.permutation(rows.shape[0])]


@pytest.fixture(scope="module")
def curate_corpus():
    """The curate workload's shape: 250 generated prompts, embedded."""
    corpus = PromptFactory(rng=np.random.default_rng(0)).make_corpus(
        CorpusConfig(n_prompts=250)
    )
    return EmbeddingModel().embed_batch([p.text for p in corpus])


def _build(cls, rows, metric, quantization, m=16):
    index = cls(
        dim=rows.shape[1], m=m, metric=metric, quantization=quantization, seed=0
    )
    index.add_batch(rows)
    return index


class TestSelectionsMatchReference:
    @pytest.mark.parametrize("metric", ["cosine", "l2"])
    def test_random_candidate_lists(self, metric):
        """Same picks for every ``m`` from 1 to the list length, ties included."""
        rows = _copies_and_zeros(seed=1, n_base=60, dim=8)
        index = _build(HnswIndex, rows, metric, "none", m=4)
        n = len(index)
        rng = np.random.default_rng(7)
        for trial in range(120):
            size = int(rng.integers(1, 24))
            ids = rng.choice(n, size=size, replace=False).tolist()
            if trial % 3 == 0:
                # Few distinct levels: many exact ties on the query distance.
                dists = rng.choice([0.0, 0.25, 0.5, 1.0], size=size).tolist()
            else:
                anchor = int(rng.integers(n))
                dists = index._distances_to(
                    index._vectors[anchor], ids, index._norms[anchor]
                ).tolist()
            candidates = list(zip(dists, ids))
            for m in range(1, size + 1):
                assert index._select_neighbors(candidates, m) == (
                    reference_select_neighbors(index, candidates, m)
                ), (trial, m)


class TestSmallSetSelection:
    """With the pair table, a set of at most ``_MASK_WIDTH`` candidates
    (every ``_link`` overflow) prunes from one gather of its pairwise
    sub-table, as per-candidate bitmasks, and measures no distance row."""

    @pytest.mark.parametrize("metric", ["cosine", "l2"])
    def test_bitmask_walk_matches_reference_on_equal_distances(self, metric):
        rows = _copies_and_zeros(seed=2, n_base=40, dim=6)
        index = _build(HnswIndex, rows, metric, "none", m=4)
        assert index._pairs is not None
        n_rows = len(index)
        rng = np.random.default_rng(11)
        ties = 0
        with mock.patch.object(
            HnswIndex, "_stored_distances", autospec=True,
            side_effect=HnswIndex._stored_distances,
        ) as rows_measured:
            for trial in range(150):
                anchor = int(rng.integers(n_rows))
                others = [i for i in range(n_rows) if i != anchor]
                size = int(rng.integers(1, hnsw._MASK_WIDTH + 1))
                ids = rng.choice(others, size=size, replace=False).tolist()
                dists = index._pairs[anchor, ids].tolist()
                ties += len(dists) - len(set(dists))
                candidates = list(zip(dists, ids))
                for m in sorted({1, size - 1, size, size + 1} - {0}):
                    assert index._select_neighbors(candidates, m) == (
                        reference_select_neighbors(index, candidates, m)
                    ), (trial, m)
            assert rows_measured.call_count == 0
        assert ties > 100


class TestGraphsMatchReference:
    @staticmethod
    def _assert_same_graph(rows, metric, quantization, m=16):
        fast = _build(HnswIndex, rows, metric, quantization, m)
        slow = _build(PerCandidateHnsw, rows, metric, quantization, m)
        assert fast._entry == slow._entry
        assert fast._neighbors == slow._neighbors

    @pytest.mark.parametrize("metric, quantization", SETTINGS)
    def test_curate_corpus(self, curate_corpus, metric, quantization):
        self._assert_same_graph(curate_corpus, metric, quantization)

    @pytest.mark.parametrize("metric, quantization", SETTINGS)
    def test_copies_and_zero_rows(self, metric, quantization):
        # A small m prunes hard and backfills often.
        self._assert_same_graph(_copies_and_zeros(), metric, quantization, m=4)


def test_scan_and_beam_distances_agree_bitwise(curate_corpus):
    """For every id both return, the exact scan and the beam report the
    same bits: the kernel does not depend on the gather's shape."""
    index = HnswIndex(dim=curate_corpus.shape[1], ef_search=64, seed=0)
    index.add_batch(curate_corpus)
    compared = 0
    for nid in range(0, len(index), 2):
        query, qnorm = index._vectors[nid], index._norms[nid]
        scan_ids, scan_d = index._scan_raw(query, qnorm, 10)
        beam_ids, beam_d = index._search_one_raw(query, qnorm, 10, 64)
        by_id = dict(zip(scan_ids.tolist(), scan_d.tolist()))
        for i, d in zip(beam_ids.tolist(), beam_d.tolist()):
            if i in by_id:
                assert by_id[i] == d, (nid, i)
                compared += 1
    assert compared > 1000
