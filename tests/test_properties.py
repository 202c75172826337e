"""Property-based tests (hypothesis) on core data structures and invariants."""

import bisect
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.ann.bruteforce import BruteForceIndex
from repro.ann import hnsw as hnsw_module
from repro.ann.hnsw import HnswIndex
from repro.ann.sharded import ShardedHnswIndex
from repro.classify.model import CategoryClassifier
from repro.classify.naive_bayes import MultinomialNaiveBayes
from repro.embedding import hashing as embedding_hashing
from repro.embedding.hashing import hash_features
from repro.embedding.model import EmbeddingModel
from repro.errors import EmptyDatasetError, ReproError
from repro.llm import api as llm_api
from repro.llm.api import ChatClient
from repro.llm.engine import SimulatedLLM
from repro.llm.generation import render_response
from repro.llm.types import Message
from repro.obs import Observability
from repro.resilience import FaultPlan, OutageWindow, RetryPolicy
from repro.serve.engine import EngineConfig, ServingEngine
from repro.serve.gateway import GatewayConfig, PasGateway
from repro.serve.traffic import TimedRequest
from repro.serve.types import ServeRequest
from repro.utils import textproc
from repro.utils.rng import stable_hash
from repro.utils.stats import length_controlled_win_rate, nearest_rank, win_rate
from repro.utils.unionfind import UnionFind
from repro.world.aspects import (
    ASPECTS,
    aspect_names,
    find_cues,
    find_markers,
    parse_directives,
)
from repro.world.prompts import PromptFactory, SyntheticPrompt
from repro.world.quality import FLAW_MARKERS, assess_response
from repro.core.golden import MAX_DIRECTIVES, render_complement
from tests.classify_oracle import reference_fit, reference_transform_batch
from tests.quality_oracle import reference_assess_response
from tests.textproc_oracle import reference_normalize

_text = st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=0x2FF), max_size=200)
#: All 128 ASCII code points, then non-ASCII whitespace (``\x85``, no-break,
#: ogham, thin and ideographic spaces, line and paragraph separators) and
#: characters that NFKD decomposes into ASCII (``ﬁ``, ``²``, ``é``,
#: fullwidth ``Ａ``) or into nothing ASCII at all (``ß``, a zero-width space).
_normalize_text = st.text(
    alphabet=st.sampled_from(
        [chr(c) for c in range(128)]
        + list("\x85\xa0\u1680\u2009\u2028\u2029\u3000\ufb01\xb2\xe9\uff21\xdf\u200b")
    ),
    max_size=60,
)


class TestTextProperties:
    @given(st.one_of(st.text(), _normalize_text))
    @example("\x1c a\x1f\tb\x85\xa0c\u2028\u3000 ")
    @settings(max_examples=300)
    def test_normalize_equals_regex_oracle(self, text):
        assert textproc.normalize(text) == reference_normalize(text)

    @given(_text)
    @settings(max_examples=80)
    def test_normalize_idempotent(self, text):
        once = textproc.normalize(text)
        assert textproc.normalize(once) == once

    @given(_text)
    @settings(max_examples=80)
    def test_words_are_lowercase_tokens(self, text):
        for word in textproc.words(text):
            assert word == word.lower()
            assert word.strip()

    @given(_text)
    @settings(max_examples=50)
    def test_wordstream_matches_words(self, text):
        assert textproc.wordstream(text).split(" ") == textproc.words(text) or (
            textproc.wordstream(text) == "" and textproc.words(text) == []
        )

    @given(_text, st.integers(min_value=0, max_value=30))
    @settings(max_examples=50)
    def test_truncate_words_never_longer(self, text, limit):
        truncated = textproc.truncate_words(text, limit)
        assert len(truncated.split()) <= max(limit, 0)

    @given(st.lists(st.text(max_size=5)), st.lists(st.text(max_size=5)))
    @settings(max_examples=50)
    def test_jaccard_bounds_and_symmetry(self, a, b):
        value = textproc.jaccard(a, b)
        assert 0.0 <= value <= 1.0
        assert value == textproc.jaccard(b, a)


class TestHashProperties:
    @given(_text)
    @settings(max_examples=80)
    def test_stable_hash_range(self, text):
        assert 0 <= stable_hash(text) < (1 << 64)

    @given(st.lists(st.text(min_size=1, max_size=10), max_size=30), st.integers(1, 64))
    @settings(max_examples=50)
    def test_hash_features_linear_in_duplicates(self, feats, dim):
        once = hash_features(feats, dim)
        twice = hash_features(feats + feats, dim)
        assert np.allclose(twice, 2 * once)


#: The default encoder, and small non-dyadic ones: at dim=8 char and word
#: features collide often and word_weight=0.3 makes float sums order
#: sensitive, so only there does a scatter in the wrong order change a row.
#: The last two read char grams in word windows with other edges than the
#: default 3/4-grams: order 1 starts a gram on the trailing pad, 5-grams
#: reach across a short next word, and with no order above 2 an empty text
#: still has the 2-gram "  " and a text's last window can equal a middle
#: one ("mat mat").
_EMBED_CONFIGS = (
    {},
    {"dim": 8, "word_weight": 0.3},
    {"dim": 8, "word_weight": 0.3, "char_orders": (1, 2, 5)},
    {"dim": 8, "word_weight": 0.3, "char_orders": (1, 2)},
)
#: One model per config, reused across examples so its gram table is warm.
_WARM_MODELS = [EmbeddingModel(**config) for config in _EMBED_CONFIGS]
_short_text = st.sampled_from(
    ("", " ", "x", "ab", "the", "Hé!", "the cat sat on the mat", "Ça, c'est l'été — déjà vu?")
)


@st.composite
def _text_batches(draw):
    """Texts cut into consecutive batches (some empty) at generated points."""
    texts = draw(st.lists(st.one_of(_text, _short_text), max_size=10))
    cuts = sorted(draw(st.sets(st.integers(0, len(texts)), max_size=4)))
    bounds = [0, *cuts, len(texts)]
    return [texts[a:b] for a, b in zip(bounds, bounds[1:])]


def _embed_all(model, batches):
    rows = []
    for batch in batches:
        matrix = model.embed_batch(batch)
        assert matrix.shape == (len(batch), model.dim)
        rows.extend(row.tobytes() for row in matrix)
    return rows


class TestEmbeddingProperties:
    @given(_text)
    @settings(max_examples=50)
    def test_norm_at_most_one(self, text):
        vec = EmbeddingModel(dim=64).embed(text)
        norm = float(np.linalg.norm(vec))
        assert norm <= 1.0 + 1e-9
        assert norm == 0.0 or abs(norm - 1.0) < 1e-9

    @pytest.mark.parametrize("which", range(len(_EMBED_CONFIGS)))
    @given(batches=_text_batches())
    @example(batches=[["the cat sat on the mat", "x"], [], ["", "Ça, c'est l'été — déjà vu?"]])
    @example(batches=[["mat mat", "a b a"], ["", "a"], ["to a mat, a mat"]])
    @settings(max_examples=80, deadline=None)
    def test_batch_rows_equal_embed_warm_or_cold(self, which, batches):
        texts = [text for batch in batches for text in batch]
        expected = [_WARM_MODELS[which].embed(text).tobytes() for text in texts]
        assert _embed_all(_WARM_MODELS[which], batches) == expected
        assert _embed_all(EmbeddingModel(**_EMBED_CONFIGS[which]), batches) == expected

    @pytest.mark.parametrize("which", range(len(_EMBED_CONFIGS)))
    @given(a=_text_batches(), b=_text_batches())
    @example(a=[["the"]], b=[["the cat sat on the mat"]])
    @settings(max_examples=40, deadline=None)
    def test_rows_do_not_depend_on_what_the_model_saw_first(self, which, a, b):
        config = _EMBED_CONFIGS[which]
        first, second = EmbeddingModel(**config), EmbeddingModel(**config)
        a_then, then_b = _embed_all(first, a), _embed_all(first, b)
        b_then, then_a = _embed_all(second, b), _embed_all(second, a)
        assert a_then == then_a
        assert then_b == b_then

    def test_gram_table_stops_at_its_limit(self, monkeypatch):
        monkeypatch.setattr(embedding_hashing, "_TABLE_LIMIT", 40)
        model = EmbeddingModel(dim=8, word_weight=0.3)
        texts = [
            "how do i implement a binary search tree in python",
            "compose a wedding toast with a friendly voice",
            "the cat sat on the mat, the cat sat on the mat",
        ]
        for _ in range(2):
            rows = model.embed_batch(texts)
            for row, text in zip(rows, texts):
                assert row.tobytes() == model.embed(text).tobytes()
            assert len(model._table) == 40

    def test_window_table_stops_at_its_limit(self, monkeypatch):
        # The window table shares the gram table's cap: past it a window's
        # codes are recomputed (from the gram table) on every occurrence.
        monkeypatch.setattr(embedding_hashing, "_TABLE_LIMIT", 6)
        model = EmbeddingModel(dim=8, word_weight=0.3, char_orders=(1, 2, 5))
        texts = [
            "how do i implement a binary search tree in python",
            "compose a wedding toast with a friendly voice",
            "the cat sat on the mat, the cat sat on the mat",
        ]
        for _ in range(2):
            rows = model.embed_batch(texts)
            for row, text in zip(rows, texts):
                assert row.tobytes() == model.embed(text).tobytes()
            assert len(model._windows) == 6


_CATEGORIES = ("coding", "math", "writing", "qa", "chitchat")
_classifier_text = st.one_of(
    _text,
    _short_text,
    st.sampled_from(("?!...", "-- ,;: --", "don't won't it's", "naïve café résumé")),
    # Few distinct words, so texts repeat words and bigrams.
    st.lists(st.sampled_from(("the", "cat", "sat", "on", "a", "mat")), max_size=12).map(
        " ".join
    ),
)


@st.composite
def _labelled_texts(draw):
    """Texts, and labels drawn from 1 to 5 classes."""
    n_classes = draw(st.integers(1, 5))
    texts = draw(st.lists(_classifier_text, min_size=1, max_size=12))
    labels = draw(
        st.lists(
            st.sampled_from(_CATEGORIES[:n_classes]),
            min_size=len(texts),
            max_size=len(texts),
        )
    )
    return texts, labels


class TestClassifierProperties:
    """The sparse classifier fit against the dense oracle in
    ``tests/classify_oracle.py``: equal as bytes at every bucket count,
    under heavy collisions (1 and 7 buckets) and with the gram table
    capped at 0 and 2 grams as well as at its default."""

    @pytest.mark.parametrize("cap", [0, 2, None])
    @given(data=_labelled_texts(), n_features=st.sampled_from((1, 7, 4096)))
    @settings(max_examples=60, deadline=None)
    def test_sparse_fit_equals_dense_reference(self, cap, data, n_features):
        texts, labels = data
        limit = embedding_hashing._TABLE_LIMIT if cap is None else cap
        with mock.patch.object(embedding_hashing, "_TABLE_LIMIT", limit):
            clf = CategoryClassifier(n_features=n_features, alpha=0.3)
            dense = reference_transform_batch(texts, n_features)
            classes, log_prior, log_likelihood = reference_fit(
                texts, labels, n_features, alpha=0.3
            )
            for _ in range(2):  # a cold gram table, then a warm one
                clf.fit(texts, labels)
                assert clf._nb.classes == classes
                assert clf._nb._log_prior.tobytes() == log_prior.tobytes()
                assert clf._nb._log_likelihood.tobytes() == log_likelihood.tobytes()
                assert clf._hasher.transform_batch(texts).tobytes() == dense.tobytes()
            assert len(clf._hasher._table) <= limit
        nb = MultinomialNaiveBayes(alpha=0.3).fit(dense, labels)
        assert nb._log_prior.tobytes() == log_prior.tobytes()
        assert nb._log_likelihood.tobytes() == log_likelihood.tobytes()

    @given(
        texts=st.lists(_classifier_text, max_size=4),
        labels=st.lists(st.sampled_from(_CATEGORIES), max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_empty_or_mismatched_fit_rejected(self, texts, labels):
        if texts and len(texts) == len(labels):
            labels = labels[:-1]
        error = ValueError if texts else EmptyDatasetError
        with pytest.raises(error):
            CategoryClassifier(n_features=7).fit(texts, labels)
        with pytest.raises(error):
            MultinomialNaiveBayes().fit(reference_transform_batch(texts, 7), labels)


class TestUnionFindProperties:
    @given(
        st.integers(min_value=1, max_value=40),
        st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=60),
    )
    @settings(max_examples=60)
    def test_components_consistent_with_groups(self, n, unions):
        uf = UnionFind(n)
        for a, b in unions:
            if a < n and b < n:
                uf.union(a, b)
        groups = uf.groups()
        assert len(groups) == uf.components
        assert sorted(m for g in groups.values() for m in g) == list(range(n))

    @given(
        st.integers(min_value=2, max_value=30),
        st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=40),
    )
    @settings(max_examples=60)
    def test_connectivity_is_equivalence(self, n, unions):
        uf = UnionFind(n)
        for a, b in unions:
            if a < n and b < n:
                uf.union(a, b)
        for a, b in unions:
            if a < n and b < n:
                assert uf.connected(a, b)


class TestAnnProperties:
    @given(st.integers(min_value=2, max_value=60), st.integers(min_value=1, max_value=10))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_hnsw_agrees_with_bruteforce_top1(self, n, k):
        rng = np.random.default_rng(n * 31 + k)
        points = rng.normal(size=(n, 6))
        hnsw = HnswIndex(dim=6, ef_search=64, seed=0)
        brute = BruteForceIndex(dim=6)
        for i, p in enumerate(points):
            hnsw.add(p, key=i)
            brute.add(p, key=i)
        query = rng.normal(size=6)
        top_hnsw = hnsw.search(query, min(k, n))
        top_brute = brute.search(query, min(k, n))
        # The single nearest neighbour should virtually always agree.
        assert top_hnsw[0][0] == top_brute[0][0]

    @given(st.integers(min_value=1, max_value=40))
    @settings(max_examples=20, deadline=None)
    def test_hnsw_distances_sorted(self, n):
        rng = np.random.default_rng(n)
        index = HnswIndex(dim=4, seed=1)
        for i in range(n):
            index.add(rng.normal(size=4), key=i)
        hits = index.search(rng.normal(size=4), min(10, n))
        dists = [d for _, d in hits]
        assert dists == sorted(dists)


@st.composite
def _rows_with_copies(draw):
    """A small matrix holding arbitrary rows, exact copies, positive-
    scaled copies and zero rows, in a drawn order."""
    dim = draw(st.integers(min_value=1, max_value=12))
    n_base = draw(st.integers(min_value=1, max_value=6))
    value = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
    base = [draw(st.lists(value, min_size=dim, max_size=dim)) for _ in range(n_base)]
    rows = [np.array(row) for row in base]
    extras = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["copy", "scaled", "zero"]),
                st.integers(min_value=0, max_value=n_base - 1),
                st.floats(min_value=1e-3, max_value=1e3),
            ),
            max_size=8,
        )
    )
    for kind, src, scale in extras:
        if kind == "copy":
            rows.append(rows[src].copy())
        elif kind == "scaled":
            rows.append(rows[src] * scale)
        else:
            rows.append(np.zeros(dim))
    order = draw(st.permutations(range(len(rows))))
    return np.array([rows[i] for i in order])


class TestDistanceKernelProperties:
    """``HnswIndex._distances_to`` is a function of each pair alone.

    The neighbour heuristic computes ``dist(kept, c)`` where the
    per-candidate form computed ``dist(c, kept)``, in a different gather;
    the two pick the same neighbours only if these hold bit for bit.
    """

    @pytest.mark.parametrize("metric", ["cosine", "l2"])
    @given(matrix=_rows_with_copies(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_pairwise_value_independent_of_gather_and_side(self, metric, matrix, data):
        index = HnswIndex(dim=matrix.shape[1], metric=metric, seed=0)
        index.add_batch(matrix)
        n = len(index)
        ids = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
        a = data.draw(st.integers(0, n - 1))
        vecs, norms = index._vectors, index._norms
        full = index._distances_to(vecs[a], ids, norms[a])
        perm = data.draw(st.permutations(range(len(ids))))
        permuted = index._distances_to(vecs[a], [ids[i] for i in perm], norms[a])
        assert permuted.tobytes() == full[list(perm)].tobytes()
        for j, b in enumerate(ids):
            single = index._distances_to(vecs[a], [b], norms[a])
            swapped = index._distances_to(vecs[b], [a], norms[b])
            assert single.tobytes() == full[j : j + 1].tobytes()
            assert swapped.tobytes() == full[j : j + 1].tobytes()

    @pytest.mark.parametrize("metric", ["cosine", "l2"])
    @pytest.mark.parametrize("cls", [HnswIndex, ShardedHnswIndex])
    def test_strided_query_matches_its_contiguous_copy(self, metric, cls):
        rng = np.random.default_rng(5)
        # Two shards of 150 rows: each answers with the exact scan.
        kwargs = {"n_shards": 2} if cls is ShardedHnswIndex else {}
        index = cls(dim=48, metric=metric, seed=0, **kwargs)
        index.add_batch(rng.normal(size=(300, 48)))
        # Rows of a Fortran-ordered matrix are strided views.
        strided = np.asfortranarray(rng.normal(size=(12, 48)))
        contiguous = np.ascontiguousarray(strided)
        assert not strided[0].flags.c_contiguous
        for i in range(strided.shape[0]):
            assert index.search(strided[i], 10) == index.search(contiguous[i], 10)
        assert index.search_batch(strided, 10) == index.search_batch(contiguous, 10)
        for got, want in zip(
            index.search_batch_arrays(strided, 10),
            index.search_batch_arrays(contiguous, 10),
        ):
            assert got.tobytes() == want.tobytes()


class TestPairTableProperties:
    """The pair table changes no bits: an index that reads stored-row
    distances from its table builds the same graph and answers the same
    k-NN lists and searches as one that never keeps a table
    (``_PAIR_LIMIT`` patched to 0) and as one that drops its table
    mid-build (a capacity past a small limit)."""

    @staticmethod
    def _build(matrix, metric, quantization, m, efc, pair_limit, capacity):
        with mock.patch.object(hnsw_module, "_PAIR_LIMIT", pair_limit), \
                mock.patch.object(hnsw_module, "_INITIAL_CAPACITY", capacity):
            index = HnswIndex(
                dim=matrix.shape[1], m=m, ef_construction=efc, metric=metric,
                quantization=quantization, seed=0,
            )
            for key, row in enumerate(matrix):
                index.add(row, key)
        return index

    @pytest.mark.parametrize("metric", ["cosine", "l2"])
    @pytest.mark.parametrize("quantization", ["none", "int8"])
    @given(matrix=_rows_with_copies(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_table_matches_table_free_index(self, metric, quantization, matrix, data):
        m = data.draw(st.integers(min_value=2, max_value=4))
        efc = data.draw(st.integers(min_value=1, max_value=8))
        k = data.draw(st.integers(min_value=1, max_value=6))
        n = matrix.shape[0]
        args = (matrix, metric, quantization, m, efc)
        table = self._build(*args, pair_limit=hnsw_module._PAIR_LIMIT, capacity=64)
        free = self._build(*args, pair_limit=0, capacity=64)
        # Capacity 2 -> 4 -> 8 ...: past 4 rows the table is dropped.
        dropped = self._build(*args, pair_limit=4, capacity=2)
        assert table._pairs is not None and free._pairs is None
        assert (dropped._pairs is None) == (n > 4)
        want_graph = repr(free.knn_graph(k))
        want = [arr.tobytes() for arr in free.search_batch_arrays(matrix, k)]
        for index in (table, dropped):
            assert index._entry == free._entry
            assert index._neighbors == free._neighbors
            assert repr(index.knn_graph(k)) == want_graph
            got = [arr.tobytes() for arr in index.search_batch_arrays(matrix, k)]
            assert got == want


class TestStatsProperties:
    @given(st.lists(st.sampled_from([0.0, 0.5, 1.0]), max_size=100))
    @settings(max_examples=60)
    def test_win_rate_bounds(self, outcomes):
        assert 0.0 <= win_rate(outcomes) <= 100.0

    @given(
        st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=3, max_size=60),
    )
    @settings(max_examples=40)
    def test_lc_win_rate_bounds(self, outcomes):
        rng = np.random.default_rng(len(outcomes))
        deltas = list(rng.normal(0, 1, len(outcomes)))
        assert 0.0 <= length_controlled_win_rate(outcomes, deltas) <= 100.0

    @given(st.lists(st.integers(0, 60), max_size=300))
    @settings(max_examples=80)
    def test_incremental_nearest_rank_equals_sorting_each_time(self, stream):
        # The serving engine's hedge deadline keeps latencies sorted with
        # one insort per finish instead of sorting them on every start.
        ordered: list[int] = []
        for i, value in enumerate(stream, start=1):
            bisect.insort(ordered, value)
            prefix = sorted(stream[:i])
            for q in (50.0, 95.0, 99.0, 100.0):
                expected = float(prefix[max(1, math.ceil(q / 100.0 * i)) - 1])
                assert nearest_rank(ordered, q, ordered=True) == expected
                assert nearest_rank(stream[:i], q) == expected
        assert nearest_rank([], 99.0) == 0.0


# The per-phrase matchers the compiled aspect tables replaced: each call
# re-pads every phrase and re-derives every directive fragment.  They are
# the reference the compiled matchers must equal.
def _reference_find_cues(text: str) -> dict[str, str]:
    stream = f" {textproc.wordstream(text)} "
    hits: dict[str, str] = {}
    for aspect in ASPECTS.values():
        for cue in aspect.cue_phrases:
            if f" {cue} " in stream:
                hits[aspect.name] = cue
                break
    return hits


def _reference_find_markers(text: str) -> set[str]:
    stream = f" {textproc.wordstream(text)} "
    return {
        aspect.name
        for aspect in ASPECTS.values()
        if any(f" {marker} " in stream for marker in aspect.marker_phrases)
    }


def _reference_parse_directives(text: str | None) -> set[str]:
    if not text:
        return set()
    stream = f" {textproc.wordstream(text)} "
    found: set[str] = set()
    for aspect in ASPECTS.values():
        for template in aspect.directive_templates:
            fragment = " ".join(textproc.words(template)[:4])
            if f" {fragment} " in stream:
                found.add(aspect.name)
                break
    return found


@st.composite
def _bank_piece(draw, phrases):
    """A phrase, or a truncated run of its words, with hyphen/case noise."""
    words = draw(st.sampled_from(phrases)).split(" ")
    if draw(st.booleans()):
        start = draw(st.integers(0, len(words) - 1))
        stop = draw(st.integers(start + 1, len(words)))
        words = words[start:stop]
    piece = draw(st.sampled_from((" ", "-", "  "))).join(words)
    return draw(st.sampled_from((str.lower, str.upper, str.title, str.capitalize)))(piece)


_noise = st.one_of(
    st.sampled_from(("the", "in", "step", "re", "a", "x2")),
    _text.map(lambda s: s[:20]),
)


@st.composite
def _bank_text(draw):
    """Phrases from a few aspects' banks, truncated fragments and noise,
    glued by punctuation.  Drawing from few aspects makes two phrases of
    one aspect meet in one text, where first-match order matters."""
    aspects = draw(st.lists(st.sampled_from(list(ASPECTS.values())), min_size=1, max_size=3))
    phrases = list(FLAW_MARKERS) + [
        phrase
        for aspect in aspects
        for phrase in (*aspect.cue_phrases, *aspect.marker_phrases, *aspect.directive_templates)
    ]
    pieces = draw(st.lists(st.one_of(_bank_piece(phrases), _noise), min_size=1, max_size=8))
    glue = st.sampled_from((" ", "-", ", ", ". ", "; ", "!", "'", "\n", ""))
    return "".join(piece + draw(glue) for piece in pieces)


class TestDirectiveProperties:
    @given(_bank_text())
    @example("Provide a detailed analysisx. Re-read the question carefully; it")
    @example("how can i STEP-BY-STEP: walk me through step 1s, for example")
    @settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
    def test_compiled_matchers_equal_per_phrase_loops(self, text):
        assert list(find_cues(text).items()) == list(_reference_find_cues(text).items())
        assert find_markers(text) == _reference_find_markers(text)
        assert parse_directives(text) == _reference_parse_directives(text)

    @given(st.sets(st.sampled_from(aspect_names()), max_size=6), _text)
    @settings(max_examples=80)
    def test_render_complement_roundtrip_under_cap(self, aspects, salt):
        text = render_complement(aspects, salt=salt)
        parsed = parse_directives(text)
        assert parsed <= aspects
        assert len(parsed) == min(len(aspects), MAX_DIRECTIVES)

    @given(st.sets(st.sampled_from(aspect_names()), min_size=1, max_size=3))
    @settings(max_examples=40)
    def test_small_sets_roundtrip_exactly(self, aspects):
        assert parse_directives(render_complement(aspects)) == aspects


# ---------------------------------------------------------------------- #
# The one-pass quality oracle equals the four-pass one
# ---------------------------------------------------------------------- #

_ORACLE_FACTORY = PromptFactory(rng=np.random.default_rng(29))
_ORACLE_PROMPTS = [_ORACLE_FACTORY.make_prompt(cue_rate=0.9) for _ in range(8)]

#: Pieces that ``normalize`` rewrites: accents, NFKD expansions
#: (ligatures, superscripts, fractions, fullwidth and circled forms),
#: characters it drops, apostrophes, punctuation runs and whitespace.
_UNICODE_PIECES = st.sampled_from(
    (
        "é", "Ö", "ﬁ", "ﬀ", "²", "½", "①", "Ｗｏｒｄ", "Ⅻ", "ß", "İ", "ŉ", "…",
        "’", "'", "''", "don't", "it's'", "--", "...", "?!", "—", "  ", "\n", "\t",
        "\u00a0", "",
    )
)


@st.composite
def _oracle_prompts(draw):
    """A corpus prompt, or one with drawn needs and topic (an empty or
    short-worded topic has no topic words)."""
    prompt = draw(st.sampled_from(_ORACLE_PROMPTS))
    if draw(st.booleans()):
        return prompt
    return SyntheticPrompt(
        uid=prompt.uid,
        text=prompt.text,
        category=prompt.category,
        needs=draw(st.frozensets(st.sampled_from(aspect_names()), max_size=4)),
        topic=draw(st.one_of(st.just(prompt.topic), st.just(""), _text.map(lambda s: s[:40]))),
    )


@st.composite
def _rendered_response(draw):
    """What the engine renders: drawn covered aspects, flawed sentences
    and a missed logic trap, on a corpus prompt's text."""
    n_elaborations = draw(st.integers(1, 8))
    return render_response(
        prompt_text=draw(st.sampled_from(_ORACLE_PROMPTS)).text,
        covered_aspects=draw(st.sets(st.sampled_from(aspect_names()), max_size=6)),
        n_elaborations=n_elaborations,
        flawed_slots=draw(st.sets(st.integers(0, n_elaborations - 1))),
        missed_trap=draw(st.booleans()),
        rng=np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
    )


@st.composite
def _decorated_text(draw):
    """Marker and flaw phrases glued with unicode that NFKD rewrites."""
    pieces = draw(
        st.lists(st.one_of(_bank_text(), _UNICODE_PIECES, _text), min_size=0, max_size=6)
    )
    return "".join(pieces)


class TestQualityOracleProperties:
    @given(
        _oracle_prompts(),
        st.one_of(_rendered_response(), _decorated_text(), _text, st.just("")),
    )
    @example(_ORACLE_PROMPTS[0], "")
    @example(_ORACLE_PROMPTS[0], "  ﬁrst, ÉVERYONE agrees that—it's ½ true!!  ")
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_one_pass_equals_four_pass(self, prompt, response):
        assert assess_response(prompt, response) == reference_assess_response(
            prompt, response
        )


# ---------------------------------------------------------------------- #
# The client's completion memo is invisible
# ---------------------------------------------------------------------- #

_MEMO_PROMPTS = (
    "how do i bake bread?",
    "why does my regex backtrack so much? be concise.",
    "how do i profile python code? please explain it in detail.",
)
_MEMO_SUPPLEMENTS = (
    None,
    "",
    render_complement({"examples"}),
    render_complement({"depth", "verification"}, salt="memo"),
)
_memo_calls = st.lists(
    st.tuples(
        st.sampled_from(("complete", "latency")),
        st.sampled_from(_MEMO_PROMPTS),
        st.sampled_from(_MEMO_SUPPLEMENTS),
    ),
    min_size=1,
    max_size=24,
)


def _memo_client(faulted: bool, events: list) -> ChatClient:
    """A client, optionally under completion failures, latency spikes and
    an outage window with a deadline; ``events`` collects injected faults."""
    if not faulted:
        return ChatClient(engine=SimulatedLLM("gpt-4-0613"))
    plan = FaultPlan(
        seed=3,
        completion_failure_rate=0.4,
        latency_spike_rate=0.3,
        latency_spike_ticks=2,
        outages=(OutageWindow("gpt-4-0613", 4, 7),),
    )
    plan.attach_observer(lambda stage, key, detail: events.append((stage, key, detail)))
    return ChatClient(
        engine=SimulatedLLM("gpt-4-0613"),
        failure_rate=0.1,
        fault_plan=plan,
        retry_policy=RetryPolicy(max_retries=3, deadline_ticks=8.0, seed=3),
    )


def _memo_call(client: ChatClient, op: str, messages: list[Message]):
    """One call's outcome: a completion, latency ticks, or the error's
    type, message and attempt count."""
    try:
        if op == "latency":
            return client.completion_latency(messages)
        return client.complete(messages)
    except ReproError as error:
        return type(error), str(error), getattr(error, "attempts", None)


class TestCompletionMemoProperties:
    @pytest.mark.parametrize("faulted", [False, True])
    @given(calls=_memo_calls)
    @settings(max_examples=60, deadline=None)
    def test_memoised_client_equals_unmemoised(self, faulted, calls):
        memo_events: list = []
        plain_events: list = []
        memoised = _memo_client(faulted, memo_events)
        plain = _memo_client(faulted, plain_events)
        for op, prompt, supplement in calls:
            messages = [Message("user", prompt)]
            if supplement is not None:
                messages.insert(0, Message("system", supplement))
            got = _memo_call(memoised, op, messages)
            with mock.patch.object(llm_api, "_MEMO_LIMIT", 0):
                expected = _memo_call(plain, op, messages)
            assert got == expected
            assert memoised.usage == plain.usage
            assert memo_events == plain_events
        assert not plain.memo.completions and not plain.memo.latencies


#: Real prompts for the serving property: the planner embeds and augments
#: them, so they must look like traffic.
_SERVING_FACTORY = PromptFactory(rng=np.random.default_rng(23))
_SERVING_POOL = [_SERVING_FACTORY.make_prompt().text for _ in range(12)]


@st.composite
def _serving_cases(draw):
    """Requests with repeats, unaugmented and unroutable ones; small
    caches; an optional fault plan; and a partition of the requests."""
    n = draw(st.integers(min_value=1, max_value=24))
    requests = [
        ServeRequest(
            prompt=_SERVING_POOL[draw(st.integers(0, len(_SERVING_POOL) - 1))],
            model=draw(st.sampled_from(("gpt-4-0613", "qwen2-72b-chat", "no-such-model"))),
            augment=draw(st.booleans()),
            request_id=draw(st.one_of(st.none(), st.just(f"q{i}"))),
        )
        for i in range(n)
    ]
    cache_size = draw(st.integers(1, 8))
    embed_cache_size = draw(st.integers(0, 8))
    fault_plan = draw(
        st.one_of(
            st.none(),
            st.builds(
                FaultPlan,
                seed=st.integers(0, 1000),
                augment_failure_rate=st.sampled_from((0.0, 0.2, 0.5)),
                completion_failure_rate=st.sampled_from((0.0, 0.2, 0.4)),
            ),
        )
    )
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    bounds = [0, *cuts, n]
    partition = [requests[a:b] for a, b in zip(bounds, bounds[1:])]
    return requests, cache_size, embed_cache_size, fault_plan, partition


def _serving_gateway(pas, cache_size, embed_cache_size, fault_plan):
    # A fresh FaultPlan per gateway: an observer attaches to the instance.
    plan = None if fault_plan is None else FaultPlan.from_dict(fault_plan.as_dict())
    config = GatewayConfig(
        cache_size=cache_size,
        embed_cache_size=embed_cache_size,
        fault_plan=plan,
        max_retries=1,
        breaker_threshold=2,
        breaker_recovery_ticks=3,
    )
    obs = Observability.enabled()
    return PasGateway(pas, config=config, obs=obs), obs


def _cache_counters(gateway):
    complement = gateway._complement_cache
    stats = gateway.stats
    return (complement.hits, complement.misses, stats.embed_cache_hits, stats.embed_cache_misses)


class TestServingPathProperties:
    """One serving path: the ``ask`` loop, ``ask_batch`` over any
    partition and the engine at ``max_inflight=1`` serve alike."""

    def test_pool_prompts_are_distinct(self):
        # Distinct prompts make requests compete for the small caches.
        assert len(set(_SERVING_POOL)) == 12

    @given(case=_serving_cases())
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_any_partition_serves_as_the_ask_loop(self, trained_pas, case):
        requests, cache_size, embed_cache_size, fault_plan, partition = case
        gateway_args = (cache_size, embed_cache_size, fault_plan)
        loop_gw, loop_obs = _serving_gateway(trained_pas, *gateway_args)
        loop = [loop_gw.ask(request) for request in requests]
        batch_gw, batch_obs = _serving_gateway(trained_pas, *gateway_args)
        batched = [r for batch in partition for r in batch_gw.ask_batch(batch)]

        assert batched == loop
        assert batch_gw.stats.as_dict() == loop_gw.stats.as_dict()
        assert _cache_counters(batch_gw) == _cache_counters(loop_gw)
        assert json.dumps(batch_obs.events.as_dicts()) == json.dumps(loop_obs.events.as_dicts())
        assert json.dumps(batch_obs.metrics.snapshot(), sort_keys=True) == json.dumps(
            loop_obs.metrics.snapshot(), sort_keys=True
        )

    @given(case=_serving_cases())
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_compat_engine_serves_as_the_ask_loop(self, trained_pas, case):
        requests, cache_size, embed_cache_size, fault_plan, _ = case
        gateway_args = (cache_size, embed_cache_size, fault_plan)
        # Slots are per model, so only a one-model trace serializes: a
        # request to another model (an unroutable one included, which
        # "finishes" after one tick) can overtake an earlier completion
        # and shift the gateway clock its breakers run on.
        requests = [r for r in requests if r.model == "gpt-4-0613"]
        loop_gw, _ = _serving_gateway(trained_pas, *gateway_args)
        loop = [loop_gw.ask(request) for request in requests]
        engine_gw, _ = _serving_gateway(trained_pas, *gateway_args)
        trace = [TimedRequest(tick=i + 1, request=r) for i, r in enumerate(requests)]
        result = ServingEngine(engine_gw, EngineConfig(max_inflight=1)).run(trace)

        assert result.responses == loop
        assert engine_gw.stats.as_dict() == loop_gw.stats.as_dict()
        assert _cache_counters(engine_gw) == _cache_counters(loop_gw)
