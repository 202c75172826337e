"""Tests for feature hashing and the embedding model."""

import sys
import threading

import numpy as np
import pytest

from repro.embedding.hashing import hash_features
from repro.embedding.model import EmbeddingModel


def cosine(a, b):
    return float(a @ b) / float(np.linalg.norm(a) * np.linalg.norm(b))


class TestHashFeatures:
    def test_deterministic(self):
        a = hash_features(["x", "y"], 32)
        b = hash_features(["x", "y"], 32)
        assert (a == b).all()

    def test_dimension(self):
        assert hash_features(["x"], 16).shape == (16,)

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            hash_features(["x"], 0)

    def test_weights_scale(self):
        unweighted = hash_features(["x"], 32)
        weighted = hash_features(["x"], 32, weights=[3.0])
        assert np.allclose(weighted, 3.0 * unweighted)

    def test_signs_present(self):
        vec = hash_features([str(i) for i in range(200)], 8)
        # With signed hashing, mass cancels rather than accumulating.
        assert abs(vec).sum() < 200

    def test_empty_features(self):
        assert (hash_features([], 8) == 0).all()


class TestEmbeddingModel:
    def test_unit_norm(self):
        vec = EmbeddingModel().embed("hello world")
        assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_empty_text_is_zero_vector(self):
        vec = EmbeddingModel().embed("")
        assert np.linalg.norm(vec) == pytest.approx(0.0)

    def test_deterministic(self):
        m = EmbeddingModel()
        assert (m.embed("abc") == m.embed("abc")).all()

    def test_similar_texts_are_close(self):
        m = EmbeddingModel()
        base = "how do i implement a binary search tree in python"
        near = "hey, how do i implement a binary search tree in python thanks"
        far = "compose a wedding toast with a friendly voice"
        assert cosine(m.embed(base), m.embed(near)) > 0.8
        assert cosine(m.embed(base), m.embed(far)) < 0.4

    def test_batch_shape(self):
        m = EmbeddingModel(dim=64)
        batch = m.embed_batch(["a b c", "d e f"])
        assert batch.shape == (2, 64)

    def test_empty_batch(self):
        m = EmbeddingModel(dim=64)
        assert m.embed_batch([]).shape == (0, 64)

    def test_batch_matches_single(self):
        m = EmbeddingModel()
        batch = m.embed_batch(["text one", "text two"])
        assert np.allclose(batch[0], m.embed("text one"))

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            EmbeddingModel(dim=0)

    def test_requires_some_order(self):
        with pytest.raises(ValueError):
            EmbeddingModel(char_orders=(), word_orders=())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"char_orders": (0,)},
            {"char_orders": (-2,)},
            {"char_orders": (3, 0)},
            {"word_orders": (0,)},
            {"word_orders": (1, -1)},
            {"char_orders": (2.5,)},
            {"char_orders": (3.0,)},
            {"word_orders": ("2",)},
            {"word_orders": (True,)},
        ],
    )
    def test_rejects_orders_it_cannot_embed_with(self, kwargs):
        with pytest.raises(ValueError, match="n-gram orders"):
            EmbeddingModel(**kwargs)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_word_weight(self, weight):
        with pytest.raises(ValueError, match="word_weight"):
            EmbeddingModel(word_weight=weight)

    def test_numpy_integer_orders_are_stored_as_ints(self):
        m = EmbeddingModel(char_orders=(np.int64(3), 4), word_orders=(np.int32(1),))
        assert m.char_orders == (3, 4) and m.word_orders == (1,)
        assert all(type(n) is int for n in (*m.char_orders, *m.word_orders))

    def test_case_insensitive(self):
        m = EmbeddingModel()
        assert cosine(m.embed("Hello World"), m.embed("hello world")) == pytest.approx(1.0)


class TestEmbedBatchParity:
    TEXTS = [
        "how do i implement a binary search tree in python",
        "compose a wedding toast with a friendly voice",
        "",  # empty text stays an all-zero row
        "x",  # shorter than every n-gram order
        "Hello World  Hello World",
        "how do i implement a binary search tree in python",  # duplicate
    ]

    def test_bit_identical_to_scalar(self):
        m = EmbeddingModel()
        batch = m.embed_batch(self.TEXTS)
        for row, text in zip(batch, self.TEXTS):
            assert (row == m.embed(text)).all()

    def test_bit_identical_under_alt_config(self):
        m = EmbeddingModel(dim=128, char_orders=(2,), word_orders=(1, 2))
        batch = m.embed_batch(self.TEXTS)
        for row, text in zip(batch, self.TEXTS):
            assert (row == m.embed(text)).all()

    def test_threads_sharing_one_gram_table_agree_with_embed(self):
        model = EmbeddingModel(dim=64, word_weight=0.3)
        texts = [f"{t} {i}" for i, t in enumerate(self.TEXTS * 4)]
        expected = [model.embed(t).tobytes() for t in texts]
        results: dict[int, list[bytes]] = {}

        def work(k: int) -> None:
            order = texts[k:] + texts[:k]
            rows = [model.embed_batch(order[i : i + 3]) for i in range(0, len(order), 3)]
            flat = [row.tobytes() for batch in rows for row in batch]
            results[k] = flat[-k:] + flat[:-k] if k else flat

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(results[k] == expected for k in range(8))

    def test_accepts_any_iterable(self):
        m = EmbeddingModel(dim=32)
        batch = m.embed_batch(t for t in ("a b", "c d"))
        assert batch.shape == (2, 32)

    def test_empty_iterable(self):
        m = EmbeddingModel(dim=32)
        out = m.embed_batch(iter(()))
        assert out.shape == (0, 32)
        assert out.dtype == np.float64
