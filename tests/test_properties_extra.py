"""Additional property-based tests for the newer substrate layers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classify.naive_bayes import MultinomialNaiveBayes
from repro.cluster.kmeans import kmeans
from repro.serve.cache import LruCache

class TestNaiveBayesProperties:
    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=4, max_value=20))
    @settings(max_examples=30, deadline=None)
    def test_posteriors_produce_valid_distribution(self, n_classes, n_rows):
        rng = np.random.default_rng(n_classes * 100 + n_rows)
        features = rng.integers(0, 5, size=(n_rows, 6)).astype(float)
        labels = [f"c{rng.integers(n_classes)}" for _ in range(n_rows)]
        nb = MultinomialNaiveBayes().fit(features, labels)
        log_post = nb.log_posterior(features)
        # softmax over the returned scores is a proper distribution
        post = np.exp(log_post - log_post.max(axis=1, keepdims=True))
        post /= post.sum(axis=1, keepdims=True)
        assert np.all(post >= 0)
        assert np.allclose(post.sum(axis=1), 1.0)

    @given(st.integers(min_value=1, max_value=30))
    @settings(max_examples=20, deadline=None)
    def test_prediction_invariant_to_feature_scaling(self, scale):
        rng = np.random.default_rng(scale)
        features = rng.integers(0, 4, size=(12, 5)).astype(float)
        labels = ["a" if i < 6 else "b" for i in range(12)]
        nb = MultinomialNaiveBayes().fit(features, labels)
        query = rng.integers(0, 4, size=5).astype(float)
        assert nb.predict_one(query) == nb.predict_one(query * scale)


class TestKMeansProperties:
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=6, max_value=30))
    @settings(max_examples=25, deadline=None)
    def test_assignments_in_range_and_inertia_non_negative(self, k, n):
        rng = np.random.default_rng(k * 1000 + n)
        points = rng.normal(size=(n, 3))
        result = kmeans(points, k, seed=1)
        assert result.inertia >= 0.0
        assert result.assignments.shape == (n,)
        assert set(result.assignments.tolist()) <= set(range(result.k))

    @given(st.integers(min_value=5, max_value=25))
    @settings(max_examples=20, deadline=None)
    def test_k_equals_n_gives_zero_inertia(self, n):
        rng = np.random.default_rng(n)
        points = rng.normal(size=(n, 2))
        result = kmeans(points, n, seed=2)
        assert result.inertia == pytest.approx(0.0, abs=1e-9)


class TestLruCacheModel:
    @given(
        st.lists(
            st.tuples(st.sampled_from("get put".split()), st.integers(0, 6)),
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_model(self, operations):
        """Model-based test: the cache agrees with an ordered-dict oracle."""
        capacity = 3
        cache = LruCache(capacity=capacity)
        from collections import OrderedDict

        model: OrderedDict[int, int] = OrderedDict()
        for op, key in operations:
            if op == "put":
                if key in model:
                    model.move_to_end(key)
                model[key] = key * 10
                if len(model) > capacity:
                    model.popitem(last=False)
                cache.put(key, key * 10)
            else:
                expected = model.get(key)
                if expected is not None:
                    model.move_to_end(key)
                assert cache.get(key) == expected
        assert len(cache) == len(model)
