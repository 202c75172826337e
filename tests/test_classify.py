"""Tests for feature hashing + Naive Bayes + the category classifier."""

import tracemalloc

import numpy as np
import pytest

from repro.classify.features import FeatureHasher
from repro.classify.model import CategoryClassifier
from repro.classify.naive_bayes import MultinomialNaiveBayes
from repro.errors import EmptyDatasetError, NotFittedError
from repro.world.prompts import PromptFactory
from tests.classify_oracle import reference_fit, reference_nb_fit, reference_transform_batch


class TestFeatureHasher:
    def test_counts_non_negative(self):
        vec = FeatureHasher(64).transform("some words appear here some words")
        assert (vec >= 0).all()

    def test_repeated_words_increase_counts(self):
        h = FeatureHasher(64)
        once = h.transform("apple")
        thrice = h.transform("apple apple apple")
        assert thrice.sum() >= once.sum()

    def test_batch_shape(self):
        batch = FeatureHasher(32).transform_batch(["a b", "c d"])
        assert batch.shape == (2, 32)

    def test_empty_batch(self):
        assert FeatureHasher(32).transform_batch([]).shape == (0, 32)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            FeatureHasher(0)


class TestNaiveBayes:
    def _toy(self):
        x = np.array([[3.0, 0.0], [4.0, 1.0], [0.0, 3.0], [1.0, 4.0]])
        y = ["a", "a", "b", "b"]
        return MultinomialNaiveBayes().fit(x, y)

    def test_separable_data_classified(self):
        nb = self._toy()
        assert nb.predict(np.array([[5.0, 0.0]])) == ["a"]
        assert nb.predict(np.array([[0.0, 5.0]])) == ["b"]

    def test_predict_one(self):
        assert self._toy().predict_one(np.array([5.0, 0.0])) == "a"

    def test_classes_sorted(self):
        assert self._toy().classes == ["a", "b"]

    def test_empty_rejected(self):
        with pytest.raises(EmptyDatasetError):
            MultinomialNaiveBayes().fit(np.zeros((0, 3)), [])

    def test_label_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MultinomialNaiveBayes().fit(np.ones((2, 2)), ["a"])

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            MultinomialNaiveBayes().fit(np.array([[-1.0, 2.0]]), ["a"])

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            MultinomialNaiveBayes().predict(np.ones((1, 2)))

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            MultinomialNaiveBayes(alpha=0.0)

    def test_posterior_shape(self):
        nb = self._toy()
        assert nb.log_posterior(np.ones((3, 2))).shape == (3, 2)


class TestCategoryClassifier:
    @pytest.fixture(scope="class")
    def clf(self):
        return CategoryClassifier().fit_synthetic(n_train=800, seed=11)

    def test_accuracy_on_fresh_prompts(self, clf):
        factory = PromptFactory(rng=np.random.default_rng(12))
        prompts = [factory.make_prompt() for _ in range(200)]
        assert clf.accuracy(prompts) > 0.7

    def test_predict_single(self, clf):
        assert clf.predict("how do i implement an lru cache in python?") == "coding"

    def test_predict_batch_consistent(self, clf):
        texts = ["translate this legal clause into french", "solve this problem about a probability puzzle"]
        assert clf.predict_batch(texts) == [clf.predict(t) for t in texts]

    def test_empty_batch(self, clf):
        assert clf.predict_batch([]) == []

    def test_empty_fit_rejected(self):
        with pytest.raises(EmptyDatasetError):
            CategoryClassifier().fit([], [])

    def test_accuracy_empty(self, clf):
        assert clf.accuracy([]) == 0.0

    def test_is_fitted_flag(self):
        clf = CategoryClassifier()
        assert not clf.is_fitted
        clf.fit(["some text here"], ["coding"])
        assert clf.is_fitted


@pytest.fixture(scope="module", params=[1234, 17, 20, 11])
def fitted_pair(request):
    """A classifier fitted by ``fit_synthetic`` and the dense reference
    fit of the same corpus: the default seed, the curate workload's and
    pipeline bench's 17, ``build_default_dataset(seed=3)``'s 20 and this
    suite's 11."""
    seed = request.param
    factory = PromptFactory(rng=np.random.default_rng(seed))
    prompts = [factory.make_prompt() for _ in range(1500)]
    reference = reference_fit([p.text for p in prompts], [p.category for p in prompts])
    return CategoryClassifier().fit_synthetic(seed=seed), reference


class TestDenseOracle:
    """The sparse fit against the dense featuriser and fit it replaced
    (``tests/classify_oracle.py``), byte for byte."""

    def test_fit_synthetic_matches_dense_fit(self, fitted_pair):
        clf, (classes, log_prior, log_likelihood) = fitted_pair
        assert clf._nb.classes == classes
        assert clf._nb._log_prior.tobytes() == log_prior.tobytes()
        assert clf._nb._log_likelihood.tobytes() == log_likelihood.tobytes()

    def test_predictions_match_dense_scores(self, fitted_pair):
        clf, (classes, log_prior, log_likelihood) = fitted_pair
        factory = PromptFactory(rng=np.random.default_rng(500))
        texts = [factory.make_prompt().text for _ in range(500)]
        dense = reference_transform_batch(texts, 4096)
        scores = dense @ log_likelihood.T + log_prior
        features = clf._hasher.transform_batch(texts)
        assert features.tobytes() == dense.tobytes()
        assert clf._nb.log_posterior(features).tobytes() == scores.tobytes()
        assert clf.predict_batch(texts) == [classes[i] for i in np.argmax(scores, axis=1)]
        for text, row in zip(texts[:50], dense):
            assert clf._hasher.transform(text).tobytes() == row.tobytes()

    def test_dense_nb_fit_matches_reference_on_real_valued_rows(self):
        rng = np.random.default_rng(3)
        matrix = rng.random((40, 9)) * 3.0
        labels = [int(i) for i in rng.integers(0, 4, size=40)]
        nb = MultinomialNaiveBayes(alpha=0.3).fit(matrix, labels)
        classes, log_prior, log_likelihood = reference_nb_fit(matrix, labels, 0.3)
        assert nb.classes == classes
        assert nb._log_prior.tobytes() == log_prior.tobytes()
        assert nb._log_likelihood.tobytes() == log_likelihood.tobytes()

    def test_fit_memory_stays_sparse(self):
        # The dense fit held two 1,500 x 4,096 float64 matrices (about
        # 95 MiB at peak); the sparse one needs a few MiB.
        tracemalloc.start()
        try:
            CategoryClassifier().fit_synthetic(n_train=1500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_mismatched_fit_rejected(self):
        with pytest.raises(ValueError):
            CategoryClassifier().fit(["one text", "two texts"], ["coding"])
        with pytest.raises(ValueError):
            MultinomialNaiveBayes().fit_counts(["a", "b"], np.ones((1, 3)), np.ones(2))
