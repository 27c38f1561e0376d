"""Tests for the Evaluator harness and the case-study tooling."""

import numpy as np
import pytest

from repro.evaluation import Evaluator, format_case_study, run_case_study, top_k_indices
from repro.models import CooccurrenceRecommender, PopularityRecommender
from repro.models.base import HerbRecommender


class _OracleRecommender(HerbRecommender):
    """Scores the true herbs of each test prescription highest (for testing)."""

    def __init__(self, dataset):
        self._dataset = dataset
        self._lookup = {p.symptoms: p.herbs for p in dataset}

    @property
    def num_herbs(self):
        return self._dataset.num_herbs

    def score_sets(self, symptom_sets):
        scores = np.zeros((len(symptom_sets), self.num_herbs))
        for row, symptoms in enumerate(symptom_sets):
            herbs = self._lookup.get(tuple(symptoms), ())
            scores[row, list(herbs)] = 1.0
        return scores


class _BadShapeRecommender(HerbRecommender):
    def __init__(self, num_herbs):
        self._num_herbs = num_herbs

    @property
    def num_herbs(self):
        return self._num_herbs

    def score_sets(self, symptom_sets):
        return np.zeros((len(symptom_sets), self._num_herbs + 1))


class _FixedScores(HerbRecommender):
    """Returns one fixed score vector for every symptom set."""

    def __init__(self, scores):
        self._scores = np.asarray(scores, dtype=np.float64)

    @property
    def num_herbs(self):
        return self._scores.shape[0]

    def score_sets(self, symptom_sets):
        return np.tile(self._scores, (len(symptom_sets), 1))


class TestRecommendTieOrder:
    def test_tied_scores_rank_by_ascending_herb_id(self):
        model = _FixedScores([1, 3, 3, 0, 3, 1, 2, 3])
        assert model.recommend((0,), k=6) == [1, 2, 4, 7, 6, 0]

    def test_matches_canonical_top_k_on_integer_scores(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            scores = rng.integers(0, 5, size=200).astype(np.float64)
            expected = top_k_indices(scores[None, :], 20)[0].tolist()
            assert _FixedScores(scores).recommend((0,), k=20) == expected

    def test_k_beyond_vocabulary_returns_every_herb(self):
        assert _FixedScores([2.0, 5.0, 2.0]).recommend((0,), k=10) == [1, 0, 2]


class TestEvaluator:
    def test_oracle_gets_perfect_precision_at_small_k(self, tiny_split):
        _, test = tiny_split
        evaluator = Evaluator(test, ks=(5,))
        oracle = _OracleRecommender(test)
        result = evaluator.evaluate(oracle, name="oracle")
        # every test prescription has at least 5 herbs in the tiny corpus, so the
        # oracle is near-perfect (duplicate symptom sets with different herb sets
        # can cost a fraction of a point)
        min_herbs = min(p.num_herbs for p in test)
        if min_herbs >= 5:
            assert result.metric("p@5") >= 0.95
        assert result.metric("r@5") > 0.3
        assert result.model_name == "oracle"
        assert result.num_prescriptions == len(test)

    def test_popularity_vs_cooccurrence_ordering(self, tiny_split):
        train, test = tiny_split
        evaluator = Evaluator(test, ks=(5, 10))
        pop = evaluator.evaluate(PopularityRecommender(train.num_herbs).fit(train))
        cooc = evaluator.evaluate(
            CooccurrenceRecommender(train.num_symptoms, train.num_herbs).fit(train)
        )
        assert cooc.metric("ndcg@10") >= pop.metric("ndcg@10") - 1e-9

    def test_score_matrix_shape(self, tiny_split):
        train, test = tiny_split
        evaluator = Evaluator(test, ks=(5,), batch_size=16)
        scores = evaluator.score_matrix(PopularityRecommender(train.num_herbs).fit(train))
        assert scores.shape == (len(test), test.num_herbs)

    def test_bad_score_shape_rejected(self, tiny_split):
        _, test = tiny_split
        evaluator = Evaluator(test, ks=(5,))
        with pytest.raises(ValueError):
            evaluator.score_matrix(_BadShapeRecommender(test.num_herbs))

    def test_metric_keys(self, tiny_split):
        _, test = tiny_split
        evaluator = Evaluator(test, ks=(5, 20))
        assert evaluator.metric_keys() == ("p@5", "p@20", "r@5", "r@20", "ndcg@5", "ndcg@20")

    def test_result_as_row_and_missing_metric(self, tiny_split):
        train, test = tiny_split
        evaluator = Evaluator(test, ks=(5,))
        result = evaluator.evaluate(PopularityRecommender(train.num_herbs).fit(train), name="pop")
        row = result.as_row(["p@5"])
        assert row["model"] == "pop"
        with pytest.raises(KeyError):
            result.metric("p@999")

    def test_invalid_construction(self, tiny_split):
        _, test = tiny_split
        with pytest.raises(ValueError):
            Evaluator(test, ks=())
        with pytest.raises(ValueError):
            Evaluator(test, ks=(0,))
        with pytest.raises(ValueError):
            Evaluator(test, batch_size=0)


class TestCaseStudy:
    def test_entries_have_token_names(self, tiny_split):
        train, test = tiny_split
        model = CooccurrenceRecommender(train.num_symptoms, train.num_herbs).fit(train)
        entries = run_case_study(model, test, num_cases=3, top_k=5, rng=np.random.default_rng(0))
        assert len(entries) == 3
        for entry in entries:
            assert all(isinstance(s, str) and s.startswith("symptom_") for s in entry.symptoms)
            assert all(isinstance(h, str) and h.startswith("herb_") for h in entry.recommended_herbs)
            assert len(entry.recommended_herbs) == 5
            assert set(entry.hits) <= set(entry.true_herbs)
            assert 0.0 <= entry.precision <= 1.0
            assert 0.0 <= entry.recall <= 1.0

    def test_explicit_indices(self, tiny_split):
        train, test = tiny_split
        model = PopularityRecommender(train.num_herbs).fit(train)
        entries = run_case_study(model, test, indices=[0, 1], top_k=3)
        assert len(entries) == 2
        assert entries[0].symptoms == test.symptom_vocab.decode(test[0].symptoms)

    def test_oracle_case_study_hits_everything(self, tiny_split):
        _, test = tiny_split
        oracle = _OracleRecommender(test)
        entries = run_case_study(oracle, test, indices=[0], top_k=test[0].num_herbs)
        assert set(entries[0].hits) == set(entries[0].true_herbs)

    def test_format_output(self, tiny_split):
        train, test = tiny_split
        model = PopularityRecommender(train.num_herbs).fit(train)
        entries = run_case_study(model, test, num_cases=2, top_k=4, rng=np.random.default_rng(1))
        text = format_case_study(entries)
        assert "Case 1" in text and "Case 2" in text
        assert "Symptom set" in text

    def test_invalid_top_k(self, tiny_split):
        train, test = tiny_split
        model = PopularityRecommender(train.num_herbs).fit(train)
        with pytest.raises(ValueError):
            run_case_study(model, test, top_k=0)
