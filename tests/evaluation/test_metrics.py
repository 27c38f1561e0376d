"""Tests for the ranking metrics (paper Eqs. 16-18)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.evaluation import (
    evaluate_ranking,
    ndcg_at_k,
    precision_at_k,
    recall_at_k,
    top_k_indices,
)


class TestTopK:
    def test_orders_by_score(self):
        scores = np.array([[0.1, 0.9, 0.5, 0.7]])
        np.testing.assert_array_equal(top_k_indices(scores, 3)[0], [1, 3, 2])

    def test_k_larger_than_items(self):
        scores = np.array([[0.3, 0.1]])
        assert top_k_indices(scores, 10).shape == (1, 2)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            top_k_indices(np.zeros(3), 1)
        with pytest.raises(ValueError):
            top_k_indices(np.zeros((2, 3)), 0)


def stable_argsort_top_k(scores, k):
    """The canonical order spelled out: a full stable sort of the negated scores."""
    return np.argsort(-scores, axis=1, kind="stable")[:, :k]


#: Few distinct values, so most rows tie at their k-th score; ``-0.0`` and
#: ``0.0`` compare equal and must tie by id like any other pair.
TIED_VALUES = [-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, np.inf, -np.inf]


@st.composite
def scores_and_k(draw, elements=st.sampled_from(TIED_VALUES), max_rows=6, max_cols=40):
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    num_cols = draw(st.integers(1, max_cols))
    shape = (draw(st.integers(0, max_rows)), num_cols)
    scores = draw(arrays(dtype, shape, elements=elements))
    return scores, draw(k_for(num_cols))


def k_for(num_cols):
    """The edge cuts 1, n-1, n, n+5, or any cut in between."""
    edges = st.sampled_from([1, max(1, num_cols - 1), num_cols, num_cols + 5])
    return edges | st.integers(1, max(1, num_cols))


def assert_canonical(scores, k):
    expected = stable_argsort_top_k(scores, k)
    got = top_k_indices(scores, k)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)


class TestTopKMatchesStableSort:
    """``top_k_indices`` returns exactly the cut of a full stable argsort."""

    @settings(max_examples=300, deadline=None)
    @given(scores_and_k())
    def test_boundary_ties_signed_zeros_and_infinities(self, case):
        assert_canonical(*case)

    @settings(max_examples=150, deadline=None)
    @given(scores_and_k(elements=st.sampled_from(TIED_VALUES + [np.nan])))
    def test_rows_with_nan(self, case):
        assert_canonical(*case)

    @settings(max_examples=150, deadline=None)
    @given(
        scores_and_k(elements=st.floats(-1e6, 1e6, width=32) | st.sampled_from(TIED_VALUES))
    )
    def test_mixed_real_and_tied_scores(self, case):
        assert_canonical(*case)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_non_contiguous_views(self, data):
        scores, _ = data.draw(scores_and_k(max_rows=8))
        view = data.draw(st.sampled_from(["every_other_column", "first_rows", "transpose"]))
        scores = {
            "every_other_column": scores[:, ::2],
            "first_rows": scores[:3],
            "transpose": scores.T,
        }[view]
        if scores.shape[1] == 0:
            return
        assert_canonical(scores, data.draw(k_for(scores.shape[1])))

    def test_boundary_tie_keeps_lowest_ids(self):
        # Row 0 has one clear winner (id 110) and 60 ids tied at 1.0; with
        # k=4 the boundary value is 1.0, so 61 ids survive the partition and
        # the three lowest tied ids must fill the list.  Row 1 has no tie.
        rng = np.random.default_rng(3)
        scores = rng.uniform(-1.0, 0.5, size=(2, 120))
        tied = rng.choice(100, size=60, replace=False)
        scores[0, tied] = 1.0
        scores[0, 110] = 2.0
        k = 4
        assert np.count_nonzero(scores[0] >= 1.0) > k
        top = top_k_indices(scores, k)
        np.testing.assert_array_equal(top[0], [110, *np.sort(tied)[:3]])
        np.testing.assert_array_equal(top, stable_argsort_top_k(scores, k))


class TestPrecisionRecall:
    def test_perfect_ranking(self):
        scores = np.array([[0.9, 0.8, 0.1, 0.0]])
        truth = [(0, 1)]
        assert precision_at_k(scores, truth, 2) == pytest.approx(1.0)
        assert recall_at_k(scores, truth, 2) == pytest.approx(1.0)

    def test_half_hit(self):
        scores = np.array([[0.9, 0.1, 0.8, 0.0]])
        truth = [(0, 1)]
        assert precision_at_k(scores, truth, 2) == pytest.approx(0.5)
        assert recall_at_k(scores, truth, 2) == pytest.approx(0.5)

    def test_precision_denominator_is_k(self):
        # one relevant herb, k=5: precision can be at most 1/5
        scores = np.array([[1.0, 0.9, 0.8, 0.7, 0.6, 0.0]])
        truth = [(0,)]
        assert precision_at_k(scores, truth, 5) == pytest.approx(0.2)
        assert recall_at_k(scores, truth, 5) == pytest.approx(1.0)

    def test_averaged_over_prescriptions(self):
        scores = np.array([[1.0, 0.0], [0.0, 1.0]])
        truth = [(0,), (0,)]
        assert precision_at_k(scores, truth, 1) == pytest.approx(0.5)

    def test_mismatched_rows_rejected(self):
        with pytest.raises(ValueError):
            precision_at_k(np.zeros((2, 3)), [(0,)], 1)

    def test_precision_uses_effective_k_when_k_exceeds_items(self):
        # 3 herbs, k=10: every herb is recommended, so a ranking that covers
        # all the truth is perfect — dividing by the requested k=10 would
        # wrongly report 3/10
        scores = np.array([[0.9, 0.8, 0.7]])
        truth = [(0, 1, 2)]
        assert precision_at_k(scores, truth, 10) == pytest.approx(1.0)
        assert recall_at_k(scores, truth, 10) == pytest.approx(1.0)

    def test_precision_effective_k_partial_hits(self):
        # 4 herbs, k=9 clamps to 4; two of the four recommended are relevant
        scores = np.array([[0.9, 0.8, 0.7, 0.6]])
        truth = [(0, 2)]
        assert precision_at_k(scores, truth, 9) == pytest.approx(0.5)


class TestNDCG:
    def test_perfect_is_one(self):
        scores = np.array([[0.9, 0.8, 0.7, 0.0]])
        truth = [(0, 1, 2)]
        assert ndcg_at_k(scores, truth, 3) == pytest.approx(1.0)

    def test_position_matters(self):
        truth = [(0,)]
        early = ndcg_at_k(np.array([[0.9, 0.5, 0.4]]), truth, 3)
        late = ndcg_at_k(np.array([[0.4, 0.5, 0.9]]), truth, 3)
        assert early > late
        assert early == pytest.approx(1.0)
        assert late == pytest.approx(1.0 / np.log2(4))

    def test_no_hits_is_zero(self):
        scores = np.array([[0.9, 0.8, 0.0]])
        truth = [(2,)]
        assert ndcg_at_k(scores, truth, 2) == pytest.approx(0.0)

    def test_idcg_truncation(self):
        # 5 relevant herbs but k=2: ideal DCG uses only the first two positions
        scores = np.array([[1.0, 0.9, 0.1, 0.1, 0.1, 0.0]])
        truth = [(0, 1, 2, 3, 4)]
        assert ndcg_at_k(scores, truth, 2) == pytest.approx(1.0)


class TestEvaluateRanking:
    def test_contains_all_keys(self):
        scores = np.array([[0.5, 0.1, 0.9]])
        truth = [(2,)]
        metrics = evaluate_ranking(scores, truth, ks=(1, 2))
        assert set(metrics) == {"p@1", "r@1", "ndcg@1", "p@2", "r@2", "ndcg@2"}

    def test_non_positive_k_rejected_alongside_valid_ones(self):
        with pytest.raises(ValueError, match="positive"):
            evaluate_ranking(np.array([[0.5, 0.1, 0.9]]), [(2,)], ks=(2, 0))

    def test_recall_monotone_in_k(self):
        rng = np.random.default_rng(0)
        scores = rng.random((20, 30))
        truth = [tuple(rng.choice(30, size=5, replace=False)) for _ in range(20)]
        metrics = evaluate_ranking(scores, truth, ks=(5, 10, 20))
        assert metrics["r@5"] <= metrics["r@10"] <= metrics["r@20"]

    def test_precision_decreasing_in_k_for_strong_ranker(self):
        # When the ranker puts the 3 relevant herbs first, p@5 = 3/5 > p@20 = 3/20.
        num_herbs = 40
        scores = np.zeros((10, num_herbs))
        truth = []
        rng = np.random.default_rng(1)
        for row in range(10):
            relevant = rng.choice(num_herbs, size=3, replace=False)
            scores[row, relevant] = [3.0, 2.0, 1.0]
            truth.append(tuple(relevant))
        metrics = evaluate_ranking(scores, truth, ks=(5, 20))
        assert metrics["p@5"] == pytest.approx(3 / 5)
        assert metrics["p@20"] == pytest.approx(3 / 20)

    def test_random_scores_near_chance(self):
        rng = np.random.default_rng(2)
        num_herbs = 100
        scores = rng.random((200, num_herbs))
        truth = [tuple(rng.choice(num_herbs, size=10, replace=False)) for _ in range(200)]
        p5 = precision_at_k(scores, truth, 5)
        assert abs(p5 - 10 / num_herbs) < 0.05


class TestVectorizedAgainstReference:
    """The NumPy-vectorized metrics must equal a straightforward Python loop."""

    @staticmethod
    def _reference_metrics(scores, truth_sets, k):
        top = top_k_indices(scores, k)
        k_eff = top.shape[1]
        discounts = 1.0 / np.log2(np.arange(2, k_eff + 2))
        precisions, recalls, ndcgs = [], [], []
        for row, truth in enumerate(truth_sets):
            truth_set = set(truth)
            hits = np.array([1.0 if herb in truth_set else 0.0 for herb in top[row]])
            precisions.append(hits.sum() / k_eff)
            if not truth_set:
                continue
            recalls.append(hits.sum() / len(truth_set))
            idcg = discounts[: min(len(truth_set), k_eff)].sum()
            ndcgs.append((hits * discounts).sum() / idcg if idcg > 0 else 0.0)
        return (
            float(np.mean(precisions)),
            float(np.mean(recalls)) if recalls else 0.0,
            float(np.mean(ndcgs)) if ndcgs else 0.0,
        )

    @pytest.mark.parametrize("k", [1, 5, 10, 50])
    def test_matches_reference_on_random_data(self, k):
        rng = np.random.default_rng(17)
        num_herbs = 40
        scores = rng.normal(size=(60, num_herbs))
        truth = [
            tuple(rng.choice(num_herbs, size=int(rng.integers(0, 12)), replace=False))
            for _ in range(60)
        ]
        ref_p, ref_r, ref_n = self._reference_metrics(scores, truth, k)
        assert precision_at_k(scores, truth, k) == pytest.approx(ref_p)
        assert recall_at_k(scores, truth, k) == pytest.approx(ref_r)
        assert ndcg_at_k(scores, truth, k) == pytest.approx(ref_n)

    def test_all_empty_truth_sets(self):
        scores = np.random.default_rng(5).random((4, 6))
        truth = [(), (), (), ()]
        assert recall_at_k(scores, truth, 3) == 0.0
        assert ndcg_at_k(scores, truth, 3) == 0.0
        assert precision_at_k(scores, truth, 3) == 0.0

    def test_out_of_range_truth_ids_rejected(self):
        scores = np.zeros((1, 5))
        with pytest.raises(ValueError, match="truth ids"):
            recall_at_k(scores, [(7,)], 3)
        with pytest.raises(ValueError, match="truth ids"):
            precision_at_k(scores, [(-1,)], 3)

    def test_evaluate_ranking_matches_individual_metrics(self):
        rng = np.random.default_rng(23)
        scores = rng.normal(size=(30, 25))
        truth = [tuple(rng.choice(25, size=4, replace=False)) for _ in range(30)]
        metrics = evaluate_ranking(scores, truth, ks=(3, 7))
        for k in (3, 7):
            assert metrics[f"p@{k}"] == pytest.approx(precision_at_k(scores, truth, k))
            assert metrics[f"r@{k}"] == pytest.approx(recall_at_k(scores, truth, k))
            assert metrics[f"ndcg@{k}"] == pytest.approx(ndcg_at_k(scores, truth, k))
