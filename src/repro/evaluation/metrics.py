"""Ranking metrics: Precision@K, Recall@K and NDCG@K (paper Eqs. 16-18).

All metrics operate on a score matrix (one row per test prescription, one
column per herb) and the ground-truth herb sets, truncate the ranking at K and
are averaged over prescriptions, exactly as in the paper's evaluation
protocol (truncation at 20, reported at K in {5, 10, 20}).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

__all__ = [
    "top_k_indices",
    "precision_at_k",
    "recall_at_k",
    "ndcg_at_k",
    "evaluate_ranking",
]


def top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the top-``k`` entries per row, ordered by decreasing score.

    Ties are broken by ascending index, so the result equals a stable sort of
    the negated scores cut at ``k`` and the ranking is a deterministic
    function of the score values alone.  That canonical order is what lets
    the engine's top-k path reproduce this function exactly from per-shard
    candidate lists: each shard selects with it, and
    :func:`repro.inference.sharding.merge_topk` ranks the stacked candidates
    with it once more — every prefix of the full ranking is well defined
    even across tied scores at shard boundaries.

    Only the survivors are sorted.  ``argpartition`` finds each row's
    ``k``-th best score (the boundary); every id scoring at least the
    boundary survives.  A row has exactly ``k`` survivors unless scores tie
    at the boundary: those ids are sorted ascending and then stable-sorted by
    score; a row with extra boundary ties stable-sorts all of its survivors
    (ascending ids from its mask) and keeps ``k``.  The cost is
    ``O(H + s log s)`` per row for ``H`` columns and ``s`` survivors instead
    of ``O(H log H)``.  ``+0.0`` and ``-0.0`` compare equal in both the
    partition and the mask, so they tie by id exactly as in the full sort.
    When ``k`` covers every column or any score is NaN (NaNs rank last) the
    full stable sort runs instead.
    """
    if scores.ndim != 2:
        raise ValueError("scores must be a 2-D matrix")
    if k <= 0:
        raise ValueError("k must be positive")
    k = min(k, scores.shape[1])
    negated = -scores
    if k == scores.shape[1] or np.isnan(negated).any():
        return np.argsort(negated, axis=1, kind="stable")[:, :k]
    partition = np.argpartition(negated, k - 1, axis=1)
    boundary = np.take_along_axis(negated, partition[:, k - 1 : k], axis=1)
    top = np.sort(partition[:, :k], axis=1)
    del partition  # peak memory stays at the full sort's: one negated copy, one index matrix
    order = np.argsort(np.take_along_axis(negated, top, axis=1), axis=1, kind="stable")
    top = np.take_along_axis(top, order, axis=1)
    survivors = np.count_nonzero(negated <= boundary, axis=1)
    for row in np.flatnonzero(survivors > k):
        ids = np.flatnonzero(negated[row] <= boundary[row, 0])
        top[row] = ids[np.argsort(negated[row, ids], kind="stable")[:k]]
    return top


def _truth_matrix(truth_sets: Sequence[Sequence[int]], num_items: int) -> np.ndarray:
    """Boolean multi-hot matrix: ``truth[row, item]`` iff ``item`` is relevant."""
    truth = np.zeros((len(truth_sets), num_items), dtype=bool)
    lengths = np.array([len(t) for t in truth_sets], dtype=np.int64)
    if lengths.sum() == 0:
        return truth
    rows = np.repeat(np.arange(len(truth_sets), dtype=np.int64), lengths)
    cols = np.concatenate([np.asarray(t, dtype=np.int64) for t in truth_sets if len(t)])
    if cols.min() < 0 or cols.max() >= num_items:
        raise ValueError(f"truth ids must lie in [0, {num_items}); got range [{cols.min()}, {cols.max()}]")
    truth[rows, cols] = True
    return truth


def _gather_hits(top: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """``hits[row, j]`` is True when the ``j``-th recommendation is relevant."""
    return truth[np.arange(top.shape[0])[:, None], top]


def _precision(top: np.ndarray, truth: np.ndarray) -> float:
    """Eq. 16: hits over the *effective* list length ``min(k, num_herbs)``.

    When fewer than ``k`` herbs exist every herb is recommended, and dividing
    by the requested ``k`` would deflate the score of a perfect ranking.
    """
    return float(_gather_hits(top, truth).sum(axis=1).mean() / top.shape[1])


def _recall(top: np.ndarray, truth: np.ndarray) -> float:
    hits = _gather_hits(top, truth)
    relevant = truth.sum(axis=1)
    valid = relevant > 0
    if not valid.any():
        return 0.0
    return float((hits.sum(axis=1)[valid] / relevant[valid]).mean())


def _ndcg(top: np.ndarray, truth: np.ndarray) -> float:
    hits = _gather_hits(top, truth).astype(np.float64)
    k_eff = top.shape[1]
    discounts = 1.0 / np.log2(np.arange(2, k_eff + 2))
    relevant = truth.sum(axis=1)
    valid = relevant > 0
    if not valid.any():
        return 0.0
    dcg = hits @ discounts
    ideal_hits = np.minimum(relevant, k_eff)
    idcg_table = np.concatenate([[0.0], np.cumsum(discounts)])
    idcg = idcg_table[ideal_hits]
    with np.errstate(divide="ignore", invalid="ignore"):
        ndcgs = np.where(idcg > 0, dcg / np.maximum(idcg, 1e-300), 0.0)
    return float(ndcgs[valid].mean())


def precision_at_k(scores: np.ndarray, truth_sets: Sequence[Sequence[int]], k: int) -> float:
    """Mean fraction of the top-``k`` recommendations that are true herbs (Eq. 16)."""
    _validate(scores, truth_sets)
    return _precision(top_k_indices(scores, k), _truth_matrix(truth_sets, scores.shape[1]))


def recall_at_k(scores: np.ndarray, truth_sets: Sequence[Sequence[int]], k: int) -> float:
    """Mean fraction of true herbs covered by the top-``k`` recommendations (Eq. 17)."""
    _validate(scores, truth_sets)
    return _recall(top_k_indices(scores, k), _truth_matrix(truth_sets, scores.shape[1]))


def ndcg_at_k(scores: np.ndarray, truth_sets: Sequence[Sequence[int]], k: int) -> float:
    """Normalised Discounted Cumulative Gain at ``k`` with binary relevance (Eq. 18)."""
    _validate(scores, truth_sets)
    return _ndcg(top_k_indices(scores, k), _truth_matrix(truth_sets, scores.shape[1]))


def evaluate_ranking(
    scores: np.ndarray,
    truth_sets: Sequence[Sequence[int]],
    ks: Iterable[int] = (5, 10, 20),
) -> Dict[str, float]:
    """All three metrics at every requested ``k``, keyed like ``p@5`` / ``r@10`` / ``ndcg@20``.

    The truth matrix is ``k``-independent, and the matrix is ranked once at
    ``max(ks)``: each smaller cut is a prefix of that canonical ranking, so
    every metric at every ``k`` shares one top-k pass — this sits on the
    evaluation hot path.
    """
    _validate(scores, truth_sets)
    ks = list(ks)
    if any(k <= 0 for k in ks):
        raise ValueError("k must be positive")
    truth = _truth_matrix(truth_sets, scores.shape[1])
    results: Dict[str, float] = {}
    ranked = top_k_indices(scores, max(ks, default=1))
    for k in ks:
        top = ranked[:, :k]
        results[f"p@{k}"] = _precision(top, truth)
        results[f"r@{k}"] = _recall(top, truth)
        results[f"ndcg@{k}"] = _ndcg(top, truth)
    return results


def _validate(scores: np.ndarray, truth_sets: Sequence[Sequence[int]]) -> None:
    if scores.ndim != 2:
        raise ValueError("scores must be a 2-D matrix")
    if scores.shape[0] != len(truth_sets):
        raise ValueError(
            f"scores has {scores.shape[0]} rows but {len(truth_sets)} truth sets were provided"
        )
