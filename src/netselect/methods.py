"""The five ranking methods behind one interface.

``msaw`` is the rank-income method: instead of aggregating normalized
values it sorts each criterion column, converts the per-criterion rank
positions into weighted incomes, and sums those. Because only positions
enter the score, the method is invariant under any strictly monotone
rescaling of a column and, empirically, far more stable when alternatives
appear or disappear.

``saw``, ``wpm``, ``topsis``, and ``ahp`` are the classic value-based
baselines in their standard textbook forms.

All methods score so that higher is better, and all orders are invariant
under positive rescaling of the weight vector.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    DecisionMatrix,
    MatrixValidationError,
    RankingResult,
    Violation,
    as_weight_array,
    normalize_values,
    require_valid,
)


class TiePolicy(Enum):
    """How equal raw values share rank positions inside a criterion column.

    STABLE_INDEX breaks ties by original row order (what a stable sort
    produces); MEAN_RANK gives every tied alternative the mean of the
    positions the group spans, which makes the scores independent of row
    order.
    """

    STABLE_INDEX = "stable"
    MEAN_RANK = "mean"

    @classmethod
    def parse(cls, text: str) -> "TiePolicy":
        token = text.strip().lower()
        for member in cls:
            if token == member.value:
                return member
        raise ValueError(f"unknown tie policy {text!r}; expected 'stable' or 'mean'")


@dataclass(frozen=True)
class MsawIncomeBreakdown:
    """Per-criterion rank positions and incomes behind an msaw ranking.

    ``ranks[i, j]`` is the position (0 = best) of alternative i in
    criterion j's ordering; ``income[i, j] = (alpha - ranks[i, j]) * w_j``.
    """

    alternatives: tuple[str, ...]
    criteria: tuple[str, ...]
    ranks: np.ndarray
    income: np.ndarray
    alpha: int

    def __post_init__(self):
        for name in ("ranks", "income"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _column_positions(column: np.ndarray, benefit: bool, tie: TiePolicy) -> np.ndarray:
    """Positions (0 = best) of each alternative within one criterion column."""
    key = -column if benefit else column
    order = np.argsort(key, kind="stable")
    positions = np.empty(len(column), dtype=float)
    positions[order] = np.arange(len(column), dtype=float)
    if tie is TiePolicy.MEAN_RANK:
        sorted_key = key[order]
        start = 0
        while start < len(column):
            stop = start
            while stop + 1 < len(column) and sorted_key[stop + 1] == sorted_key[start]:
                stop += 1
            if stop > start:
                positions[order[start : stop + 1]] = (start + stop) / 2.0
            start = stop + 1
    return positions


def _msaw_income(values, benefit, w, tie, alpha):
    """Rank positions, per-criterion incomes and the resolved alpha."""
    n = values.shape[0]
    if alpha is None:
        alpha = n
    elif alpha < n:
        raise ValueError(f"alpha must be >= number of alternatives ({n}), got {alpha}")
    ranks = np.column_stack(
        [_column_positions(values[:, j], benefit[j], tie) for j in range(values.shape[1])]
    )
    return ranks, (alpha - ranks) * w[None, :], alpha


def _score_msaw(values, benefit, w, tie, alpha):
    return _msaw_income(values, benefit, w, tie, alpha)[1].sum(axis=1)


def _score_saw(values, benefit, w, tie, alpha):
    return normalize_values(values, benefit) @ w


def _score_wpm(values, benefit, w, tie, alpha):
    nonpositive = np.argwhere(values <= 0.0)
    if nonpositive.size:
        row, col = (int(x) for x in nonpositive[0])
        message = "weighted product needs strictly positive values"
        raise MatrixValidationError([Violation("nonpositive_value", message, row=row, col=col)])
    return np.prod(normalize_values(values, benefit) ** w[None, :], axis=1)


def _score_topsis(values, benefit, w, tie, alpha):
    # Dividing by the column max first keeps the Euclidean norm within
    # [1, sqrt(n)], so it can neither overflow nor underflow; every column
    # max of a valid matrix is positive.
    scaled = values / values.max(axis=0)
    weighted = scaled / np.linalg.norm(scaled, axis=0) * w[None, :]
    ideal = np.where(benefit, weighted.max(axis=0), weighted.min(axis=0))
    anti_ideal = np.where(benefit, weighted.min(axis=0), weighted.max(axis=0))
    dist_ideal = np.linalg.norm(weighted - ideal[None, :], axis=1)
    dist_anti = np.linalg.norm(weighted - anti_ideal[None, :], axis=1)
    total = dist_ideal + dist_anti
    # All alternatives identical: every point is both ideal and anti-ideal.
    return np.where(total > 0.0, dist_anti / np.where(total > 0.0, total, 1.0), 0.5)


def _score_ahp(values, benefit, w, tie, alpha):
    local = np.empty_like(values)
    for j in range(values.shape[1]):
        column = values[:, j]
        adjusted = column if benefit[j] else 1.0 / column
        local[:, j] = adjusted / adjusted.sum()
    return local @ w


# Each scorer maps the raw values of a validated matrix, its benefit mask, the
# weight array, tie and alpha (read by msaw only) to one score per alternative.
_SCORERS = {
    "msaw": _score_msaw,
    "saw": _score_saw,
    "wpm": _score_wpm,
    "topsis": _score_topsis,
    "ahp": _score_ahp,
}
METHODS = tuple(_SCORERS)


def _checked(matrix: DecisionMatrix, weights):
    require_valid(matrix)
    return matrix.values, matrix.benefit_mask, as_weight_array(weights, matrix.n_criteria)


def rank(
    matrix: DecisionMatrix,
    weights,
    method: str,
    tie: TiePolicy = TiePolicy.MEAN_RANK,
    alpha: int | None = None,
) -> RankingResult:
    """Run one method by identifier; ``tie`` and ``alpha`` apply to msaw only.

    This is the single entry point of every method: it rejects an unknown
    identifier, checks the matrix (see :func:`require_valid`) and the
    weights once, and scores with the method's entry in the method table.
    """
    scorer = _SCORERS.get(method)
    if scorer is None:
        raise ValueError(f"unknown method {method!r}; expected one of {', '.join(METHODS)}")
    scores = scorer(*_checked(matrix, weights), tie, alpha)
    return RankingResult.from_scores(method, matrix.alternatives, scores)


def rank_msaw(
    matrix: DecisionMatrix,
    weights,
    tie: TiePolicy = TiePolicy.MEAN_RANK,
    alpha: int | None = None,
) -> tuple[RankingResult, MsawIncomeBreakdown]:
    """Rank-income scoring, with the per-criterion income breakdown.

    For each criterion, alternatives are ordered best first (descending raw
    value for Benefit criteria, ascending for Cost), each receives the
    income (alpha - position) * weight, and an alternative's total score is
    the sum of its incomes. ``alpha`` defaults to the number of
    alternatives; any larger value only shifts every score by the same
    constant, so the order never depends on it.
    """
    ranks, income, alpha = _msaw_income(*_checked(matrix, weights), tie, alpha)
    result = RankingResult.from_scores("msaw", matrix.alternatives, income.sum(axis=1))
    breakdown = MsawIncomeBreakdown(
        alternatives=matrix.alternatives,
        criteria=matrix.criterion_names,
        ranks=ranks,
        income=income,
        alpha=int(alpha),
    )
    return result, breakdown


def rank_saw(matrix: DecisionMatrix, weights) -> RankingResult:
    """Simple additive weighting: weighted sum of the normalized matrix."""
    return rank(matrix, weights, "saw")


def rank_wpm(matrix: DecisionMatrix, weights) -> RankingResult:
    """Weighted product: multiply normalized values raised to their weights.

    Requires every raw value to be strictly positive, including in Benefit
    columns.
    """
    return rank(matrix, weights, "wpm")


def rank_topsis(matrix: DecisionMatrix, weights) -> RankingResult:
    """Closeness to the ideal point over the anti-ideal point.

    Columns are normalized by their Euclidean norm and weighted; the ideal
    takes each column's best weighted entry (max for Benefit, min for
    Cost), the anti-ideal the worst. Scores are d-/(d+ + d-) in [0, 1].
    """
    return rank(matrix, weights, "topsis")


def rank_ahp(matrix: DecisionMatrix, weights) -> RankingResult:
    """Weighted sum of per-criterion local priorities.

    Each column is direction-adjusted (reciprocals for Cost criteria) and
    normalized to sum 1, giving local priorities that play the role of the
    alternative-level eigenvectors in a full pairwise hierarchy.
    """
    return rank(matrix, weights, "ahp")
