"""The five ranking methods behind one interface.

``msaw`` is the rank-income method: instead of aggregating normalized
values it sorts each criterion column, converts the per-criterion rank
positions into weighted incomes, and sums those. Because only positions
enter the score, the method is invariant under any strictly monotone
rescaling of a column. That does not make it stable when alternatives
appear or disappear: over 10^5 Monte-Carlo trials of the example scenario
(``preset:voip``, seed 7), removing one alternative reversed msaw's order in
36.5% of trials, saw's in 14.9%, topsis's in 20.0%, ahp's in 23.8% and
wpm's in none.

``saw``, ``wpm``, ``topsis``, and ``ahp`` are the classic value-based
baselines in their standard textbook forms.

Every method is one array function in the method table. It reads a raw
grid with alternatives on axis 0 and criteria on axis 1; the experiments
in :mod:`netselect.analysis` pass stacks ``(n, m, T)`` with T grids side
by side on the last axis, scored by the same function, with the same
numbers as :func:`rank` gives each grid (see the scorer layout comment
below and :func:`_grid_sum`).

All methods score so that higher is better. Orders are invariant under
positive rescaling of weights of ordinary magnitude (such as weights that
sum to 1). Tie groups use the absolute tolerance of
:func:`core.tie_order`, so at extreme weight scales scores collapse into
one tie group (saw, wpm and ahp at weights x 1e-9 on the bundled
benchmark) or wpm's product underflows to 0 (at x 1e6). topsis divides the
weights by their max first, so its order holds at every weight scale.
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


def _column_positions(values: np.ndarray, benefit: np.ndarray, tie: TiePolicy) -> np.ndarray:
    """Positions (0 = best) of each alternative (axis 0) within each criterion column.

    A stable sort along axis 0 orders the alternatives of every column. Under
    MEAN_RANK a run of equal keys spans sorted places start..stop, found by
    running max/min over the run boundaries, and each member gets
    (start + stop) / 2. Sorted places are gathered and written back through
    flat offsets: sorted place p of column c is entry ``order[p, c] * stride
    + c`` of the raveled grid, with ``stride`` entries per alternative. On a
    273-trial block ``(6, 5, 273)`` this ran in 173 us against 216 us for
    ``np.take_along_axis`` and ``np.put_along_axis`` (2-vCPU VM, timeit).
    """
    key = np.where(benefit, -values, values)
    n = key.shape[0]
    order = np.argsort(key, axis=0, kind="stable")
    stride = key.size // n
    offset = order * stride + np.arange(stride).reshape(key.shape[1:])
    place = np.arange(n).reshape(-1, *(1,) * (key.ndim - 1))
    if tie is TiePolicy.MEAN_RANK:
        sorted_key = key.ravel()[offset]
        run_start = np.ones(offset.shape, dtype=bool)
        run_start[1:] = sorted_key[1:] != sorted_key[:-1]
        run_stop = np.ones(offset.shape, dtype=bool)
        run_stop[:-1] = run_start[1:]
        start = np.maximum.accumulate(np.where(run_start, place, 0), axis=0)
        stop = np.minimum.accumulate(np.where(run_stop, place, n - 1)[::-1], axis=0)
        sorted_positions = (start + stop[::-1]) / 2.0
    else:
        sorted_positions = place.astype(float)
    positions = np.empty(key.size)
    positions[offset] = sorted_positions
    return positions.reshape(key.shape)


def _msaw_income(values, benefit, w, tie, alpha):
    """Rank positions, per-criterion incomes and the resolved alpha."""
    n = values.shape[0]
    if alpha is None:
        alpha = n
    elif alpha < n:
        raise ValueError(f"alpha must be >= number of alternatives ({n}), got {alpha}")
    ranks = _column_positions(values, benefit, tie)
    return ranks, (alpha - ranks) * w, alpha


def _msaw_drop_scores(values, benefit, w, tie, alpha, removed):
    """msaw scores of a stack of grids ``(n, m, T)``, and of each with one row deleted.

    ``removed[t]`` is the row deleted from grid t. The reduced positions come
    from the full ones instead of a second sort: with ``key`` the sort key and
    k the deleted row, survivor i moves up one place when ``key[k] < key[i]``;
    when ``key[k] == key[i]`` it moves up half a place under MEAN_RANK (its
    tied run loses one member) and one place under STABLE_INDEX if k < i.
    The shifts are exact, so both results equal :func:`_score_msaw` of the
    full and of the reduced grids bit for bit. Returns ``(full, reduced)``,
    shaped ``(n, T)`` and ``(n - 1, T)``; alpha is checked on the full grids.
    """
    ranks, income, _ = _msaw_income(values, benefit, w, tie, alpha)
    n = values.shape[0]
    key = np.where(benefit, -values, values)
    removed_key = key[removed, :, np.arange(len(removed))].T
    before = removed_key < key
    tied = removed_key == key
    if tie is TiePolicy.MEAN_RANK:
        shift = before + 0.5 * tied
    else:
        shift = before | (tied & (np.arange(n)[:, None] > removed)[:, None])
    reduced_alpha = n - 1 if alpha is None else alpha
    # Scores are row sums, so scoring all n rows and then deleting row k
    # gives the same numbers as scoring the n - 1 survivors.
    reduced = _grid_sum((reduced_alpha - (ranks - shift)) * w, axis=1)
    return _grid_sum(income, axis=1), _delete_rows(reduced, removed)


def _delete_rows(stack, removed):
    """Each grid of a stack ``(n, ..., T)`` without its row ``removed[t]``.

    Returns ``(n - 1, ..., T)``, survivors in their original row order, as
    one gather through flat offsets: on a 273-trial block ``(6, 5, 273)``
    it took 40 us against 89 us for ``np.take_along_axis`` (2-vCPU VM,
    timeit).
    """
    n = stack.shape[0]
    stride = stack.size // n
    rows = np.arange(n - 1).reshape(-1, *(1,) * (stack.ndim - 1))
    rows = rows + (rows >= removed)
    return stack.ravel()[rows * stride + np.arange(stride).reshape(stack.shape[1:])]


def _grid_sum(x, axis):
    """Sum over axis 0 or 1 of a grid ``(n, m)`` or a stack ``(n, m, T)``, as rank() adds it.

    numpy adds a contiguous run of 8 or more values pairwise, but values
    that lie in different rows one after another. A lone C-ordered grid
    holds each alternative's criteria contiguously, and each criterion's
    alternatives too when m = 1; a stack holds neither, as its grids are
    interleaved on the last axis. Below 8 terms the two orders are the
    same; from 8 on, the summed axis of a stack is first copied to the end,
    so that each grid adds it as the lone grid does.
    """
    contiguous_in_grid = axis == 1 or x.shape[1] == 1
    if x.ndim == 2 or x.shape[axis] < 8 or not contiguous_in_grid:
        return x.sum(axis=axis)
    return np.moveaxis(x, axis, -1).copy().sum(axis=-1)


# Scorers take raw grids with alternatives on axis 0 and criteria on axis 1.
# One call scores one matrix (n, m), or a stack (n, m, T) of T matrices laid
# side by side on the trailing axis; the benefit mask and the weights then
# come shaped (m, 1) so that they broadcast along axis 1. Every max, min, sum
# and norm over alternatives or criteria is thus an elementwise operation on
# whole length-T vectors. Sums go through _grid_sum, so a grid's scores equal
# rank()'s bit for bit however many grids are stacked and however many
# criteria they have.


def _score_msaw(values, benefit, w, tie, alpha):
    return _grid_sum(_msaw_income(values, benefit, w, tie, alpha)[1], axis=1)


def _score_saw(values, benefit, w, tie, alpha):
    return _grid_sum(normalize_values(values, benefit) * w, axis=1)


def _score_wpm(values, benefit, w, tie, alpha):
    nonpositive = values <= 0.0
    if nonpositive.any():
        row, col = (int(x) for x in np.argwhere(nonpositive)[0][:2])
        message = "weighted product needs strictly positive values"
        raise MatrixValidationError([Violation("nonpositive_value", message, row=row, col=col)])
    return np.prod(normalize_values(values, benefit) ** w, axis=1)


def _score_topsis(values, benefit, w, tie, alpha):
    # TOPSIS is degree-0 in w, so dividing w by its (positive) max changes no
    # score beyond rounding but keeps the weighted distances from overflowing
    # or underflowing at extreme weight scales.
    w = w / w.max()
    # Dividing by the column max first keeps the Euclidean norm within
    # [1, sqrt(n)], so it can neither overflow nor underflow; every column
    # max of a valid matrix is positive.
    scaled = values / values.max(axis=0)
    weighted = scaled / _norm(scaled, axis=0) * w
    best, worst = weighted.max(axis=0), weighted.min(axis=0)
    ideal = np.where(benefit, best, worst)
    anti_ideal = np.where(benefit, worst, best)
    dist_ideal = _norm(weighted - ideal, axis=1)
    dist_anti = _norm(weighted - anti_ideal, axis=1)
    total = dist_ideal + dist_anti
    # All alternatives identical: every point is both ideal and anti-ideal.
    return np.where(total > 0.0, dist_anti / np.where(total > 0.0, total, 1.0), 0.5)


def _norm(x, axis):
    """Euclidean norm over one grid axis, computed as ``np.linalg.norm`` does."""
    return np.sqrt(_grid_sum(x * x, axis))


def _score_ahp(values, benefit, w, tie, alpha):
    adjusted = values.copy()
    cost = ~benefit.ravel()
    adjusted[:, cost] = 1.0 / values[:, cost]
    local = adjusted / _grid_sum(adjusted, axis=0)
    return _grid_sum(local * w, axis=1)


# Each scorer maps the raw values of validated matrices, the benefit mask, the
# weight array, tie and alpha (read by msaw only) to one score per alternative.
_SCORERS = {
    "msaw": _score_msaw,
    "saw": _score_saw,
    "wpm": _score_wpm,
    "topsis": _score_topsis,
    "ahp": _score_ahp,
}
METHODS = tuple(_SCORERS)


def scorer(method: str):
    """The method table's array function for an identifier; unknown ones are rejected."""
    fn = _SCORERS.get(method)
    if fn is None:
        raise ValueError(f"unknown method {method!r}; expected one of {', '.join(METHODS)}")
    return fn


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
    scores = scorer(method)(*_checked(matrix, weights), tie, alpha)
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
    alternatives. A larger value shifts every score by the same constant,
    but rounds it to about ``alpha * 2**-53``: on the bundled benchmark
    with the VoIP preset, alpha = 1e15 ties two pairs of distinct scores
    and 1e17 ties all six, which returns matrix order.
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
