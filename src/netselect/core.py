"""Decision-matrix data model, validation, and normalization.

A decision problem is a set of alternatives (networks) scored on a set of
criteria. Every criterion carries an explicit direction: Benefit (higher
raw value is better) or Cost (lower is better). Directions are never
inferred from data.

All types are immutable values; every operation is a pure function, so
matrices and results can be shared freely across threads.
"""

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

# Two scores closer than this are reported as a tie.
TIE_TOLERANCE = 1e-9


class Direction(Enum):
    """Optimization direction of a criterion."""

    BENEFIT = "benefit"
    COST = "cost"

    @classmethod
    def parse(cls, text: str) -> "Direction":
        token = text.strip().lower()
        for member in cls:
            if token == member.value:
                return member
        raise ValueError(f"unknown direction {text!r}; expected 'benefit' or 'cost'")


@dataclass(frozen=True)
class CriterionSpec:
    """A named criterion with an explicit direction and an informational unit."""

    name: str
    direction: Direction
    unit: str = ""


@dataclass(frozen=True, eq=False)
class DecisionMatrix:
    """Alternatives x criteria grid of raw values.

    The value grid is stored as a private, read-only float array, so a
    matrix never changes after construction. Construction does not enforce
    the full invariants; use :func:`validate_matrix` for a verdict or
    :func:`require_valid` to raise on violations. The verdict is computed
    at most once per matrix and kept on it: :func:`require_valid` (which
    every ranking entry point calls) reads the stored verdict.
    """

    alternatives: tuple[str, ...]
    criteria: tuple[CriterionSpec, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alternatives", tuple(self.alternatives))
        object.__setattr__(self, "criteria", tuple(self.criteria))
        values = np.array(self.values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n_alternatives(self) -> int:
        return len(self.alternatives)

    @property
    def n_criteria(self) -> int:
        return len(self.criteria)

    @property
    def criterion_names(self) -> tuple[str, ...]:
        return tuple(spec.name for spec in self.criteria)

    @property
    def directions(self) -> tuple[Direction, ...]:
        return tuple(spec.direction for spec in self.criteria)

    @property
    def benefit_mask(self) -> np.ndarray:
        """Boolean array, true for each Benefit criterion."""
        return np.array([spec.direction is Direction.BENEFIT for spec in self.criteria])

    @cached_property
    def _violations(self) -> tuple["Violation", ...]:
        return tuple(validate_matrix(self))

    def index_of(self, label: str) -> int:
        try:
            return self.alternatives.index(label)
        except ValueError:
            raise KeyError(label) from None

    def value(self, label: str, criterion: str) -> float:
        row = self.index_of(label)
        try:
            col = self.criterion_names.index(criterion)
        except ValueError:
            raise KeyError(criterion) from None
        return float(self.values[row, col])

    def __eq__(self, other) -> bool:
        if not isinstance(other, DecisionMatrix):
            return NotImplemented
        return (
            self.alternatives == other.alternatives
            and self.criteria == other.criteria
            and self.values.shape == other.values.shape
            and np.array_equal(self.values, other.values)
        )

    __hash__ = None


@dataclass(frozen=True)
class Violation:
    """One validation failure, with grid coordinates when applicable."""

    code: str
    message: str
    row: int | None = None
    col: int | None = None

    def __str__(self) -> str:
        where = ""
        if self.row is not None or self.col is not None:
            where = f" at (row={self.row}, col={self.col})"
        return f"{self.code}{where}: {self.message}"


class MatrixValidationError(ValueError):
    """Raised when an operation receives a matrix that fails validation."""

    def __init__(self, violations: list[Violation]):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


def validate_matrix(matrix: DecisionMatrix) -> list[Violation]:
    """Check all matrix invariants; an empty list means the matrix is valid.

    Detected violations: empty axes, duplicate or empty labels, a grid whose
    shape disagrees with the label lists, non-finite values, non-positive
    values in Cost columns, negative values or an all-zero column for
    Benefit criteria.
    """
    violations: list[Violation] = []
    n, m = matrix.n_alternatives, matrix.n_criteria

    if n < 1:
        violations.append(Violation("empty", "matrix needs at least one alternative"))
    if m < 1:
        violations.append(Violation("empty", "matrix needs at least one criterion"))

    seen: dict[str, int] = {}
    for i, label in enumerate(matrix.alternatives):
        if not label:
            violations.append(Violation("empty_label", "alternative label is empty", row=i))
        if label in seen:
            violations.append(
                Violation("duplicate_label", f"alternative {label!r} repeats row {seen[label]}", row=i)
            )
        seen[label] = i

    seen_crit: dict[str, int] = {}
    for j, spec in enumerate(matrix.criteria):
        if not spec.name:
            violations.append(Violation("empty_label", "criterion name is empty", col=j))
        if spec.name in seen_crit:
            violations.append(
                Violation(
                    "duplicate_criterion",
                    f"criterion {spec.name!r} repeats column {seen_crit[spec.name]}",
                    col=j,
                )
            )
        seen_crit[spec.name] = j

    if matrix.values.ndim != 2 or matrix.values.shape != (n, m):
        violations.append(
            Violation(
                "dimension_mismatch",
                f"value grid has shape {matrix.values.shape}, expected ({n}, {m})",
            )
        )
        return violations

    for j, spec in enumerate(matrix.criteria):
        column = matrix.values[:, j]
        finite = np.isfinite(column)
        if spec.direction is Direction.COST:
            out_of_domain, code = column <= 0.0, "nonpositive_cost"
            what = f"cost criterion {spec.name!r} has non-positive value"
        else:
            out_of_domain, code = column < 0.0, "negative_benefit"
            what = f"benefit criterion {spec.name!r} has negative value"
        # Whole-column masks find the flagged cells; only those are visited,
        # in row order.
        for i in np.flatnonzero(~finite | out_of_domain).tolist():
            cell = column[i]
            if not finite[i]:
                violations.append(
                    Violation("non_finite", f"value {cell!r} is not finite", row=i, col=j)
                )
            else:
                violations.append(Violation(code, f"{what} {cell!r}", row=i, col=j))
        if spec.direction is Direction.BENEFIT and n > 0 and finite.all() and column.max() <= 0.0:
            violations.append(
                Violation(
                    "zero_benefit_column",
                    f"benefit criterion {spec.name!r} has no positive value",
                    col=j,
                )
            )
    return violations


def require_valid(matrix: DecisionMatrix) -> DecisionMatrix:
    """Raise :class:`MatrixValidationError` unless the matrix's stored verdict is clean."""
    if matrix._violations:
        raise MatrixValidationError(matrix._violations)
    return matrix


def normalize_values(values: np.ndarray, benefit: np.ndarray) -> np.ndarray:
    """:func:`normalize` over raw grids of already validated matrices.

    ``values`` holds alternatives on axis 0 and criteria on axis 1, and any
    stacked grids on a trailing axis ``(n, m, T)``; ``benefit`` has one
    entry per criterion, shaped ``(m,)`` or ``(m, 1)``. Each column takes
    only the reduction it needs, its max (Benefit) or its min (Cost), over
    the alternatives of every stacked grid at once; a zero in a Benefit
    column is only ever a numerator.
    """
    out = np.empty_like(values)
    for j, is_benefit in enumerate(benefit.ravel().tolist()):
        column = values[:, j]
        if is_benefit:
            np.divide(column, column.max(axis=0), out=out[:, j])
        else:
            np.divide(column.min(axis=0), column, out=out[:, j])
    return out


def normalize(matrix: DecisionMatrix) -> np.ndarray:
    """Direction-aware max normalization onto [0, 1].

    Benefit column: r_ij = value / column max. Cost column: r_ij = column
    min / value. The best entry of every column maps to exactly 1, and both
    rules are invariant under positive scaling of the column.
    """
    return normalize_values(require_valid(matrix).values, matrix.benefit_mask)


def drop_alternative(matrix: DecisionMatrix, label: str) -> DecisionMatrix:
    """Return a copy of the matrix without the given alternative.

    Remaining rows and all criteria keep their original order and raw
    values. Dropping the only row is rejected.
    """
    row = matrix.index_of(label)
    if matrix.n_alternatives == 1:
        raise ValueError("cannot drop the only alternative of a matrix")
    labels = matrix.alternatives[:row] + matrix.alternatives[row + 1 :]
    values = np.delete(matrix.values, row, axis=0)
    return DecisionMatrix(labels, matrix.criteria, values)


def duplicate_alternative(matrix: DecisionMatrix, label: str) -> DecisionMatrix:
    """Return a copy of the matrix with an exact replica of one row appended.

    The replica is labelled ``"<label> (copy)"``, which must not already be a label.
    """
    row = matrix.index_of(label)
    copy_label = f"{label} (copy)"
    if copy_label in matrix.alternatives:
        raise ValueError(f"copy label {copy_label!r} already exists")
    labels = matrix.alternatives + (copy_label,)
    values = np.vstack([matrix.values, matrix.values[row : row + 1]])
    return DecisionMatrix(labels, matrix.criteria, values)


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative criterion weights summing to 1 (within 1e-9)."""

    weights: tuple[float, ...]

    def __post_init__(self):
        weights = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "weights", weights)
        if not weights:
            raise ValueError("weight vector is empty")
        if any(not np.isfinite(w) for w in weights):
            raise ValueError("weights must be finite")
        if any(w < 0.0 for w in weights):
            raise ValueError("weights must be nonnegative")
        total = sum(weights)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1 (got {total!r})")

    @classmethod
    def normalized(cls, values) -> "WeightVector":
        """Build a weight vector by rescaling arbitrary nonnegative values to sum 1."""
        arr = np.asarray(values, dtype=float)
        total = float(arr.sum())
        if not np.isfinite(total) or total <= 0.0:
            raise ValueError("weights must have a positive finite sum")
        return cls(tuple(arr / total))

    def __len__(self) -> int:
        return len(self.weights)

    def __iter__(self):
        return iter(self.weights)

    def as_array(self) -> np.ndarray:
        return np.array(self.weights, dtype=float)


def as_weight_array(weights, n_criteria: int) -> np.ndarray:
    """Coerce a WeightVector or plain sequence to a validated weight array.

    Ranking methods accept unnormalized weights (every method's order is
    invariant under positive rescaling), so only length, finiteness, and
    nonnegativity are enforced here.
    """
    if isinstance(weights, WeightVector):
        arr = weights.as_array()
    else:
        arr = np.asarray(weights, dtype=float)
    if arr.ndim != 1 or arr.shape[0] != n_criteria:
        raise ValueError(f"expected {n_criteria} weights, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("weights must be finite")
    if np.any(arr < 0.0):
        raise ValueError("weights must be nonnegative")
    if float(arr.sum()) <= 0.0:
        raise ValueError("weights must not all be zero")
    return arr


def tie_order(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best-first order of the scores on the last axis, and each place's tie group.

    Scores are sorted descending (stably); adjacent sorted scores no more
    than :data:`TIE_TOLERANCE` apart chain into one tie group, so a group
    can be wider than the tolerance. Groups keep their score order, and
    each group lists its members by original index. This keeps the order
    independent of last-ulp noise between mathematically tied scores (e.g.
    the same totals accumulated in a different summation order). Returns
    ``(order, group)``: the original indices best first, and the group
    number (0, 1, ...) of each of those places. Leading axes are batched.
    """
    by_score = np.argsort(-scores, axis=-1, kind="stable")
    ranked = np.take_along_axis(scores, by_score, axis=-1)
    # opens[..., p]: place p + 1 starts a new group, as its gap to place p is
    # not within tolerance ("not <=" rather than ">", so a NaN gap opens one).
    opens = ~(ranked[..., :-1] - ranked[..., 1:] <= TIE_TOLERANCE)
    if opens.all():
        # No place chains: every group is one place, so the score order is
        # already the order and its groups are 0, 1, 2, ...
        return by_score, np.zeros_like(by_score) + np.arange(ranked.shape[-1])
    ranked_group = np.zeros_like(by_score)
    ranked_group[..., 1:] = np.cumsum(opens, axis=-1)
    group = np.empty_like(ranked_group)
    np.put_along_axis(group, by_score, ranked_group, axis=-1)
    order = np.argsort(group, axis=-1, kind="stable")
    return order, np.take_along_axis(group, order, axis=-1)


@dataclass(frozen=True)
class RankingResult:
    """Scores and the induced total order for one method (higher is better).

    ``order`` lists alternative labels best first; score ties are broken by
    original matrix order. ``ties`` lists the groups of labels whose scores
    are indistinguishable within :data:`TIE_TOLERANCE`.
    """

    method: str
    scores: dict[str, float]
    order: tuple[str, ...]
    ties: tuple[tuple[str, ...], ...] = field(default_factory=tuple)

    @classmethod
    def from_scores(cls, method: str, labels, scores) -> "RankingResult":
        arr = np.asarray(scores, dtype=float)
        labels = tuple(labels)
        if arr.shape != (len(labels),):
            raise ValueError("one score per alternative required")
        order, group = tie_order(arr)
        order = order.tolist()
        bounds = [0, *(np.flatnonzero(np.diff(group)) + 1).tolist(), len(order)]
        ties = tuple(
            tuple(labels[i] for i in order[start:stop])
            for start, stop in zip(bounds, bounds[1:])
            if stop - start > 1
        )
        score_map = dict(zip(labels, arr.tolist()))
        return cls(
            method=method, scores=score_map, order=tuple(labels[i] for i in order), ties=ties
        )
