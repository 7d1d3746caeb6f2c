"""Rank-reversal experiments and cross-method agreement metrics.

A method exhibits rank reversal when removing (or duplicating) one
alternative changes the relative order of the survivors. The harness here
never assumes a method is immune: it compares the reduced ranking against
the baseline ranking with the removed label deleted, enumerates every
flipped pair, and offers a seeded Monte-Carlo mode that measures reversal
frequency per method over random scenarios.
"""

from dataclasses import dataclass, field
from itertools import combinations

from .core import DecisionMatrix, drop_alternative, duplicate_alternative
from .methods import TiePolicy, rank
from .rng import SplitMix64, derive_seed
from .scenario import ScenarioSpec, generate_matrix


def _flipped_pairs(
    expected: tuple[str, ...], actual: tuple[str, ...]
) -> tuple[tuple[str, str], ...]:
    """Pairs whose relative order differs; each pair is in expected order."""
    pos = {label: i for i, label in enumerate(actual)}
    flips = []
    for i, first in enumerate(expected):
        for second in expected[i + 1 :]:
            if pos[first] > pos[second]:
                flips.append((first, second))
    return tuple(flips)


@dataclass(frozen=True)
class ReversalReport:
    """Outcome of removing one alternative and re-ranking the rest."""

    method: str
    baseline_order: tuple[str, ...]
    removed: str
    reduced_order: tuple[str, ...]
    expected_order: tuple[str, ...]
    reversed: bool
    flips: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "baseline_order": list(self.baseline_order),
            "removed": self.removed,
            "reduced_order": list(self.reduced_order),
            "expected_order": list(self.expected_order),
            "reversed": self.reversed,
            "flips": [list(pair) for pair in self.flips],
        }


def reversal_experiment(
    matrix: DecisionMatrix,
    weights,
    method: str,
    removed: str,
    tie: TiePolicy = TiePolicy.MEAN_RANK,
    alpha: int | None = None,
) -> ReversalReport:
    """Rank, drop one alternative, re-rank, and report every flipped pair.

    ``reversed`` is true iff the reduced order differs from the baseline
    order with ``removed`` deleted.
    """
    baseline = rank(matrix, weights, method, tie=tie, alpha=alpha).order
    reduced_matrix = drop_alternative(matrix, removed)
    reduced = rank(reduced_matrix, weights, method, tie=tie, alpha=alpha).order
    expected = tuple(label for label in baseline if label != removed)
    flips = _flipped_pairs(expected, reduced)
    return ReversalReport(
        method=method,
        baseline_order=baseline,
        removed=removed,
        reduced_order=reduced,
        expected_order=expected,
        reversed=bool(flips),
        flips=flips,
    )


@dataclass(frozen=True)
class DuplicationReport:
    """Outcome of appending an exact replica of one alternative and re-ranking."""

    method: str
    baseline_order: tuple[str, ...]
    duplicated: str
    copy_label: str
    expanded_order: tuple[str, ...]
    filtered_order: tuple[str, ...]
    reversed: bool
    flips: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "baseline_order": list(self.baseline_order),
            "duplicated": self.duplicated,
            "copy_label": self.copy_label,
            "expanded_order": list(self.expanded_order),
            "filtered_order": list(self.filtered_order),
            "reversed": self.reversed,
            "flips": [list(pair) for pair in self.flips],
        }


def duplication_experiment(
    matrix: DecisionMatrix,
    weights,
    method: str,
    duplicated: str,
    copy_label: str | None = None,
    tie: TiePolicy = TiePolicy.MEAN_RANK,
    alpha: int | None = None,
) -> DuplicationReport:
    """Append a replica row, re-rank, and compare the originals' order."""
    baseline = rank(matrix, weights, method, tie=tie, alpha=alpha).order
    expanded_matrix = duplicate_alternative(matrix, duplicated, copy_label)
    copy_label = expanded_matrix.alternatives[-1]
    expanded = rank(expanded_matrix, weights, method, tie=tie, alpha=alpha).order
    filtered = tuple(label for label in expanded if label != copy_label)
    flips = _flipped_pairs(baseline, filtered)
    return DuplicationReport(
        method=method,
        baseline_order=baseline,
        duplicated=duplicated,
        copy_label=copy_label,
        expanded_order=expanded,
        filtered_order=filtered,
        reversed=bool(flips),
        flips=flips,
    )


def kendall_tau(order_a, order_b) -> float:
    """Kendall rank correlation between two orderings of the same labels.

    (concordant - discordant) / (n(n-1)/2); 1.0 for identical orders, -1.0
    for exactly reversed ones. Single-element orders correlate perfectly.
    """
    a = tuple(order_a)
    b = tuple(order_b)
    if len(set(a)) != len(a) or len(set(b)) != len(b):
        raise ValueError("orders must not repeat labels")
    if set(a) != set(b):
        raise ValueError("orders must rank the same label set")
    n = len(a)
    if n < 2:
        return 1.0
    pos_b = {label: i for i, label in enumerate(b)}
    concordant = discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            if pos_b[a[i]] < pos_b[a[j]]:
                concordant += 1
            else:
                discordant += 1
    return (concordant - discordant) / (n * (n - 1) / 2)


@dataclass(frozen=True)
class AgreementReport:
    """Per-method orders plus the pairwise Kendall-tau table."""

    methods: tuple[str, ...]
    orders: dict[str, tuple[str, ...]]
    tau: tuple[tuple[float, ...], ...]

    @classmethod
    def from_orders(cls, methods, orders) -> "AgreementReport":
        """Cross-tabulate Kendall tau over already computed per-method orders.

        The table is symmetric with a unit diagonal: each unordered pair is computed once.
        """
        methods = tuple(methods)
        tau = [[1.0] * len(methods) for _ in methods]
        for i, j in combinations(range(len(methods)), 2):
            tau[i][j] = tau[j][i] = kendall_tau(orders[methods[i]], orders[methods[j]])
        return cls(methods=methods, orders=dict(orders), tau=tuple(map(tuple, tau)))

    def tau_between(self, method_a: str, method_b: str) -> float:
        return self.tau[self.methods.index(method_a)][self.methods.index(method_b)]

    def to_dict(self) -> dict:
        return {
            "methods": list(self.methods),
            "orders": {m: list(o) for m, o in self.orders.items()},
            "tau": [list(row) for row in self.tau],
        }


def agreement_report(
    matrix: DecisionMatrix,
    weights,
    methods,
    tie: TiePolicy = TiePolicy.MEAN_RANK,
    alpha: int | None = None,
) -> AgreementReport:
    """Rank with each method and cross-tabulate pairwise Kendall tau."""
    methods = tuple(methods)
    if not methods:
        raise ValueError("at least one method required")
    orders = {m: rank(matrix, weights, m, tie=tie, alpha=alpha).order for m in methods}
    return AgreementReport.from_orders(methods, orders)


@dataclass(frozen=True)
class MonteCarloReport:
    """Reversal frequencies measured over randomly generated scenarios."""

    trials: int
    seed: int
    methods: tuple[str, ...]
    reversal_counts: dict[str, int]

    def frequency(self, method: str) -> float:
        return self.reversal_counts[method] / self.trials

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "methods": list(self.methods),
            "reversal_counts": dict(self.reversal_counts),
            "frequencies": {m: self.frequency(m) for m in self.methods},
        }


def monte_carlo_reversal(
    spec: ScenarioSpec,
    weights,
    methods,
    trials: int,
    seed: int | None = None,
    tie: TiePolicy = TiePolicy.MEAN_RANK,
    alpha: int | None = None,
) -> MonteCarloReport:
    """Measure per-method reversal frequency over random matrices and removals.

    Trial t derives its own child seed from (seed, t), so results are
    reproducible and independent of whether trials run serially or in
    parallel. Each trial draws a matrix from the scenario spec, removes one
    uniformly chosen alternative, and records which methods reverse.
    """
    methods = tuple(methods)
    if not methods:
        raise ValueError("at least one method required")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    base_seed = spec.seed if seed is None else seed
    counts = {m: 0 for m in methods}
    for trial in range(trials):
        trial_rng = SplitMix64(derive_seed(base_seed, trial))
        matrix = generate_matrix(spec.with_seed(trial_rng.next_uint64()))
        removed = matrix.alternatives[trial_rng.randrange(matrix.n_alternatives)]
        for method in methods:
            report = reversal_experiment(matrix, weights, method, removed, tie=tie, alpha=alpha)
            if report.reversed:
                counts[method] += 1
    return MonteCarloReport(trials=trials, seed=base_seed, methods=methods, reversal_counts=counts)
