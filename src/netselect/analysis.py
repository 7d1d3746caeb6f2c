"""Rank-reversal experiments and cross-method agreement metrics.

A method exhibits rank reversal when removing (or duplicating) one
alternative changes the relative order of the survivors. The harness here
never assumes a method is immune: it compares the reduced ranking against
the baseline ranking with the removed label deleted, enumerates every
flipped pair, and offers a seeded Monte-Carlo mode that measures reversal
frequency per method over random scenarios.

All three experiments run on one leave-one-out engine: :func:`_drop_scores`
scores a stack of grids and each grid without one row by one method, and
:func:`_drop_orders` orders the scores of every method asked for. A stack
is laid out ``(n, m, T)``, alternatives by criteria by grids, so each max,
min, sum or norm over alternatives or criteria is one elementwise
operation across the T grids. The drop experiment is a stack of one,
``(n, m, 1)``; the duplication experiment is the drop experiment run
backwards (the expanded matrix without its replica is the original); the
Monte-Carlo mode draws, scores and orders a whole block of trials, with
the same numbers as running the trials one by one (:func:`_trial_reversals`,
which blocks it cannot batch fall back to). Those numbers are
:func:`methods.rank`'s bit for bit at any size, as the scorers add the
criteria of a stack in the order rank() adds a lone grid's (see
:func:`methods._grid_sum`). msaw's reduced matrices are not sorted again: deleting row k moves each row
that sorts after k in a column up one place (half a place for a row tied
with k under MEAN_RANK), so :func:`methods._msaw_drop_scores` derives the
reduced positions from the full ones, exactly.
"""

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .core import (
    DecisionMatrix,
    Direction,
    as_weight_array,
    drop_alternative,
    duplicate_alternative,
    require_valid,
    tie_order,
)
from .methods import _SCORERS, TiePolicy, _delete_rows, _msaw_drop_scores, rank, scorer
from .rng import SplitMix64, derive_seed, derive_seeds, randrange_first_draws, stream_uint64
from .scenario import STANDARD_CRITERIA, ScenarioSpec, generate_matrix, generate_values


def _flipped_pairs(
    expected: tuple[str, ...], actual: tuple[str, ...]
) -> tuple[tuple[str, str], ...]:
    """Pairs whose relative order differs; each pair is in expected order.

    Pairs are sorted by the first label's index in ``expected``, then the
    second's. With ``p[i]`` the position in ``actual`` of ``expected[i]``,
    index i starts a flip only when some later label sits before it in
    ``actual``, that is when ``p[i]`` exceeds the minimum of ``p[i+1:]``.
    Only those indices are scanned, so the cost is O(n) plus O(n) per
    overtaken label, not a walk over all n(n-1)/2 pairs.
    """
    pos = {label: i for i, label in enumerate(actual)}
    p = np.array([pos[label] for label in expected], dtype=np.intp)
    later_min = np.minimum.accumulate(p[::-1])[::-1][1:]
    flips = []
    for i in np.flatnonzero(p[:-1] > later_min).tolist():
        first = expected[i]
        partners = i + 1 + np.flatnonzero(p[i + 1 :] < p[i])
        flips.extend((first, expected[j]) for j in partners.tolist())
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


def _drop_scores(values, benefit, w, method, tie, alpha, removed, reduced):
    """One method's scores of each grid of a stack and of it without one row.

    ``values`` is a stack ``(n, m, T)`` of T grids side by side on the last
    axis, the scorer layout of :mod:`netselect.methods`; ``reduced`` is the
    survivor stack ``(n - 1, m, T)``: grid t without row ``removed[t]``.
    ``benefit`` and the validated weights ``w`` come shaped ``(m, 1)``. msaw
    does not read ``reduced``, as :func:`methods._msaw_drop_scores` derives
    the reduced scores from the full positions; the other methods score it
    with their array scorer. The scores equal :func:`methods.rank`'s of each
    grid bit for bit at any n, m and T. Returns ``(full, cut)``, transposed to
    ``(T, n)`` and ``(T, n - 1)`` as :func:`core.tie_order` orders along the
    last axis.
    """
    if method == "msaw":
        full, cut = _msaw_drop_scores(values, benefit, w, tie, alpha, removed)
    else:
        score = _SCORERS[method]
        full, cut = (score(grid, benefit, w, tie, alpha) for grid in (values, reduced))
    return full.T, cut.T


def _drop_orders(scores, removed):
    """Best-first rows from several methods' :func:`_drop_scores`, in two tie_order calls.

    All full scores are ordered by one :func:`core.tie_order` call and all
    reduced scores by a second one. Returns ``(baseline, after)``, shaped
    ``(len(scores), T, n)`` and ``(len(scores), T, n - 1)``, both in
    full-grid row numbers.
    """
    full, cut = zip(*scores)
    baseline, after = (tie_order(np.stack(stack))[0] for stack in (full, cut))
    after += after >= removed[:, None]  # reduced-grid rows back to full-grid rows
    return baseline, after


def _drop_labels(full, reduced, label, w, method, tie, alpha):
    """Best-first labels of ``full`` and of ``reduced``, which is ``full`` without ``label``.

    The method and the weight array ``w`` are already checked; the grids
    are scored as stacks of one, ``(n, m, 1)``.
    """
    row = np.array([full.index_of(label)])
    stacks = (full.values[..., None], reduced.values[..., None])
    scores = _drop_scores(
        stacks[0], full.benefit_mask[:, None], w[:, None], method, tie, alpha, row, stacks[1]
    )
    orders = _drop_orders([scores], row)
    return tuple(tuple(full.alternatives[i] for i in order[0, 0].tolist()) for order in orders)


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
    order with ``removed`` deleted. The method, matrix, weights, label and
    reduced matrix are checked, in that order, before any scoring.
    """
    scorer(method)
    w = as_weight_array(weights, require_valid(matrix).n_criteria)
    reduced_matrix = require_valid(drop_alternative(matrix, removed))
    baseline, reduced = _drop_labels(matrix, reduced_matrix, removed, w, method, tie, alpha)
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


def duplication_experiment(
    matrix: DecisionMatrix,
    weights,
    method: str,
    duplicated: str,
    tie: TiePolicy = TiePolicy.MEAN_RANK,
    alpha: int | None = None,
) -> DuplicationReport:
    """Append a replica row, re-rank, and compare the originals' order.

    The replica is labelled ``"<duplicated> (copy)"``. This is the drop
    experiment run backwards: the expanded matrix is the full grid, and
    dropping its replica (the last row) gives ``matrix``.
    """
    scorer(method)
    w = as_weight_array(weights, require_valid(matrix).n_criteria)
    expanded_matrix = require_valid(duplicate_alternative(matrix, duplicated))
    copy_label = expanded_matrix.alternatives[-1]
    expanded, baseline = _drop_labels(expanded_matrix, matrix, copy_label, w, method, tie, alpha)
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


def agreement_report(matrix: DecisionMatrix, weights, methods) -> AgreementReport:
    """Rank with each method at its defaults and cross-tabulate pairwise Kendall tau."""
    methods = tuple(methods)
    if not methods:
        raise ValueError("at least one method required")
    orders = {m: rank(matrix, weights, m).order for m in methods}
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


# Trials per block are chosen so that a block's value grids hold about this
# many numbers; the block size never changes a result. Blocks this small keep
# every temporary array in cache and add little to peak memory. On the example
# scenario at 1000 trials per call (2-vCPU VM, sizes alternated in one
# process), 2^12 ran 1.16x slower than 2^13, 2^14 about 8% faster and 2^15 or
# 2^16 (one block per call) about 5% faster; but the peak RSS of 40 calls rose
# 2.1 MB (2^14) and 3.5 MB (2^15, 2^16) above the import baseline, against
# 1.6 MB for 2^13 and 1.1 MB for 2^12.
BLOCK_VALUES = 1 << 13


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

    Trial t derives its own child seed from (seed, t) alone, so results
    are reproducible, the block size never changes a count, and a longer
    run extends a shorter one. Each trial draws a matrix from the scenario
    spec, removes one uniformly chosen alternative, and records which
    methods reverse.

    Trials run in blocks, each drawn, scored and ordered as arrays by
    :func:`_block_reversals`. A block it cannot batch runs trial by trial
    (:func:`_trial_reversals`), so every input gives the counts, or raises
    the error, of running all trials one by one.
    """
    methods = tuple(methods)
    if not methods:
        raise ValueError("at least one method required")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    base_seed = spec.seed if seed is None else seed
    counts = {m: 0 for m in methods}
    n = len(spec.profiles) * spec.instances_per_profile
    block = max(1, BLOCK_VALUES // (n * len(STANDARD_CRITERIA)))
    for start in range(0, trials, block):
        stop = min(start + block, trials)
        found = _block_reversals(spec, weights, methods, base_seed, start, stop, tie, alpha)
        if found is None:
            found = Counter(
                method
                for trial in range(start, stop)
                for method in _trial_reversals(spec, weights, methods, base_seed, trial, tie, alpha)
            )
        for method, count in found.items():
            counts[method] += count
    return MonteCarloReport(trials=trials, seed=base_seed, methods=methods, reversal_counts=counts)


def _trial_reversals(spec, weights, methods, base_seed, trial, tie, alpha) -> list[str]:
    """The methods that reverse on one trial, by :func:`reversal_experiment`.

    A method listed twice is listed twice.
    """
    trial_rng = SplitMix64(derive_seed(base_seed, trial))
    matrix = generate_matrix(spec.with_seed(trial_rng.next_uint64()))
    removed = matrix.alternatives[trial_rng.randrange(matrix.n_alternatives)]
    return [
        method
        for method in methods
        if reversal_experiment(matrix, weights, method, removed, tie=tie, alpha=alpha).reversed
    ]


def _block_reversals(spec, weights, methods, base_seed, start, stop, tie, alpha) -> Counter | None:
    """Per-method reversal counts of trials [start, stop), computed as arrays.

    The block is drawn as one stack ``(n, 5, T)`` and its survivor stack
    ``(n - 1, 5, T)`` is built once, for all methods. Returns None when the
    block needs the per-trial path: fewer than two alternatives, a value
    that is not positive and finite (the matrix may be invalid, or wpm may
    reject it), or a removal draw that randrange rejects (it takes further
    draws). Otherwise every matrix is valid, and the methods, weights and
    alpha are checked in the per-trial order.
    """
    n = len(spec.profiles) * spec.instances_per_profile
    if n < 2:
        return None
    trial_seeds = derive_seeds(base_seed, np.arange(start, stop))
    matrix_seeds, removal_draws = stream_uint64(trial_seeds, 2).T
    removed, accepted = randrange_first_draws(removal_draws, n)
    values = generate_values(spec, matrix_seeds)
    if not accepted.all() or not (np.isfinite(values).all() and (values > 0.0).all()):
        return None
    reduced = _delete_rows(values, removed)
    benefit = np.array([[c.direction is Direction.BENEFIT] for c in STANDARD_CRITERIA])
    scores = []
    for method in methods:
        # Name, weights, then (in scoring) alpha: the order of ranking one by one.
        scorer(method)
        w = as_weight_array(weights, len(STANDARD_CRITERIA))[:, None]
        scores.append(_drop_scores(values, benefit, w, method, tie, alpha, removed, reduced))
    baseline, after = _drop_orders(scores, removed)
    expected = baseline[baseline != removed[:, None]].reshape(after.shape)
    counts = Counter()
    for method, count in zip(methods, (after != expected).any(axis=2).sum(axis=1).tolist()):
        counts[method] += count
    return counts
