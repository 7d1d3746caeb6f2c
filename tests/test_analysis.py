import contextlib
import dataclasses
import io
import itertools
import json

import numpy as np
import pytest

from netselect import (
    CriterionSpec,
    DecisionMatrix,
    Direction,
    METHODS,
    TiePolicy,
    agreement_report,
    analysis,
    drop_alternative,
    duplicate_alternative,
    duplication_experiment,
    example_scenario,
    generate_matrix,
    kendall_tau,
    monte_carlo_reversal,
    preset_weights,
    rank,
    reference_matrix,
    reversal_experiment,
)
from netselect.cli import main
from netselect.io import write_matrix_csv

VOIP = preset_weights("voip")


def loop_flipped_pairs(expected, actual):
    """The reference: every pair of ``expected`` checked against ``actual``."""
    pos = {label: i for i, label in enumerate(actual)}
    flips = []
    for i, first in enumerate(expected):
        for second in expected[i + 1 :]:
            if pos[first] > pos[second]:
                flips.append((first, second))
    return tuple(flips)


def witness_matrix():
    """SAW reverses here when 'heavy' (the column-0 maximum) is removed."""
    return DecisionMatrix(
        ["heavy", "balanced", "specialist"],
        (CriterionSpec("c1", Direction.BENEFIT), CriterionSpec("c2", Direction.BENEFIT)),
        [[60.0, 2.0], [9.0, 9.0], [6.0, 10.0]],
    )


class TestKendallTau:
    def test_identical_orders(self):
        assert kendall_tau(("a", "b", "c"), ("a", "b", "c")) == 1.0

    def test_reversed_orders(self):
        assert kendall_tau(("a", "b", "c"), ("c", "b", "a")) == -1.0

    def test_single_swap(self):
        assert kendall_tau(("a", "b", "c"), ("a", "c", "b")) == pytest.approx(1 / 3)

    def test_single_label(self):
        assert kendall_tau(("a",), ("a",)) == 1.0

    def test_mismatched_label_sets_rejected(self):
        with pytest.raises(ValueError):
            kendall_tau(("a", "b"), ("a", "c"))
        with pytest.raises(ValueError):
            kendall_tau(("a", "a"), ("a", "a"))

    def test_matches_scipy_on_random_permutations(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(77)
        labels = [f"x{i}" for i in range(8)]
        for _ in range(50):
            a = list(labels)
            b = list(labels)
            rng.shuffle(a)
            rng.shuffle(b)
            pos_a = [a.index(label) for label in labels]
            pos_b = [b.index(label) for label in labels]
            expected = scipy_stats.kendalltau(pos_a, pos_b).statistic
            assert kendall_tau(a, b) == pytest.approx(expected, abs=1e-12)

    def test_extremes_over_all_small_permutations(self):
        labels = ("a", "b", "c", "d")
        for perm in itertools.permutations(labels):
            assert kendall_tau(perm, perm) == 1.0
            assert kendall_tau(perm, tuple(reversed(perm))) == -1.0


class TestReversalExperiment:
    def test_msaw_reference_drop_is_stable(self):
        report = reversal_experiment(reference_matrix(), VOIP, "msaw", "N(4)")
        assert report.baseline_order == ("N(3)", "N(2)", "N(4)", "N(5)", "N(0)", "N(1)")
        assert report.reduced_order == ("N(3)", "N(2)", "N(5)", "N(0)", "N(1)")
        assert report.expected_order == report.reduced_order
        assert report.reversed is False
        assert report.flips == ()

    def test_two_alternative_matrix_never_reverses(self):
        m = DecisionMatrix(
            ["a", "b"],
            (CriterionSpec("c", Direction.BENEFIT),),
            [[1.0], [2.0]],
        )
        for method in METHODS:
            report = reversal_experiment(m, [1.0], method, "a")
            assert report.reduced_order == ("b",)
            assert report.reversed is False

    def test_saw_witness_reverses_with_expected_flip(self):
        report = reversal_experiment(witness_matrix(), [0.6, 0.4], "saw", "heavy")
        assert report.reversed is True
        assert report.flips == (("specialist", "balanced"),)
        assert report.expected_order == ("specialist", "balanced")
        assert report.reduced_order == ("balanced", "specialist")

    def test_msaw_witness_does_not_reverse(self):
        report = reversal_experiment(witness_matrix(), [0.6, 0.4], "msaw", "heavy")
        assert report.reversed is False

    def test_reversed_iff_flips_nonempty(self):
        for method in METHODS:
            report = reversal_experiment(witness_matrix(), [0.6, 0.4], method, "heavy")
            assert report.reversed == bool(report.flips)
            assert sorted(report.reduced_order) == sorted(report.expected_order)

    def test_repeat_runs_identical(self):
        first = reversal_experiment(reference_matrix(), VOIP, "topsis", "N(1)")
        second = reversal_experiment(reference_matrix(), VOIP, "topsis", "N(1)")
        assert first == second

    def test_unknown_method_or_label(self):
        with pytest.raises(ValueError):
            reversal_experiment(reference_matrix(), VOIP, "nope", "N(0)")
        with pytest.raises(KeyError):
            reversal_experiment(reference_matrix(), VOIP, "saw", "N(9)")


class TestDuplicationExperiment:
    def test_copy_participates_in_expanded_ranking(self):
        report = duplication_experiment(reference_matrix(), VOIP, "saw", "N(4)")
        assert report.copy_label == "N(4) (copy)"
        assert len(report.expanded_order) == 7
        assert report.filtered_order == tuple(
            label for label in report.expanded_order if label != "N(4) (copy)"
        )

    def test_reference_duplication_outcomes(self):
        outcomes = {
            m: duplication_experiment(reference_matrix(), VOIP, m, "N(4)").reversed
            for m in METHODS
        }
        assert outcomes == {
            "msaw": False,
            "saw": False,
            "wpm": False,
            "topsis": False,
            "ahp": True,
        }

    def test_duplicate_ties_with_original_for_value_methods(self):
        report = duplication_experiment(reference_matrix(), VOIP, "saw", "N(2)")
        original = report.expanded_order.index("N(2)")
        copy = report.expanded_order.index("N(2) (copy)")
        assert abs(original - copy) == 1

    def test_reversed_iff_flips_nonempty(self):
        for m in METHODS:
            report = duplication_experiment(reference_matrix(), VOIP, m, "N(4)")
            assert report.reversed == bool(report.flips)


class TestAgreementReport:
    def test_single_method_identity(self):
        report = agreement_report(reference_matrix(), VOIP, ["saw"])
        assert report.tau == ((1.0,),)

    def test_repeated_method_fully_agrees(self):
        report = agreement_report(reference_matrix(), VOIP, ["msaw", "msaw"])
        assert report.tau_between("msaw", "msaw") == 1.0

    def test_all_methods_table(self):
        report = agreement_report(reference_matrix(), VOIP, METHODS)
        n = len(METHODS)
        for i in range(n):
            assert report.tau[i][i] == 1.0
            for j in range(n):
                assert report.tau[i][j] == report.tau[j][i]
                assert -1.0 <= report.tau[i][j] <= 1.0
        assert set(report.orders) == set(METHODS)

    def test_empty_methods_rejected(self):
        with pytest.raises(ValueError):
            agreement_report(reference_matrix(), VOIP, [])


class TestFlippedPairs:
    """The suffix-minimum enumeration against the loop over every pair."""

    @staticmethod
    def check(expected, actual):
        expected, actual = tuple(expected), tuple(actual)
        flips = analysis._flipped_pairs(expected, actual)
        assert flips == loop_flipped_pairs(expected, actual)
        return flips

    def test_random_permutations(self):
        rng = np.random.default_rng(2024)
        for n in range(61):
            labels = [f"x{i}" for i in range(n)]
            for _ in range(5):
                self.check(labels, rng.permutation(labels).tolist())

    def test_tiny_identity_and_full_reversal(self):
        for n in (0, 1, 2):
            labels = [f"x{i}" for i in range(n)]
            assert self.check(labels, labels) == ()
            assert len(self.check(labels, labels[::-1])) == n * (n - 1) // 2

    def test_single_element_moves(self):
        # A drop experiment typically moves a few labels and leaves the rest in place.
        rng = np.random.default_rng(7)
        for n in (2, 3, 10, 50, 200):
            labels = [f"x{i}" for i in range(n)]
            for moves in (1, 2, 3):
                for _ in range(10):
                    actual = list(labels)
                    for _ in range(moves):
                        label = actual.pop(int(rng.integers(n)))
                        actual.insert(int(rng.integers(n)), label)
                    self.check(labels, actual)

    def test_experiments_on_tied_rows(self):
        # Rows 0, 2 and 5 are equal, and so are rows 1 and 4: orders rest on
        # tie breaking by matrix order, and a duplicate ties with its original.
        rng = np.random.default_rng(11)
        values = rng.uniform(1.0, 10.0, size=(8, 3))
        values[[2, 5]] = values[0]
        values[4] = values[1]
        m = DecisionMatrix(
            [f"r{i}" for i in range(8)],
            (
                CriterionSpec("c0", Direction.BENEFIT),
                CriterionSpec("c1", Direction.COST),
                CriterionSpec("c2", Direction.BENEFIT),
            ),
            values,
        )
        w = [0.5, 0.3, 0.2]
        flipped = 0
        for method, tie, label in itertools.product(METHODS, TiePolicy, m.alternatives):
            dup = duplication_experiment(m, w, method, label, tie=tie)
            assert dup.flips == loop_flipped_pairs(dup.baseline_order, dup.filtered_order)
            drop = reversal_experiment(m, w, method, label, tie=tie)
            assert drop.flips == loop_flipped_pairs(drop.expected_order, drop.reduced_order)
            flipped += bool(dup.flips) + bool(drop.flips)
        assert flipped > 0

    def test_cli_output_equals_loop_oracle_output(self, tmp_path, monkeypatch):
        spec = dataclasses.replace(example_scenario(), instances_per_profile=100)
        path = tmp_path / "n300.csv"
        write_matrix_csv(generate_matrix(spec.with_seed(5)), path)
        runs = [
            ["reversal", "--matrix", str(path), "--weights", "preset:voip", "--method", "all",
             mode, "LTE-50", "--format", fmt]
            for mode in ("--drop", "--duplicate")
            for fmt in ("text", "json")
        ]

        def outputs():
            captured = []
            for argv in runs:
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    assert main(argv) == 0, argv
                captured.append(out.getvalue())
            return captured

        fast = outputs()
        monkeypatch.setattr(analysis, "_flipped_pairs", loop_flipped_pairs)
        assert outputs() == fast
        assert all("flips:" in text for text in fast[::2])  # the drop and duplicate text outputs


def reference_drop(matrix, weights, method, label, tie, alpha):
    """The drop experiment as two :func:`rank` calls and the loop over every pair."""
    baseline = rank(matrix, weights, method, tie=tie, alpha=alpha).order
    reduced = rank(drop_alternative(matrix, label), weights, method, tie=tie, alpha=alpha).order
    expected = tuple(other for other in baseline if other != label)
    flips = loop_flipped_pairs(expected, reduced)
    return (baseline, reduced, expected, bool(flips), flips)


def reference_duplicate(matrix, weights, method, label, tie, alpha):
    """The duplication experiment as two :func:`rank` calls and the loop over every pair."""
    baseline = rank(matrix, weights, method, tie=tie, alpha=alpha).order
    expanded_matrix = duplicate_alternative(matrix, label)
    expanded = rank(expanded_matrix, weights, method, tie=tie, alpha=alpha).order
    filtered = tuple(other for other in expanded if other != expanded_matrix.alternatives[-1])
    flips = loop_flipped_pairs(baseline, filtered)
    return (baseline, expanded, filtered, bool(flips), flips)


class TestExperimentsEqualReference:
    """Both experiments run on the leave-one-out engine; the reference ranks each matrix."""

    def test_small_integer_matrices_with_ties(self):
        rng = np.random.default_rng(31)
        reversed_count = 0
        for _ in range(12):
            n, m = int(rng.integers(2, 8)), int(rng.integers(1, 5))
            criteria = tuple(
                CriterionSpec(f"c{j}", Direction.BENEFIT if rng.random() < 0.5 else Direction.COST)
                for j in range(m)
            )
            values = rng.integers(1, 4, size=(n, m)).astype(float)  # many ties
            matrix = DecisionMatrix([f"r{i}" for i in range(n)], criteria, values)
            weights = rng.integers(1, 4, size=m).astype(float)  # so that scores tie too
            for method, tie, alpha, label in itertools.product(
                METHODS, TiePolicy, (None, n + 2), matrix.alternatives
            ):
                args = (matrix, weights, method, label, tie, alpha)
                drop = reversal_experiment(*args)
                got = (drop.baseline_order, drop.reduced_order, drop.expected_order)
                assert got + (drop.reversed, drop.flips) == reference_drop(*args)
                dup = duplication_experiment(matrix, weights, method, label, tie=tie, alpha=alpha)
                got = (dup.baseline_order, dup.expanded_order, dup.filtered_order)
                assert got + (dup.reversed, dup.flips) == reference_duplicate(*args)
                reversed_count += drop.reversed + dup.reversed
        assert reversed_count > 0

    def test_bad_inputs_raise_the_reference_error(self):
        def outcome(fn, *args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except Exception as exc:  # the outcome under test is the exception itself
                return (type(exc), str(exc))

        criteria = (CriterionSpec("a", Direction.BENEFIT), CriterionSpec("b", Direction.COST))
        # Only row y has a positive benefit value, so dropping y invalidates the matrix.
        only_y = DecisionMatrix(["x", "y", "z"], criteria, [[0.0, 2.0], [5.0, 1.0], [0.0, 3.0]])
        single = DecisionMatrix(["x"], criteria, [[1.0, 2.0]])
        drop = (reversal_experiment, reference_drop)
        dup = (duplication_experiment, reference_duplicate)
        cases = [
            (*drop, only_y, "saw", "y", None),  # the reduced matrix fails validation
            (*drop, single, "msaw", "x", None),  # n = 1
            (*drop, witness_matrix(), "saw", "nope", None),  # unknown label
            (*dup, witness_matrix(), "saw", "nope", None),
            (*dup, witness_matrix(), "msaw", "heavy", 3),  # alpha = n, below n + 1
        ]
        for experiment, reference, matrix, method, label, alpha in cases:
            args = (matrix, [0.5, 0.5], method, label)
            got = outcome(experiment, *args, tie=TiePolicy.MEAN_RANK, alpha=alpha)
            assert isinstance(got, tuple)
            assert got == outcome(reference, *args, tie=TiePolicy.MEAN_RANK, alpha=alpha)
        # Below n the duplicate names the bound it needs, n + 1, at once.
        with pytest.raises(ValueError, match=r"alternatives \(4\), got 2"):
            duplication_experiment(witness_matrix(), [0.5, 0.5], "msaw", "heavy", alpha=2)


class TestMonteCarlo:
    def test_golden_counts_seed_7(self):
        report = monte_carlo_reversal(example_scenario(), VOIP, METHODS, trials=1000, seed=7)
        assert report.reversal_counts == {
            "msaw": 372,
            "saw": 135,
            "wpm": 0,
            "topsis": 186,
            "ahp": 236,
        }

    def test_deterministic_for_fixed_seed(self):
        spec = example_scenario()
        a = monte_carlo_reversal(spec, VOIP, METHODS, trials=40, seed=11)
        b = monte_carlo_reversal(spec, VOIP, METHODS, trials=40, seed=11)
        assert a == b

    def test_different_seeds_generally_differ(self):
        spec = example_scenario()
        a = monte_carlo_reversal(spec, VOIP, ("msaw",), trials=60, seed=1)
        b = monte_carlo_reversal(spec, VOIP, ("msaw",), trials=60, seed=2)
        assert a.reversal_counts != b.reversal_counts

    def test_counts_bounded_by_trials(self):
        spec = example_scenario()
        report = monte_carlo_reversal(spec, VOIP, METHODS, trials=25, seed=5)
        for method in METHODS:
            assert 0 <= report.reversal_counts[method] <= 25
            assert report.frequency(method) == report.reversal_counts[method] / 25

    def test_prefix_property_of_trial_seeds(self):
        # Trial i depends only on (seed, i): a longer run starts with the
        # shorter run's outcomes.
        spec = example_scenario()
        short = monte_carlo_reversal(spec, VOIP, ("saw",), trials=10, seed=3)
        long = monte_carlo_reversal(spec, VOIP, ("saw",), trials=20, seed=3)
        assert long.reversal_counts["saw"] >= short.reversal_counts["saw"]

    def test_report_serializes(self):
        # The report is a plain dataclass: asdict gives the JSON the CLI prints.
        spec = example_scenario()
        report = monte_carlo_reversal(spec, VOIP, ("msaw", "saw"), trials=5, seed=9)
        data = json.loads(json.dumps(dataclasses.asdict(report)))
        assert data["trials"] == 5
        assert data["seed"] == 9
        assert data["methods"] == ["msaw", "saw"]
        assert data["reversal_counts"] == report.reversal_counts
        assert set(data["reversal_counts"]) == {"msaw", "saw"}

    def test_validation(self):
        spec = example_scenario()
        with pytest.raises(ValueError):
            monte_carlo_reversal(spec, VOIP, METHODS, trials=0, seed=1)
        with pytest.raises(ValueError):
            monte_carlo_reversal(spec, VOIP, (), trials=5, seed=1)
