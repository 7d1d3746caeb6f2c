import itertools

import numpy as np
import pytest

from netselect import (
    CriterionSpec,
    DecisionMatrix,
    Direction,
    METHODS,
    agreement_report,
    duplication_experiment,
    example_scenario,
    kendall_tau,
    monte_carlo_reversal,
    preset_weights,
    reference_matrix,
    reversal_experiment,
)

VOIP = preset_weights("voip")


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

    def test_validation(self):
        spec = example_scenario()
        with pytest.raises(ValueError):
            monte_carlo_reversal(spec, VOIP, METHODS, trials=0, seed=1)
        with pytest.raises(ValueError):
            monte_carlo_reversal(spec, VOIP, (), trials=5, seed=1)

    def test_report_serializes(self):
        spec = example_scenario()
        report = monte_carlo_reversal(spec, VOIP, ("msaw", "saw"), trials=5, seed=9)
        data = report.to_dict()
        assert data["trials"] == 5
        assert set(data["frequencies"]) == {"msaw", "saw"}
