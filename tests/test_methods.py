import numpy as np
import pytest

from netselect import (
    CriterionSpec,
    DecisionMatrix,
    Direction,
    MatrixValidationError,
    TiePolicy,
    preset_weights,
    rank,
    rank_ahp,
    rank_msaw,
    rank_saw,
    rank_topsis,
    rank_wpm,
)
from netselect.scenario import reference_matrix

VOIP_PRINTED = [0.047, 0.486, 0.371, 0.047, 0.047]


def benefit_matrix(values, labels=None):
    values = np.asarray(values, dtype=float)
    labels = labels or [f"a{i}" for i in range(values.shape[0])]
    criteria = tuple(
        CriterionSpec(f"c{j}", Direction.BENEFIT) for j in range(values.shape[1])
    )
    return DecisionMatrix(labels, criteria, values)


def mixed_matrix(values, directions, labels=None):
    values = np.asarray(values, dtype=float)
    labels = labels or [f"a{i}" for i in range(values.shape[0])]
    criteria = tuple(
        CriterionSpec(f"c{j}", Direction.parse(d)) for j, d in enumerate(directions)
    )
    return DecisionMatrix(labels, criteria, values)


def naive_msaw_scores(matrix, weights, tie, alpha):
    """O(n^2 m) reference: position = number of strictly better rows, plus ties."""
    n, m = matrix.n_alternatives, matrix.n_criteria
    scores = [0.0] * n
    for j in range(m):
        column = matrix.values[:, j]
        cost = matrix.criteria[j].direction is Direction.COST
        for i in range(n):
            better = sum(
                1
                for other in range(n)
                if (column[other] < column[i]) == cost and column[other] != column[i]
            )
            tied_all = sum(1 for other in range(n) if column[other] == column[i])
            if tie is TiePolicy.MEAN_RANK:
                position = better + (tied_all - 1) / 2.0
            else:
                tied_before = sum(
                    1 for other in range(i) if column[other] == column[i]
                )
                position = better + tied_before
            scores[i] += (alpha - position) * weights[j]
    return scores


class TestMsawReference:
    def test_voip_order_matches_published_row(self):
        m = reference_matrix()
        for tie in TiePolicy:
            result, _ = rank_msaw(m, preset_weights("voip"), tie=tie, alpha=6)
            assert result.order == ("N(3)", "N(2)", "N(4)", "N(5)", "N(0)", "N(1)")

    def test_stable_scores_match_hand_computed_income_table(self):
        m = reference_matrix()
        result, _ = rank_msaw(m, VOIP_PRINTED, tie=TiePolicy.STABLE_INDEX, alpha=6)
        expected = {
            "N(0)": 1.954,
            "N(1)": 1.792,
            "N(2)": 5.079,
            "N(3)": 5.147,
            "N(4)": 3.574,
            "N(5)": 3.412,
        }
        for label, value in expected.items():
            assert result.scores[label] == pytest.approx(value, abs=1e-9)

    def test_reduced_matrix_order_matches_published_row(self):
        from netselect import drop_alternative

        m = drop_alternative(reference_matrix(), "N(4)")
        for tie in TiePolicy:
            result, breakdown = rank_msaw(m, preset_weights("voip"), tie=tie)
            assert breakdown.alpha == 5
            assert result.order == ("N(3)", "N(2)", "N(5)", "N(0)", "N(1)")


class TestMsawContract:
    def test_alpha_defaults_to_alternative_count(self):
        m = benefit_matrix([[1.0, 2.0], [3.0, 1.0], [2.0, 3.0]])
        _, breakdown = rank_msaw(m, [0.5, 0.5])
        assert breakdown.alpha == 3

    def test_alpha_below_n_rejected(self):
        m = benefit_matrix([[1.0], [2.0], [3.0]])
        with pytest.raises(ValueError):
            rank_msaw(m, [1.0], alpha=2)

    def test_alpha_shift_changes_scores_by_constant_only(self):
        m = reference_matrix()
        w = preset_weights("voip")
        base, _ = rank_msaw(m, w, alpha=6)
        for c in (1, 5, 100):
            shifted, _ = rank_msaw(m, w, alpha=6 + c)
            assert shifted.order == base.order
            for label in m.alternatives:
                assert shifted.scores[label] - base.scores[label] == pytest.approx(
                    c, abs=1e-9
                )

    def test_single_alternative_scores_alpha(self):
        m = mixed_matrix([[4.0, 2.0]], ("benefit", "cost"), labels=["only"])
        result, _ = rank_msaw(m, [0.5, 0.5], alpha=7)
        assert result.order == ("only",)
        assert result.scores["only"] == pytest.approx(7.0, abs=1e-9)

    def test_rank_multiset_is_0_to_n_minus_1_under_stable(self):
        m = reference_matrix()
        _, breakdown = rank_msaw(m, VOIP_PRINTED, tie=TiePolicy.STABLE_INDEX)
        for j in range(m.n_criteria):
            assert sorted(breakdown.ranks[:, j]) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_mean_rank_averages_tied_positions(self):
        m = mixed_matrix([[1.0], [1.0], [5.0]], ("cost",))
        _, breakdown = rank_msaw(m, [1.0], tie=TiePolicy.MEAN_RANK)
        assert breakdown.ranks[:, 0].tolist() == [0.5, 0.5, 2.0]

    def test_stable_index_breaks_ties_by_row_order(self):
        m = mixed_matrix([[1.0], [1.0], [5.0]], ("cost",))
        _, breakdown = rank_msaw(m, [1.0], tie=TiePolicy.STABLE_INDEX)
        assert breakdown.ranks[:, 0].tolist() == [0.0, 1.0, 2.0]

    def test_income_equals_alpha_minus_rank_times_weight(self):
        m = reference_matrix()
        _, breakdown = rank_msaw(m, VOIP_PRINTED, tie=TiePolicy.MEAN_RANK, alpha=9)
        expected = (9 - breakdown.ranks) * np.asarray(VOIP_PRINTED)[None, :]
        assert np.array_equal(breakdown.income, expected)

    def test_worst_rank_income_is_the_weight(self):
        m = benefit_matrix([[3.0, 1.0], [2.0, 2.0], [1.0, 3.0]])
        _, breakdown = rank_msaw(m, [0.7, 0.3])
        assert breakdown.income[2, 0] == pytest.approx(0.7)
        assert breakdown.income[0, 1] == pytest.approx(0.3)

    def test_matches_naive_counting_oracle(self):
        rng = np.random.default_rng(4242)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 5))
            values = rng.integers(1, 5, size=(n, m)).astype(float)
            directions = rng.choice(["benefit", "cost"], size=m)
            matrix = mixed_matrix(values, directions)
            weights = rng.uniform(0.05, 1.0, size=m)
            for tie in TiePolicy:
                result, _ = rank_msaw(matrix, weights / weights.sum(), tie=tie)
                naive = naive_msaw_scores(matrix, weights / weights.sum(), tie, n)
                for i, label in enumerate(matrix.alternatives):
                    assert result.scores[label] == pytest.approx(naive[i], abs=1e-12)

    def test_permutation_invariance_under_mean_rank(self):
        rng = np.random.default_rng(11)
        values = rng.integers(1, 4, size=(5, 3)).astype(float)
        matrix = mixed_matrix(values, ("benefit", "cost", "cost"))
        base, _ = rank_msaw(matrix, [0.2, 0.5, 0.3], tie=TiePolicy.MEAN_RANK)
        perm = [3, 0, 4, 2, 1]
        shuffled = mixed_matrix(
            values[perm], ("benefit", "cost", "cost"), labels=[f"a{i}" for i in perm]
        )
        permuted, _ = rank_msaw(shuffled, [0.2, 0.5, 0.3], tie=TiePolicy.MEAN_RANK)
        assert permuted.scores == {k: pytest.approx(v) for k, v in base.scores.items()}

    def test_stable_index_permutation_invariant_on_tie_free_matrices(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            values = rng.permuted(
                np.arange(1.0, 16.0).reshape(5, 3), axis=0
            )  # all values distinct per column
            matrix = mixed_matrix(values, ("benefit", "cost", "benefit"))
            base, _ = rank_msaw(matrix, [0.3, 0.3, 0.4], tie=TiePolicy.STABLE_INDEX)
            perm = rng.permutation(5)
            shuffled = mixed_matrix(
                values[perm], ("benefit", "cost", "benefit"), labels=[f"a{i}" for i in perm]
            )
            permuted, _ = rank_msaw(shuffled, [0.3, 0.3, 0.4], tie=TiePolicy.STABLE_INDEX)
            for label in matrix.alternatives:
                assert permuted.scores[label] == pytest.approx(base.scores[label], abs=1e-12)


class TestMsawMonotoneInvariance:
    def test_monotone_transform_leaves_ranks_and_scores(self):
        m = reference_matrix()
        w = preset_weights("voip")
        base, base_bk = rank_msaw(m, w)
        values = np.array(m.values)
        values[:, 0] = values[:, 0] ** 3  # strictly increasing on a benefit column
        values[:, 1] = 2.0 * values[:, 1] + 7.0  # strictly increasing on a cost column
        transformed = DecisionMatrix(m.alternatives, m.criteria, values)
        result, bk = rank_msaw(transformed, w)
        assert np.array_equal(bk.ranks, base_bk.ranks)
        assert result.scores == base.scores

    def test_saw_lacks_monotone_invariance_witness(self):
        matrix = benefit_matrix([[10.0, 1.0], [9.0, 2.0]], labels=["A", "B"])
        weights = [0.6, 0.4]
        assert rank_saw(matrix, weights).order == ("B", "A")
        # x -> x^10 is strictly increasing, yet it flips the SAW order
        stretched = benefit_matrix([[10.0**10, 1.0], [9.0**10, 2.0]], labels=["A", "B"])
        assert rank_saw(stretched, weights).order == ("A", "B")
        before, _ = rank_msaw(matrix, weights)
        after, _ = rank_msaw(stretched, weights)
        assert before.order == after.order == ("A", "B")


class TestSaw:
    def test_dominant_alternative_scores_one(self):
        m = mixed_matrix(
            [[9.0, 1.0], [4.0, 3.0], [1.0, 8.0]], ("benefit", "cost"), labels=["top", "mid", "low"]
        )
        result = rank_saw(m, [0.6, 0.4])
        assert result.order[0] == "top"
        assert result.scores["top"] == pytest.approx(1.0, abs=1e-12)

    def test_two_point_example(self):
        m = benefit_matrix([[2.0], [4.0]])
        result = rank_saw(m, [1.0])
        assert result.scores == {"a0": 0.5, "a1": 1.0}
        assert result.order == ("a1", "a0")

    def test_reference_voip_order_regression(self):
        result = rank_saw(reference_matrix(), preset_weights("voip"))
        assert result.order == ("N(3)", "N(2)", "N(5)", "N(4)", "N(0)", "N(1)")

    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            values = rng.uniform(0.1, 9.0, size=(4, 3))
            m = mixed_matrix(values, ("benefit", "cost", "cost"))
            result = rank_saw(m, [0.3, 0.4, 0.3])
            assert all(0.0 < s <= 1.0 + 1e-12 for s in result.scores.values())


class TestWpm:
    def test_best_everywhere_scores_one(self):
        m = mixed_matrix([[9.0, 1.0], [4.0, 3.0]], ("benefit", "cost"))
        result = rank_wpm(m, [0.5, 0.5])
        assert result.scores["a0"] == pytest.approx(1.0, abs=1e-12)
        assert result.order[0] == "a0"

    def test_two_point_example(self):
        m = benefit_matrix([[2.0], [4.0]])
        result = rank_wpm(m, [1.0])
        assert result.scores == {"a0": 0.5, "a1": 1.0}

    def test_log_form_equivalence(self):
        rng = np.random.default_rng(17)
        from netselect import normalize

        for _ in range(50):
            values = rng.uniform(0.2, 20.0, size=(5, 4))
            m = mixed_matrix(values, ("benefit", "cost", "benefit", "cost"))
            w = rng.uniform(0.1, 1.0, size=4)
            w /= w.sum()
            result = rank_wpm(m, w)
            r = normalize(m)
            logs = np.exp((np.log(r) * w[None, :]).sum(axis=1))
            for i, label in enumerate(m.alternatives):
                assert abs(result.scores[label] - logs[i]) < 1e-12

    def test_rejects_nonpositive_values(self):
        m = benefit_matrix([[0.0], [2.0]])
        with pytest.raises(MatrixValidationError):
            rank_wpm(m, [1.0])

    def test_reference_voip_order_regression(self):
        result = rank_wpm(reference_matrix(), preset_weights("voip"))
        assert result.order == ("N(3)", "N(2)", "N(5)", "N(4)", "N(0)", "N(1)")


class TestTopsis:
    def test_identical_alternatives_tie(self):
        m = mixed_matrix([[2.0, 3.0], [2.0, 3.0]], ("benefit", "cost"))
        result = rank_topsis(m, [0.5, 0.5])
        assert result.scores["a0"] == result.scores["a1"]
        assert result.ties == (("a0", "a1"),)

    def test_ideal_and_anti_ideal_endpoints(self):
        m = mixed_matrix(
            [[9.0, 1.0], [1.0, 9.0], [5.0, 5.0]], ("benefit", "cost"), labels=["best", "worst", "mid"]
        )
        result = rank_topsis(m, [0.5, 0.5])
        assert result.scores["best"] == pytest.approx(1.0, abs=1e-12)
        assert result.scores["worst"] == pytest.approx(0.0, abs=1e-12)
        assert 0.0 < result.scores["mid"] < 1.0

    def test_closeness_within_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            values = rng.uniform(0.1, 50.0, size=(6, 4))
            m = mixed_matrix(values, ("benefit", "cost", "cost", "benefit"))
            result = rank_topsis(m, rng.dirichlet(np.ones(4)))
            assert all(-1e-12 <= s <= 1.0 + 1e-12 for s in result.scores.values())

    def test_reference_voip_order_regression(self):
        result = rank_topsis(reference_matrix(), preset_weights("voip"))
        assert result.order == ("N(3)", "N(2)", "N(4)", "N(5)", "N(0)", "N(1)")

    @pytest.mark.parametrize("scale", [1e200, 1e-300])
    def test_extreme_column_magnitudes_rank_like_unit_scale(self, scale):
        # Unscaled, the first column's Euclidean norm overflows to inf at
        # 1e200 (silently dropping the criterion) and underflows to 0 at
        # 1e-300 (rejecting a valid matrix).
        unit = benefit_matrix([[1.0, 1.0], [0.5, 3.0]], labels=["x", "y"])
        extreme = benefit_matrix([[scale, 1.0], [0.5 * scale, 3.0]], labels=["x", "y"])
        expected = rank_topsis(unit, [0.9, 0.1])
        result = rank_topsis(extreme, [0.9, 0.1])
        assert result.order == expected.order == ("x", "y")
        for label in ("x", "y"):
            assert result.scores[label] == pytest.approx(expected.scores[label], rel=1e-12)


class TestAhp:
    def test_single_criterion_sorts_by_direction(self):
        m = mixed_matrix([[4.0], [1.0], [9.0]], ("cost",))
        result = rank_ahp(m, [1.0])
        assert result.order == ("a1", "a0", "a2")

    def test_proportional_columns_give_same_order_for_any_weights(self):
        base = np.array([[1.0], [4.0], [2.0]])
        values = np.hstack([base, 3.0 * base, 0.5 * base])
        m = mixed_matrix(values, ("benefit", "benefit", "benefit"))
        rng = np.random.default_rng(8)
        orders = set()
        for _ in range(10):
            w = rng.dirichlet(np.ones(3))
            orders.add(rank_ahp(m, w).order)
        assert orders == {("a1", "a2", "a0")}

    def test_local_priorities_sum_to_one_per_criterion(self):
        m = reference_matrix()
        result = rank_ahp(m, [0.2] * 5)
        assert sum(result.scores.values()) == pytest.approx(1.0, abs=1e-9)

    def test_reference_voip_order_regression(self):
        result = rank_ahp(reference_matrix(), preset_weights("voip"))
        assert result.order == ("N(3)", "N(2)", "N(5)", "N(4)", "N(0)", "N(1)")


class TestDispatcher:
    def test_all_methods_reachable(self):
        m = reference_matrix()
        w = preset_weights("voip")
        for method in ("msaw", "saw", "wpm", "topsis", "ahp"):
            result = rank(m, w, method)
            assert result.method == method
            assert sorted(result.order) == sorted(m.alternatives)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            rank(reference_matrix(), preset_weights("voip"), "grey")

    def test_weight_scale_invariance_of_every_order(self):
        # Moderate scales: wpm raises normalized values to the scaled
        # weights, so extreme scales push its scores below the absolute
        # tie tolerance even though the order is preserved mathematically.
        m = reference_matrix()
        base_w = np.array(VOIP_PRINTED)
        for method in ("msaw", "saw", "wpm", "topsis", "ahp"):
            orders = {rank(m, base_w * c, method).order for c in (0.25, 1.0, 3.0)}
            assert len(orders) == 1

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rank_saw(reference_matrix(), [0.5, 0.5])
