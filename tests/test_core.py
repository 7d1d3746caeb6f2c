import numpy as np
import pytest

from netselect import (
    METHODS,
    CriterionSpec,
    DecisionMatrix,
    Direction,
    MatrixValidationError,
    RankingResult,
    WeightVector,
    drop_alternative,
    duplicate_alternative,
    normalize,
    rank,
    require_valid,
    validate_matrix,
)
from netselect.core import as_weight_array
from netselect.scenario import reference_matrix


def small_matrix(values, directions=("benefit", "cost")):
    criteria = tuple(
        CriterionSpec(f"c{j}", Direction.parse(d)) for j, d in enumerate(directions)
    )
    labels = [f"a{i}" for i in range(len(values))]
    return DecisionMatrix(labels, criteria, values)


class TestValidateMatrix:
    def test_reference_matrix_is_valid(self):
        assert validate_matrix(reference_matrix()) == []

    def test_minimal_1x1_benefit(self):
        m = DecisionMatrix(["only"], (CriterionSpec("c", Direction.BENEFIT),), [[5.0]])
        assert validate_matrix(m) == []

    def test_zero_in_cost_column_flagged_with_coordinates(self):
        m = DecisionMatrix(
            ["a", "b"],
            (CriterionSpec("c", Direction.COST),),
            [[1.0], [0.0]],
        )
        violations = validate_matrix(m)
        assert len(violations) == 1
        assert violations[0].code == "nonpositive_cost"
        assert (violations[0].row, violations[0].col) == (1, 0)

    def test_negative_benefit_flagged(self):
        m = DecisionMatrix(["a"], (CriterionSpec("c", Direction.BENEFIT),), [[-1.0]])
        assert "negative_benefit" in [v.code for v in validate_matrix(m)]

    def test_all_zero_benefit_column_flagged(self):
        m = DecisionMatrix(
            ["a", "b"], (CriterionSpec("c", Direction.BENEFIT),), [[0.0], [0.0]]
        )
        assert "zero_benefit_column" in [v.code for v in validate_matrix(m)]

    def test_non_finite_flagged(self):
        m = DecisionMatrix(
            ["a", "b"], (CriterionSpec("c", Direction.BENEFIT),), [[1.0], [float("nan")]]
        )
        codes = [v.code for v in validate_matrix(m)]
        assert "non_finite" in codes

    def test_duplicate_labels_flagged(self):
        m = DecisionMatrix(
            ["a", "a"], (CriterionSpec("c", Direction.BENEFIT),), [[1.0], [2.0]]
        )
        assert "duplicate_label" in [v.code for v in validate_matrix(m)]

    def test_dimension_mismatch_flagged(self):
        m = DecisionMatrix(
            ["a", "b", "c"],
            (CriterionSpec("c0", Direction.BENEFIT),),
            [[1.0], [2.0]],
        )
        assert "dimension_mismatch" in [v.code for v in validate_matrix(m)]

    def test_runs_once_per_matrix(self, monkeypatch):
        import netselect.core

        calls = []
        original = netselect.core.validate_matrix

        def counting(matrix):
            calls.append(matrix)
            return original(matrix)

        monkeypatch.setattr(netselect.core, "validate_matrix", counting)
        m = reference_matrix()
        for _ in range(2):
            require_valid(m)
            normalize(m)
            for method in METHODS:
                rank(m, [0.2] * 5, method)
        assert calls == [m]

        bad = small_matrix([[1.0, 0.0]])
        for _ in range(3):
            with pytest.raises(MatrixValidationError) as err:
                require_valid(bad)
            assert [v.code for v in err.value.violations] == ["nonpositive_cost"]
        assert calls == [m, bad]

    def test_cell_scan_matches_per_cell_reference(self):
        def reference(matrix):
            found = []
            for j, spec in enumerate(matrix.criteria):
                column = matrix.values[:, j]
                for i in range(matrix.n_alternatives):
                    cell = column[i]
                    if not np.isfinite(cell):
                        found.append(("non_finite", f"value {cell!r} is not finite", i, j))
                    elif spec.direction is Direction.COST and cell <= 0.0:
                        message = f"cost criterion {spec.name!r} has non-positive value {cell!r}"
                        found.append(("nonpositive_cost", message, i, j))
                    elif spec.direction is Direction.BENEFIT and cell < 0.0:
                        message = f"benefit criterion {spec.name!r} has negative value {cell!r}"
                        found.append(("negative_benefit", message, i, j))
                if (
                    spec.direction is Direction.BENEFIT
                    and np.all(np.isfinite(column))
                    and float(np.max(column)) <= 0.0
                ):
                    message = f"benefit criterion {spec.name!r} has no positive value"
                    found.append(("zero_benefit_column", message, None, j))
            return found

        rng = np.random.default_rng(99)
        pool = np.array([0.0, -0.0, -2.5, 1.0, 7.0, np.nan, np.inf, -np.inf, 1e-300])
        for _ in range(500):
            n, m = rng.integers(1, 5), rng.integers(1, 4)
            directions = tuple(rng.choice(["benefit", "cost"], size=m))
            matrix = small_matrix(rng.choice(pool, size=(n, m)).tolist(), directions)
            got = [(v.code, v.message, v.row, v.col) for v in validate_matrix(matrix)]
            assert got == reference(matrix)

    def test_require_valid_raises_with_violations(self):
        m = DecisionMatrix(
            ["a", "b"], (CriterionSpec("c", Direction.COST),), [[1.0], [0.0]]
        )
        with pytest.raises(MatrixValidationError) as err:
            require_valid(m)
        assert err.value.violations[0].code == "nonpositive_cost"


class TestNormalize:
    def test_benefit_column_max_maps_to_one(self):
        column = [1.730, 5.076, 6.849, 6.329, 66.66, 62.5]
        m = small_matrix([[v] for v in column], directions=("benefit",))
        r = normalize(m)[:, 0]
        assert r[4] == 1.0
        assert np.allclose(r, np.array(column) / 66.66)

    def test_cost_column_min_maps_to_one(self):
        column = [105.85, 134.88, 43.98, 32.15, 95.15, 99.73]
        m = small_matrix([[v] for v in column], directions=("cost",))
        r = normalize(m)[:, 0]
        assert r[3] == 1.0
        assert r[1] == pytest.approx(32.15 / 134.88, abs=1e-12)
        assert r[1] == pytest.approx(0.23836, abs=1e-5)

    def test_identical_column_all_ones(self):
        for direction in ("benefit", "cost"):
            m = small_matrix([[3.5], [3.5], [3.5]], directions=(direction,))
            assert np.array_equal(normalize(m), np.ones((3, 1)))

    def test_only_extremum_normalizes_to_one_when_distinct(self):
        m = small_matrix([[1.0, 9.0], [4.0, 3.0], [2.0, 5.0]])
        r = normalize(m)
        assert np.count_nonzero(r[:, 0] == 1.0) == 1 and r[1, 0] == 1.0
        assert np.count_nonzero(r[:, 1] == 1.0) == 1 and r[1, 1] == 1.0
        assert np.all(r <= 1.0) and np.all(r > 0.0)

    def test_idempotent_on_normalized_benefit_columns(self):
        m = small_matrix([[0.25], [1.0], [0.5]], directions=("benefit",))
        first = normalize(m)
        again = normalize(small_matrix(first.tolist(), directions=("benefit",)))
        assert np.array_equal(first, again)

    def test_scale_invariance_both_directions(self):
        rng = np.random.default_rng(1234)
        for _ in range(50):
            values = rng.uniform(0.1, 50.0, size=(4, 2))
            m = small_matrix(values.tolist())
            base = normalize(m)
            for c in (0.001, 3.0, 1e6):
                scaled = values.copy()
                scaled[:, 0] *= c
                scaled[:, 1] *= c
                assert np.allclose(
                    normalize(small_matrix(scaled.tolist())), base, rtol=1e-12, atol=0.0
                )

    def test_rejects_invalid_matrix(self):
        m = small_matrix([[1.0, 0.0]], directions=("benefit", "cost"))
        with pytest.raises(MatrixValidationError):
            normalize(m)


class TestDropAlternative:
    def test_drop_keeps_order_and_values(self):
        m = reference_matrix()
        reduced = drop_alternative(m, "N(4)")
        assert reduced.alternatives == ("N(0)", "N(1)", "N(2)", "N(3)", "N(5)")
        assert reduced.criteria == m.criteria
        assert np.array_equal(reduced.values, np.delete(m.values, 4, axis=0))

    def test_original_matrix_unchanged(self):
        m = reference_matrix()
        before = m.values.copy()
        drop_alternative(m, "N(0)")
        assert np.array_equal(m.values, before)
        assert len(m.alternatives) == 6

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            drop_alternative(reference_matrix(), "N(9)")

    def test_drop_only_row_rejected(self):
        m = DecisionMatrix(["solo"], (CriterionSpec("c", Direction.BENEFIT),), [[1.0]])
        with pytest.raises(ValueError):
            drop_alternative(m, "solo")

    def test_dropping_extremum_holder_changes_normalization(self):
        m = reference_matrix()
        base = normalize(m)
        reduced = drop_alternative(m, "N(4)")  # holds the bandwidth maximum
        r = normalize(reduced)
        survivors = [0, 1, 2, 3, 5]
        assert not np.allclose(r[:, 0], base[survivors, 0])
        assert np.allclose(r[:, 2], base[survivors, 2])  # N(4) was no PLR extremum


class TestDuplicateAlternative:
    def test_appends_exact_replica(self):
        m = reference_matrix()
        dup = duplicate_alternative(m, "N(2)")
        assert dup.alternatives[-1] == "N(2) (copy)"
        assert np.array_equal(dup.values[-1], m.values[2])
        assert dup.n_alternatives == 7

    def test_copy_label_collision_rejected(self):
        base = reference_matrix()
        m = DecisionMatrix(["x", "x (copy)"], base.criteria, base.values[:2])
        with pytest.raises(ValueError, match=r"copy label 'x \(copy\)' already exists"):
            duplicate_alternative(m, "x")

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            duplicate_alternative(reference_matrix(), "nope")


class TestWeightVector:
    def test_sum_must_be_one(self):
        with pytest.raises(ValueError):
            WeightVector((0.5, 0.4))
        WeightVector((0.5, 0.5))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            WeightVector((1.5, -0.5))

    def test_normalized_rescales(self):
        w = WeightVector.normalized((2.0, 2.0, 4.0))
        assert w.weights == (0.25, 0.25, 0.5)

    def test_as_weight_array_accepts_plain_sequences(self):
        arr = as_weight_array([0.047, 0.486, 0.371, 0.047, 0.047], 5)
        assert arr.shape == (5,)
        with pytest.raises(ValueError):
            as_weight_array([0.5, 0.5], 3)
        with pytest.raises(ValueError):
            as_weight_array([0.0, 0.0], 2)


class TestRankingResult:
    def test_order_descending_with_stable_ties(self):
        r = RankingResult.from_scores("x", ["a", "b", "c"], [1.0, 3.0, 3.0])
        assert r.order == ("b", "c", "a")
        assert r.ties == (("b", "c"),)

    def test_tie_tolerance(self):
        r = RankingResult.from_scores("x", ["a", "b"], [1.0, 1.0 + 5e-10])
        assert r.ties == (("a", "b"),)
        assert r.order == ("a", "b")  # tied members fall back to matrix order
        r = RankingResult.from_scores("x", ["a", "b"], [1.0, 1.1])
        assert r.ties == ()
        assert r.order == ("b", "a")

    def test_order_is_permutation(self):
        r = RankingResult.from_scores("x", ["a", "b", "c"], [0.2, 0.1, 0.3])
        assert sorted(r.order) == ["a", "b", "c"]
        assert r.scores == {"a": 0.2, "b": 0.1, "c": 0.3}

    def test_matrix_values_are_read_only(self):
        m = reference_matrix()
        with pytest.raises(ValueError):
            m.values[0, 0] = 99.0
