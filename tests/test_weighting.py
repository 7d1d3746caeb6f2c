import math

import numpy as np
import pytest

from netselect import (
    ConvergenceError,
    PairwiseMatrix,
    ServiceClass,
    WeightVector,
    preset_weights,
    principal_eigenvector,
)
from netselect import weighting
from netselect.weighting import PRESET_WEIGHTS_RAW, RANDOM_INDEX


class TestPairwiseMatrix:
    def test_valid_matrix_accepted(self):
        PairwiseMatrix([[1.0, 3.0], [1 / 3, 1.0]])

    def test_diagonal_must_be_one(self):
        with pytest.raises(ValueError):
            PairwiseMatrix([[2.0, 1.0], [1.0, 1.0]])

    def test_reciprocal_symmetry_enforced(self):
        with pytest.raises(ValueError):
            PairwiseMatrix([[1.0, 3.0], [0.5, 1.0]])

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            PairwiseMatrix([[1.0, -3.0], [-1 / 3, 1.0]])

    def test_must_be_square(self):
        with pytest.raises(ValueError):
            PairwiseMatrix([[1.0, 2.0, 3.0], [0.5, 1.0, 2.0]])

    def test_from_priorities_is_consistent(self):
        pm = PairwiseMatrix.from_priorities([3.0, 1.0, 2.0])
        assert pm.values[0, 1] == 3.0
        assert pm.values[2, 1] == 2.0


class TestPrincipalEigenvector:
    def test_uniform_2x2(self):
        d = principal_eigenvector(PairwiseMatrix([[1.0, 1.0], [1.0, 1.0]]))
        assert d.weights.weights == pytest.approx((0.5, 0.5), abs=1e-12)
        assert d.principal_eigenvalue == pytest.approx(2.0, abs=1e-12)

    def test_2x2_matches_characteristic_polynomial(self):
        # [[1, a], [1/a, 1]] has det(A - x I) = x^2 - 2x, so the dominant
        # root is 2 with eigenvector proportional to (a, 1).
        a = 3.0
        d = principal_eigenvector(PairwiseMatrix([[1.0, a], [1 / a, 1.0]]))
        assert d.weights.weights == pytest.approx((a / (a + 1), 1 / (a + 1)), abs=1e-12)
        assert d.principal_eigenvalue == pytest.approx(2.0, abs=1e-12)
        assert d.consistency_ratio == 0.0

    def test_1x1(self):
        d = principal_eigenvector(PairwiseMatrix([[1.0]]))
        assert d.weights.weights == (1.0,)
        assert d.principal_eigenvalue == 1.0

    def test_construct_then_recover(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            m = int(rng.integers(2, 9))
            target = rng.uniform(0.1, 5.0, size=m)
            target /= target.sum()
            pm = PairwiseMatrix.from_priorities(target)
            d = principal_eigenvector(pm)
            assert np.allclose(d.weights.as_array(), target, atol=1e-11)
            assert abs(d.principal_eigenvalue - m) < 1e-6

    def test_eigenvalue_at_least_m_for_inconsistent_matrix(self):
        pm = PairwiseMatrix([[1.0, 2.0, 7.0], [0.5, 1.0, 0.25], [1 / 7, 4.0, 1.0]])
        d = principal_eigenvector(pm)
        assert d.principal_eigenvalue >= 3.0
        assert d.consistency_ratio > 0.0

    def test_reciprocal_transpose_has_same_weights(self):
        pm = PairwiseMatrix([[1.0, 2.0, 7.0], [0.5, 1.0, 0.25], [1 / 7, 4.0, 1.0]])
        transposed = PairwiseMatrix(1.0 / pm.values.T)
        a = principal_eigenvector(pm)
        b = principal_eigenvector(transposed)
        assert np.allclose(a.weights.as_array(), b.weights.as_array(), atol=1e-9)

    def test_non_convergence_reports_residual(self, monkeypatch):
        monkeypatch.setattr(weighting, "DEFAULT_MAX_ITER", 1)
        monkeypatch.setattr(weighting, "DEFAULT_TOL", 1e-16)
        pm = PairwiseMatrix([[1.0, 9.0, 0.2], [1 / 9, 1.0, 5.0], [5.0, 0.2, 1.0]])
        with pytest.raises(ConvergenceError) as err:
            principal_eigenvector(pm)
        assert err.value.iterations == 1
        assert err.value.residual > 0.0


class TestConsistencyRatio:
    def test_zero_for_consistent_any_size(self):
        rng = np.random.default_rng(7)
        for m in (3, 5, 8):
            pm = PairwiseMatrix.from_priorities(rng.uniform(0.5, 2.0, size=m))
            d = principal_eigenvector(pm)
            assert d.consistency_ratio < 1e-6

    def test_zero_by_definition_below_three(self):
        d = principal_eigenvector(PairwiseMatrix([[1.0, 4.0], [0.25, 1.0]]))
        assert d.consistency_ratio == 0.0

    def test_positive_for_perturbed_matrix(self):
        rng = np.random.default_rng(21)
        base = rng.uniform(0.5, 2.0, size=5)
        values = base[:, None] / base[None, :]
        values[0, 1] *= 3.0
        values[1, 0] = 1.0 / values[0, 1]
        d = principal_eigenvector(PairwiseMatrix(values))
        assert d.consistency_ratio > 0.0

    def test_matches_definition(self):
        pm = PairwiseMatrix([[1.0, 2.0, 7.0], [0.5, 1.0, 0.25], [1 / 7, 4.0, 1.0]])
        d = principal_eigenvector(pm)
        expected = (d.principal_eigenvalue - 3) / 2 / RANDOM_INDEX[3]
        assert d.consistency_ratio == pytest.approx(expected, rel=1e-12)


class TestPresetWeights:
    @pytest.mark.parametrize("service", list(ServiceClass))
    def test_rows_rescaled_from_printed_values(self, service):
        raw = PRESET_WEIGHTS_RAW[service]
        assert sum(raw) == pytest.approx(0.998, abs=1e-12)
        w = preset_weights(service)
        assert isinstance(w, WeightVector)
        assert math.isclose(sum(w.weights), 1.0, abs_tol=1e-12)
        for got, printed in zip(w.weights, raw):
            assert got == pytest.approx(printed / 0.998, abs=1e-15)

    def test_known_voip_row(self):
        w = preset_weights("voip")
        assert w.weights == pytest.approx(
            tuple(v / 0.998 for v in (0.047, 0.486, 0.371, 0.047, 0.047)), abs=1e-15
        )

    def test_string_aliases(self):
        assert preset_weights("VoIP") == preset_weights(ServiceClass.VOIP)
        assert preset_weights("best-effort") == preset_weights("best_effort")
        assert preset_weights("BestEffort") == preset_weights(ServiceClass.BEST_EFFORT)

    def test_unknown_service_rejected(self):
        with pytest.raises(ValueError):
            preset_weights("gaming")
