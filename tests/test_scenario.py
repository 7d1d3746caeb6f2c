import numpy as np
import pytest

from netselect import (
    Direction,
    EnergyCoeffs,
    RatProfile,
    ScenarioSpec,
    energy_consumption,
    example_scenario,
    generate_matrix,
    read_scenario,
    reference_matrix,
    write_scenario,
)
from netselect.rng import SplitMix64, derive_seed
from netselect.scenario import STANDARD_CRITERIA


def profile(name="wifi", bw=(1.0, 11.0), delay=(100.0, 150.0), plr=(0.2, 3.0), cost=1.0,
            coeffs=EnergyCoeffs(250.0, 120.0, 150.0)):
    return RatProfile(name, bw, delay, plr, cost, coeffs)


class TestEnergyConsumption:
    def test_zero_throughput_gives_baseline(self):
        for coeffs in (EnergyCoeffs(3.0, 9.0, 4.5), EnergyCoeffs(0.0, 0.0, 4.5)):
            assert energy_consumption(0.0, 0.0, coeffs) == 4.5

    def test_zero_coefficients_give_baseline(self):
        assert energy_consumption(1.0, 1.0, (0.0, 0.0, 5.0)) == 5.0

    def test_exact_linear_form(self):
        assert energy_consumption(2.0, 3.0, EnergyCoeffs(10.0, 100.0, 7.0)) == 327.0

    def test_linearity_about_baseline(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            up, down = rng.uniform(0.0, 40.0, size=2)
            coeffs = EnergyCoeffs(*rng.uniform(0.0, 500.0, size=3))
            doubled = energy_consumption(2 * up, 2 * down, coeffs) - coeffs.baseline
            single = energy_consumption(up, down, coeffs) - coeffs.baseline
            assert doubled == pytest.approx(2 * single, rel=1e-12)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            energy_consumption(-1.0, 0.0, (1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            EnergyCoeffs(1.0, -1.0, 0.0)


class TestProfileValidation:
    def test_range_lo_above_hi_rejected_with_field_name(self):
        with pytest.raises(ValueError, match="delay_range"):
            profile(delay=(50.0, 25.0))

    def test_negative_range_rejected(self):
        with pytest.raises(ValueError, match="plr_range"):
            profile(plr=(-0.5, 1.0))

    def test_cost_level_must_be_positive(self):
        with pytest.raises(ValueError):
            profile(cost=0.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(profiles=())
        with pytest.raises(ValueError):
            ScenarioSpec(profiles=(profile(), profile()), instances_per_profile=1)
        with pytest.raises(ValueError):
            ScenarioSpec(profiles=(profile(),), instances_per_profile=0)
        with pytest.raises(ValueError):
            ScenarioSpec(profiles=(profile(),), seed=-1)
        with pytest.raises(ValueError):
            ScenarioSpec(profiles=(profile(),), uplink_fraction=1.5)


class TestGenerateMatrix:
    def test_same_seed_gives_identical_matrices(self):
        spec = example_scenario().with_seed(123)
        assert generate_matrix(spec) == generate_matrix(spec)

    def test_different_seeds_differ(self):
        spec = example_scenario()
        assert generate_matrix(spec.with_seed(1)) != generate_matrix(spec.with_seed(2))

    def test_draws_respect_profile_margins(self):
        wifi = profile()
        spec = ScenarioSpec(profiles=(wifi,), instances_per_profile=40, seed=7)
        matrix = generate_matrix(spec)
        bandwidth = matrix.values[:, 0]
        delay = matrix.values[:, 1]
        plr = matrix.values[:, 2]
        assert np.all((1.0 <= bandwidth) & (bandwidth <= 11.0))
        assert np.all((100.0 <= delay) & (delay <= 150.0))
        assert np.all((0.2 <= plr) & (plr <= 3.0))
        assert np.all(matrix.values[:, 4] == 1.0)

    def test_degenerate_range_is_constant(self):
        spec = ScenarioSpec(
            profiles=(profile(bw=(5.0, 5.0)),), instances_per_profile=10, seed=3
        )
        assert np.all(generate_matrix(spec).values[:, 0] == 5.0)

    def test_energy_column_rederivable_exactly(self):
        spec = example_scenario().with_seed(99)
        matrix = generate_matrix(spec)
        by_name = {p.name: p for p in spec.profiles}
        for label, row in zip(matrix.alternatives, matrix.values):
            coeffs = by_name[label.rsplit("-", 1)[0]].energy_coeffs
            bandwidth = row[0]
            expected = energy_consumption(
                bandwidth * spec.uplink_fraction,
                bandwidth * (1.0 - spec.uplink_fraction),
                coeffs,
            )
            assert row[3] == expected

    def test_standard_criteria_layout(self):
        matrix = generate_matrix(example_scenario())
        assert matrix.criteria == STANDARD_CRITERIA
        assert matrix.criterion_names == ("Bandwidth", "Delay", "PLR", "Energy", "Cost")
        assert matrix.directions == (
            Direction.BENEFIT,
            Direction.COST,
            Direction.COST,
            Direction.COST,
            Direction.COST,
        )

    def test_labels_unique_and_profile_scoped(self):
        matrix = generate_matrix(example_scenario())
        assert len(set(matrix.alternatives)) == len(matrix.alternatives)
        assert matrix.alternatives[0] == "WiFi-0"


class TestScenarioRoundTrip:
    def test_write_then_read_is_identity(self, tmp_path):
        example = example_scenario()
        wide = ScenarioSpec(
            (profile("wifi"), profile("lte", cost=2.5, coeffs=EnergyCoeffs(1.5, 0.25, 3.0))),
            instances_per_profile=3,
            seed=2**64 - 1,
            uplink_fraction=0.25,
        )
        for spec in (example, wide):
            path = tmp_path / "spec.json"
            write_scenario(spec, path)
            assert read_scenario(path) == spec


class TestReferenceMatrix:
    def test_shape_and_labels(self):
        m = reference_matrix()
        assert m.n_alternatives == 6
        assert m.n_criteria == 5
        assert m.alternatives == ("N(0)", "N(1)", "N(2)", "N(3)", "N(4)", "N(5)")

    def test_spot_values(self):
        m = reference_matrix()
        assert m.value("N(4)", "Bandwidth") == 66.66
        assert m.value("N(3)", "Delay") == 32.15
        assert m.value("N(0)", "PLR") == 7.94
        assert m.value("N(5)", "Cost") == 0.4

    def test_valid(self):
        from netselect import validate_matrix

        assert validate_matrix(reference_matrix()) == []


class TestSplitMix64:
    def test_known_stream_for_seed_zero(self):
        # First outputs of the published recurrence for state 0.
        rng = SplitMix64(0)
        assert rng.next_uint64() == 0xE220A8397B1DCDAF
        assert rng.next_uint64() == 0x6E789E6AA1B965F4
        assert rng.next_uint64() == 0x06C45D188009454F

    def test_uniform_within_bounds(self):
        rng = SplitMix64(5)
        draws = [rng.uniform(2.0, 3.0) for _ in range(1000)]
        assert all(2.0 <= d < 3.0 for d in draws)
        assert rng.uniform(4.0, 4.0) == 4.0

    def test_randrange_unbiased_domain(self):
        rng = SplitMix64(5)
        draws = {rng.randrange(7) for _ in range(200)}
        assert draws == set(range(7))
        with pytest.raises(ValueError):
            rng.randrange(0)

    def test_derive_seed_matches_stream_outputs(self):
        base = 987654321
        stream = SplitMix64(base)
        children = [stream.next_uint64() for _ in range(5)]
        assert [derive_seed(base, i) for i in range(5)] == children

    def test_seed_must_be_int(self):
        with pytest.raises(TypeError):
            SplitMix64(1.5)
