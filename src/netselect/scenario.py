"""Synthetic decision matrices from per-technology margins, plus the bundled benchmark.

Each radio-access profile carries uniform draw ranges for bandwidth, delay,
and packet loss, a fixed relative cost level, and the coefficients of a
linear throughput-to-power model. Generation is a pure function of the
scenario (seed included): the same spec always yields the same matrix, on
every platform, thanks to the fixed SplitMix64 recurrence in
:mod:`netselect.rng`.
"""

import json
from dataclasses import dataclass, replace
from importlib import resources
from numbers import Integral

import numpy as np

from .core import CriterionSpec, DecisionMatrix, Direction, require_valid
from .rng import stream_uint64, unit_doubles

# Criterion layout every generated matrix (and the bundled benchmark) uses.
STANDARD_CRITERIA = (
    CriterionSpec("Bandwidth", Direction.BENEFIT, "Mbps"),
    CriterionSpec("Delay", Direction.COST, "ms"),
    CriterionSpec("PLR", Direction.COST, "%"),
    CriterionSpec("Energy", Direction.COST, "mJ/s"),
    CriterionSpec("Cost", Direction.COST, "relative"),
)


@dataclass(frozen=True)
class EnergyCoeffs:
    """Linear power model coefficients: mJ/s per Mbps up/down plus a baseline mJ/s."""

    uplink: float
    downlink: float
    baseline: float

    def __post_init__(self):
        for name in ("uplink", "downlink", "baseline"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"energy coefficient {name} must be nonnegative")


def energy_consumption(th_up: float, th_down: float, coeffs) -> float:
    """Power draw in mJ/s for the given uplink/downlink throughput in Mbps.

    Throughputs may be floats or equal-shape arrays; the result has their shape.
    """
    if not isinstance(coeffs, EnergyCoeffs):
        coeffs = EnergyCoeffs(*coeffs)
    if np.any(np.less(th_up, 0.0)) or np.any(np.less(th_down, 0.0)):
        raise ValueError("throughput must be nonnegative")
    return coeffs.uplink * th_up + coeffs.downlink * th_down + coeffs.baseline


def _check_range(name: str, lo: float, hi: float) -> tuple[float, float]:
    if lo < 0.0:
        raise ValueError(f"{name}: lower bound {lo!r} must be nonnegative")
    if lo > hi:
        raise ValueError(f"{name}: lower bound {lo!r} exceeds upper bound {hi!r}")
    return (float(lo), float(hi))


@dataclass(frozen=True)
class RatProfile:
    """Draw ranges and cost/energy parameters for one radio access technology."""

    name: str
    bandwidth_range: tuple[float, float]
    delay_range: tuple[float, float]
    plr_range: tuple[float, float]
    cost_level: float
    energy_coeffs: EnergyCoeffs

    def __post_init__(self):
        if not self.name:
            raise ValueError("profile name must be nonempty")
        object.__setattr__(
            self, "bandwidth_range", _check_range("bandwidth_range", *self.bandwidth_range)
        )
        object.__setattr__(self, "delay_range", _check_range("delay_range", *self.delay_range))
        object.__setattr__(self, "plr_range", _check_range("plr_range", *self.plr_range))
        if self.cost_level <= 0.0:
            raise ValueError("cost_level must be strictly positive")
        if not isinstance(self.energy_coeffs, EnergyCoeffs):
            object.__setattr__(self, "energy_coeffs", EnergyCoeffs(*self.energy_coeffs))


@dataclass(frozen=True)
class ScenarioSpec:
    """A reproducible generation recipe: profiles, instance count, seed, uplink split."""

    profiles: tuple[RatProfile, ...]
    instances_per_profile: int = 1
    seed: int = 0
    uplink_fraction: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "profiles", tuple(self.profiles))
        if not self.profiles:
            raise ValueError("scenario needs at least one profile")
        names = [p.name for p in self.profiles]
        if len(set(names)) != len(names):
            raise ValueError("profile names must be unique")
        if not isinstance(self.instances_per_profile, Integral):
            raise ValueError("instances_per_profile must be an integer")
        if self.instances_per_profile < 1:
            raise ValueError("instances_per_profile must be at least 1")
        if not isinstance(self.seed, Integral) or not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if not 0.0 <= self.uplink_fraction <= 1.0:
            raise ValueError("uplink_fraction must be within [0, 1]")

    def with_seed(self, seed: int) -> "ScenarioSpec":
        return replace(self, seed=seed)


def generate_values(spec: ScenarioSpec, seeds) -> np.ndarray:
    """Value grids of the matrices :func:`generate_matrix` draws for each seed.

    Returns an array of shape ``(len(seeds), n, 5)``, one matrix per seed,
    where ``n`` is ``len(spec.profiles) * spec.instances_per_profile``; the
    spec's own seed is ignored. Row ``i`` of a matrix takes outputs 3i+1,
    3i+2 and 3i+3 of its seed's SplitMix64 stream as the bandwidth, delay
    and PLR uniforms, and every value comes out of the same floating-point
    operations as a draw of :meth:`SplitMix64.uniform` would, so each grid
    is bit-identical whatever the number of seeds.
    """
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    per = spec.instances_per_profile
    n = len(spec.profiles) * per
    uniforms = unit_doubles(stream_uint64(seeds, 3 * n)).reshape(len(seeds), n, 3)
    values = np.empty((len(seeds), n, len(STANDARD_CRITERIA)))
    # Overflow gives inf (and inf * 0 gives nan) silently, as in Python float
    # arithmetic; validation then reports the non-finite value.
    with np.errstate(over="ignore", invalid="ignore"):
        for p, profile in enumerate(spec.profiles):
            rows = slice(p * per, (p + 1) * per)
            ranges = (profile.bandwidth_range, profile.delay_range, profile.plr_range)
            for col, (low, high) in enumerate(ranges):
                values[:, rows, col] = low + (high - low) * uniforms[:, rows, col]
            bandwidth = values[:, rows, 0]
            values[:, rows, 3] = energy_consumption(
                bandwidth * spec.uplink_fraction,
                bandwidth * (1.0 - spec.uplink_fraction),
                profile.energy_coeffs,
            )
            values[:, rows, 4] = profile.cost_level
    return values


def generate_matrix(spec: ScenarioSpec) -> DecisionMatrix:
    """Draw one decision matrix from a scenario spec.

    Rows are emitted profile by profile, instance by instance; per instance
    the draws are bandwidth, delay, PLR, in that order (this ordering is
    part of the determinism contract). The energy column applies the
    profile's power model to the drawn bandwidth split by
    ``uplink_fraction``; the cost column is the profile's cost level.
    This is :func:`generate_values` for the spec's seed, with labels.
    """
    labels = [
        f"{profile.name}-{k}"
        for profile in spec.profiles
        for k in range(spec.instances_per_profile)
    ]
    values = generate_values(spec, [spec.seed])[0]
    return require_valid(DecisionMatrix(labels, STANDARD_CRITERIA, values))


# The bundled six-network benchmark used throughout the tests and demos.
REFERENCE_VALUES = (
    ("N(0)", (1.730, 105.85, 7.94, 1.00, 0.2)),
    ("N(1)", (5.076, 134.88, 6.70, 2.6, 0.2)),
    ("N(2)", (6.849, 43.98, 2.84, 6.26, 1.0)),
    ("N(3)", (6.329, 32.15, 3.05, 5.86, 1.0)),
    ("N(4)", (66.66, 95.15, 6.32, 12.78, 0.4)),
    ("N(5)", (62.5, 99.73, 5.80, 10.28, 0.4)),
)


def reference_matrix() -> DecisionMatrix:
    """The bundled 6-network, 5-criterion benchmark matrix."""
    labels = [label for label, _ in REFERENCE_VALUES]
    rows = [row for _, row in REFERENCE_VALUES]
    return DecisionMatrix(labels, STANDARD_CRITERIA, rows)


def _profile_from_dict(data: dict) -> RatProfile:
    try:
        return RatProfile(
            name=data["name"],
            bandwidth_range=tuple(data["bandwidth_range"]),
            delay_range=tuple(data["delay_range"]),
            plr_range=tuple(data["plr_range"]),
            cost_level=data["cost_level"],
            energy_coeffs=EnergyCoeffs(**data["energy_coeffs"]),
        )
    except KeyError as exc:
        raise ValueError(f"profile is missing field {exc.args[0]!r}") from None


def scenario_from_dict(data: dict) -> ScenarioSpec:
    """Build a ScenarioSpec from parsed JSON; ``description`` keys are ignored."""
    try:
        profiles = [_profile_from_dict(p) for p in data["profiles"]]
    except KeyError:
        raise ValueError("scenario is missing field 'profiles'") from None
    return ScenarioSpec(
        profiles=tuple(profiles),
        instances_per_profile=data.get("instances_per_profile", 1),
        seed=data.get("seed", 0),
        uplink_fraction=data.get("uplink_fraction", 0.1),
    )


def example_scenario() -> ScenarioSpec:
    """The bundled example scenario (Wi-Fi / 3G / LTE margins, illustrative energy model)."""
    text = resources.files("netselect").joinpath("data/example_scenario.json").read_text("utf-8")
    return scenario_from_dict(json.loads(text))
