"""Criterion weights: eigenvector derivation from pairwise comparisons, plus presets.

The dominant eigenvector of a positive reciprocal comparison matrix is the
classic AHP prior on criterion importance. It is computed here by power
iteration with a deterministic uniform start, together with the principal
eigenvalue and the standard consistency ratio.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import WeightVector

# Random-index values for the consistency ratio, indexed by matrix size.
# Sizes above 10 reuse the size-10 entry.
RANDOM_INDEX = {1: 0.0, 2: 0.0, 3: 0.58, 4: 0.90, 5: 1.12, 6: 1.24, 7: 1.32, 8: 1.41, 9: 1.45, 10: 1.49}

DEFAULT_MAX_ITER = 1000
DEFAULT_TOL = 1e-12


class ConvergenceError(RuntimeError):
    """Power iteration failed to converge within the iteration budget."""

    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"power iteration did not converge after {iterations} iterations "
            f"(last residual {residual:.3e})"
        )


@dataclass(frozen=True, eq=False)
class PairwiseMatrix:
    """Positive reciprocal comparison matrix: unit diagonal, a_ij = 1/a_ji."""

    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError(f"pairwise matrix must be square, got shape {values.shape}")
        m = values.shape[0]
        if m < 1:
            raise ValueError("pairwise matrix must be at least 1x1")
        if not np.all(np.isfinite(values)) or np.any(values <= 0.0):
            raise ValueError("pairwise entries must be positive finite numbers")
        for i in range(m):
            if abs(values[i, i] - 1.0) > 1e-9:
                raise ValueError(f"diagonal entry ({i},{i}) must be 1, got {values[i, i]!r}")
            for j in range(i + 1, m):
                recip = 1.0 / values[j, i]
                if not np.isclose(values[i, j], recip, rtol=1e-9, atol=1e-9):
                    raise ValueError(
                        f"entries ({i},{j}) and ({j},{i}) are not reciprocal: "
                        f"{values[i, j]!r} vs 1/{values[j, i]!r}"
                    )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def size(self) -> int:
        return self.values.shape[0]

    @classmethod
    def from_priorities(cls, priorities) -> "PairwiseMatrix":
        """Perfectly consistent matrix a_ij = p_i / p_j for positive priorities."""
        p = np.asarray(priorities, dtype=float)
        if p.ndim != 1 or np.any(p <= 0.0):
            raise ValueError("priorities must be a 1-D vector of positive numbers")
        return cls(p[:, None] / p[None, :])


@dataclass(frozen=True)
class WeightDerivation:
    """Eigenvector weights plus the diagnostics of the derivation."""

    weights: WeightVector
    principal_eigenvalue: float
    consistency_ratio: float
    iterations: int


def _consistency_ratio(principal_eigenvalue: float, m: int) -> float:
    if m <= 2:
        return 0.0
    index = (principal_eigenvalue - m) / (m - 1)
    random_index = RANDOM_INDEX.get(m, RANDOM_INDEX[10])
    return max(0.0, index / random_index)


def principal_eigenvector(pm: PairwiseMatrix) -> WeightDerivation:
    """Dominant eigenpair of a pairwise matrix via power iteration.

    Starts from the uniform vector, repeatedly multiplies by the matrix and
    renormalizes to sum 1, and stops when successive weight vectors differ
    by less than :data:`DEFAULT_TOL` in max-norm; raises
    :class:`ConvergenceError` after :data:`DEFAULT_MAX_ITER` iterations
    without that. The principal eigenvalue is estimated as the mean
    component-wise ratio (pm @ w) / w at convergence, and the consistency
    ratio is (lambda_max - m) / ((m - 1) * RI(m)), 0 for m <= 2.
    """
    mat = pm.values
    m = pm.size
    if m == 1:
        return WeightDerivation(WeightVector((1.0,)), 1.0, 0.0, 0)

    w = np.full(m, 1.0 / m)
    residual = np.inf
    for iteration in range(1, DEFAULT_MAX_ITER + 1):
        product = mat @ w
        w_next = product / product.sum()
        residual = float(np.max(np.abs(w_next - w)))
        w = w_next
        if residual < DEFAULT_TOL:
            product = mat @ w
            eigenvalue = float(np.mean(product / w))
            weights = WeightVector.normalized(w)
            return WeightDerivation(
                weights, eigenvalue, _consistency_ratio(eigenvalue, m), iteration
            )
    raise ConvergenceError(DEFAULT_MAX_ITER, residual)


class ServiceClass(Enum):
    """Traffic classes the preset weight vectors are tuned for."""

    VOIP = "voip"
    VIDEO = "video"
    BEST_EFFORT = "best_effort"

    @classmethod
    def parse(cls, text: str) -> "ServiceClass":
        token = text.strip().lower().replace("-", "_").replace(" ", "_")
        aliases = {
            "voip": cls.VOIP,
            "video": cls.VIDEO,
            "best_effort": cls.BEST_EFFORT,
            "besteffort": cls.BEST_EFFORT,
        }
        if token in aliases:
            return aliases[token]
        raise ValueError(
            f"unknown service class {text!r}; expected one of "
            + ", ".join(sorted({m.value for m in cls}))
        )


# Published per-service weights over (Bandwidth, Delay, PLR, Energy, Cost).
# The rows as printed sum to 0.998; they are rescaled to sum exactly 1,
# which leaves every method's ranking unchanged.
PRESET_WEIGHTS_RAW: dict[ServiceClass, tuple[float, ...]] = {
    ServiceClass.VOIP: (0.047, 0.486, 0.371, 0.047, 0.047),
    ServiceClass.VIDEO: (0.458, 0.101, 0.302, 0.074, 0.063),
    ServiceClass.BEST_EFFORT: (0.299, 0.146, 0.146, 0.108, 0.299),
}


def preset_weights(service: ServiceClass | str) -> WeightVector:
    """Preset weight vector for a service class, rescaled to sum exactly 1."""
    if isinstance(service, str):
        service = ServiceClass.parse(service)
    return WeightVector.normalized(PRESET_WEIGHTS_RAW[service])
