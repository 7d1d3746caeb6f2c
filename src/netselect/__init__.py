"""Network-selection decision engine.

Rank candidate networks (or any alternatives) over weighted benefit/cost
criteria with five methods — the rank-income method ``msaw`` plus the
classic SAW, WPM, TOPSIS, and AHP aggregations — derive criterion weights
from pairwise comparisons, generate reproducible synthetic scenarios, and
measure rank-reversal behaviour.
"""

from .analysis import (
    AgreementReport,
    DuplicationReport,
    MonteCarloReport,
    ReversalReport,
    agreement_report,
    duplication_experiment,
    kendall_tau,
    monte_carlo_reversal,
    reversal_experiment,
)
from .core import (
    TIE_TOLERANCE,
    CriterionSpec,
    DecisionMatrix,
    Direction,
    MatrixValidationError,
    RankingResult,
    Violation,
    WeightVector,
    drop_alternative,
    duplicate_alternative,
    normalize,
    require_valid,
    validate_matrix,
)
from .io import (
    ParseError,
    matrix_to_csv_text,
    read_matrix_csv,
    read_pairwise_csv,
    read_scenario,
    read_weights,
    write_matrix_csv,
    write_scenario,
)
from .methods import (
    METHODS,
    MsawIncomeBreakdown,
    TiePolicy,
    rank,
    rank_ahp,
    rank_msaw,
    rank_saw,
    rank_topsis,
    rank_wpm,
)
from .rng import SplitMix64, derive_seed
from .scenario import (
    STANDARD_CRITERIA,
    EnergyCoeffs,
    RatProfile,
    ScenarioSpec,
    energy_consumption,
    example_scenario,
    generate_matrix,
    reference_matrix,
)
from .weighting import (
    ConvergenceError,
    PairwiseMatrix,
    ServiceClass,
    WeightDerivation,
    preset_weights,
    principal_eigenvector,
)

__version__ = "0.1.0"

__all__ = [
    "AgreementReport",
    "ConvergenceError",
    "CriterionSpec",
    "DecisionMatrix",
    "Direction",
    "DuplicationReport",
    "EnergyCoeffs",
    "METHODS",
    "MatrixValidationError",
    "MonteCarloReport",
    "MsawIncomeBreakdown",
    "PairwiseMatrix",
    "ParseError",
    "RankingResult",
    "RatProfile",
    "ReversalReport",
    "STANDARD_CRITERIA",
    "ScenarioSpec",
    "ServiceClass",
    "SplitMix64",
    "TIE_TOLERANCE",
    "TiePolicy",
    "Violation",
    "WeightDerivation",
    "WeightVector",
    "agreement_report",
    "derive_seed",
    "drop_alternative",
    "duplicate_alternative",
    "duplication_experiment",
    "energy_consumption",
    "example_scenario",
    "generate_matrix",
    "kendall_tau",
    "matrix_to_csv_text",
    "monte_carlo_reversal",
    "normalize",
    "preset_weights",
    "principal_eigenvector",
    "rank",
    "rank_ahp",
    "rank_msaw",
    "rank_saw",
    "rank_topsis",
    "rank_wpm",
    "read_matrix_csv",
    "read_pairwise_csv",
    "read_scenario",
    "read_weights",
    "reference_matrix",
    "require_valid",
    "reversal_experiment",
    "validate_matrix",
    "write_matrix_csv",
    "write_scenario",
]
