"""Branching populations whose siblings reproduce as dependent groups.

The package splits into five layers: offspring-law modeling and validation
(``env_model``), exact per-environment moment structure (``moments``), random
matrix products and growth rates (``spectral``), population simulation and
survival estimation (``simulator``), and the command line front end (``cli``).
Bundled example ensembles live in ``presets``.
"""

__version__ = "0.1.0"

from .errors import (
    CalibrationError,
    DegenerateEnvironmentError,
    DegenerateProductError,
    EnsembleFormatError,
    InsufficientSurvivorsError,
    InvalidLawError,
    PopulationCapError,
    PowerIterationError,
    SibdepError,
)
from .env_model import (
    Environment,
    EnvironmentEnsemble,
    SiblingLaw,
    ValidationReport,
    ensemble_from_dict,
    ensemble_to_dict,
    load_ensemble,
    random_environment,
    single_environment_ensemble,
    validate_sibling_law,
)
from .moments import (
    CurvatureStats,
    MacroMoments,
    MomentSet,
    PerronResult,
    curvature_stats,
    delta_max,
    eta_variance,
    hessians,
    macro_eigenvector,
    macro_moments,
    mean_matrix,
    moment_set,
    perron,
)
from .spectral import (
    CalibrationResult,
    ConditionCheck,
    ConditionParams,
    ConditionReport,
    DerivativeEstimate,
    GrowthEstimate,
    MomentGrowthEstimate,
    calibrate_critical_pair,
    check_conditions,
    estimate_lambda_theta,
    estimate_lyapunov,
    lambda_prime_at_one,
)
from .simulator import (
    ConditionalSizeDistribution,
    MacroState,
    PathEnsemble,
    ScanRow,
    SurvivalEstimate,
    Trajectory,
    conditional_size_distribution,
    estimate_survival,
    log_population_path,
    quenched_survival,
    simulate_macro_coupled,
    simulate_micro,
    survival_scaling_scan,
    total_variation_distance,
)
from .presets import PRESET_NAMES, load_preset, preset_path, preset_summaries

__all__ = [
    "__version__",
    # errors
    "SibdepError",
    "InvalidLawError",
    "EnsembleFormatError",
    "DegenerateEnvironmentError",
    "DegenerateProductError",
    "PowerIterationError",
    "CalibrationError",
    "InsufficientSurvivorsError",
    "PopulationCapError",
    # environment modeling
    "SiblingLaw",
    "Environment",
    "EnvironmentEnsemble",
    "ValidationReport",
    "validate_sibling_law",
    "single_environment_ensemble",
    "random_environment",
    "ensemble_from_dict",
    "ensemble_to_dict",
    "load_ensemble",
    # moments
    "mean_matrix",
    "hessians",
    "CurvatureStats",
    "curvature_stats",
    "MacroMoments",
    "macro_moments",
    "PerronResult",
    "perron",
    "macro_eigenvector",
    "eta_variance",
    "delta_max",
    "MomentSet",
    "moment_set",
    # spectral
    "GrowthEstimate",
    "estimate_lyapunov",
    "MomentGrowthEstimate",
    "estimate_lambda_theta",
    "DerivativeEstimate",
    "lambda_prime_at_one",
    "ConditionParams",
    "ConditionCheck",
    "ConditionReport",
    "check_conditions",
    "CalibrationResult",
    "calibrate_critical_pair",
    # simulation
    "MacroState",
    "Trajectory",
    "simulate_micro",
    "simulate_macro_coupled",
    "quenched_survival",
    "SurvivalEstimate",
    "estimate_survival",
    "ScanRow",
    "survival_scaling_scan",
    "ConditionalSizeDistribution",
    "conditional_size_distribution",
    "total_variation_distance",
    "PathEnsemble",
    "log_population_path",
    # presets
    "PRESET_NAMES",
    "load_preset",
    "preset_path",
    "preset_summaries",
]
