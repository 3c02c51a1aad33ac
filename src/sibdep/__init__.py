"""Branching populations whose siblings reproduce as dependent groups.

The package splits into five layers: offspring-law modeling and validation
(``env_model``), exact per-environment moment structure (``moments``), random
matrix products and growth rates (``spectral``), population simulation and
survival estimation (``simulator``), and the command line front end (``cli``).
Bundled example ensembles live in ``presets``.

Importing the package loads none of them.  ``_EXPORTS`` maps each module to
the names the package re-exports from it, and ``__all__`` is built from that
table.  The first access of an exported name or a submodule name imports the
owning module (PEP 562); the value is not stored here, so the owning module
keeps the one binding of each name, and a process loads only the modules it
uses.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "SibdepError", "InvalidLawError", "EnsembleFormatError",
        "DegenerateEnvironmentError", "DegenerateProductError",
        "PowerIterationError", "CalibrationError", "InsufficientSurvivorsError",
        "PopulationCapError",
    ),
    "env_model": (
        "SiblingLaw", "Environment", "EnvironmentEnsemble", "ValidationReport",
        "validate_sibling_law", "ensemble_from_dict", "ensemble_to_dict",
        "load_ensemble",
    ),
    "moments": (
        "mean_matrix", "hessians", "CurvatureStats", "curvature_stats",
        "MacroMoments", "macro_moments", "PerronResult", "perron",
        "macro_eigenvector", "eta_variance", "delta_max", "MomentSet",
        "moment_set",
    ),
    "spectral": (
        "GrowthEstimate", "estimate_lyapunov", "MomentGrowthEstimate",
        "estimate_lambda_theta", "DerivativeEstimate", "lambda_prime_at_one",
        "ConditionParams", "ConditionCheck", "ConditionReport",
        "check_conditions", "CalibrationResult", "calibrate_critical_pair",
    ),
    "simulator": (
        "MacroState", "Trajectory", "simulate_macro_coupled", "quenched_survival",
        "SurvivalEstimate", "estimate_survival", "ScanRow", "survival_scaling_scan",
        "ConditionalSizeDistribution", "conditional_size_distribution",
        "PathEnsemble", "log_population_path",
    ),
    "presets": ("PRESET_NAMES", "load_preset", "preset_path"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "records", "rng"}

__all__ = ["__version__", *_OWNER]


def __getattr__(name):
    from importlib import import_module
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name in _OWNER:
        return getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
