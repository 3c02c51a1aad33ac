"""Exception hierarchy for the toolkit.

Domain errors (invalid laws, degenerate inputs, failed calibrations) derive from
SibdepError so the command line layer can map them to a single exit code.
Format errors raised while parsing ensemble documents derive from
EnsembleFormatError and are treated as usage errors.  The numeric parameter
domains of every entry point live in DOMAINS, checked by check_domains, next to
the default population cap that the ``cap`` domain bounds.
"""

from __future__ import annotations

import math
import numbers

INT64_MAX = 2 ** 63 - 1
POPULATION_CAP = 1_000_000_000   # the default per-generation cap of the particle engine


def _finite_positive(name: str) -> tuple:
    return ((lambda v, n: math.isfinite(v), f"{name} must be finite"),
            (lambda v, n: v > 0.0, f"{name} must be positive"))


def _integer(v) -> bool:
    """An integer, numpy's included; bool is an Integral, but no count."""
    return type(v) is int or (isinstance(v, numbers.Integral) and not isinstance(v, bool))


def _count(name: str, low: int, message: str) -> tuple:
    """An integer of at least `low`."""
    return ((lambda v, n: _integer(v), f"{name} must be an integer"),
            (lambda v, n: v >= low, message))


# parameter name -> ordered (test, message) rows; a test takes the value and
# the ensemble order, and a message is a string or a function of the same two.
# A parameter with two domains has a second name for the other one.
DOMAINS = {
    "theta": _finite_positive("theta"),
    "eps": _finite_positive("eps"),
    "alpha": _finite_positive("alpha"),
    "step": ((lambda v, n: 0.0 < v < 1.0,
              "step must lie in (0, 1) so both exponents stay positive"),
             (lambda v, n: 1.0 - v < 1.0 < 1.0 + v,
              lambda v, n: f"step {v!r} is too small: 1 - step or 1 + step rounds to 1")),
    "tol": ((lambda v, n: 0.0 < v < math.inf, "tol must be positive and finite"),),
    "max_iter": _count("max_iter", 1, "max_iter must be at least 1"),
    "horizon": _count("horizon", 1, "horizon must be at least 1"),
    "coupled_horizon": _count("horizon", 0, "horizon must be nonnegative"),
    "horizons": ((lambda v, n: len(v) > 0, "at least one horizon is required"),
                 (lambda v, n: all(map(_integer, v)), "horizons must be integers"),
                 (lambda v, n: min(v) >= 1, "horizons must be positive")),
    "seed": ((lambda v, n: _integer(v) and v >= 0,
              lambda v, n: f"seed {v!r} must be a nonnegative integer"),),
    "replicas": _count("replicas", 1, "replicas must be positive"),
    "survival_replicas": _count("replicas", 2, "replicas >= 2 required"),
    "initial_type": ((lambda v, n: _integer(v), "initial type must be an integer"),
                     (lambda v, n: 1 <= v <= n,
                      lambda v, n: f"initial type {v} outside 1..{n}")),
    # a member has at most `order` children, so the generation after one
    # under the cap has at most order * cap individuals, which must fit int64
    "cap": (*_count("cap", 1, "cap must be at least 1"),
            (lambda v, n: n * v <= INT64_MAX,
             lambda v, n: f"cap {v} can overflow 64-bit counts at order {n}; "
                          f"the largest cap allowed is {INT64_MAX // n}")),
}


def check_domains(order: int | None = None, /, **values) -> None:
    """Raise ValueError with the message of the first DOMAINS row a value fails.

    Values are checked in argument order; a None value is not checked.
    """
    for name, value in values.items():
        if value is None:
            continue
        for test, message in DOMAINS[name]:
            if not test(value, order):
                raise ValueError(message if isinstance(message, str)
                                 else message(value, order))


class SibdepError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidLawError(SibdepError, ValueError):
    """An offspring law failed validation; the report is attached."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class EnsembleFormatError(SibdepError, ValueError):
    """An ensemble document is structurally malformed (schema or encoding)."""


class DegenerateEnvironmentError(SibdepError, ValueError):
    """An environment lacks the mass needed for the requested statistic."""


class DegenerateProductError(SibdepError, ArithmeticError):
    """A matrix product collapsed to zero and cannot be renormalized."""

    def __init__(self, message, steps=None):
        super().__init__(message)
        self.steps = steps


class PowerIterationError(SibdepError, RuntimeError):
    """Power iteration failed to converge; diagnostic residual attached."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class CalibrationError(SibdepError, RuntimeError):
    """Critical calibration could not bracket or localize a sign change."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


class InsufficientSurvivorsError(SibdepError, RuntimeError):
    """Too few surviving replicas to form the requested conditional estimate."""

    def __init__(self, message, survivors=None, required=None):
        super().__init__(message)
        self.survivors = survivors
        self.required = required


class PopulationCapError(SibdepError, RuntimeError):
    """A simulated population crossed the per-generation size cap."""

    def __init__(self, message, generation=None, cap=None, trajectory=None):
        super().__init__(message)
        self.generation = generation
        self.cap = cap
        self.trajectory = trajectory   # partial results up to the failing step
