"""Bundled environment ensembles covering the main growth regimes.

Presets are plain ensemble documents shipped next to this module; they load
through the same interchange path as user-provided files, so they double as
format examples.  ``critical`` is an exactly balanced two-member mixture whose
members share the same mean-matrix right eigenvector, ``boom_bust`` is a
deliberately unbalanced pair meant as input for weight calibration, and
``deterministic_line`` is the one-type edge case where every individual has
exactly one child.
"""
from __future__ import annotations

from pathlib import Path

from ..env_model import EnvironmentEnsemble, load_ensemble

PRESET_NAMES = (
    "critical",
    "subcritical",
    "supercritical",
    "deterministic_line",
    "boom_bust",
    "subcritical_mix",
)


def preset_path(name: str) -> Path:
    """Path of the bundled JSON document for ``name``."""
    if name not in PRESET_NAMES:
        known = ", ".join(PRESET_NAMES)
        raise KeyError(f"unknown preset {name!r}; available: {known}")
    return Path(__file__).with_name(f"{name}.json")


def load_preset(name: str) -> EnvironmentEnsemble:
    """Load one of the bundled ensembles by name."""
    return load_ensemble(str(preset_path(name)))
