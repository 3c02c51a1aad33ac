"""Plain-data views of result records, shared by the estimators and the CLI."""

from __future__ import annotations

import dataclasses

import numpy as np


def plain(obj):
    """Recursively convert numpy scalars and arrays to plain Python types."""
    if isinstance(obj, np.ndarray):
        return plain(obj.tolist())
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    return obj


class Record:
    """Base of the result dataclasses: ``to_dict`` is every field, as plain data."""

    def to_dict(self) -> dict:
        return plain(dataclasses.asdict(self))
