"""Reference kernels: the host's speed, measured next to every operation.

This host gives the benchmark two vCPUs of a shared machine.  Whatever runs
beside the measured process (another tenant, or a second process of our own)
slows it by 1.4x to 1.9x, in spells that switch every second or so and can
last minutes; the guest sees no steal time for it, so no clock of its own
excludes the slowdown.  The slowdown differs by kind of code: in one 80-s
trace, batched numpy arithmetic slowed 1.47x, calls on tiny numpy arrays and
Python object churn 1.85x, and the workloads' own operations between 1.48x
(the scan) and 1.86x (the coupled loop).

So each workload has a reference kernel made of the parts below that do the
kinds of work its operations do.  The kernels import nothing from sibdep and
do a fixed amount of work, so their time moves with the host and never with
the program.  The worker times the kernel before the first operation and
after every operation; an operation's time divided by the mean of the two
kernel times around it is its cost in kernel units, which is steady across
the host's spells, and ``REF_SECONDS`` turns it back into seconds.
"""
from __future__ import annotations

import time

import numpy as np

# A kernel's fastest time on the reference host (2-vCPU Xeon at 2.0 GHz,
# Python 3.11.7, numpy 2.4.6); a fixed constant, so that normalised times
# read as seconds on that host at its fastest.
REF_SECONDS = 0.07

_rng = np.random.default_rng(20240917)
_POINTS = _rng.random((1000, 3))
_EXPONENTS = _rng.integers(0, 3, size=(4, 3)).astype(float)
_WEIGHTS = _rng.random(4)
_PROBS = np.array([0.2, 0.3, 0.5])
_GROUPS = _rng.integers(0, 40, size=64)
_TINY = np.arange(6.0)


def batch_arithmetic() -> float:
    """Masked arithmetic on a batch of 1000 rows (like ``phi_map``)."""
    s = _POINTS.copy()
    for _ in range(240):
        mask = s[:, 0] > 0.3
        p = (s[mask][:, None, :] ** _EXPONENTS[None, :, :]).prod(axis=2) @ _WEIGHTS
        s[mask, 1] = p / (1.0 + p)
    return float(s.sum())


def batch_draws() -> int:
    """Multinomial draws for a batch of 64 groups (like the particle step)."""
    gen = np.random.default_rng(7)
    total = 0
    for _ in range(1550):
        draws = gen.multinomial(_GROUPS, _PROBS)
        total += int(draws[:, 0].sum())
    return total


def tiny_arrays() -> float:
    """numpy calls on arrays of a few entries (per-replica bookkeeping)."""
    total = 0.0
    for _ in range(14_000):
        b = _TINY * 2.0
        total += float(b.sum())
        np.zeros(3, dtype=np.int64)
    return total


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


def python_objects() -> int:
    """Small Python objects made, read and dropped (like ``MacroState``)."""
    total = 0
    for i in range(110_000):
        p = _Point(i, i + 1)
        total += p.x + len((p.y, i))
    return total


KERNELS = {
    "quenched-scan": (batch_arithmetic, batch_arithmetic),
    "particle-paths": (batch_draws, tiny_arrays),
    "spectral-products": (batch_arithmetic, tiny_arrays),
    "coupled-bookkeeping": (python_objects, tiny_arrays),
}


def reference(workload: str) -> float:
    """Seconds the workload's reference kernel takes now."""
    parts = KERNELS[workload]
    t = time.perf_counter()
    for part in parts:
        part()
    return time.perf_counter() - t
