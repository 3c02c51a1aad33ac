"""First and second moment structure of an environment, on both scales.

The particle scale tracks individual children: its mean matrix is
M(i, j) = j * p_ij and its Hessians are diagonal.  The group scale tracks
whole sibling groups typed by size: its mean matrix is i * p_ij and its second
derivative matrices involve the pair marginals.  Both share the same dominant
growth rate; macro_eigenvector converts the particle eigenvector into the
group-type weights.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .env_model import Environment
from .errors import DegenerateEnvironmentError, PowerIterationError
from .records import Record


def mean_matrix(env: Environment) -> np.ndarray:
    """Particle mean matrix: entry (i, j) is j * p_ij, indices 1-based in math."""
    n = env.order
    j = np.arange(1, n + 1, dtype=float)
    return env._marginals[:, 1:] * j[None, :]


def hessians(env: Environment) -> np.ndarray:
    """Second derivatives of f_i at s = 1: diagonal matrices k(k-1) p_ik."""
    n = env.order
    k = np.arange(1, n + 1, dtype=float)
    diag = env._marginals[:, 1:] * (k * (k - 1.0))[None, :]
    out = np.zeros((n, n, n))
    for i in range(n):
        np.fill_diagonal(out[i], diag[i])
    return out


@dataclass(frozen=True)
class CurvatureStats:
    """Aggregate second-order mass and its size relative to the mean."""

    hessian_sum: float     # sum of entrywise absolute sums of the Hessians
    mean_norm: float       # entrywise absolute sum of the mean matrix
    ratio: float           # hessian_sum / mean_norm**2


def curvature_stats(env: Environment) -> CurvatureStats:
    norm = float(np.abs(mean_matrix(env)).sum())
    if norm == 0.0:
        raise DegenerateEnvironmentError(
            f"environment {env.label or '<unnamed>'} has zero mean matrix; "
            "curvature ratio is undefined"
        )
    total = float(np.abs(hessians(env)).sum())
    return CurvatureStats(hessian_sum=total, mean_norm=norm, ratio=total / norm ** 2)


@dataclass(frozen=True)
class MacroMoments:
    """Mean and second factorial moment matrices of the group-level process."""

    mean: np.ndarray      # (N, N), entry (i, j) = i * p_ij
    second: np.ndarray    # (N, N, N), slab i = i (i - 1) * pair marginal matrix


def macro_moments(env: Environment) -> MacroMoments:
    n = env.order
    i = np.arange(1, n + 1, dtype=float)
    mean = env._marginals[:, 1:] * i[:, None]
    second = np.zeros((n, n, n))
    for gi in range(2, n + 1):
        second[gi - 1] = gi * (gi - 1) * env._pairs[gi - 1, 1:, 1:]
    return MacroMoments(mean=mean, second=second)


@dataclass(frozen=True)
class PerronResult:
    value: float
    vector: np.ndarray       # entrywise nonnegative, unit 1-norm
    iterations: int
    residual: float          # max |m v - value v|
    degenerate: bool = False


_POWER_TOL = 1e-12         # settled: ratio and iterate each move at most this
_POWER_MAX_ITER = 100_000


def _power_iterate(m: np.ndarray, start: np.ndarray):
    x = start / start.sum()
    ratio = None
    for it in range(1, _POWER_MAX_ITER + 1):
        y = m @ x
        r = float(np.abs(y).sum())
        if r == 0.0:
            return 0.0, x, it, True
        x_new = y / r
        settled = ratio is not None and abs(r - ratio) <= _POWER_TOL \
            and float(np.abs(x_new - x).sum()) <= _POWER_TOL
        x, ratio = x_new, r
        if settled:
            return ratio, x, it, False
    return ratio, x, _POWER_MAX_ITER, None  # None marks non-convergence


# a root this close to the spectral circle counts as on it: plain iteration
# would need tens of thousands of steps to settle there
_CIRCLE_TOL = 1e-3


def _periodic_shift(roots: np.ndarray) -> float:
    """rho when a root other than rho lies on the spectral circle, else 0.

    Such roots are rho * exp(2 pi i k / h) with h <= N, at least rho / 2 from
    rho for N <= 12, while rounding scatters the copies of a non-simple rho
    far less.  M + rho I keeps the Perron vector, moves rho to 2 rho and every
    other peripheral root strictly inside that circle.
    """
    moduli = np.abs(roots)
    rho = float(moduli.max())
    peripheral = (moduli >= (1.0 - _CIRCLE_TOL) * rho) & (np.abs(roots - rho) > 0.5 * rho)
    return rho if rho > 0.0 and peripheral.any() else 0.0


def _defective_root(mat: np.ndarray, roots: np.ndarray):
    """(rho, vector) when the dominant root is defective, else None.

    The roots within _CIRCLE_TOL * rho of rho are its copies; rounding splits
    a k-fold root by about eps^(1/k), and their mean keeps the trace, so it
    is rho to rounding.  The root is defective (a Jordan block, on which
    power iteration converges only like 1/k) when M - rho I has fewer null
    directions than rho has copies; a direction counts as null when its
    singular value is within the copies' own spread.  The vector is the
    uniform start projected on that null space: a nonnegative matrix has a
    nonnegative eigenvector for rho, and a projection that is not
    nonnegative gives None, leaving the root to the power iteration.
    """
    rho_max = float(np.abs(roots).max())
    if rho_max == 0.0:
        return None
    copies = roots[np.abs(roots - rho_max) <= _CIRCLE_TOL * rho_max]
    if copies.shape[0] < 2:
        return None
    rho = float(copies.real.mean())
    n = mat.shape[0]
    _, sing, vh = np.linalg.svd(mat - rho * np.eye(n))
    floor = 2.0 * float(np.abs(copies - rho).max()) + 1e-12 * max(1.0, rho)
    null = vh[sing <= floor]
    if null.shape[0] >= copies.shape[0]:
        return None
    v = null.T @ null.sum(axis=1)
    if not v.sum() > 0.0 or v.min() < -1e-12 * v.max():
        return None
    v = np.clip(v, 0.0, None)
    return rho, v / v.sum()


def perron(m: np.ndarray) -> PerronResult:
    """Dominant eigenvalue and 1-normalized eigenvector by power iteration.

    Expects a nonnegative square matrix; reducible or degenerate inputs
    produce a warning and whatever dominant value the iteration located.  On
    a periodic matrix the iteration runs on M + rho I (see _periodic_shift)
    and subtracts rho again; a defective dominant root is read off the
    eigenvalues instead (see _defective_root), with no iteration.  The
    uniform start vector is the tie-break, so the identity matrix reports
    u = (1/N, .., 1/N).
    """
    mat = np.asarray(m, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"matrix must be square, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix entries must be finite")
    if np.any(mat < 0.0):
        raise ValueError("matrix entries must be nonnegative")
    n = mat.shape[0]
    roots = np.linalg.eigvals(mat)
    defective = _defective_root(mat, roots)
    if defective is not None:
        value, vector = defective
        warnings.warn("dominant eigenvalue is defective (a Jordan block); value "
                      "from the eigenvalues, vector from the null space of "
                      "M - rho I, with a degeneracy flag", RuntimeWarning, stacklevel=2)
        residual = float(np.max(np.abs(mat @ vector - value * vector)))
        return PerronResult(value=value, vector=vector, iterations=0,
                            residual=residual, degenerate=True)
    shift = _periodic_shift(roots)
    work = mat + shift * np.eye(n) if shift else mat

    value, vector, iters, collapsed = _power_iterate(work, np.full(n, 1.0 / n))
    if collapsed is None:
        residual = float(np.max(np.abs(work @ vector - value * vector)))
        raise PowerIterationError(
            f"power iteration did not settle within {_POWER_MAX_ITER} iterations "
            f"(last residual {residual:.3e})",
            residual=residual, iterations=_POWER_MAX_ITER,
        )
    degenerate = bool(collapsed)
    if collapsed:
        warnings.warn("matrix drives the probe vector to zero; dominant value 0 "
                      "reported with a degeneracy flag", RuntimeWarning, stacklevel=2)

    # second start probes for a non-simple dominant eigenvalue
    if n > 1 and not degenerate:
        probe = np.arange(1.0, n + 1.0)
        v2, x2, _, c2 = _power_iterate(work, probe)
        mismatch = (
            c2 is None or c2
            or abs(v2 - value) > max(1e3 * _POWER_TOL, 1e-10 * max(1.0, value))
            or float(np.max(np.abs(x2 - vector))) > 1e-6
        )
        if mismatch:
            degenerate = True
            warnings.warn(
                "dominant eigenvalue looks non-simple (second start disagrees); "
                "returning the value found from the uniform start",
                RuntimeWarning, stacklevel=2,
            )

    value -= shift
    residual = float(np.max(np.abs(mat @ vector - value * vector)))
    return PerronResult(value=float(value), vector=vector, iterations=iters,
                        residual=residual, degenerate=degenerate)


def macro_eigenvector(u: np.ndarray) -> np.ndarray:
    """Convert the particle eigenvector into group-type weights j*u_j / sum k*u_k."""
    u = np.asarray(u, dtype=float)
    scaled = np.arange(1, u.shape[0] + 1) * u
    total = scaled.sum()
    if total <= 0.0:
        raise ValueError("eigenvector must have positive size-weighted mass")
    return scaled / total


def eta_variance(env: Environment, i: int, j: int) -> float:
    """Variance of the number of size-j child groups born to one size-i group."""
    env._check_size(i)
    env._check_size(j)
    mean = i * env.marginal(i, j)
    second = i * (i - 1) * env.pair_marginal(i, j, j) if i >= 2 else 0.0
    return second + mean - mean ** 2


def eta_variance_matrix(env: Environment) -> np.ndarray:
    n = env.order
    out = np.empty((n, n))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            out[i - 1, j - 1] = eta_variance(env, i, j)
    return out


def delta_max(env: Environment) -> float:
    """Largest child-group count variance over all parent and child types."""
    return float(eta_variance_matrix(env).max())


@dataclass(frozen=True)
class MomentSet(Record):
    """Every derived moment quantity of one environment, computed eagerly."""

    order: int
    mean: np.ndarray
    hessians: np.ndarray
    hessian_sum: float
    mean_norm: float
    curvature_ratio: float
    macro_mean: np.ndarray
    macro_second: np.ndarray
    perron_root: float
    right_eigenvector: np.ndarray
    group_type_weights: np.ndarray
    eta_variances: np.ndarray
    delta_max: float
    label: str = ""


def moment_set(env: Environment) -> MomentSet:
    """Assemble the full moment summary for one environment."""
    mean = mean_matrix(env)
    hess = hessians(env)
    stats = curvature_stats(env)
    macro = macro_moments(env)
    pr = perron(mean)
    eta = eta_variance_matrix(env)
    return MomentSet(
        order=env.order,
        mean=mean,
        hessians=hess,
        hessian_sum=stats.hessian_sum,
        mean_norm=stats.mean_norm,
        curvature_ratio=stats.ratio,
        macro_mean=macro.mean,
        macro_second=macro.second,
        perron_root=pr.value,
        right_eigenvector=pr.vector,
        group_type_weights=macro_eigenvector(pr.vector),
        eta_variances=eta,
        delta_max=float(eta.max()),
        label=env.label,
    )
