"""Random products of mean matrices: growth rates, moment growth, diagnostics.

Products are accumulated with a renormalization after every factor, so only
the log of the scale grows and overflow never occurs.  Throughout, |m| is the
entrywise absolute sum of a matrix; factors must be nonnegative, so the norm
of a product is also 1' m 1.  Estimator horizons follow the product
index: horizon n covers the product of n + 1 independently drawn factors and
growth is normalized by 1/n.  Replica work is chunked (see rng module) so
results do not depend on the worker count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import moments as mo
from .env_model import Environment, EnvironmentEnsemble
from .errors import (CalibrationError, DegenerateEnvironmentError,
                     DegenerateProductError)
from .rng import DEFAULT_CHUNK_SIZE, RngStream, run_chunked


@dataclass(frozen=True)
class MatrixEnsemble:
    """Finite mixture of square matrices, one drawn per product step."""

    matrices: np.ndarray   # (K, N, N)
    weights: np.ndarray    # (K,)
    label: str = ""

    def __post_init__(self):
        mats = np.asarray(self.matrices, dtype=float)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError(f"matrices must be (K, N, N), got {mats.shape}")
        if not np.all(np.isfinite(mats)):
            raise ValueError("matrix entries must be finite")
        if np.any(mats < 0.0):
            raise ValueError("matrix entries must be nonnegative")
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.shape[0] != mats.shape[0]:
            raise ValueError(f"{mats.shape[0]} matrices but {w.shape[0]} weights")
        if np.any(w < 0.0) or not np.all(np.isfinite(w)) or w.sum() <= 0.0:
            raise ValueError("weights must be nonnegative with positive total")
        mats = mats.copy()
        mats.flags.writeable = False
        w = w / w.sum()
        w.flags.writeable = False
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "weights", w)

    @property
    def order(self) -> int:
        return self.matrices.shape[1]

    @property
    def size(self) -> int:
        return self.matrices.shape[0]

    @classmethod
    def from_environments(cls, ens: EnvironmentEnsemble, macro: bool = False,
                          label: str = "") -> "MatrixEnsemble":
        if macro:
            mats = np.stack([mo.macro_moments(env).mean for env in ens.members])
        else:
            mats = np.stack([mo.mean_matrix(env) for env in ens.members])
        return cls(mats, ens.weights, label=label or ens.label)


def _as_matrix_ensemble(source, macro: bool = False) -> MatrixEnsemble:
    if isinstance(source, MatrixEnsemble):
        if macro:
            raise ValueError("macro view is only defined for environment ensembles")
        return source
    if isinstance(source, EnvironmentEnsemble):
        return MatrixEnsemble.from_environments(source, macro=macro)
    raise TypeError(f"expected an ensemble of environments or matrices, got {type(source)!r}")


@dataclass
class ProductAccumulator:
    """Running renormalized matrix product.

    current keeps unit entrywise-absolute sum after every step; log_scale
    accumulates the removed scale, so exp(log_scale) * current reconstructs
    the full product.
    """

    current: np.ndarray
    log_scale: float = 0.0
    steps: int = 0

    @classmethod
    def identity(cls, order: int) -> "ProductAccumulator":
        return cls(current=np.eye(order))

    def step(self, factor: np.ndarray) -> "ProductAccumulator":
        nxt = self.current @ np.asarray(factor, dtype=float)
        scale = float(np.abs(nxt).sum())
        if scale == 0.0 or not math.isfinite(scale):
            raise DegenerateProductError(
                f"product norm collapsed to {scale!r} at step {self.steps + 1}",
                steps=self.steps + 1,
            )
        self.current = nxt / scale
        self.log_scale += math.log(scale)
        self.steps += 1
        return self

    def log_norm(self) -> float:
        return self.log_scale + math.log(float(np.abs(self.current).sum()))

    def matrix(self) -> np.ndarray:
        return math.exp(self.log_scale) * self.current


def product_lognorm(sequence, use_macro: bool = False):
    """Accumulate the right product over an explicit factor sequence.

    The sequence may hold environments (their mean matrices are used; the
    macro flag switches to group-level means) or raw square matrices.
    Returns (log of the product norm, the accumulator).
    """
    factors = list(sequence)
    if not factors:
        raise ValueError("need at least one factor")
    if isinstance(factors[0], Environment):
        if use_macro:
            mats = [mo.macro_moments(env).mean for env in factors]
        else:
            mats = [mo.mean_matrix(env) for env in factors]
    else:
        if use_macro:
            raise ValueError("macro view is only defined for environment sequences")
        mats = [np.asarray(f, dtype=float) for f in factors]
    acc = ProductAccumulator.identity(mats[0].shape[0])
    for m in mats:
        acc.step(m)
    return acc.log_norm(), acc


def _indexed_log_norms(mats: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Log product norms for many index rows at once; one renormalization per step.

    The factors are nonnegative, so |M_1 ... M_n| = 1' M_1 ... M_n 1 and each
    row only carries the row vector 1' M_1 ... M_k.  The members sit side by
    side in one (N, K*N) matrix: a step multiplies every row by all of them at
    once and keeps, per row, the block of the member its index selects.
    """
    rows, length = idx.shape
    size, order = mats.shape[0], mats.shape[1]
    wide = np.asarray(mats, dtype=float).transpose(1, 0, 2).reshape(order, size * order)
    offsets = np.arange(rows) * size
    ones = np.ones(order)
    x = np.ones((rows, order))
    y = np.empty((rows, size * order))
    blocks = y.reshape(rows * size, order)
    scale = np.empty(rows)
    logs = np.zeros(rows)
    with np.errstate(divide="ignore", invalid="ignore"):   # log(0) is caught below
        for k in range(length):
            np.matmul(x, wide, out=y)
            np.take(blocks, offsets + idx[:, k], axis=0, out=x)
            np.matmul(x, ones, out=scale)   # row sums; far cheaper than x.sum(axis=1)
            log_scale = np.log(scale)
            if not math.isfinite(log_scale.sum()):
                raise DegenerateProductError(
                    f"a replica's product norm collapsed at step {k + 1}", steps=k + 1
                )
            x /= scale[:, None]
            logs += log_scale
    return logs


def _sampled_log_norms(source, horizon, replicas, seed, use_macro, chunk_size, workers):
    me = _as_matrix_ensemble(source, macro=use_macro)
    factors = horizon + 1

    def task(gen, size):
        idx = gen.choice(me.size, size=(size, factors), p=me.weights)
        return _indexed_log_norms(me.matrices, idx)

    parts = run_chunked(task, replicas, seed, chunk_size=chunk_size, workers=workers)
    return np.concatenate(parts)


@dataclass(frozen=True)
class GrowthEstimate:
    """Monte Carlo estimate of the top log growth rate."""

    value: float
    stderr: float
    horizon: int
    replicas: int

    def to_dict(self) -> dict:
        return {"value": self.value, "stderr": self.stderr,
                "horizon": self.horizon, "replicas": self.replicas}


def estimate_lyapunov(source, horizon: int = 512, replicas: int = 256, seed: int = 0,
                      use_macro: bool = False, chunk_size: int = DEFAULT_CHUNK_SIZE,
                      workers: int | None = None) -> GrowthEstimate:
    """Average per-step log growth of the random product over many replicas."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    logs = _sampled_log_norms(source, horizon, replicas, seed, use_macro,
                              chunk_size, workers)
    per = logs / horizon
    stderr = float(per.std(ddof=1) / math.sqrt(replicas)) if replicas > 1 else 0.0
    return GrowthEstimate(value=float(per.mean()), stderr=stderr,
                          horizon=horizon, replicas=replicas)


@dataclass(frozen=True)
class MomentGrowthEstimate:
    """Monte Carlo estimate of the moment growth rate at one exponent."""

    value: float        # estimated growth rate of the theta-moment, per step
    log_value: float
    stderr: float       # delta-method standard error on value
    theta: float
    horizon: int
    replicas: int

    def to_dict(self) -> dict:
        return {"value": self.value, "log_value": self.log_value,
                "stderr": self.stderr, "theta": self.theta,
                "horizon": self.horizon, "replicas": self.replicas}


def _log_mean_exp(values: np.ndarray):
    mx = float(values.max())
    z = np.exp(values - mx)
    return mx + math.log(float(z.mean())), z


def estimate_lambda_theta(source, theta: float, horizon: int = 512,
                          replicas: int = 256, seed: int = 0,
                          use_macro: bool = False,
                          chunk_size: int = DEFAULT_CHUNK_SIZE,
                          workers: int | None = None) -> MomentGrowthEstimate:
    """Estimate the growth rate of E |product|^theta.

    The replica average of |R|^theta is formed in log space with a max shift,
    so heavy replica weights never overflow.
    """
    if theta <= 0.0:
        raise ValueError("theta must be positive")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    logs = _sampled_log_norms(source, horizon, replicas, seed, use_macro,
                              chunk_size, workers)
    lme, z = _log_mean_exp(theta * logs)
    log_value = lme / horizon
    value = math.exp(log_value)
    if replicas > 1:
        rel = float(z.std(ddof=1) / math.sqrt(replicas) / z.mean())
        stderr = value * rel / horizon
    else:
        stderr = 0.0
    return MomentGrowthEstimate(value=value, log_value=log_value, stderr=stderr,
                                theta=theta, horizon=horizon, replicas=replicas)


@dataclass(frozen=True)
class DerivativeEstimate:
    value: float
    stderr: float
    step: float
    horizon: int
    replicas: int

    def to_dict(self) -> dict:
        return {"value": self.value, "stderr": self.stderr, "step": self.step,
                "horizon": self.horizon, "replicas": self.replicas}


def lambda_prime_at_one(source, step: float = 0.1, horizon: int = 512,
                        replicas: int = 256, seed: int = 0,
                        use_macro: bool = False,
                        chunk_size: int = DEFAULT_CHUNK_SIZE,
                        workers: int | None = None) -> DerivativeEstimate:
    """Central difference of the log moment growth rate at exponent 1.

    Both endpoints are evaluated on the same replica sample, so the shared
    noise cancels in the difference; the standard error is a leave-one-out
    jackknife over replicas.
    """
    if not 0.0 < step < 1.0:
        raise ValueError("step must lie in (0, 1) so both exponents stay positive")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    logs = _sampled_log_norms(source, horizon, replicas, seed, use_macro,
                              chunk_size, workers)
    n = logs.shape[0]
    scale = 2.0 * step * horizon

    def _lme_parts(theta):
        mx = float((theta * logs).max())
        z = np.exp(theta * logs - mx)
        return mx, z, float(z.sum())

    mx_p, z_p, s_p = _lme_parts(1.0 + step)
    mx_m, z_m, s_m = _lme_parts(1.0 - step)
    value = ((mx_p + math.log(s_p / n)) - (mx_m + math.log(s_m / n))) / scale
    if n > 1:
        loo_p = mx_p + np.log((s_p - z_p) / (n - 1))
        loo_m = mx_m + np.log((s_m - z_m) / (n - 1))
        loo = (loo_p - loo_m) / scale
        stderr = math.sqrt((n - 1) / n * float(((loo - loo.mean()) ** 2).sum()))
    else:
        stderr = 0.0
    return DerivativeEstimate(value=float(value), stderr=stderr, step=step,
                              horizon=horizon, replicas=replicas)


# -- structural condition checks -------------------------------------------


@dataclass(frozen=True)
class ConditionParams:
    """Tunable exponents and tolerances for the structural checks."""

    theta: float = 1.0        # exponent for the mean-norm moment
    eps: float = 0.1          # slack exponent in the curvature moments
    alpha: float = 2.0        # stable index used by the tail checks
    delta: float | None = None   # expansion threshold; None derives the best one
    eig_tol: float = 1e-8     # residual tolerance for the shared eigenvector
    growth_floor: float = 0.0  # absolute slack added to the criticality band
    drift_tol: float = 1e-2   # tolerated mean of the log dominant root
    horizon: int = 512
    replicas: int = 256
    seed: int = 0


@dataclass(frozen=True)
class ConditionCheck:
    id: str
    description: str
    holds: bool | None       # None marks "not decidable by this check"
    values: dict
    note: str = ""

    def to_dict(self) -> dict:
        return {"id": self.id, "description": self.description,
                "holds": self.holds, "values": self.values, "note": self.note}


@dataclass(frozen=True)
class ConditionReport:
    checks: tuple[ConditionCheck, ...]
    params: ConditionParams

    def get(self, check_id: str) -> ConditionCheck:
        for c in self.checks:
            if c.id == check_id:
                return c
        raise KeyError(check_id)

    def to_dict(self) -> dict:
        return {"params": vars(self.params).copy() | {},
                "checks": [c.to_dict() for c in self.checks]}

    def summary_lines(self) -> list[str]:
        out = []
        for c in self.checks:
            verdict = {True: "holds", False: "fails", None: "undecided"}[c.holds]
            line = f"{c.id:<24} {verdict:<9} {c.description}"
            if c.note:
                line += f" ({c.note})"
            out.append(line)
        return out


def _quiet_perron(mat):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return mo.perron(mat)


def check_conditions(ens: EnvironmentEnsemble,
                     params: ConditionParams | None = None) -> ConditionReport:
    """Evaluate every structural condition the survival theory rests on.

    Finite mixtures make most moment conditions automatic; the report still
    records the realized values so regimes can be compared quantitatively.
    """
    p = params or ConditionParams()
    members = ens.members
    w = ens.weights
    mats = [mo.mean_matrix(env) for env in members]
    norms = np.array([float(np.abs(m).sum()) for m in mats])
    row_sums = [m.sum(axis=1) for m in mats]
    perrons = [_quiet_perron(m) for m in mats]
    rhos = np.array([pr.value for pr in perrons])
    checks: list[ConditionCheck] = []

    # finite theta-moment of the mean matrix norm
    moment = float(np.dot(w, norms ** p.theta))
    checks.append(ConditionCheck(
        "mean_norm_moment",
        f"E|M|^theta finite at theta={p.theta}",
        True, {"value": moment, "member_norms": norms.tolist()},
        "finite mixtures always satisfy this",
    ))

    # strong irreducibility of the support action, by positivity proxy
    all_positive = all(np.all(m > 0.0) for m in mats)
    if not all_positive:
        checks.append(ConditionCheck(
            "support_irreducible",
            "support has no invariant finite union of proper subspaces",
            None, {},
            "zero entries present; the positivity proxy cannot decide",
        ))
    elif len(members) == 1:
        checks.append(ConditionCheck(
            "support_irreducible",
            "support has no invariant finite union of proper subspaces",
            False, {},
            "single-member support: its dominant eigendirection spans an invariant line",
        ))
    else:
        spread = 0.0
        for a in range(len(perrons)):
            for b in range(a + 1, len(perrons)):
                spread = max(spread, float(np.max(np.abs(
                    perrons[a].vector - perrons[b].vector))))
        if spread > 1e-10:
            checks.append(ConditionCheck(
                "support_irreducible",
                "support has no invariant finite union of proper subspaces",
                True, {"direction_spread": spread},
                "all members positive with distinct dominant directions",
            ))
        else:
            checks.append(ConditionCheck(
                "support_irreducible",
                "support has no invariant finite union of proper subspaces",
                False, {"direction_spread": spread},
                "members share one eigendirection, which spans an invariant line",
            ))

    # uniformly bounded entry ratios within each realized matrix
    if all_positive:
        ratios = [float(m.max() / m.min()) for m in mats]
        checks.append(ConditionCheck(
            "entry_ratio_bounded",
            "entry ratios within each mean matrix are uniformly bounded",
            True, {"gamma": max(ratios), "member_ratios": ratios},
        ))
    else:
        checks.append(ConditionCheck(
            "entry_ratio_bounded",
            "entry ratios within each mean matrix are uniformly bounded",
            False, {},
            "a zero entry makes the ratio bound infinite",
        ))

    # criticality of the top growth rate; the norm of a product of members
    # sharing the eigenvector 1 is N times the product of their roots, so the
    # estimate sits log N / horizon above the growth rate
    growth = estimate_lyapunov(ens, horizon=p.horizon, replicas=p.replicas,
                               seed=p.seed)
    offset = math.log(ens.order) / p.horizon
    band = 3.0 * growth.stderr + p.growth_floor + offset
    checks.append(ConditionCheck(
        "zero_growth",
        "top log growth rate of the random product is zero",
        bool(abs(growth.value) <= band),
        {"estimate": growth.value, "stderr": growth.stderr, "offset": offset,
         "band": band},
    ))

    # positive chance of uniform expansion across all directions
    min_rows = np.array([float(r.min()) for r in row_sums])
    best = float(min_rows.max())
    witness = int(min_rows.argmax())
    if p.delta is None:
        holds = best > 1.0
        delta_val = math.log(best) if best > 0.0 else -math.inf
        note = "best achievable threshold derived from the support"
    else:
        holds = best >= math.exp(p.delta)
        delta_val = p.delta
        note = "threshold supplied by caller"
    checks.append(ConditionCheck(
        "uniform_expansion_event",
        "some environment expands every direction by a fixed factor",
        bool(holds),
        {"delta": delta_val, "member_min_row_sums": min_rows.tolist(),
         "witness_member": witness},
        note,
    ))

    # sup over directions of E[1 / |xM|]; linear in x so vertices decide
    if np.all(np.concatenate(row_sums) > 0.0):
        per_dir = np.array([
            float(np.dot(w, [1.0 / r[i] for r in row_sums]))
            for i in range(ens.order)
        ])
        checks.append(ConditionCheck(
            "inverse_norm_moment",
            "expected inverse growth is bounded over all directions",
            True, {"value": float(per_dir.max()),
                   "argmax_direction": int(per_dir.argmax()),
                   "per_direction": per_dir.tolist()},
        ))
    else:
        checks.append(ConditionCheck(
            "inverse_norm_moment",
            "expected inverse growth is bounded over all directions",
            False, {},
            "a zero row sum makes the inverse moment infinite",
        ))

    # curvature ratio moments
    try:
        curv = np.array([mo.curvature_stats(env).ratio for env in members])
    except DegenerateEnvironmentError as exc:
        checks.append(ConditionCheck(
            "curvature_ratio_moment", "second-order mass ratio has finite moments",
            False, {}, str(exc)))
        checks.append(ConditionCheck(
            "log_curvature_moment", "log second-order ratio has finite moments",
            False, {}, str(exc)))
    else:
        checks.append(ConditionCheck(
            "curvature_ratio_moment",
            "second-order mass ratio has finite moments",
            True,
            {"value": float(np.dot(w, curv ** (1.0 + p.eps))),
             "member_ratios": curv.tolist()},
        ))
        if np.any(curv == 0.0):
            checks.append(ConditionCheck(
                "log_curvature_moment",
                "log second-order ratio has finite moments",
                False, {"member_ratios": curv.tolist()},
                "a member has no second-order mass, so the log diverges",
            ))
        else:
            val = float(np.dot(w, np.abs(np.log(curv)) ** (1.0 + p.eps) * norms))
            checks.append(ConditionCheck(
                "log_curvature_moment",
                "log second-order ratio has finite moments",
                True, {"value": val, "member_ratios": curv.tolist()},
            ))

    # shared right eigenvector across the support
    if all_positive:
        u = perrons[0].vector
        residuals = [float(np.max(np.abs(m @ u - rho * u)))
                     for m, rho in zip(mats, rhos)]
        worst = max(residuals)
        checks.append(ConditionCheck(
            "shared_eigenvector",
            "all members act on one common positive eigenvector",
            bool(worst <= p.eig_tol),
            {"residual": worst, "member_residuals": residuals,
             "candidate": u.tolist()},
        ))
    else:
        checks.append(ConditionCheck(
            "shared_eigenvector",
            "all members act on one common positive eigenvector",
            False, {}, "mean matrices must be positive",
        ))

    # reproduction is not confined to at most one child
    caps = np.array([
        float(max(env.marginal(i, 0) + env.marginal(i, 1)
                  for i in range(1, env.order + 1)))
        for env in members
    ])
    checks.append(ConditionCheck(
        "reproduction_spread",
        "every environment gives some member a chance of two or more children",
        bool(caps.max() < 1.0),
        {"worst": float(caps.max()), "member_values": caps.tolist()},
    ))

    # log dominant root: drift and spread
    log_rho = np.log(rhos) if np.all(rhos > 0.0) else None
    if log_rho is None:
        checks.append(ConditionCheck(
            "log_root_attraction",
            "log dominant root is attracted to a two-sided stable law",
            False, {}, "a member has dominant root zero",
        ))
        mean_x = var_x = None
    else:
        mean_x = float(np.dot(w, log_rho))
        var_x = float(np.dot(w, log_rho ** 2) - mean_x ** 2)
        if var_x <= 0.0:
            holds, note = False, "log dominant root is degenerate"
        elif abs(mean_x) <= p.drift_tol:
            holds, note = True, ("bounded spread with negligible drift; "
                                 "treated as the index-2 case")
        else:
            holds, note = False, ("nonzero drift is incompatible with "
                                  "uncentered attraction for bounded variables")
        checks.append(ConditionCheck(
            "log_root_attraction",
            "log dominant root is attracted to a two-sided stable law",
            holds,
            {"mean": mean_x, "variance": var_x, "alpha": p.alpha,
             "member_log_roots": log_rho.tolist()},
            note,
        ))

    # tail moment of the child-group count variance
    deltas = np.array([mo.delta_max(env) for env in members])
    if np.any((rhos == 0.0) & (deltas > 0.0)):
        checks.append(ConditionCheck(
            "variance_tail_moment",
            "child-group count variances have the required tail moment",
            False, {"member_deltas": deltas.tolist()},
            "a member has dominant root zero with positive variance",
        ))
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = np.where(deltas > 0.0, deltas / rhos ** 2, 0.0)
            logplus = np.where(scaled > 1.0, np.log(scaled), 0.0)
        val = float(np.dot(w, logplus ** (p.alpha + p.eps)))
        checks.append(ConditionCheck(
            "variance_tail_moment",
            "child-group count variances have the required tail moment",
            True, {"value": val, "member_deltas": deltas.tolist()},
        ))

    return ConditionReport(checks=tuple(checks), params=p)


# -- criticality calibration -------------------------------------------------


@dataclass(frozen=True)
class CalibrationResult:
    weight: float              # mixture weight on the expanding member
    growth: GrowthEstimate     # growth estimate at the returned weight
    iterations: int
    trace: tuple[tuple[float, float, float], ...]   # (weight, value, stderr)
    horizon: int
    replicas: int
    seed: int

    def to_dict(self) -> dict:
        return {"weight": self.weight, "growth": self.growth.to_dict(),
                "iterations": self.iterations,
                "trace": [list(t) for t in self.trace],
                "horizon": self.horizon, "replicas": self.replicas,
                "seed": self.seed}


def calibrate_critical_pair(mat_super: np.ndarray, mat_sub: np.ndarray,
                            tol: float = 1e-3, horizon: int = 2000,
                            replicas: int = 512, seed: int = 0,
                            max_iter: int = 60) -> CalibrationResult:
    """Bisect the mixture weight between two matrices until growth vanishes.

    The same uniform draws decide the member choice at every trial weight, so
    the estimated growth is a deterministic, nearly monotone function of the
    weight and bisection converges cleanly.  Runs as one batch; the worker
    count never affects the outcome.
    """
    mats = np.stack([np.asarray(mat_sub, dtype=float),
                     np.asarray(mat_super, dtype=float)])
    if mats.shape[1] != mats.shape[2]:
        raise ValueError("matrices must be square")
    if np.any(mats < 0.0):
        raise ValueError("matrix entries must be nonnegative")
    factors = horizon + 1
    gen = RngStream(seed, 0).generator()
    uniforms = gen.random((replicas, factors))

    def growth_at(weight: float) -> GrowthEstimate:
        idx = uniforms < weight   # True selects the expanding member
        per = _indexed_log_norms(mats, idx) / horizon
        stderr = float(per.std(ddof=1) / math.sqrt(replicas)) if replicas > 1 else 0.0
        return GrowthEstimate(value=float(per.mean()), stderr=stderr,
                              horizon=horizon, replicas=replicas)

    trace: list[tuple[float, float, float]] = []
    top = growth_at(1.0)
    bottom = growth_at(0.0)
    trace.append((0.0, bottom.value, bottom.stderr))
    trace.append((1.0, top.value, top.stderr))
    if not (top.value > 0.0 > bottom.value):
        raise CalibrationError(
            "cannot calibrate: growth rates do not bracket zero "
            f"(at weight 1: {top.value:.6g}, at weight 0: {bottom.value:.6g})",
            trace=trace,
        )

    lo, hi = 0.0, 1.0
    for it in range(1, max_iter + 1):
        mid = 0.5 * (lo + hi)
        est = growth_at(mid)
        trace.append((mid, est.value, est.stderr))
        if abs(est.value) <= tol:
            return CalibrationResult(weight=mid, growth=est, iterations=it,
                                     trace=tuple(trace), horizon=horizon,
                                     replicas=replicas, seed=seed)
        if est.value > 0.0:
            hi = mid
        else:
            lo = mid
    raise CalibrationError(
        f"bisection did not reach |growth| <= {tol} within {max_iter} iterations",
        trace=trace,
    )


def calibrate_critical(env_super: Environment, env_sub: Environment,
                       tol: float = 1e-3, horizon: int = 2000,
                       replicas: int = 512, seed: int = 0,
                       max_iter: int = 60) -> CalibrationResult:
    """Find the two-point mixture of environments with zero growth rate."""
    return calibrate_critical_pair(
        mo.mean_matrix(env_super), mo.mean_matrix(env_sub),
        tol=tol, horizon=horizon, replicas=replicas, seed=seed,
        max_iter=max_iter,
    )
