"""Random products of mean matrices: growth rates, moment growth, diagnostics.

The estimators and the calibration take environments; the product kernel
_indexed_log_norms takes matrices, and its plain one-factor-at-a-time
reference lives in tests/oracles.py.  _mean_matrices is the one crossing
between the two: it stacks the members' mean matrices (group-level ones
under the macro flag).  Every sampled product draws its members through
EnvironmentEnsemble.sample_index_array.
Throughout, |m| is the entrywise absolute sum of a matrix; mean matrices are
nonnegative, so the norm of a product is also 1' m 1.  Every product is
renormalized after each factor, so only the log of the scale grows and
overflow never occurs; the kernel walks the factors in blocks of _BLOCK
with one finiteness check per block, and the calibration evaluates its two
bracket weights in the same call as its first trial, at weight 1/2.
Estimator horizons follow the product index: horizon n covers the product
of n + 1 independently drawn factors and growth is normalized by 1/n.
Replica work runs through rng.run_chunked in chunks of a fixed 4096
replicas, one stream per chunk, so seeded results do not depend on the
worker count, which only the SIBDEP_WORKERS environment variable sets.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import moments as mo
from .env_model import (_BLOCK, Environment, EnvironmentEnsemble, _check_member_indices,
                        _uniform_blocks)
from .errors import (CalibrationError, DegenerateEnvironmentError,
                     DegenerateProductError, check_domains)
from .records import Record
from .rng import RngStream, run_chunked


def _mean_matrices(envs, macro: bool = False) -> np.ndarray:
    """The (K, N, N) stack of mean matrices; macro selects the group-level means."""
    if macro:
        return np.stack([mo.macro_moments(env).mean for env in envs])
    return np.stack([mo.mean_matrix(env) for env in envs])


def _indexed_log_norms(mats: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Log product norms for many index rows at once; one renormalization per step.

    The factors are nonnegative, so |M_1 ... M_n| = 1' M_1 ... M_n 1 and each
    row only carries the row vector 1' M_1 ... M_k.  The members sit side by
    side in one (N, K*N) matrix: a step multiplies every row by all of them at
    once and keeps, per row, the block of the member its index selects.  The
    factors run in blocks of _BLOCK: a block's gather positions are formed at
    once, every step writes into buffers made once per call, and finiteness
    is checked on the running logs once per block.  That check misses no
    collapse: a norm of 0 or inf leaves its row's log at -inf, inf or NaN for
    good, and the block's logged scales name the first such step.  An index
    outside [0, K) would gather another row's block, so it raises
    IndexError, checked once per call.  The gather then runs in "wrap" mode,
    which leaves an index in range as it is and, unlike the default "raise",
    writes straight into its output instead of through a temporary copy.
    At order 2, where call overhead outweighs the arithmetic, a step sums
    and divides the state's two column views instead of taking BLAS row sums
    and a broadcast divide.  The bits are the same: the entries are
    nonnegative and a product by 1 is exact, so BLAS's row sum of two terms
    is the one rounding of x0 + x1 that np.add gives, and division is
    elementwise in both forms.
    """
    rows, length = idx.shape
    size, order = mats.shape[0], mats.shape[1]
    _check_member_indices(idx, size)
    wide = np.asarray(mats, dtype=float).transpose(1, 0, 2).reshape(order, size * order)
    offsets = np.arange(rows) * size
    ones = np.ones(order)
    x = np.ones((rows, order))
    y = np.empty((rows, size * order))
    take = y.reshape(rows * size, order).take
    scale = np.empty(rows)
    col = scale[:, None]
    x0, x1 = x[:, 0], x[:, -1]   # the column views of order 2
    logs = np.zeros(rows)
    pos = np.empty((_BLOCK, rows), dtype=np.intp)   # a block's gather positions
    buf = np.empty((_BLOCK, rows))                  # and its logged scales
    steps = list(zip(pos, buf))
    matmul, log, divide, add = np.matmul, np.log, np.divide, np.add
    with np.errstate(divide="ignore", invalid="ignore"):   # log(0) is caught below
        for k0 in range(0, length, _BLOCK):
            n = min(_BLOCK, length - k0)
            add(idx[:, k0:k0 + n].T, offsets, out=pos[:n])
            for at, log_scale in steps[:n]:
                matmul(x, wide, out=y)
                take(at, axis=0, out=x, mode="wrap")
                if order == 2:
                    add(x0, x1, out=scale)
                    divide(x0, scale, out=x0)
                    divide(x1, scale, out=x1)
                else:
                    matmul(x, ones, out=scale)   # row sums; far cheaper than x.sum(axis=1)
                    divide(x, col, out=x)
                log(scale, out=log_scale)
                add(logs, log_scale, out=logs)
            if not math.isfinite(logs.sum()):
                k = k0 + int(np.argmin(np.isfinite(buf[:n]).all(axis=1))) + 1
                raise DegenerateProductError(
                    f"a replica's product norm collapsed at step {k}", steps=k
                )
    return logs


def _sampled_log_norms(ens: EnvironmentEnsemble, horizon, replicas, seed, use_macro):
    """Log norms of `replicas` sampled products of horizon + 1 factors; each
    estimator below is one statistic of this one draw; run_chunked checks
    the replica count."""
    check_domains(horizon=horizon)
    mats = _mean_matrices(ens.members, macro=use_macro)
    factors = horizon + 1

    def task(gen, size):
        return _indexed_log_norms(mats, ens.sample_index_array((size, factors), gen))

    return run_chunked(task, replicas, seed)


def _log_mean_exp(values: np.ndarray):
    """Max-shifted parts of log mean exp(values): (max, exp(values - max), their sum)."""
    mx = float(values.max())
    z = np.exp(values - mx)
    return mx, z, float(z.sum())


@dataclass(frozen=True)
class GrowthEstimate(Record):
    """Monte Carlo estimate of the top log growth rate."""

    value: float
    stderr: float
    horizon: int
    replicas: int


def _growth_rate(logs: np.ndarray, horizon: int) -> GrowthEstimate:
    replicas = logs.shape[0]
    per = logs / horizon
    stderr = float(per.std(ddof=1) / math.sqrt(replicas)) if replicas > 1 else 0.0
    return GrowthEstimate(value=float(per.mean()), stderr=stderr,
                          horizon=horizon, replicas=replicas)


def estimate_lyapunov(ens: EnvironmentEnsemble, horizon: int = 512, replicas: int = 256,
                      seed: int = 0, use_macro: bool = False) -> GrowthEstimate:
    """Average per-step log growth of the random product over many replicas."""
    return _growth_rate(_sampled_log_norms(ens, horizon, replicas, seed, use_macro),
                        horizon)


@dataclass(frozen=True)
class MomentGrowthEstimate(Record):
    """Monte Carlo estimate of the moment growth rate at one exponent."""

    value: float        # estimated growth rate of the theta-moment, per step
    log_value: float
    stderr: float       # delta-method standard error on value
    theta: float
    horizon: int
    replicas: int


_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _moment_growth(logs: np.ndarray, theta: float, horizon: int) -> MomentGrowthEstimate:
    replicas = logs.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite rate is caught below
        mx, z, total = _log_mean_exp(theta * logs)
    log_value = (mx + math.log(total / replicas)) / horizon
    if not log_value < _LOG_FLOAT_MAX:   # a NaN fails the comparison too
        raise ValueError(f"the theta={theta!r} moment growth rate overflows a float")
    value = math.exp(log_value)
    if replicas > 1:
        rel = float(z.std(ddof=1) / math.sqrt(replicas) / z.mean())
        stderr = value * rel / horizon
    else:
        stderr = 0.0
    return MomentGrowthEstimate(value=value, log_value=log_value, stderr=stderr,
                                theta=theta, horizon=horizon, replicas=replicas)


def estimate_lambda_theta(ens: EnvironmentEnsemble, theta: float, horizon: int = 512,
                          replicas: int = 256, seed: int = 0,
                          use_macro: bool = False) -> MomentGrowthEstimate:
    """Estimate the growth rate of E |product|^theta.

    The replica average of |R|^theta is formed in log space with a max shift,
    so heavy replica weights never overflow; a rate that itself overflows a
    float raises ValueError.
    """
    check_domains(theta=theta)
    return _moment_growth(_sampled_log_norms(ens, horizon, replicas, seed, use_macro),
                          theta, horizon)


@dataclass(frozen=True)
class DerivativeEstimate(Record):
    value: float
    stderr: float
    step: float
    horizon: int
    replicas: int


def _growth_slope(logs: np.ndarray, step: float, horizon: int) -> DerivativeEstimate:
    n = logs.shape[0]
    scale = 2.0 * step * horizon
    mx_p, z_p, s_p = _log_mean_exp((1.0 + step) * logs)
    mx_m, z_m, s_m = _log_mean_exp((1.0 - step) * logs)
    value = ((mx_p + math.log(s_p / n)) - (mx_m + math.log(s_m / n))) / scale
    if n > 1:
        loo_p = mx_p + np.log((s_p - z_p) / (n - 1))
        loo_m = mx_m + np.log((s_m - z_m) / (n - 1))
        loo = (loo_p - loo_m) / scale
        stderr = math.sqrt((n - 1) / n * float(((loo - loo.mean()) ** 2).sum()))
    else:
        stderr = 0.0
    return DerivativeEstimate(value=float(value), stderr=stderr, step=step,
                              horizon=horizon, replicas=n)


def lambda_prime_at_one(ens: EnvironmentEnsemble, step: float = 0.1,
                        horizon: int = 512, replicas: int = 256, seed: int = 0,
                        use_macro: bool = False) -> DerivativeEstimate:
    """Central difference of the log moment growth rate at exponent 1.

    Both endpoints are evaluated on the same replica sample, so the shared
    noise cancels in the difference; the standard error is a leave-one-out
    jackknife over replicas.
    """
    check_domains(step=step)
    return _growth_slope(_sampled_log_norms(ens, horizon, replicas, seed, use_macro),
                         step, horizon)


# -- structural condition checks -------------------------------------------


EIG_TOL = 1e-8     # residual tolerance for the shared eigenvector
DRIFT_TOL = 1e-2   # tolerated weighted mean of the log dominant root


@dataclass(frozen=True)
class ConditionParams:
    """Exponents and sample size for the structural checks."""

    theta: float = 1.0        # exponent for the mean-norm moment
    eps: float = 0.1          # slack exponent in the curvature moments
    alpha: float = 2.0        # stable index used by the tail checks
    horizon: int = 512
    replicas: int = 256
    seed: int = 0

    def __post_init__(self):
        check_domains(theta=self.theta, eps=self.eps, alpha=self.alpha)


@dataclass(frozen=True)
class ConditionCheck(Record):
    id: str
    description: str
    holds: bool | None       # None marks "not decidable by this check"
    values: dict
    note: str = ""


@dataclass(frozen=True)
class ConditionReport(Record):
    checks: tuple[ConditionCheck, ...]
    params: ConditionParams

    def get(self, check_id: str) -> ConditionCheck:
        for c in self.checks:
            if c.id == check_id:
                return c
        raise KeyError(check_id)


def _finite_moment(terms, weights, what: str) -> float:
    """The weighted sum of a thunk's terms, computed quietly; a ValueError
    naming the moment and its exponents when it is not finite."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        value = float(np.dot(weights, terms()))
    if not math.isfinite(value):   # a NaN fails too
        raise ValueError(f"the {what} overflows a float")
    return value


def _quiet_perron(mat):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return mo.perron(mat)


# one description per condition id; mean_norm_moment's is filled with theta
_CONDITION_DESCRIPTIONS = {
    "mean_norm_moment": "E|M|^theta finite at theta={theta}",
    "support_irreducible": "support has no invariant finite union of proper subspaces",
    "entry_ratio_bounded": "entry ratios within each mean matrix are uniformly bounded",
    "zero_growth": "top log growth rate of the random product is zero",
    "uniform_expansion_event":
        "some environment expands every direction by a fixed factor",
    "inverse_norm_moment": "expected inverse growth is bounded over all directions",
    "curvature_ratio_moment": "second-order mass ratio has finite moments",
    "log_curvature_moment": "log second-order ratio has finite moments",
    "shared_eigenvector": "all members act on one common positive eigenvector",
    "reproduction_spread":
        "every environment gives some member a chance of two or more children",
    "log_root_attraction": "log dominant root is attracted to a two-sided stable law",
    "variance_tail_moment":
        "child-group count variances have the required tail moment",
}


def check_conditions(ens: EnvironmentEnsemble,
                     params: ConditionParams | None = None) -> ConditionReport:
    """Evaluate every structural condition the survival theory rests on.

    Finite mixtures make most moment conditions automatic; the report still
    records the realized values so regimes can be compared quantitatively.
    Tolerances are fixed (EIG_TOL, DRIFT_TOL); a uniform expansion threshold
    that no member attains is reported as None.
    """
    p = params or ConditionParams()
    members = ens.members
    w = ens.weights
    mats = _mean_matrices(members)
    norms = np.array([float(np.abs(m).sum()) for m in mats])
    row_sums = [m.sum(axis=1) for m in mats]
    perrons = [_quiet_perron(m) for m in mats]
    rhos = np.array([pr.value for pr in perrons])
    checks: list[ConditionCheck] = []

    def check(check_id, holds, values, note=""):
        description = _CONDITION_DESCRIPTIONS[check_id].format(theta=p.theta)
        checks.append(ConditionCheck(check_id, description, holds, values, note))

    # finite theta-moment of the mean matrix norm
    moment = _finite_moment(lambda: norms ** p.theta, w,
                            f"theta={p.theta!r} moment of the mean matrix norm")
    check("mean_norm_moment", True,
          {"value": moment, "member_norms": norms.tolist()},
          "finite mixtures always satisfy this")

    # strong irreducibility of the support action, by positivity proxy
    all_positive = all(np.all(m > 0.0) for m in mats)
    if not all_positive:
        check("support_irreducible", None, {},
              "zero entries present; the positivity proxy cannot decide")
    elif len(members) == 1:
        check("support_irreducible", False, {},
              "single-member support: its dominant eigendirection spans an invariant line")
    else:
        spread = 0.0
        for a in range(len(perrons)):
            for b in range(a + 1, len(perrons)):
                spread = max(spread, float(np.max(np.abs(
                    perrons[a].vector - perrons[b].vector))))
        if spread > 1e-10:
            check("support_irreducible", True, {"direction_spread": spread},
                  "all members positive with distinct dominant directions")
        else:
            check("support_irreducible", False, {"direction_spread": spread},
                  "members share one eigendirection, which spans an invariant line")

    # uniformly bounded entry ratios within each realized matrix
    if all_positive:
        ratios = [float(m.max() / m.min()) for m in mats]
        check("entry_ratio_bounded", True,
              {"gamma": max(ratios), "member_ratios": ratios})
    else:
        check("entry_ratio_bounded", False, {},
              "a zero entry makes the ratio bound infinite")

    # criticality of the top growth rate; the norm of a product of members
    # sharing the eigenvector 1 is N times the product of their roots, so the
    # estimate sits log N / horizon above the growth rate
    growth = estimate_lyapunov(ens, horizon=p.horizon, replicas=p.replicas,
                               seed=p.seed)
    offset = math.log(ens.order) / p.horizon
    band = 3.0 * growth.stderr + offset
    check("zero_growth", bool(abs(growth.value) <= band),
          {"estimate": growth.value, "stderr": growth.stderr, "offset": offset,
           "band": band})

    # positive chance of uniform expansion across all directions
    min_rows = np.array([float(r.min()) for r in row_sums])
    best = float(min_rows.max())
    check("uniform_expansion_event", best > 1.0,
          {"delta": math.log(best) if best > 0.0 else None,
           "member_min_row_sums": min_rows.tolist(),
           "witness_member": int(min_rows.argmax())},
          "best achievable threshold derived from the support")

    # sup over directions of E[1 / |xM|]; linear in x so vertices decide
    if np.all(np.concatenate(row_sums) > 0.0):
        per_dir = np.array([
            float(np.dot(w, [1.0 / r[i] for r in row_sums]))
            for i in range(ens.order)
        ])
        check("inverse_norm_moment", True,
              {"value": float(per_dir.max()),
               "argmax_direction": int(per_dir.argmax()),
               "per_direction": per_dir.tolist()})
    else:
        check("inverse_norm_moment", False, {},
              "a zero row sum makes the inverse moment infinite")

    # curvature ratio moments
    try:
        curv = np.array([mo.curvature_stats(env).ratio for env in members])
    except DegenerateEnvironmentError as exc:
        check("curvature_ratio_moment", False, {}, str(exc))
        check("log_curvature_moment", False, {}, str(exc))
    else:
        check("curvature_ratio_moment", True,
              {"value": _finite_moment(lambda: curv ** (1.0 + p.eps), w,
                                       f"eps={p.eps!r} curvature ratio moment"),
               "member_ratios": curv.tolist()})
        if np.any(curv == 0.0):
            check("log_curvature_moment", False, {"member_ratios": curv.tolist()},
                  "a member has no second-order mass, so the log diverges")
        else:
            val = _finite_moment(lambda: np.abs(np.log(curv)) ** (1.0 + p.eps) * norms,
                                 w, f"eps={p.eps!r} log curvature moment")
            check("log_curvature_moment", True,
                  {"value": val, "member_ratios": curv.tolist()})

    # shared right eigenvector across the support
    if all_positive:
        u = perrons[0].vector
        residuals = [float(np.max(np.abs(m @ u - rho * u)))
                     for m, rho in zip(mats, rhos)]
        worst = max(residuals)
        check("shared_eigenvector", bool(worst <= EIG_TOL),
              {"residual": worst, "member_residuals": residuals,
               "candidate": u.tolist()})
    else:
        check("shared_eigenvector", False, {}, "mean matrices must be positive")

    # reproduction is not confined to at most one child
    caps = np.array([
        float(max(env.marginal(i, 0) + env.marginal(i, 1)
                  for i in range(1, env.order + 1)))
        for env in members
    ])
    check("reproduction_spread", bool(caps.max() < 1.0),
          {"worst": float(caps.max()), "member_values": caps.tolist()})

    # log dominant root: drift and spread
    log_rho = np.log(rhos) if np.all(rhos > 0.0) else None
    if log_rho is None:
        check("log_root_attraction", False, {}, "a member has dominant root zero")
        mean_x = var_x = None
    else:
        mean_x = float(np.dot(w, log_rho))
        var_x = float(np.dot(w, log_rho ** 2) - mean_x ** 2)
        if var_x <= 0.0:
            holds, note = False, "log dominant root is degenerate"
        elif abs(mean_x) <= DRIFT_TOL:
            holds, note = True, ("bounded spread with negligible drift; "
                                 "treated as the index-2 case")
        else:
            holds, note = False, ("nonzero drift is incompatible with "
                                  "uncentered attraction for bounded variables")
        check("log_root_attraction", holds,
              {"mean": mean_x, "variance": var_x, "alpha": p.alpha,
               "member_log_roots": log_rho.tolist()},
              note)

    # tail moment of the child-group count variance
    deltas = np.array([mo.delta_max(env) for env in members])
    if np.any((rhos == 0.0) & (deltas > 0.0)):
        check("variance_tail_moment", False, {"member_deltas": deltas.tolist()},
              "a member has dominant root zero with positive variance")
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = np.where(deltas > 0.0, deltas / rhos ** 2, 0.0)
            logplus = np.where(scaled > 1.0, np.log(scaled), 0.0)
        val = _finite_moment(lambda: logplus ** (p.alpha + p.eps), w,
                             f"alpha={p.alpha!r}, eps={p.eps!r} variance tail moment")
        check("variance_tail_moment", True,
              {"value": val, "member_deltas": deltas.tolist()})

    return ConditionReport(checks=tuple(checks), params=p)


# -- criticality calibration -------------------------------------------------

_CODES = 2.0 ** 16   # the calibration keeps each uniform u as floor(u * _CODES)


@dataclass(frozen=True)
class CalibrationResult(Record):
    weight: float              # mixture weight on the expanding member
    growth: GrowthEstimate     # growth estimate at the returned weight
    iterations: int
    trace: tuple[tuple[float, float, float], ...]   # (weight, value, stderr)
    horizon: int
    replicas: int
    seed: int


def calibrate_critical_pair(env_super: Environment, env_sub: Environment,
                            tol: float = 1e-3, horizon: int = 2000,
                            replicas: int = 512, seed: int = 0,
                            max_iter: int = 60) -> CalibrationResult:
    """Bisect the mixture weight between two environments until growth vanishes.

    The same uniform draws decide the member choice at every trial weight, so
    the estimated growth is a deterministic, nearly monotone function of the
    weight and bisection converges cleanly.  Runs as one batch; the worker
    count never affects the outcome.

    The uniforms u are kept as 16-bit codes floor(u * 2**16), a quarter of
    their float64 bytes.  Every trial weight w is a dyadic rational, and
    u < w holds exactly when the code lies below floor(w * 2**16), or equals
    it and u < w.  The second case needs the uniform itself only once w is
    no multiple of 2**-16, past bisection level 16; the stream is then
    replayed once, and the uniforms whose code is that bucket are kept.
    """
    check_domains(horizon=horizon, replicas=replicas, tol=tol, max_iter=max_iter)
    if env_super.order != env_sub.order:
        raise ValueError(f"orders differ: {env_super.order} and {env_sub.order}")
    mats = _mean_matrices((env_sub, env_super))
    factors = horizon + 1
    codes = np.empty((replicas, factors), dtype=np.uint16)
    flat = codes.reshape(-1)
    for start, u in _uniform_blocks(RngStream(seed, 0).generator(), flat.size):
        np.multiply(u, _CODES, out=flat[start:start + u.size], casting="unsafe")
    exact = {}   # bucket -> flat positions of its codes and their uniforms

    def in_bucket(bucket: int) -> tuple[np.ndarray, np.ndarray]:
        """The flat positions of the codes equal to bucket, and their uniforms,
        from one replay of the stream in the same blocks."""
        if bucket not in exact:
            where, values = [], []
            for start, u in _uniform_blocks(RngStream(seed, 0).generator(), flat.size):
                at = np.flatnonzero(flat[start:start + u.size] == bucket)
                where.append(start + at)
                values.append(u[at])
            exact[bucket] = np.concatenate(where), np.concatenate(values)
        return exact[bucket]

    def select(weight: float, out: np.ndarray) -> np.ndarray:
        """out = uniforms < weight: True selects the expanding member."""
        scaled = weight * _CODES   # exact, weight being dyadic
        bucket = math.floor(scaled)
        np.less(codes, bucket, out=out)
        if scaled != bucket:
            where, u = in_bucket(bucket)
            out.reshape(-1)[where] = u < weight
        return out

    def growth_at(weight: float) -> GrowthEstimate:
        idx = select(weight, np.empty(codes.shape, dtype=bool))
        return _growth_rate(_indexed_log_norms(mats, idx), horizon)

    # At weights 1 and 0 every row is the same product, so one row each will do.
    # Bisection always tries weight 1/2 first, so the two bracket rows go in
    # front of that trial's rows, and the three weights take one call.  If a
    # product in it collapses, the bracket is rerun alone, so a failed bracket
    # reports as it would have and the trial's own call raises after it.  A
    # lone replica keeps a call per weight: numpy hands a one-row product to
    # BLAS routines that round differently.
    first = None   # the growth at weight 1/2, once made
    idx = np.empty((replicas + 2, factors), dtype=bool)
    idx[0], idx[1] = True, False
    select(0.5, idx[2:])
    if replicas == 1:
        logs = [_indexed_log_norms(mats, idx[k:k + 1])[0] for k in (0, 1)]
    else:
        try:
            logs = _indexed_log_norms(mats, idx)
        except DegenerateProductError:
            pass   # rerun below, so that no error raised there chains to this one
        else:
            first = _growth_rate(logs[2:], horizon)
        if first is None:
            logs = _indexed_log_norms(mats, idx[:2])
    del idx   # it must not live beside the next trial's index array
    # every row of a bracket is the same product: its growth is exact
    top, bottom = (GrowthEstimate(float(log / horizon), 0.0, horizon, replicas)
                   for log in logs[:2])
    trace: list[tuple[float, float, float]] = []
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
        if mid in (lo, hi):   # no float left between them; a rerun would repeat mid
            break
        est = growth_at(mid) if first is None else first
        first = None
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
        f"bisection did not reach |growth| <= {tol} within {len(trace) - 2} iterations",
        trace=trace,
    )
