"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: dictionaries over explicit states,
sums over a law's atoms, one matrix factor at a time, closed-form
eigenvalue formulas, plain rejection sampling.  Laws are read only through
their public ``atoms``, never through the tables the package caches from
them, and nothing is imported from the package but public names of its top
level, so an error in the library's vectorized code cannot silently cancel
against these.
"""
from __future__ import annotations

import math

import numpy as np

from sibdep import CalibrationError, DegenerateProductError


# -- exact group-chain enumeration ----------------------------------------

def group_offspring_dist(law) -> dict:
    """Law of the child-group count vector born to one sibling group.

    Returns {g: prob} where g[k-1] is the number of new groups of size k.
    Children with zero offspring contribute no group.
    """
    total = sum(w for _, w in law.atoms)
    out: dict = {}
    for t, w in law.atoms:
        g = [0] * law.order
        for c in t:
            if c > 0:
                g[c - 1] += 1
        key = tuple(g)
        out[key] = out.get(key, 0.0) + w / total
    return out


def _convolve(da: dict, db: dict) -> dict:
    out: dict = {}
    for ga, pa in da.items():
        for gb, pb in db.items():
            key = tuple(x + y for x, y in zip(ga, gb))
            out[key] = out.get(key, 0.0) + pa * pb
    return out


class _EnvStepper:
    """One-generation transition of the group-count chain, fully enumerated.

    Convolution powers of each per-size offspring law are cached, so states
    with many groups reuse earlier work.
    """

    def __init__(self, env):
        self.order = env.order
        laws = {law.group_size: law for law in env.laws}
        self.base = [group_offspring_dist(laws[i])
                     for i in range(1, env.order + 1)]
        unit = {tuple([0] * env.order): 1.0}
        self.powers = [[unit] for _ in range(env.order)]

    def _power(self, size_idx: int, count: int) -> dict:
        cache = self.powers[size_idx]
        while len(cache) <= count:
            cache.append(_convolve(cache[-1], self.base[size_idx]))
        return cache[count]

    def state_transition(self, z: tuple) -> dict:
        dist = self._power(0, z[0])
        for k in range(1, self.order):
            if z[k]:
                dist = _convolve(dist, self._power(k, z[k]))
        return dist


def step_distribution(dist: dict, stepper: _EnvStepper) -> dict:
    out: dict = {}
    for z, p in dist.items():
        for z2, q in stepper.state_transition(z).items():
            out[z2] = out.get(z2, 0.0) + p * q
    return out


def enumerate_survival(env_seq, initial_type: int) -> float:
    """Exact survival probability for a fixed environment sequence."""
    order = env_seq[0].order
    z0 = tuple(1 if k == initial_type - 1 else 0 for k in range(order))
    dead = tuple([0] * order)
    dist = {z0: 1.0}
    for env in env_seq:
        dist = step_distribution(dist, _EnvStepper(env))
    return 1.0 - dist.get(dead, 0.0)


def annealed_distribution(ens, initial_type: int, horizon: int,
                          prune: float = 1e-15):
    """State distribution of the group chain with the environment redrawn
    each generation, mixing transitions at the chain level.

    Returns (dist, lost_mass); states below ``prune`` are dropped and their
    mass accumulated into the second value.
    """
    order = ens.order
    z0 = tuple(1 if k == initial_type - 1 else 0 for k in range(order))
    dead = tuple([0] * order)
    steppers = [_EnvStepper(env) for env in ens.members]
    weights = [float(w) for w in ens.weights]
    dist = {z0: 1.0}
    lost = 0.0
    for _ in range(horizon):
        mixed: dict = {}
        for w, stepper in zip(weights, steppers):
            for z, p in step_distribution(dist, stepper).items():
                mixed[z] = mixed.get(z, 0.0) + w * p
        dist = {}
        for z, p in mixed.items():
            if p < prune and z != dead:
                lost += p
            else:
                dist[z] = p
    return dist, lost


def annealed_survival(ens, initial_type: int, horizon: int,
                      prune: float = 1e-15) -> float:
    dist, lost = annealed_distribution(ens, initial_type, horizon, prune)
    dead = tuple([0] * ens.order)
    assert lost < 1e-10
    return 1.0 - dist.get(dead, 0.0)


def conditional_size_law(ens, initial_type: int, horizon: int,
                         prune: float = 1e-15):
    """Exact law of the individual count given survival, plus pruned mass."""
    dist, lost = annealed_distribution(ens, initial_type, horizon, prune)
    sizes: dict = {}
    for z, p in dist.items():
        s = sum((k + 1) * z[k] for k in range(len(z)))
        if s > 0:
            sizes[s] = sizes.get(s, 0.0) + p
    total = sum(sizes.values())
    support = sorted(sizes)
    probs = np.array([sizes[s] / total for s in support])
    return np.array(support), probs, lost


# -- generating functions from atoms -------------------------------------

def phi(law, s) -> float:
    """Joint generating function of the child-group counts of one group:
    the atoms' mean of prod_r s_(c_r) over the members r with c_r >= 1
    children, a member without children giving the factor 1."""
    total = sum(w for _, w in law.atoms)
    return sum(w / total * math.prod(s[c - 1] for c in t if c > 0)
               for t, w in law.atoms)


def f(law, s) -> float:
    """Marginal generating function of one member, p_0 + sum_j p_j s_j^j,
    where p_j is the chance that a given member has j children."""
    total = sum(w for _, w in law.atoms)
    return sum(w / total * sum(1.0 if c == 0 else s[c - 1] ** c for c in t) / len(t)
               for t, w in law.atoms)


# -- matrix products ------------------------------------------------------

def product_lognorm(mats) -> float:
    """Log norm of the right product of an explicit sequence of matrices,
    renormalized after each factor; a norm of 0 or inf raises
    DegenerateProductError naming the step."""
    mats = [np.asarray(m, dtype=float) for m in mats]
    if not mats:
        raise ValueError("need at least one factor")
    current = np.eye(mats[0].shape[0])
    log_scale = 0.0
    for k, m in enumerate(mats, start=1):
        nxt = current @ m
        scale = float(np.abs(nxt).sum())
        if scale == 0.0 or not math.isfinite(scale):
            raise DegenerateProductError(
                f"product norm collapsed to {scale!r} at step {k}", steps=k)
        current = nxt / scale
        log_scale += math.log(scale)
    return log_scale + math.log(float(np.abs(current).sum()))


def plain_calibration(log_norms, mats, uniforms, tol: float, max_iter: int):
    """Bisection for the weight w on member 1 at which the growth of the
    products log_norms(mats, uniforms < w) vanishes, over float64 uniforms
    held throughout, one call of the product kernel per weight.

    Returns (weight, iterations, trace) with trace entries (weight, growth,
    stderr), the brackets at weights 0 and 1 first; a bracket that does not
    hold, or a bisection that runs out of iterations or of floats between
    its ends, raises CalibrationError carrying the trace.
    """
    horizon = uniforms.shape[1] - 1

    def entry(weight):
        per = log_norms(mats, uniforms < weight) / horizon
        if weight in (0.0, 1.0):   # every row is the same product
            return weight, float(per[0]), 0.0
        n = per.shape[0]
        stderr = float(per.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        return weight, float(per.mean()), stderr

    trace = [entry(0.0), entry(1.0)]
    bottom, top = trace[0][1], trace[1][1]
    if not top > 0.0 > bottom:
        raise CalibrationError(
            "cannot calibrate: growth rates do not bracket zero "
            f"(at weight 1: {top:.6g}, at weight 0: {bottom:.6g})", trace=trace)
    lo, hi = 0.0, 1.0
    for it in range(1, max_iter + 1):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        trace.append(entry(mid))
        value = trace[-1][1]
        if abs(value) <= tol:
            return mid, it, trace
        if value > 0.0:
            hi = mid
        else:
            lo = mid
    raise CalibrationError(
        f"bisection did not reach |growth| <= {tol} within {len(trace) - 2} iterations",
        trace=trace)


# -- eigenvalue cross-checks ----------------------------------------------

def perron_2x2(m) -> tuple[float, np.ndarray]:
    """Closed-form dominant root and right eigenvector for a 2x2 matrix."""
    (a, b), (c, d) = np.asarray(m, dtype=float)
    disc = math.sqrt((a - d) ** 2 + 4.0 * b * c)
    root = 0.5 * (a + d + disc)
    if b > 0.0:
        v = np.array([b, root - a])
    elif c > 0.0:
        v = np.array([root - d, c])
    else:
        v = np.array([1.0, 0.0]) if a >= d else np.array([0.0, 1.0])
    v = np.abs(v)
    return root, v / v.sum()


def perron_root_3x3(m) -> float:
    """Top root of the characteristic cubic, coefficients by hand."""
    m = np.asarray(m, dtype=float)
    tr = m[0, 0] + m[1, 1] + m[2, 2]
    tr2 = float(np.trace(m @ m))
    s2 = 0.5 * (tr * tr - tr2)
    det = (m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
           - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
           + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0]))
    roots = np.roots([1.0, -tr, s2, -det])
    return float(max(roots.real))


# -- meander endpoint sampler ---------------------------------------------

def gaussian_meander(draws: int, steps: int = 256, seed: int = 0,
                     max_batch: int = 200_000) -> np.ndarray:
    """Endpoints of Gaussian random walks conditioned to stay positive.

    Walks of ``steps`` standard normal increments are rejection-sampled on
    the stay-positive event and endpoints are rescaled by the square root of
    the step count.  The limit law of the endpoint is Rayleigh with unit
    scale; at steps = 256 the finite-walk bias keeps a self-test statistic
    near 0.024.

    A batch's walks are drawn in blocks of 2,048 rows: the same normal
    stream in the same order as one (batch, steps) draw, so the endpoints
    are the same, in bounded memory.
    """
    gen = np.random.default_rng(seed)
    out, got = [], 0
    while got < draws:
        batch = min(max_batch, max(4 * (draws - got), 10_000))
        for start in range(0, batch, 2048):
            w = gen.standard_normal((min(2048, batch - start), steps)).cumsum(axis=1)
            keep = w[(w > 0.0).all(axis=1), -1]
            out.append(keep[:draws - got])
            got += min(len(keep), draws - got)
            if got == draws:
                break
    return np.concatenate(out) / math.sqrt(steps)


def rayleigh_cdf(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return 1.0 - np.exp(-0.5 * x * x)


# -- atom-level macro moment enumeration ----------------------------------

def macro_mean_by_enumeration(env) -> np.ndarray:
    """E[child-group count vector] per parent size, straight from atoms."""
    out = np.zeros((env.order, env.order))
    for law in env.laws:
        for g, p in group_offspring_dist(law).items():
            out[law.group_size - 1] += np.array(g, dtype=float) * p
    return out


def macro_second_by_enumeration(env) -> np.ndarray:
    """E[eta_j * (eta_k - delta_jk)] per parent size, straight from atoms."""
    n = env.order
    out = np.zeros((n, n, n))
    for law in env.laws:
        i = law.group_size
        for g, p in group_offspring_dist(law).items():
            eta = np.array(g, dtype=float)
            out[i - 1] += p * (np.outer(eta, eta) - np.diag(eta))
    return out
