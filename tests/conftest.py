"""Shared fixture environments.

The two-type fixtures here are built inline rather than loaded from the
bundled presets, so preset files and in-code definitions can be checked
against each other.
"""
import itertools
import math

import numpy as np
import pytest

from sibdep import simulator
from sibdep.env_model import (_BLOCK, Environment, EnvironmentEnsemble, SiblingLaw,
                              _check_member_indices)
from sibdep.errors import DegenerateProductError, InsufficientSurvivorsError


def make_rich() -> Environment:
    """Two-type environment with strong growth (top root about 1.078)."""
    return Environment(2, (
        SiblingLaw(1, 2, (((0,), 0.2), ((1,), 0.3), ((2,), 0.5))),
        SiblingLaw(2, 2, (((0, 0), 0.10), ((0, 1), 0.30), ((0, 2), 0.10),
                          ((1, 1), 0.20), ((1, 2), 0.20), ((2, 2), 0.10))),
    ), label="rich")


def make_lean() -> Environment:
    """Two-type environment with strong decay (top root about 0.661)."""
    return Environment(2, (
        SiblingLaw(1, 2, (((0,), 0.5), ((1,), 0.3), ((2,), 0.2))),
        SiblingLaw(2, 2, (((0, 0), 0.30), ((0, 1), 0.35), ((1, 1), 0.10),
                          ((0, 2), 0.10), ((1, 2), 0.10), ((2, 2), 0.05))),
    ), label="lean")


def product_pair_env(p, label="") -> Environment:
    """Environment whose siblings reproduce independently with count law p.

    The pair law is the symmetrized product, so the mean matrix has equal
    rows and the all-ones direction is a right eigenvector: handy for
    building ensembles whose members share one eigendirection.
    """
    atoms = []
    for a in range(3):
        for b in range(a, 3):
            atoms.append(((a, b), p[a] * p[b] * (1.0 if a == b else 2.0)))
    return Environment(2, (
        SiblingLaw(1, 2, (((0,), p[0]), ((1,), p[1]), ((2,), p[2]))),
        SiblingLaw(2, 2, tuple(atoms)),
    ), label=label)


def make_line() -> Environment:
    """One type, exactly one child each: the frozen deterministic line."""
    return Environment(1, (SiblingLaw(1, 1, (((1,), 1.0),)),), label="line")


def dead_end_env(order: int = 1) -> Environment:
    """Every group of every size has no children at all."""
    return Environment(order, tuple(SiblingLaw(k, order, (((0,) * k, 1.0),))
                                    for k in range(1, order + 1)), label="dead")


def one_child_env(order: int = 1) -> Environment:
    """Every member of every group has exactly one child: one atom per law."""
    return Environment(order, tuple(SiblingLaw(k, order, (((1,) * k, 1.0),))
                                    for k in range(1, order + 1)), label="one-child")


def only(env: Environment) -> EnvironmentEnsemble:
    """The one-member ensemble of `env`."""
    return EnvironmentEnsemble((env,), np.array([1.0]), label=env.label)


def random_environment(rng: np.random.Generator, order: int,
                       label: str = "") -> Environment:
    """A random fully supported environment.

    Every canonical multiset of each group size receives a Dirichlet weight, so
    all marginals are strictly positive and the mean matrix is positive.
    """
    laws = []
    for i in range(1, order + 1):
        tuples = list(itertools.combinations_with_replacement(range(order + 1), i))
        w = rng.dirichlet(np.ones(len(tuples)))
        # guard against zeros from extreme Dirichlet draws
        w = w + 1e-9
        w = w / w.sum()
        laws.append(SiblingLaw(i, order, tuple(zip(tuples, map(float, w)))))
    return Environment(order, tuple(laws), label=label)


def random_ensemble(gen, order: int, size: int) -> EnvironmentEnsemble:
    """`size` fully supported random environments, equally weighted."""
    members = tuple(random_environment(gen, order) for _ in range(size))
    return EnvironmentEnsemble(members, np.full(size, 1.0 / size))


def plain_survival_step(ens: EnvironmentEnsemble, q: np.ndarray,
                        member_idx: np.ndarray) -> np.ndarray:
    """The quenched survival step as a plain formula, the reference for the
    buffered loop: row r becomes 1 - phi(1 - q_r) under member member_idx[r]."""
    counts, table = ens._phi_tables
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.fmax(np.log1p(-q), -1e300)
    every = (-np.expm1(logs @ counts) @ table).reshape(q.shape[0], ens.size, ens.order)
    return every[np.arange(q.shape[0]), member_idx]


def plain_quenched_block(ens: EnvironmentEnsemble, member_idx: np.ndarray,
                         initial_type: int, horizons) -> np.ndarray:
    """The (rows, horizons) survival block of `simulator._quenched_survival_rows`
    as one backward pass per horizon, each on a 2-D (rows, N) state that is
    floored at every step: the frozen reference for the kernel's slabs."""
    rows = member_idx.shape[0]
    counts, table = ens._phi_tables
    offsets = np.arange(rows) * ens.size
    columns = []
    for h in horizons:
        state = np.full((rows, ens.order), -1.0)
        logs = np.empty((rows, ens.order))
        monomials = np.empty((rows, counts.shape[1]))
        every = np.empty((rows, table.shape[1]))
        take = every.reshape(rows * ens.size, ens.order).take
        pos = np.empty((_BLOCK, rows), dtype=np.intp)
        with np.errstate(divide="ignore", invalid="ignore"):
            for end in range(h, 0, -_BLOCK):
                n = min(_BLOCK, end)
                np.add(member_idx[:, end - n:end].T, offsets, out=pos[:n])
                for at in pos[n - 1::-1]:
                    np.log1p(state, out=logs)
                    np.fmax(logs, -1e300, out=logs)
                    np.matmul(logs, counts, out=monomials)
                    np.expm1(monomials, out=monomials)
                    np.matmul(monomials, table, out=every)
                    take(at, axis=0, out=state, mode="wrap")
        columns.append(np.minimum(0.0 - state[:, initial_type - 1], 1.0))
    return np.stack(columns, axis=1)


def matrix_log_norms(mats: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """`spectral._indexed_log_norms` with matrix calls at every order: BLAS
    row sums `x @ 1` and a broadcast divide by the column of scales, the
    reference for the column steps the kernel takes at order 2."""
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
    logs = np.zeros(rows)
    pos = np.empty((_BLOCK, rows), dtype=np.intp)
    buf = np.empty((_BLOCK, rows))
    with np.errstate(divide="ignore", invalid="ignore"):
        for k0 in range(0, length, _BLOCK):
            n = min(_BLOCK, length - k0)
            np.add(idx[:, k0:k0 + n].T, offsets, out=pos[:n])
            for at, log_scale in zip(pos[:n], buf[:n]):
                np.matmul(x, wide, out=y)
                take(at, axis=0, out=x, mode="wrap")
                np.matmul(x, ones, out=scale)
                np.log(scale, out=log_scale)
                np.divide(x, scale[:, None], out=x)
                np.add(logs, log_scale, out=logs)
            if not math.isfinite(logs.sum()):
                k = k0 + int(np.argmin(np.isfinite(buf[:n]).all(axis=1))) + 1
                raise DegenerateProductError(
                    f"a replica's product norm collapsed at step {k}", steps=k
                )
    return logs


def plain_forward(ens, initial_type, horizon, gen, size, cap=simulator.POPULATION_CAP,
                  step=None):
    """The particle driver with boolean-mask and fancy-index row moves, the
    reference for the 1-D gathers of `simulator._forward`: a fresh uniform
    array per generation, `u[rows]` for the live rows' uniforms, and
    `rows[live]`, `counts[live]` to drop the dead."""
    table = ens._particle_table
    rows = np.arange(size)
    counts = np.zeros((size, ens.order), dtype=np.int64)
    counts[:, initial_type - 1] = 1
    for t in range(1, horizon + 1):
        u = gen.random(size)
        idx = ens.member_index(u[rows] if rows.shape[0] < size else u)
        counts, sizes = simulator._advance_batch(counts, idx, table, gen, t, cap)
        if step is not None:
            step(t, rows, counts, sizes)
        live = sizes > 0
        if not live.all():
            rows, counts = rows[live], counts[live]
            if not rows.shape[0]:
                break
    return rows, counts


def plain_refill(gen, size):
    """The resample hook of `simulator._survivor_sizes` with mask indexing:
    the drawn live rows are assigned to the dead ones through masks."""
    def refill(t, rows, counts, sizes):
        dead = sizes == 0
        n_dead = int(dead.sum())
        if n_dead == size:
            raise InsufficientSurvivorsError(
                f"every walker died at generation {t}; "
                "the regime is too close to instant extinction",
                survivors=0, required=1,
            )
        if n_dead:
            src = gen.choice(np.flatnonzero(~dead), size=n_dead)
            counts[dead], sizes[dead] = counts[src], sizes[src]
    return refill


def plain_survivor_sizes(ens, initial_type, horizon, gen, size):
    """One resampled chunk of `simulator._survivor_sizes` on `plain_forward`."""
    _, counts = plain_forward(ens, initial_type, horizon, gen, size,
                              step=plain_refill(gen, size))
    return counts @ ens._particle_table.type_sizes


def plain_path_logs(ens, initial_type, horizon, gen, size, cap, scale):
    """One chunk of `simulator.log_population_path` on `plain_forward`: the
    record keeps the live rows' ids and log sizes every generation, and the
    survivors' columns are filled one generation at a time."""
    history = []

    def record(t, rows, counts, sizes):
        live = sizes > 0
        history.append((rows[live], np.log(sizes[live])))

    survivors, _ = plain_forward(ens, initial_type, horizon, gen, size, cap, record)
    logs = np.empty((survivors.shape[0], horizon + 1))
    logs[:, 0] = math.log(initial_type)
    for t, (rows, values) in enumerate(history, start=1):
        logs[:, t] = values[rows.searchsorted(survivors)]
    return logs * scale


def probability_of(dist, size: int) -> float:
    """The mass a `ConditionalSizeDistribution` puts on one individual count."""
    pos = np.searchsorted(dist.support, size)
    if pos < dist.support.shape[0] and dist.support[pos] == size:
        return float(dist.probabilities[pos])
    return 0.0


def total_variation_distance(a, b) -> float:
    """Total variation distance of two `ConditionalSizeDistribution`s."""
    support = np.union1d(a.support, b.support)
    pa = np.array([probability_of(a, int(z)) for z in support])
    pb = np.array([probability_of(b, int(z)) for z in support])
    return 0.5 * float(np.abs(pa - pb).sum())


def same_bits(a, b) -> bool:
    """Equal shapes and equal bits, so -0.0 and 0.0 differ."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="session")
def rich():
    return make_rich()


@pytest.fixture(scope="session")
def lean():
    return make_lean()


@pytest.fixture(scope="session")
def rich_only(rich):
    return EnvironmentEnsemble((rich,), np.array([1.0]), label="rich-only")


@pytest.fixture(scope="session")
def lean_only(lean):
    return EnvironmentEnsemble((lean,), np.array([1.0]), label="lean-only")


@pytest.fixture(scope="session")
def ab_equal(rich, lean):
    return EnvironmentEnsemble((rich, lean), np.array([0.5, 0.5]),
                               label="ab-equal")


@pytest.fixture(scope="session")
def ab_sub(rich, lean):
    return EnvironmentEnsemble((rich, lean), np.array([0.2, 0.8]),
                               label="ab-sub")


@pytest.fixture(scope="session")
def critical_pair():
    up = product_pair_env((1.0 / 12.0, 1.0 / 2.0, 5.0 / 12.0), "flood")
    down = product_pair_env((1.0 / 2.0, 1.0 / 4.0, 1.0 / 4.0), "ebb")
    return EnvironmentEnsemble((up, down), np.array([0.5, 0.5]),
                               label="critical")


@pytest.fixture(scope="session")
def line_only():
    return EnvironmentEnsemble((make_line(),), np.array([1.0]), label="line")
