"""Forward simulation, exact quenched survival, and the scaling experiments.

Two complementary engines live here.  The particle engine advances
group-type count vectors generation by generation with multinomial draws,
which keeps memory independent of population size; equal-type groups are
exchangeable, so the aggregated law is the exact process law.  It carries
only the live replicas, as ascending row ids beside their counts, and hands
each generation to a `step(t, rows, counts)` hook: extinct replicas make no
draws and take no step time, and recorded paths grow with the live rows,
not with replicas times horizon.  Single trajectories run on a loop of
their own that bookkeeps every draw twice, by sibship sizes and by
child-group tables, and store each route as one (horizon + 1, N) array, a
`Trajectory`.  The quenched engine never simulates populations at all:
for a fixed environment sequence it composes the offspring generating maps
backward from the zero vector, giving extinction probabilities that are
exact up to float rounding, and Monte Carlo enters only through the
environment sequence.

Survival estimates therefore carry a method tag: "quenched-exact" for the
composition route, "particle-mc" for the particle route.  Conditional-law
estimation must realize populations jointly with survival, so it is always
particle based; in regimes where unconditioned survival is too rare to hit,
walkers that die are resampled from the live ones, which keeps the empirical
law aimed at the same conditional target at O(1/walkers) bias.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .env_model import Environment, EnvironmentEnsemble
from .errors import InsufficientSurvivorsError, PopulationCapError
from .rng import DEFAULT_CHUNK_SIZE, run_chunked

POPULATION_CAP = 1_000_000_000
INT64_MAX = 2 ** 63 - 1
MIN_SURVIVORS = 100


@dataclass(frozen=True)
class MacroState:
    """Group counts by type at one generation."""

    counts: np.ndarray     # (N,) nonnegative ints; counts[k-1] holds type k
    generation: int

    def __post_init__(self):
        raw = np.asarray(self.counts)
        c = np.array(raw, dtype=np.int64)
        # count vectors have one entry per type, so a Python min over the
        # list beats a numpy reduction; integer rows, all a Trajectory
        # yields, skip the element-wise integrality check
        if (c.ndim != 1 or min(c.tolist(), default=0) < 0
                or (raw.dtype.kind not in "iu" and not np.array_equal(c, raw))):
            raise ValueError("counts must be a nonnegative integer vector")
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)

    @property
    def zeta(self) -> int:
        """Number of individuals: each type-k group holds k members."""
        return int(self.counts @ np.arange(1, self.counts.shape[0] + 1))

    @property
    def extinct(self) -> bool:
        return bool(self.counts.sum() == 0)


@dataclass(frozen=True)
class Trajectory:
    """One trajectory as a (horizon + 1, N) array; row t is generation t.

    Indexes and iterates as a sequence of macro states, built on demand;
    a slice gives a list of them.
    """

    counts: np.ndarray

    @property
    def zeta(self) -> np.ndarray:
        """Individual count per generation."""
        return self.counts @ np.arange(1, self.counts.shape[1] + 1)

    def __len__(self) -> int:
        return self.counts.shape[0]

    def __iter__(self):
        return (MacroState(row, t) for t, row in enumerate(self.counts))

    def __getitem__(self, item):
        gens = range(len(self))[item]
        if isinstance(gens, range):
            return [MacroState(self.counts[t], t) for t in gens]
        return MacroState(self.counts[gens], gens)


def _member_tables(ens: EnvironmentEnsemble):
    """Per member and type: atom weights and child-group counts.

    Views of the tables each Environment caches at construction.
    """
    return [list(zip(env._atom_weights, env._atom_child_counts)) for env in ens.members]


def _advance_batch(counts, member_idx, tables, gen, generation, cap=POPULATION_CAP):
    """One generation for a batch of replicas; returns the new counts."""
    new = np.zeros_like(counts)
    for m, per_type in enumerate(tables):
        mask = member_idx == m
        if not mask.any():
            continue
        sub = counts[mask]
        add = np.zeros_like(sub)
        for k, (weights, child_counts) in enumerate(per_type):
            nk = sub[:, k]
            if not nk.any():
                continue
            add += gen.multinomial(nk, weights) @ child_counts
        new[mask] = add
    sizes = new @ np.arange(1, new.shape[1] + 1, dtype=np.int64)
    if np.any(sizes > cap):
        worst = int(sizes.max())
        raise PopulationCapError(
            f"population {worst} exceeds the cap {cap} at generation {generation}",
            generation=generation, cap=cap,
        )
    return new


def _initial_counts(order: int, initial_type: int, replicas: int) -> np.ndarray:
    if not 1 <= initial_type <= order:
        raise ValueError(f"initial type {initial_type} outside 1..{order}")
    counts = np.zeros((replicas, order), dtype=np.int64)
    counts[:, initial_type - 1] = 1
    return counts


def _check_cap(order: int, cap: int) -> None:
    """Reject a cap whose next generation could overflow 64-bit counts.

    A member has at most `order` children, so the generation after one under
    the cap has at most order * cap individuals, which must fit int64.
    """
    if order * cap > INT64_MAX:
        raise ValueError(f"cap {cap} can overflow 64-bit counts at order {order}; "
                         f"the largest cap allowed is {INT64_MAX // order}")


def _forward(ens: EnvironmentEnsemble, initial_type: int, horizon: int,
             gen: np.random.Generator, size: int, cap: int = POPULATION_CAP,
             step=None) -> tuple[np.ndarray, np.ndarray]:
    """The particle engine: `size` replicas, each started by one group.

    Carries only the live replicas: `rows` holds their ascending ids and
    `counts` their group counts, one row each.  Every generation still draws
    one environment index per replica, dead or alive, so the streams do not
    depend on who died; an extinct replica makes no multinomial draw and
    takes no step time.  `step(t, rows, counts)`, when given, sees
    generation t's new counts of the rows that were live before it, dead
    ones included, and may change `counts` in place; rows still empty after
    it are dropped.  Returns the final `(rows, counts)` at the horizon, or
    as soon as no replica is left, so no draw is made past extinction.
    """
    _check_cap(ens.order, cap)
    tables = _member_tables(ens)
    ones = np.ones(ens.order, dtype=np.int64)
    rows = np.arange(size)
    counts = _initial_counts(ens.order, initial_type, size)
    for t in range(1, horizon + 1):
        idx = ens.sample_index_array(size, gen)
        if rows.shape[0] < size:
            idx = idx[rows]
        counts = _advance_batch(counts, idx, tables, gen, t, cap)
        if step is not None:
            step(t, rows, counts)
        # counts are nonnegative, and a row sum by matmul is several times
        # faster than any(axis=1) over a short axis
        live = counts @ ones > 0
        if not live.all():
            rows, counts = rows[live], counts[live]
            if not rows.shape[0]:
                break
    return rows, counts


def simulate_micro(ens: EnvironmentEnsemble, initial_type: int, horizon: int,
                   rng: np.random.Generator, cap: int = POPULATION_CAP) -> Trajectory:
    """One trajectory, group resolved: a single size-i group starts at time 0.

    Every generation draws one environment for all groups, then each group
    draws its members' joint child counts.  Children of one member stay
    together as a new group of their own size; childless members leave
    nothing.  This is the micro route of `simulate_macro_coupled`.  Raises a
    cap error carrying the partial trajectory.
    """
    try:
        return simulate_macro_coupled(ens, initial_type, horizon, rng, cap)[0]
    except PopulationCapError as exc:
        exc.trajectory = exc.trajectory[0]
        raise


def simulate_macro_coupled(ens: EnvironmentEnsemble, initial_type: int, horizon: int,
                           rng: np.random.Generator, cap: int = POPULATION_CAP
                           ) -> tuple[Trajectory, Trajectory]:
    """One trajectory bookkept twice from identical draws.

    The micro route turns each drawn outcome into child groups by counting
    the sibship sizes in the outcome tuple directly; the macro route applies
    the precomputed child-group count tables.  Both see the same multinomial
    draws, so the returned trajectories must agree state by state, and the
    individual count of either equals the weighted group total of the other.
    No draw is made past extinction; the extinct tail stays zero.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    order = ens.order
    _check_cap(order, cap)
    micro_tables = [env._sibship_counts for env in ens.members]
    macro_tables = _member_tables(ens)
    type_sizes = np.arange(1, order + 1)

    micro = np.zeros((horizon + 1, order), dtype=np.int64)
    macro = np.zeros((horizon + 1, order), dtype=np.int64)
    micro[0] = macro[0] = _initial_counts(order, initial_type, 1)[0]
    for t in range(1, horizon + 1):
        member = ens.sample_index(rng)
        for k, nk in enumerate(macro[t - 1].tolist()):
            if nk == 0:
                continue
            weights, child_counts = macro_tables[member][k]
            draws = rng.multinomial(nk, weights)
            macro[t] += draws @ child_counts
            micro[t] += draws @ micro_tables[member][k]
        size = int(macro[t] @ type_sizes)
        if size > cap:
            raise PopulationCapError(
                f"population {size} exceeds the cap {cap} at generation {t}",
                generation=t, cap=cap,
                trajectory=(Trajectory(micro[:t]), Trajectory(macro[:t])),
            )
        if size == 0:
            break
    return Trajectory(micro), Trajectory(macro)


# -- exact quenched survival ------------------------------------------------


def quenched_survival(env_seq: Sequence[Environment], initial_type: int) -> float:
    """Exact survival probability for one fixed environment sequence.

    Composes the offspring generating maps backward from the zero vector;
    the resulting coordinate is the extinction probability of a line started
    by one group of the requested type.  No sampling is involved.
    """
    envs = list(env_seq)
    if not envs:
        raise ValueError("need at least one environment")
    order = envs[0].order
    if not 1 <= initial_type <= order:
        raise ValueError(f"initial type {initial_type} outside 1..{order}")
    s = np.zeros(order)
    for env in reversed(envs):
        s = env.phi_vector(s)
    return float(1.0 - s[initial_type - 1])


def _quenched_survival_rows(ens: EnvironmentEnsemble, member_idx: np.ndarray,
                            initial_type: int) -> np.ndarray:
    """Vectorized backward composition over many index rows at once."""
    s = np.zeros((member_idx.shape[0], ens.order))
    for t in range(member_idx.shape[1] - 1, -1, -1):
        s = ens.phi_step(s, member_idx[:, t])
    return 1.0 - s[:, initial_type - 1]


@dataclass(frozen=True)
class SurvivalEstimate:
    horizon: int
    initial_type: int
    value: float
    stderr: float
    replicas: int
    method: str        # "quenched-exact" or "particle-mc"

    def to_dict(self) -> dict:
        return {"horizon": self.horizon, "initial_type": self.initial_type,
                "value": self.value, "stderr": self.stderr,
                "replicas": self.replicas, "method": self.method}


def _summarize(values: np.ndarray, horizon, initial_type, method) -> SurvivalEstimate:
    n = values.shape[0]
    stderr = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return SurvivalEstimate(horizon=horizon, initial_type=initial_type,
                            value=float(values.mean()), stderr=stderr,
                            replicas=n, method=method)


def estimate_survival(ens: EnvironmentEnsemble, initial_type: int, horizon: int,
                      replicas: int = 10_000, seed: int = 0,
                      method: str = "quenched",
                      chunk_size: int = DEFAULT_CHUNK_SIZE,
                      workers: int | None = None) -> SurvivalEstimate:
    """Annealed survival probability at the given horizon.

    The quenched method samples environment sequences only and scores each
    with the exact composition above, so all demographic noise is gone; the
    particle method simulates populations and scores the survival indicator.
    """
    if replicas < 2:
        raise ValueError("replicas >= 2 required")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if method not in ("quenched", "particle"):
        raise ValueError(f"unknown method {method!r}")

    if method == "quenched":
        def task(gen, size):
            idx = ens.sample_index_array((size, horizon), gen)
            return _quenched_survival_rows(ens, idx, initial_type)
        tag = "quenched-exact"
    else:
        def task(gen, size):
            alive = np.zeros(size)
            alive[_forward(ens, initial_type, horizon, gen, size)[0]] = 1.0
            return alive
        tag = "particle-mc"

    values = np.concatenate(run_chunked(task, replicas, seed,
                                        chunk_size=chunk_size, workers=workers))
    return _summarize(values, horizon, initial_type, tag)


@dataclass(frozen=True)
class ScanRow:
    horizon: int
    estimate: float
    stderr: float
    scaled: float      # horizon^(1/alpha) * estimate

    def to_dict(self) -> dict:
        return {"horizon": self.horizon, "estimate": self.estimate,
                "stderr": self.stderr, "scaled": self.scaled}


def survival_scaling_scan(ens: EnvironmentEnsemble, initial_type: int,
                          horizons: Sequence[int], replicas: int = 10_000,
                          alpha: float = 2.0, seed: int = 0,
                          chunk_size: int = DEFAULT_CHUNK_SIZE,
                          workers: int | None = None) -> tuple[ScanRow, ...]:
    """Quenched survival across horizons with the scaling column attached.

    Every horizon reuses prefixes of one set of sampled environment
    sequences, so the per-sequence survival values are nested and the
    estimates decrease monotonically in the horizon by construction.
    """
    hs = sorted(set(int(h) for h in horizons))
    if not hs or hs[0] < 1:
        raise ValueError("horizons must be positive")
    if replicas < 2:
        raise ValueError("replicas >= 2 required")
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    longest = hs[-1]

    def task(gen, size):
        idx = ens.sample_index_array((size, longest), gen)
        return np.stack([_quenched_survival_rows(ens, idx[:, :h], initial_type)
                         for h in hs], axis=1)

    values = np.concatenate(run_chunked(task, replicas, seed,
                                        chunk_size=chunk_size, workers=workers))
    rows = []
    for j, h in enumerate(hs):
        est = _summarize(values[:, j], h, initial_type, "quenched-exact")
        rows.append(ScanRow(horizon=h, estimate=est.value, stderr=est.stderr,
                            scaled=h ** (1.0 / alpha) * est.value))
    return tuple(rows)


# -- conditional size distribution ------------------------------------------


@dataclass(frozen=True)
class ConditionalSizeDistribution:
    """Empirical law of the individual count given survival to the horizon."""

    horizon: int
    initial_type: int
    support: np.ndarray        # distinct individual counts, ascending
    probabilities: np.ndarray  # matching masses, sum 1
    survivors: int
    replicas: int
    method: str                # "direct" or "resample"
    s_grid: np.ndarray
    pgf_values: np.ndarray     # empirical generating function on s_grid

    def probability_of(self, size: int) -> float:
        pos = np.searchsorted(self.support, size)
        if pos < self.support.shape[0] and self.support[pos] == size:
            return float(self.probabilities[pos])
        return 0.0

    def mean(self) -> float:
        return float(self.support @ self.probabilities)

    def to_dict(self) -> dict:
        return {"horizon": self.horizon, "initial_type": self.initial_type,
                "support": self.support.tolist(),
                "probabilities": self.probabilities.tolist(),
                "survivors": self.survivors, "replicas": self.replicas,
                "method": self.method, "s_grid": self.s_grid.tolist(),
                "pgf_values": self.pgf_values.tolist()}


def total_variation_distance(a: ConditionalSizeDistribution,
                             b: ConditionalSizeDistribution) -> float:
    support = np.union1d(a.support, b.support)
    pa = np.array([a.probability_of(int(z)) for z in support])
    pb = np.array([b.probability_of(int(z)) for z in support])
    return 0.5 * float(np.abs(pa - pb).sum())


def _survivor_sizes(ens, initial_type, horizon, replicas, seed, resample,
                    chunk_size, workers):
    """Individual counts at the horizon of the replicas alive there.

    With resample, each generation replaces dead walkers by copies of live
    ones from the same chunk, so the output ignores the worker count.  That
    sample is exchangeable but not independent; the conditional-law bias
    shrinks like 1/chunk walkers.
    """
    type_sizes = np.arange(1, ens.order + 1, dtype=np.int64)

    def task(gen, size):
        # refilling keeps every walker live, so the rows it sees are all
        # `size` of them and no dead walker is ever dropped
        def refill(t, rows, counts):
            dead = counts @ type_sizes == 0
            n_dead = int(dead.sum())
            if n_dead == size:
                raise InsufficientSurvivorsError(
                    f"every walker died at generation {t}; "
                    "the regime is too close to instant extinction",
                    survivors=0, required=1,
                )
            if n_dead:
                alive = np.flatnonzero(~dead)
                counts[dead] = counts[gen.choice(alive, size=n_dead)]

        _, counts = _forward(ens, initial_type, horizon, gen, size,
                             step=refill if resample else None)
        return counts @ type_sizes

    return np.concatenate(run_chunked(task, replicas, seed,
                                      chunk_size=chunk_size, workers=workers))


def conditional_size_distribution(ens: EnvironmentEnsemble, initial_type: int,
                                  horizon: int, replicas: int = 20_000,
                                  seed: int = 0, method: str = "auto",
                                  s_grid: np.ndarray | None = None,
                                  chunk_size: int = DEFAULT_CHUNK_SIZE,
                                  workers: int | None = None
                                  ) -> ConditionalSizeDistribution:
    """Law of the individual count at the horizon given it is positive.

    Conditioning needs jointly realized populations, so this is particle
    based throughout.  "direct" keeps surviving replicas of a plain forward
    run; "resample" replaces dead walkers with copies of live ones, which is
    the only tractable route when survival is far below 1/replicas; "auto"
    picks by a cheap quenched survival estimate of the expected survivor
    count.
    """
    if replicas < 2:
        raise ValueError("replicas >= 2 required")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if method not in ("auto", "direct", "resample"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        probe = estimate_survival(ens, initial_type, horizon,
                                  replicas=min(replicas, 2048), seed=seed,
                                  chunk_size=chunk_size, workers=workers)
        expected = probe.value * replicas
        method = "direct" if expected >= 10 * MIN_SURVIVORS else "resample"

    sizes = _survivor_sizes(ens, initial_type, horizon, replicas, seed,
                            method == "resample", chunk_size, workers)
    if method == "direct" and sizes.shape[0] < MIN_SURVIVORS:
        raise InsufficientSurvivorsError(
            f"{sizes.shape[0]} survivors out of {replicas} replicas; "
            f"at least {MIN_SURVIVORS} needed (switch to resample)",
            survivors=int(sizes.shape[0]), required=MIN_SURVIVORS,
        )

    support, freq = np.unique(sizes, return_counts=True)
    probs = freq / freq.sum()
    grid = np.linspace(0.0, 1.0, 11) if s_grid is None else np.asarray(s_grid, dtype=float)
    pgf = (grid[:, None] ** support[None, :]) @ probs
    return ConditionalSizeDistribution(
        horizon=horizon, initial_type=initial_type,
        support=support, probabilities=probs,
        survivors=int(sizes.shape[0]), replicas=replicas, method=method,
        s_grid=grid, pgf_values=pgf,
    )


# -- normalized log-population paths ----------------------------------------


@dataclass(frozen=True)
class PathRecord:
    """One surviving replica's normalized log-population trajectory."""

    times: np.ndarray     # 0, 1/n, ..., 1
    values: np.ndarray    # horizon^(-1/alpha) * scale * log individual count

    @property
    def endpoint(self) -> float:
        return float(self.values[-1])


@dataclass(frozen=True)
class PathEnsemble:
    """Surviving paths as one (survivors, horizon + 1) array of values.

    Iterates as a sequence of path records, built on demand.
    """

    values: np.ndarray
    times: np.ndarray
    horizon: int
    alpha: float
    replicas: int

    @property
    def survivors(self) -> int:
        return self.values.shape[0]

    @property
    def endpoints(self) -> np.ndarray:
        return self.values[:, -1]

    @property
    def mean_path(self) -> np.ndarray:
        return self.values.mean(axis=0)

    def __len__(self) -> int:
        return self.survivors

    def __iter__(self):
        return (PathRecord(times=self.times, values=row) for row in self.values)

    def __getitem__(self, item) -> PathRecord:
        return PathRecord(times=self.times, values=self.values[item])

    def summary_dict(self) -> dict:
        return {"horizon": self.horizon, "alpha": self.alpha,
                "replicas": self.replicas, "survivors": self.survivors,
                "times": self.times.tolist(),
                "mean_path": self.mean_path.tolist(),
                "endpoints": self.endpoints.tolist()}


def log_population_path(ens: EnvironmentEnsemble, initial_type: int, horizon: int,
                        replicas: int = 20_000, alpha: float = 2.0, seed: int = 0,
                        scale_sequence: Callable[[int], float] | None = None,
                        cap: int = POPULATION_CAP,
                        chunk_size: int = DEFAULT_CHUNK_SIZE,
                        workers: int | None = None) -> PathEnsemble:
    """Normalized log individual counts along surviving replicas.

    A replica survives when its population at the horizon is positive, in
    which case it was positive at every earlier time too, so the whole
    recorded path is well defined.  The scale sequence defaults to the
    constant 1.  Long critical runs can push rare surviving paths past the
    default cap; raising the cap (counts are exact 64-bit integers up to
    INT64_MAX // order) lets those tails complete instead of failing the run.
    """
    if replicas < 2:
        raise ValueError("replicas >= 2 required")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    scale = horizon ** (-1.0 / alpha)
    if scale_sequence is not None:
        scale *= float(scale_sequence(horizon))
    type_sizes = np.arange(1, ens.order + 1, dtype=np.int64)

    def task(gen, size):
        # per generation, the ids and log sizes of the replicas live after it
        history = []

        def record(t, rows, counts):
            sizes = counts @ type_sizes
            live = sizes > 0
            history.append((rows[live], np.log(sizes[live])))

        survivors, _ = _forward(ens, initial_type, horizon, gen, size, cap, record)
        logs = np.empty((survivors.shape[0], horizon + 1))
        logs[:, 0] = math.log(initial_type)
        # a survivor was live at every generation, so each search hits
        for t, (rows, values) in enumerate(history, start=1):
            logs[:, t] = values[rows.searchsorted(survivors)]
        return logs * scale

    values = np.concatenate(run_chunked(task, replicas, seed,
                                        chunk_size=chunk_size, workers=workers))
    if values.shape[0] == 0:
        raise InsufficientSurvivorsError(
            f"no replica of {replicas} survived to generation {horizon}",
            survivors=0, required=1,
        )
    return PathEnsemble(values=values, times=np.arange(horizon + 1) / horizon,
                        horizon=horizon, alpha=alpha, replicas=replicas)
