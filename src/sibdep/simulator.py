"""Forward simulation, exact quenched survival, and the scaling experiments.

Two complementary engines live here.  The particle engine advances
group-type count vectors generation by generation with multinomial draws,
which keeps memory independent of population size; equal-type groups are
exchangeable, so the aggregated law is the exact process law.  Its two
loops read one read-only table per ensemble.  The forward driver draws a
uniform for every replica but carries only the live rows: they alone get
a member, by `EnvironmentEnsemble.member_index`, are advanced by one
multinomial call over a (member, type, row) grid, and reach the
`step(t, rows, counts, sizes)` hook.  Rows move by 1-D `take` and
`compress` gathers, never by boolean masks or fancy indexes; the paths
record keeps ids and individual counts and takes logs once per chunk.
Single trajectories bookkeep every draw twice, by sibship sizes and by
child-group tables; each route is a `Trajectory`.  Their loop appends
Python ints to one list, skips the multinomial of a one-atom law, and
builds one (horizon + 1, 2N) array at the end.  The quenched engine never
simulates populations at all: for a fixed environment sequence it
composes q -> 1 - phi(1 - q) backward from survival 1, in one pass for all
of a scan's horizons, giving survival probabilities that are exact up to
float rounding even where they are tiny, and Monte Carlo enters only
through the environment sequence.

Survival estimates therefore carry a method tag: "quenched-exact" for the
composition route, "particle-mc" for the particle route.  Conditional-law
estimation must realize populations jointly with survival, so it is always
particle based; in regimes where unconditioned survival is too rare to hit,
walkers that die are resampled from the live ones, which keeps the empirical
law aimed at the same conditional target at O(1/walkers) bias.

Every replica estimator hands its work to rng.run_chunked, which splits it
into chunks of a fixed 4096 replicas, one stream per chunk.  The chunk size
is part of the seed contract, and the SIBDEP_WORKERS environment variable is
the only worker setting, so seeded results never depend on the worker count.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from operator import mul

import numpy as np

from .env_model import Environment, EnvironmentEnsemble
from .errors import (POPULATION_CAP, InsufficientSurvivorsError, PopulationCapError,
                     check_domains)
from .records import Record
from .rng import run_chunked

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

    Iterates as a sequence of macro states, built on demand.
    """

    counts: np.ndarray

    @property
    def zeta(self) -> np.ndarray:
        """Individual count per generation."""
        return self.counts @ np.arange(1, self.counts.shape[1] + 1)

    def __iter__(self):
        return (MacroState(row, t) for t, row in enumerate(self.counts))


def _advance_batch(counts, member_idx, table, gen, generation, cap=POPULATION_CAP):
    """One generation for a batch of replicas; returns the new counts and sizes.

    One multinomial call over a (member, type, row) grid of group counts,
    zero wherever a row's member is another: its C order is the seed
    contract's member -> type -> ascending row, and a zero count draws
    nothing.  The counts stay int64, since they can reach INT64_MAX // N.
    """
    grid = counts.T * (member_idx == table.members)
    new = np.matmul(gen.multinomial(grid, table.pvals), table.children).sum(axis=(0, 1))
    sizes = new @ table.type_sizes
    worst = int(sizes.max(initial=0))
    if worst > cap:
        raise PopulationCapError(
            f"population {worst} exceeds the cap {cap} at generation {generation}",
            generation=generation, cap=cap,
        )
    return new, sizes


def _forward(ens: EnvironmentEnsemble, initial_type: int, horizon: int,
             gen: np.random.Generator, size: int, cap: int = POPULATION_CAP,
             step=None) -> tuple[np.ndarray, np.ndarray]:
    """The particle engine: `size` replicas, each started by one group.

    Carries only the live replicas: `rows` holds their ascending ids and
    `counts` their group counts, one row each.  Every generation draws one
    uniform per replica, dead or alive, into one buffer, so the streams do
    not depend on who died, but only live rows, gathered by `take`, are
    mapped to members or draw multinomials, and `compress` drops the dead.
    `step(t, rows, counts, sizes)`, when given, sees generation t's new
    counts and individual counts of the rows live before it, dead ones
    included, and may change both in place; rows still empty after it are
    dropped.  Returns the final `(rows, counts)` at the horizon, or as soon
    as no replica is left, so no draw is made past extinction.
    """
    table = ens._particle_table
    rows = np.arange(size)
    counts = np.zeros((size, ens.order), dtype=np.int64)
    counts[:, initial_type - 1] = 1
    u = np.empty(size)
    for t in range(1, horizon + 1):
        gen.random(out=u)
        idx = ens.member_index(u.take(rows) if rows.shape[0] < size else u)
        counts, sizes = _advance_batch(counts, idx, table, gen, t, cap)
        if step is not None:
            step(t, rows, counts, sizes)
        live = sizes > 0
        if not live.all():
            rows, counts = rows.compress(live), counts.compress(live, axis=0)
            if not rows.shape[0]:
                break
    return rows, counts


def simulate_macro_coupled(ens: EnvironmentEnsemble, initial_type: int, horizon: int,
                           rng: np.random.Generator, cap: int = POPULATION_CAP
                           ) -> tuple[Trajectory, Trajectory]:
    """One trajectory bookkept twice from identical draws: (micro, macro).

    A single size-i group starts at time 0; the children of one member found
    a group of their own size.  The micro route turns each drawn outcome
    into child groups by counting the sibship sizes in the outcome tuple
    directly; the macro route applies the precomputed child-group count
    tables.  Both see the same multinomial draws, so the returned
    trajectories must agree state by state, and the individual count of
    either equals the weighted group total of the other.  No draw is made
    past extinction; the extinct tail stays zero.  A member is one uniform
    bisected on the ensemble's member thresholds, the ones `member_index`
    counts, and a live type of a law with several atoms makes one
    multinomial draw.  Counts and sizes are Python ints, appended to one
    flat list per generation and copied into one int64 array at the end; a
    cap error at generation t carries the (micro, macro) pair of 0..t-1.
    """
    order = ens.order
    check_domains(order, coupled_horizon=horizon, cap=cap, initial_type=initial_type)
    table = ens._particle_table
    coupled, weights, thresholds = table.coupled, table.weights, ens._thresholds
    random, multinomial, sizes = rng.random, rng.multinomial, range(1, order + 1)
    # generation t fills flat[2Nt:2N(t + 1)]: the macro route, then the micro route
    flat = [0] * (2 * order)
    flat[initial_type - 1] = flat[order + initial_type - 1] = 1
    counts, columns = flat[:order], range(2 * order)
    for t in range(1, horizon + 1):
        law = bisect_right(thresholds, random()) * order
        new = [0] * (2 * order)
        for k, nk in enumerate(counts):
            if nk:
                rows = coupled[law + k]
                # numpy's multinomial makes no draw for one category either
                draws = multinomial(nk, weights[law + k]).tolist() \
                    if len(rows) > 1 else (nk,)
                for c, row in zip(draws, rows):
                    if c:
                        for j in columns:
                            new[j] += c * row[j]
        counts = new[:order]
        size = sum(map(mul, counts, sizes))
        if size > cap:
            raise PopulationCapError(
                f"population {size} exceeds the cap {cap} at generation {t}",
                generation=t, cap=cap, trajectory=_coupled_pair(flat, t, order),
            )
        flat += new
        if size == 0:
            break
    return _coupled_pair(flat, horizon + 1, order)


def _coupled_pair(flat, generations, order):
    """(micro, macro) views of a (generations, 2N) int64 array: `flat`, then zeros."""
    both = np.zeros((generations, 2 * order), dtype=np.int64)
    both.reshape(-1)[:len(flat)] = flat
    return Trajectory(both[:, order:]), Trajectory(both[:, :order])


# -- exact quenched survival ------------------------------------------------


def quenched_survival(env_seq: Sequence[Environment], initial_type: int) -> float:
    """Exact survival probability for one fixed environment sequence.

    The one entry of `_quenched_survival_rows` over the sequence's distinct
    members, whose ensemble weights are never drawn from.
    """
    envs = list(env_seq)
    if not envs:
        raise ValueError("need at least one environment")
    check_domains(envs[0].order, initial_type=initial_type)
    members = tuple({id(env): env for env in envs}.values())
    ens = EnvironmentEnsemble(members, np.full(len(members), 1.0 / len(members)))
    idx = np.array([[members.index(env) for env in envs]])
    return float(_quenched_survival_rows(ens, idx, initial_type, [len(envs)])[0, 0])


def _quenched_survival_rows(ens: EnvironmentEnsemble, member_idx: np.ndarray,
                            initial_type: int, horizons: Sequence[int]) -> np.ndarray:
    """Backward composition in survival form over many index rows at once:
    the (rows, horizons) block of survivals over the prefixes of member_idx
    as long as the ascending horizons.  One pass composes every horizon, as
    one slab of the kernel's state each, from survival 1, carried as -1; the
    clip removes an ulp above 1 that weights summing to 1 + ulp can leave."""
    state = np.full((len(horizons), member_idx.shape[0], ens.order), -1.0)
    ens._survival_loop(state, member_idx, horizons[::-1])
    return np.minimum(0.0 - state[::-1, :, initial_type - 1].T, 1.0)


def _quenched_columns(ens: EnvironmentEnsemble, initial_type: int, horizons: Sequence[int]):
    """The quenched chunk task: index rows as long as the last of the ascending
    horizons, and a (rows, horizons) block of survivals over their prefixes."""
    def task(gen, size):
        idx = ens.sample_index_array((size, horizons[-1]), gen)
        return _quenched_survival_rows(ens, idx, initial_type, horizons)
    return task


@dataclass(frozen=True)
class SurvivalEstimate(Record):
    horizon: int
    initial_type: int
    value: float
    stderr: float
    replicas: int
    method: str        # "quenched-exact" or "particle-mc"


def _summarize(values: np.ndarray, horizon, initial_type, method) -> SurvivalEstimate:
    """Mean and standard error of the rows.

    Both are taken on the values scaled by a power of two that brings the
    largest into [0.5, 1), and scaled back: exact wherever nothing
    underflows, and tiny survivals keep their squares out of underflow.
    """
    n = values.shape[0]
    exp = int(np.frexp(np.abs(values).max())[1])
    scaled = np.ldexp(values, -exp)
    stderr = float(scaled.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return SurvivalEstimate(horizon=horizon, initial_type=initial_type,
                            value=math.ldexp(float(scaled.mean()), exp),
                            stderr=math.ldexp(stderr, exp), replicas=n, method=method)


def estimate_survival(ens: EnvironmentEnsemble, initial_type: int, horizon: int,
                      replicas: int = 10_000, seed: int = 0,
                      method: str = "quenched") -> SurvivalEstimate:
    """Annealed survival probability at the given horizon.

    The quenched method samples environment sequences only and scores each
    with the exact composition above, so all demographic noise is gone; the
    particle method simulates populations and scores the survival indicator.
    """
    check_domains(ens.order, survival_replicas=replicas, horizon=horizon,
                  initial_type=initial_type)
    if method not in ("quenched", "particle"):
        raise ValueError(f"unknown method {method!r}")

    if method == "quenched":
        task = _quenched_columns(ens, initial_type, [horizon])
    else:
        def task(gen, size):
            alive = np.zeros((size, 1))
            alive[_forward(ens, initial_type, horizon, gen, size)[0]] = 1.0
            return alive
    tag = "quenched-exact" if method == "quenched" else "particle-mc"
    return _summarize(run_chunked(task, replicas, seed)[:, 0], horizon, initial_type, tag)


@dataclass(frozen=True)
class ScanRow(Record):
    horizon: int
    estimate: float
    stderr: float
    scaled: float      # horizon^(1/alpha) * estimate


def survival_scaling_scan(ens: EnvironmentEnsemble, initial_type: int,
                          horizons: Sequence[int], replicas: int = 10_000,
                          alpha: float = 2.0, seed: int = 0) -> tuple[ScanRow, ...]:
    """Quenched survival across horizons with the scaling column attached.

    Every horizon reuses prefixes of one set of sampled environment
    sequences, so the per-sequence survival values are nested and the
    estimates decrease monotonically in the horizon by construction.
    """
    hs = sorted(set(horizons))
    check_domains(ens.order, horizons=hs, survival_replicas=replicas, alpha=alpha,
                  initial_type=initial_type)
    hs = [int(h) for h in hs]   # numpy integers too become the records' ints
    try:
        scales = [h ** (1.0 / alpha) for h in hs]
    except OverflowError:
        scales = [math.inf]
    if not math.isfinite(max(scales)):   # a subnormal alpha makes 1/alpha inf, and no error
        raise ValueError("the scaled column horizon**(1/alpha) overflows a float "
                         f"at alpha={alpha!r}")
    values = run_chunked(_quenched_columns(ens, initial_type, hs), replicas, seed)
    estimates = (_summarize(values[:, j], h, initial_type, "quenched-exact")
                 for j, h in enumerate(hs))
    return tuple(ScanRow(horizon=e.horizon, estimate=e.value, stderr=e.stderr,
                         scaled=s * e.value) for e, s in zip(estimates, scales))


# -- conditional size distribution ------------------------------------------


@dataclass(frozen=True)
class ConditionalSizeDistribution(Record):
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

    def mean(self) -> float:
        return float(self.support @ self.probabilities)


def _survivor_sizes(ens, initial_type, horizon, replicas, seed, resample):
    """Individual counts at the horizon of the replicas alive there.

    With resample, each generation replaces dead walkers by copies of live
    ones from the same chunk, so the output ignores the worker count.  That
    sample is exchangeable but not independent; the conditional-law bias
    shrinks like 1/chunk walkers.
    """
    def task(gen, size):
        # refilling keeps every walker live, so the rows it sees are all
        # `size` of them and no dead walker is ever dropped
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
                # every source is a live row, which maps to itself
                src = np.arange(size)
                src[dead] = gen.choice(np.flatnonzero(~dead), size=n_dead)
                counts.take(src, axis=0, out=counts)
                sizes.take(src, out=sizes)

        _, counts = _forward(ens, initial_type, horizon, gen, size,
                             step=refill if resample else None)
        return counts @ ens._particle_table.type_sizes

    return run_chunked(task, replicas, seed)


def conditional_size_distribution(ens: EnvironmentEnsemble, initial_type: int,
                                  horizon: int, replicas: int = 20_000,
                                  seed: int = 0, method: str = "auto"
                                  ) -> ConditionalSizeDistribution:
    """Law of the individual count at the horizon given it is positive.

    Conditioning needs jointly realized populations, so this is particle
    based throughout.  "direct" keeps surviving replicas of a plain forward
    run; "resample" replaces dead walkers with copies of live ones, which is
    the only tractable route when survival is far below 1/replicas; "auto"
    picks by a cheap quenched survival estimate of the expected survivor
    count.
    """
    check_domains(ens.order, survival_replicas=replicas, horizon=horizon,
                  initial_type=initial_type)
    if method not in ("auto", "direct", "resample"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        probe = estimate_survival(ens, initial_type, horizon,
                                  replicas=min(replicas, 2048), seed=seed)
        expected = probe.value * replicas
        method = "direct" if expected >= 10 * MIN_SURVIVORS else "resample"

    sizes = _survivor_sizes(ens, initial_type, horizon, replicas, seed,
                            method == "resample")
    if method == "direct" and sizes.shape[0] < MIN_SURVIVORS:
        raise InsufficientSurvivorsError(
            f"{sizes.shape[0]} survivors out of {replicas} replicas; "
            f"at least {MIN_SURVIVORS} needed (switch to resample)",
            survivors=int(sizes.shape[0]), required=MIN_SURVIVORS,
        )

    support, freq = np.unique(sizes, return_counts=True)
    probs = freq / freq.sum()
    grid = np.linspace(0.0, 1.0, 11)
    pgf = (grid[:, None] ** support[None, :]) @ probs
    return ConditionalSizeDistribution(
        horizon=horizon, initial_type=initial_type,
        support=support, probabilities=probs,
        survivors=int(sizes.shape[0]), replicas=replicas, method=method,
        s_grid=grid, pgf_values=pgf,
    )


# -- normalized log-population paths ----------------------------------------


@dataclass(frozen=True)
class PathEnsemble:
    """Surviving paths as one (survivors, horizon + 1) array of values.

    Row r holds horizon^(-1/alpha) * log individual count of one
    surviving replica at the times 0, 1/n, ..., 1.
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

    def summary_dict(self) -> dict:
        return {"horizon": self.horizon, "alpha": self.alpha,
                "replicas": self.replicas, "survivors": self.survivors,
                "times": self.times.tolist(),
                "mean_path": self.mean_path.tolist(),
                "endpoints": self.endpoints.tolist()}


def log_population_path(ens: EnvironmentEnsemble, initial_type: int, horizon: int,
                        replicas: int = 20_000, alpha: float = 2.0, seed: int = 0,
                        cap: int = POPULATION_CAP) -> PathEnsemble:
    """Normalized log individual counts along surviving replicas.

    A replica survives when its population at the horizon is positive, in
    which case it was positive at every earlier time too, so the whole
    recorded path is well defined.  Long critical runs can push rare
    surviving paths past the default cap; raising the cap (counts are exact
    64-bit integers up to errors.INT64_MAX // order) lets those tails complete
    instead of failing the run.
    """
    check_domains(ens.order, survival_replicas=replicas, horizon=horizon, alpha=alpha,
                  cap=cap, initial_type=initial_type)
    scale = horizon ** (-1.0 / alpha)
    if scale == 0.0:
        raise ValueError("the path scale horizon**(-1/alpha) underflows to 0 "
                         f"at alpha={alpha!r}")

    def task(gen, size):
        # per generation, the ids and individual counts of the replicas live before it
        history = []
        survivors, _ = _forward(ens, initial_type, horizon, gen, size, cap,
                                lambda t, rows, counts, sizes: history.append((rows, sizes)))
        grown = np.empty((horizon, survivors.shape[0]), dtype=np.int64)
        # a survivor was live at every generation, so each search hits
        for t, (rows, sizes) in enumerate(history):
            sizes.take(rows.searchsorted(survivors), out=grown[t])
        logs = np.empty((survivors.shape[0], horizon + 1))
        logs[:, 0] = math.log(initial_type)
        np.log(grown.T, out=logs[:, 1:])
        logs *= scale
        return logs

    values = run_chunked(task, replicas, seed)
    if values.shape[0] == 0:
        raise InsufficientSurvivorsError(
            f"no replica of {replicas} survived to generation {horizon}",
            survivors=0, required=1,
        )
    return PathEnsemble(values=values, times=np.arange(horizon + 1) / horizon,
                        horizon=horizon, alpha=alpha, replicas=replicas)
