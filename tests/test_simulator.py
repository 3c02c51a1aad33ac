"""Trajectory simulation, survival estimators, conditional laws, paths."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sibdep.env_model import Environment, EnvironmentEnsemble, SiblingLaw
from sibdep.errors import InsufficientSurvivorsError, PopulationCapError
from sibdep.presets import load_preset
from sibdep.rng import RngStream
from sibdep.simulator import (
    ConditionalSizeDistribution,
    MacroState,
    _forward,
    _quenched_survival_rows,
    conditional_size_distribution,
    estimate_survival,
    log_population_path,
    quenched_survival,
    simulate_macro_coupled,
    simulate_micro,
    survival_scaling_scan,
    total_variation_distance,
)

from conftest import make_lean, make_line, make_rich, random_ensemble
from oracles import annealed_survival, conditional_size_law, enumerate_survival


def dead_end_env(order: int = 1) -> Environment:
    """Every group of every size has no children at all."""
    return Environment(order, tuple(SiblingLaw(k, order, (((0,) * k, 1.0),))
                                    for k in range(1, order + 1)), label="dead")


def doubling_env() -> Environment:
    """Every member has exactly two children, so the count doubles per step."""
    return Environment(2, (
        SiblingLaw(1, 2, (((2,), 1.0),)),
        SiblingLaw(2, 2, (((2, 2), 1.0),)),
    ), label="double")


def only(env: Environment) -> EnvironmentEnsemble:
    return EnvironmentEnsemble((env,), np.array([1.0]), label=env.label)


def test_macro_state_basics():
    st = MacroState(np.array([3, 0, 2]), generation=4)
    assert st.zeta == 3 * 1 + 2 * 3
    assert not st.extinct
    assert MacroState(np.array([0, 0]), 1).extinct
    with pytest.raises(ValueError):
        MacroState(np.array([-1, 0]), 0)
    with pytest.raises(ValueError):
        MacroState(np.array([[1, 0]]), 0)
    with pytest.raises(ValueError):
        MacroState(np.array([1.7, 0.0]), 0)
    assert MacroState(np.array([2.0, 0.0]), 0).counts.tolist() == [2, 0]
    with pytest.raises(ValueError):
        st.counts[0] = 5


def test_micro_line_is_frozen(line_only):
    states = simulate_micro(line_only, 1, 10, RngStream(0, 0).generator())
    assert len(states) == 11
    assert all(s.zeta == 1 for s in states)
    assert [s.generation for s in states] == list(range(11))


def test_micro_absorbs_after_extinction():
    states = simulate_micro(only(dead_end_env()), 1, 5, RngStream(0, 0).generator())
    assert len(states) == 6
    assert states[0].zeta == 1
    assert all(s.extinct for s in states[1:])


@pytest.mark.parametrize("simulate", [simulate_micro, simulate_macro_coupled])
def test_single_trajectory_horizon_must_be_nonnegative(ab_equal, simulate):
    with pytest.raises(ValueError, match="horizon"):
        simulate(ab_equal, 1, -3, RngStream(0, 0).generator())
    gen = RngStream(0, 0).generator()
    state = gen.bit_generator.state
    out = simulate(ab_equal, 2, 0, gen)
    for traj in (out,) if simulate is simulate_micro else out:
        assert traj.counts.tolist() == [[0, 1]]
    assert gen.bit_generator.state == state


def test_micro_reproducible(ab_equal):
    a = simulate_micro(ab_equal, 2, 15, RngStream(7, 0).generator())
    b = simulate_micro(ab_equal, 2, 15, RngStream(7, 0).generator())
    assert len(a) == len(b)
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa.counts, sb.counts)


def test_micro_survival_frequency_matches_exact_value(rich, rich_only):
    exact = quenched_survival([rich, rich], 1)
    assert exact == pytest.approx(0.69, abs=1e-12)
    replicas = 20_000
    gen = RngStream(21, 0).generator()
    alive = sum(not simulate_micro(rich_only, 1, 2, gen)[-1].extinct
                for _ in range(replicas))
    band = 3.0 * math.sqrt(exact * (1.0 - exact) / replicas)
    assert abs(alive / replicas - exact) <= band


@pytest.mark.parametrize("members", [(dead_end_env(),),
                                     (make_line(), dead_end_env())])
def test_micro_draws_nothing_past_extinction(members):
    """Each generation up to extinction draws one environment and one
    multinomial per group type; none after, so back-to-back trajectories
    from one generator are those of a fresh generator with the same seed."""
    ens = EnvironmentEnsemble(members, np.full(len(members), 1.0 / len(members)))
    gen = RngStream(3, 0).generator()
    first = simulate_micro(ens, 1, 30, gen)
    second = simulate_micro(ens, 1, 30, gen)
    fresh = RngStream(3, 0).generator()
    for trajectory in (first, second):
        again = simulate_micro(ens, 1, 30, fresh)
        assert [s.counts.tolist() for s in again] == [s.counts.tolist() for s in trajectory]

    replay = RngStream(3, 0).generator()
    for trajectory in (first, second):
        died = next(s.generation for s in trajectory if s.extinct)
        for _ in range(died):
            replay.random(1)
            replay.multinomial(np.array([1]), [1.0])
    assert replay.bit_generator.state == gen.bit_generator.state


def reference_forward(ens, initial_type, horizon, gen, size, step=None):
    """Every replica, dead or alive, advanced one row at a time in
    member -> type -> row order, with a multinomial draw only for n > 0."""
    counts = np.zeros((size, ens.order), dtype=np.int64)
    counts[:, initial_type - 1] = 1
    for t in range(1, horizon + 1):
        idx = ens.sample_index_array(size, gen)
        new = np.zeros_like(counts)
        for m, env in enumerate(ens.members):
            for k in range(ens.order):
                weights, child_counts = env._atom_weights[k], env._atom_child_counts[k]
                for r in range(size):
                    if idx[r] == m and counts[r, k] > 0:
                        new[r] += gen.multinomial(counts[r, k], weights) @ child_counts
        counts = new
        if step is not None:
            step(t, np.arange(size), counts)
        if not counts.any():
            break
    return counts


def resample_hook(gen):
    def refill(t, rows, counts):
        dead = ~counts.any(axis=1)
        if dead.all():
            raise InsufficientSurvivorsError(f"every walker died at {t}",
                                             survivors=0, required=1)
        if dead.any():
            counts[dead] = counts[gen.choice(np.flatnonzero(~dead), size=int(dead.sum()))]
    return refill


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), order=st.integers(1, 3),
       members=st.integers(1, 3), size=st.integers(1, 40),
       horizon=st.integers(1, 20), hook=st.booleans(), dies=st.booleans())
def test_live_row_driver_matches_the_every_row_reference(seed, order, members, size,
                                                         horizon, hook, dies):
    gen = np.random.default_rng(seed)
    ens = random_ensemble(gen, order, members)
    if dies:
        # a dead member drawn with weight 0.8 ends every replica long before
        # generation 20 unless a hook refills them
        ens = EnvironmentEnsemble(ens.members + (dead_end_env(order),),
                                  np.append(np.full(members, 0.2 / members), 0.8))
        horizon = 20
    itype = int(gen.integers(1, order + 1))
    cap = (2 ** 63 - 1) // order
    state = gen.bit_generator.state

    def run(driver):
        g = np.random.default_rng()
        g.bit_generator.state = state
        try:
            out = ("ok", driver(g))
        except InsufficientSurvivorsError as exc:
            out = ("error", str(exc))
        return out, g.bit_generator.state

    def live_rows(g):
        rows, counts = _forward(ens, itype, horizon, g, size, cap,
                                resample_hook(g) if hook else None)
        assert np.all(np.diff(rows) > 0) and counts.any(axis=1).all()
        full = np.zeros((size, order), dtype=np.int64)
        full[rows] = counts
        return full.tolist()

    def every_row(g):
        return reference_forward(ens, itype, horizon, g, size,
                                 resample_hook(g) if hook else None).tolist()

    got, want = run(live_rows), run(every_row)
    assert got == want
    if dies and not hook:
        assert got[0] == ("ok", [[0] * order] * size)


def assert_trajectory_views(traj):
    """Iteration, indexing and zeta agree with the counts array."""
    n = traj.counts.shape[0]
    states = list(traj)
    assert len(traj) == n
    assert [s.generation for s in states] == list(range(n))
    assert [s.counts.tolist() for s in states] == traj.counts.tolist()
    assert traj.zeta.tolist() == [s.zeta for s in states]
    last = traj[-1]
    assert (last.generation, last.counts.tolist()) == (n - 1, traj.counts[-1].tolist())
    assert [(s.generation, s.counts.tolist()) for s in traj[1:]] == \
        [(s.generation, s.counts.tolist()) for s in states[1:]]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), order=st.integers(1, 3),
       members=st.integers(1, 3), horizon=st.integers(0, 30),
       dies=st.booleans(), cap=st.sampled_from([100, 10 ** 12]))
def test_single_trajectory_routes_match_the_forward_driver(seed, order, members,
                                                           horizon, dies, cap):
    gen = np.random.default_rng(seed)
    ens = random_ensemble(gen, order, members)
    if dies:
        ens = EnvironmentEnsemble(ens.members + (dead_end_env(order),),
                                  np.append(np.full(members, 0.2 / members), 0.8))
    itype = int(gen.integers(1, order + 1))
    state = gen.bit_generator.state

    def forward(g):
        # the batched driver at one replica, padded with zeros past extinction
        counts = np.zeros((horizon + 1, order), dtype=np.int64)
        counts[0, itype - 1] = 1

        def record(t, rows, new):
            counts[t] = new[0]

        try:
            _forward(ens, itype, horizon, g, 1, cap, record)
        except PopulationCapError as exc:
            return counts[:exc.generation], exc.generation
        return counts, None

    def micro(g):
        try:
            traj, failed = simulate_micro(ens, itype, horizon, g, cap), None
        except PopulationCapError as exc:
            traj, failed = exc.trajectory, exc.generation
        assert_trajectory_views(traj)
        return traj.counts, failed

    def coupled(g):
        try:
            (m, c), failed = simulate_macro_coupled(ens, itype, horizon, g, cap), None
        except PopulationCapError as exc:
            (m, c), failed = exc.trajectory, exc.generation
        assert np.array_equal(m.counts, c.counts)
        return m.counts, failed

    def run(route):
        g = np.random.default_rng()
        g.bit_generator.state = state
        counts, failed = route(g)
        return counts.tolist(), failed, g.bit_generator.state

    want = run(forward)
    assert run(micro) == want
    assert run(coupled) == want


def test_coupled_bookkeeping_agrees_exactly(ab_equal):
    for rep in range(300):
        micro, macro = simulate_macro_coupled(
            ab_equal, 2, 20, RngStream(33, rep).generator())
        assert len(micro) == len(macro) == 21
        for sm, sg in zip(micro, macro):
            np.testing.assert_array_equal(sm.counts, sg.counts)
            assert sm.zeta == sg.zeta


def test_micro_cap_error_keeps_partial_trajectory():
    with pytest.raises(PopulationCapError) as exc:
        simulate_micro(only(doubling_env()), 2, 50,
                       RngStream(0, 0).generator(), cap=100)
    err = exc.value
    assert err.cap == 100
    assert err.generation == 6          # counts run 2, 4, ..., 128 > 100
    assert err.trajectory[-1].generation == 5
    assert err.trajectory[-1].zeta == 64


def test_coupled_cap_error():
    with pytest.raises(PopulationCapError) as exc:
        simulate_macro_coupled(only(doubling_env()), 2, 50,
                               RngStream(0, 0).generator(), cap=100)
    micro, macro = exc.value.trajectory
    assert micro[-1].zeta == macro[-1].zeta == 64


def test_quenched_survival_hand_values(rich, lean):
    assert quenched_survival([rich], 1) == pytest.approx(0.8, abs=1e-15)
    assert quenched_survival([lean], 1) == pytest.approx(0.5, abs=1e-15)
    for word in ([rich], [lean], [rich, rich], [rich, lean],
                 [lean, rich], [lean, lean]):
        for itype in (1, 2):
            assert quenched_survival(word, itype) == pytest.approx(
                enumerate_survival(word, itype), abs=1e-12)
    with pytest.raises(ValueError, match="at least one"):
        quenched_survival([], 1)
    with pytest.raises(ValueError, match="outside"):
        quenched_survival([rich], 3)


def test_estimate_survival_single_member_has_no_noise(rich, rich_only):
    est = estimate_survival(rich_only, 1, 4, replicas=64, seed=0)
    # identical replica scores; the mean's own rounding bounds the spread
    assert est.stderr <= 1e-15
    assert est.value == pytest.approx(quenched_survival([rich] * 4, 1), abs=1e-14)
    assert est.method == "quenched-exact"
    assert est.to_dict()["replicas"] == 64


def test_estimate_survival_matches_enumeration(ab_equal):
    exact = annealed_survival(ab_equal, 1, 2)
    assert exact == pytest.approx(0.475, abs=1e-12)
    est = estimate_survival(ab_equal, 1, 2, replicas=4096, seed=5)
    assert est.stderr > 0.0
    assert abs(est.value - exact) <= 3.0 * est.stderr


def test_particle_and_quenched_methods_agree(ab_equal):
    q = estimate_survival(ab_equal, 1, 6, replicas=4096, seed=11)
    p = estimate_survival(ab_equal, 1, 6, replicas=4096, seed=12,
                          method="particle")
    assert p.method == "particle-mc"
    assert abs(q.value - p.value) <= 3.0 * math.hypot(q.stderr, p.stderr)


def test_estimate_survival_validation(ab_equal):
    with pytest.raises(ValueError, match="replicas"):
        estimate_survival(ab_equal, 1, 2, replicas=1)
    with pytest.raises(ValueError, match="horizon"):
        estimate_survival(ab_equal, 1, 0)
    with pytest.raises(ValueError, match="method"):
        estimate_survival(ab_equal, 1, 2, method="annealed")


def test_scan_rows_are_nested_and_scaled(ab_sub):
    rows = survival_scaling_scan(ab_sub, 1, [4, 2, 4, 8, 16],
                                 replicas=2048, seed=3)
    assert [r.horizon for r in rows] == [2, 4, 8, 16]
    ests = [r.estimate for r in rows]
    assert all(a >= b for a, b in zip(ests, ests[1:]))
    for r in rows:
        assert r.scaled == pytest.approx(math.sqrt(r.horizon) * r.estimate,
                                         rel=1e-15)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), order=st.integers(1, 3),
       size=st.integers(1, 3), rows=st.integers(1, 40),
       horizons=st.lists(st.integers(1, 30), min_size=2, max_size=6, unique=True))
def test_quenched_rows_never_increase_with_the_horizon(seed, order, size, rows,
                                                       horizons):
    gen = np.random.default_rng(seed)
    ens = random_ensemble(gen, order, size)
    hs = sorted(horizons)
    idx = ens.sample_index_array((rows, hs[-1]), gen)
    itype = int(gen.integers(1, order + 1))
    values = np.stack([_quenched_survival_rows(ens, idx[:, :h], itype) for h in hs],
                      axis=1)
    # exact: every step is monotone in its argument, rounding included
    assert np.all(values[:, 1:] <= values[:, :-1])


@settings(max_examples=10, deadline=None)
@given(chunk_size=st.integers(50, 900))
def test_quenched_results_ignore_worker_count(ab_equal, chunk_size):
    def runs(workers):
        common = {"replicas": 900, "chunk_size": chunk_size, "workers": workers}
        return [estimate_survival(ab_equal, 1, 6, seed=1, **common).to_dict(),
                [r.to_dict() for r in survival_scaling_scan(ab_equal, 2, [3, 6, 12],
                                                            seed=2, **common)]]

    assert runs(2) == runs(1)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 3),
       length=st.integers(1, 5), itype=st.sampled_from([1, 2]))
def test_quenched_survival_matches_enumeration(seed, size, length, itype):
    gen = np.random.default_rng(seed)
    ens = random_ensemble(gen, 2, size)
    idx = ens.sample_index_array((1, length), gen)
    word = [ens.members[m] for m in idx[0]]
    exact = enumerate_survival(word, itype)
    assert quenched_survival(word, itype) == pytest.approx(exact, rel=0.0, abs=1e-12)
    assert _quenched_survival_rows(ens, idx, itype)[0] == \
        pytest.approx(exact, rel=0.0, abs=1e-12)


def test_scan_on_frozen_line(line_only):
    rows = survival_scaling_scan(line_only, 1, [1, 4, 9], replicas=16, seed=0)
    assert [r.estimate for r in rows] == [1.0, 1.0, 1.0]
    assert [r.stderr for r in rows] == [0.0, 0.0, 0.0]
    assert [r.scaled for r in rows] == [1.0, 2.0, 3.0]


def test_scan_validation(ab_sub):
    with pytest.raises(ValueError, match="horizons"):
        survival_scaling_scan(ab_sub, 1, [])
    with pytest.raises(ValueError, match="horizons"):
        survival_scaling_scan(ab_sub, 1, [0, 4])
    with pytest.raises(ValueError, match="replicas"):
        survival_scaling_scan(ab_sub, 1, [4], replicas=1)
    for alpha in (0.0, -1.0):
        with pytest.raises(ValueError, match="alpha"):
            survival_scaling_scan(ab_sub, 1, [4], replicas=16, alpha=alpha)


def test_conditional_size_point_mass_on_line(line_only):
    dist = conditional_size_distribution(line_only, 1, 8, replicas=2048, seed=1)
    assert dist.method == "direct"
    assert dist.survivors == 2048
    np.testing.assert_array_equal(dist.support, [1])
    np.testing.assert_allclose(dist.probabilities, [1.0])
    assert dist.mean() == 1.0
    assert dist.probability_of(1) == 1.0
    assert dist.probability_of(2) == 0.0
    # one frozen individual makes the generating function the identity
    np.testing.assert_allclose(dist.pgf_values, dist.s_grid, atol=1e-15)


def test_conditional_size_matches_enumeration(ab_equal):
    support, probs, lost = conditional_size_law(ab_equal, 1, 6)
    assert lost < 1e-10
    dist = conditional_size_distribution(ab_equal, 1, 6, replicas=40_000,
                                         seed=13, method="direct")
    assert dist.survivors >= 1000
    grid = np.union1d(dist.support, support)
    exact = dict(zip(support, probs))
    tv = 0.5 * sum(abs(dist.probability_of(int(z)) - exact.get(int(z), 0.0))
                   for z in grid)
    assert tv <= 0.05


def test_conditional_size_resample_far_below_threshold(lean_only):
    dist = conditional_size_distribution(lean_only, 1, 40, replicas=4096,
                                         seed=9, method="resample")
    assert dist.method == "resample"
    assert dist.survivors == 4096
    assert dist.support.min() >= 1
    assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-12)

    auto = conditional_size_distribution(lean_only, 1, 40, replicas=2048, seed=9)
    assert auto.method == "resample"


def test_conditional_size_failure_modes(lean_only):
    with pytest.raises(InsufficientSurvivorsError) as exc:
        conditional_size_distribution(lean_only, 1, 40, replicas=512,
                                      seed=2, method="direct")
    assert exc.value.survivors == 0
    assert exc.value.required == 100
    with pytest.raises(InsufficientSurvivorsError, match="every walker"):
        conditional_size_distribution(only(dead_end_env()), 1, 3,
                                      replicas=256, seed=0, method="resample")
    with pytest.raises(ValueError, match="method"):
        conditional_size_distribution(lean_only, 1, 2, method="census")


@pytest.mark.parametrize("method", ["auto", "direct", "resample"])
@pytest.mark.parametrize("horizon", [0, -3])
def test_conditional_size_rejects_horizon_below_one(ab_equal, method, horizon):
    with pytest.raises(ValueError, match="horizon must be at least 1"):
        conditional_size_distribution(ab_equal, 1, horizon, replicas=64,
                                      method=method)


def test_total_variation_hand_value():
    def tiny(support, probs):
        return ConditionalSizeDistribution(
            horizon=1, initial_type=1, support=np.array(support),
            probabilities=np.array(probs), survivors=4, replicas=4,
            method="direct", s_grid=np.array([1.0]), pgf_values=np.array([1.0]))
    a = tiny([1, 2], [0.5, 0.5])
    b = tiny([2, 3], [0.5, 0.5])
    assert total_variation_distance(a, b) == pytest.approx(0.5)
    assert total_variation_distance(a, a) == 0.0


def test_path_ensemble_structure(ab_equal):
    pe = log_population_path(ab_equal, 2, 16, replicas=2048, seed=15)
    assert len(pe) == pe.survivors == pe.values.shape[0]
    assert 0 < pe.survivors < 2048
    np.testing.assert_allclose(pe.times, np.arange(17) / 16)
    scale = 16 ** -0.5
    stacked = np.stack([r.values for r in pe])
    assert np.all(np.isfinite(stacked))
    np.testing.assert_allclose(stacked[:, 0], scale * math.log(2), rtol=1e-15)
    np.testing.assert_allclose(pe.mean_path, stacked.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(pe.endpoints, stacked[:, -1], rtol=0)
    assert np.all(pe.endpoints >= 0.0)
    assert pe[0].endpoint == pe.endpoints[0]
    assert pe.summary_dict()["survivors"] == pe.survivors


def test_path_results_ignore_worker_count(ab_equal):
    one = log_population_path(ab_equal, 1, 12, replicas=1500, seed=4,
                              chunk_size=512, workers=1)
    three = log_population_path(ab_equal, 1, 12, replicas=1500, seed=4,
                                chunk_size=512, workers=3)
    np.testing.assert_array_equal(one.endpoints, three.endpoints)


def test_path_scale_sequence_and_cap():
    ens = only(doubling_env())
    pe = log_population_path(ens, 2, 8, replicas=4, seed=0, cap=10 ** 6,
                             scale_sequence=lambda n: 2.0)
    # deterministic doubling: zeta(t) = 2^(t+1), scaled by 2 / sqrt(8)
    expect = 2.0 / math.sqrt(8.0) * np.log(2.0 ** np.arange(1, 10))
    np.testing.assert_allclose(pe.mean_path, expect, rtol=1e-12)
    with pytest.raises(PopulationCapError):
        log_population_path(ens, 2, 20, replicas=4, seed=0, cap=1000)
    with pytest.raises(InsufficientSurvivorsError):
        log_population_path(only(dead_end_env()), 1, 4, replicas=8, seed=0)


def test_path_memory_follows_live_rows():
    """One chunk of the critical run keeps only live rows' log sizes: a dense
    (replicas, horizon + 1) float array alone would take 16.8 MB."""
    ens = load_preset("critical")
    tracemalloc.start()
    try:
        log_population_path(ens, 1, 512, replicas=4096, seed=0, cap=10 ** 15,
                            chunk_size=4096, workers=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def test_path_cap_past_int64_is_rejected():
    ens = load_preset("supercritical")
    largest = (2 ** 63 - 1) // ens.order
    with pytest.raises(ValueError, match=f"largest cap allowed is {largest}$"):
        log_population_path(ens, 1, 800, replicas=64, seed=0, cap=2 ** 63 - 1)
    # at the largest cap allowed the counts stay exact up to the cap error
    with pytest.raises(PopulationCapError):
        log_population_path(ens, 1, 800, replicas=64, seed=0, cap=largest)


def test_coupled_cap_past_int64_is_rejected():
    ens = load_preset("supercritical")
    largest = (2 ** 63 - 1) // ens.order
    with pytest.raises(ValueError, match=f"largest cap allowed is {largest}$"):
        simulate_macro_coupled(ens, 1, 800, RngStream(0, 1).generator(),
                               cap=2 ** 63 - 1)
    with pytest.raises(PopulationCapError):
        simulate_macro_coupled(ens, 1, 800, RngStream(0, 1).generator(),
                               cap=largest)


def _outcome(call):
    try:
        return "ok", call()
    except InsufficientSurvivorsError as exc:
        return "error", str(exc)


@settings(max_examples=10, deadline=None)
@given(chunk_size=st.integers(50, 900), workers=st.sampled_from([1, 2]))
def test_particle_results_ignore_worker_count(ab_equal, chunk_size, workers):
    def runs(w):
        common = {"replicas": 900, "chunk_size": chunk_size, "workers": w}
        return [
            _outcome(lambda: estimate_survival(ab_equal, 1, 6, seed=1,
                                               method="particle", **common)),
            _outcome(lambda: conditional_size_distribution(
                ab_equal, 1, 4, seed=2, method="direct", **common).to_dict()),
            _outcome(lambda: conditional_size_distribution(
                ab_equal, 1, 6, seed=3, method="resample", **common).to_dict()),
            _outcome(lambda: log_population_path(ab_equal, 2, 8, seed=4,
                                                 **common).values.tolist()),
        ]

    assert runs(workers) == runs(1)


def test_doubling_horizon_keeps_endpoint_median_stable():
    ens = load_preset("critical")
    short = log_population_path(ens, 1, 128, replicas=30_000, seed=51,
                                cap=10 ** 12)
    long = log_population_path(ens, 1, 256, replicas=30_000, seed=52,
                               cap=10 ** 12)
    assert short.survivors >= 500 and long.survivors >= 300
    ratio = float(np.median(long.endpoints) / np.median(short.endpoints))
    assert abs(ratio - 1.0) <= 0.15


@pytest.mark.xfail(strict=True, reason="the scaled survival column of this "
                   "two-member mixture is still drifting at horizon 512; the "
                   "plateau sits far beyond desk-scale products")
def test_calibrated_two_member_scan_plateaus_early():
    w = 0.84130859375
    ens = EnvironmentEnsemble((make_rich(), make_lean()), np.array([w, 1.0 - w]))
    rows = survival_scaling_scan(ens, 1, [64, 128, 256, 512],
                                 replicas=10_000, seed=202)
    scaled = [r.scaled for r in rows]
    assert max(scaled) / min(scaled) <= 1.2
