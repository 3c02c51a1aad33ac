"""Trajectory simulation, survival estimators, conditional laws, paths."""
import hashlib
import json
import math
import os
import tracemalloc
from bisect import bisect_right
from enum import IntEnum
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sibdep import errors
from sibdep import moments as mo
from sibdep import simulator
from sibdep.env_model import Environment, EnvironmentEnsemble, SiblingLaw
from sibdep.errors import InsufficientSurvivorsError, PopulationCapError
from sibdep.presets import PRESET_NAMES, load_preset
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
    survival_scaling_scan,
)

import conftest
from conftest import (dead_end_env, make_lean, make_line, make_rich, one_child_env, only,
                      plain_refill, plain_survival_step, probability_of, random_ensemble,
                      random_environment, same_bits, total_variation_distance)
from oracles import annealed_survival, conditional_size_law, enumerate_survival


def doubling_env() -> Environment:
    """Every member has exactly two children, so the count doubles per step."""
    return Environment(2, (
        SiblingLaw(1, 2, (((2,), 1.0),)),
        SiblingLaw(2, 2, (((2, 2), 1.0),)),
    ), label="double")


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
    states = simulate_macro_coupled(line_only, 1, 10, RngStream(0, 0).generator())[0]
    assert states.counts.shape[0] == 11
    assert all(s.zeta == 1 for s in states)
    assert [s.generation for s in states] == list(range(11))


def test_micro_absorbs_after_extinction():
    states = simulate_macro_coupled(only(dead_end_env()), 1, 5,
                                    RngStream(0, 0).generator())[0]
    assert states.zeta.tolist() == [1, 0, 0, 0, 0, 0]
    assert all(s.extinct for s in list(states)[1:])


def test_single_trajectory_horizon_must_be_nonnegative(ab_equal):
    with pytest.raises(ValueError, match="horizon"):
        simulate_macro_coupled(ab_equal, 1, -3, RngStream(0, 0).generator())
    gen = RngStream(0, 0).generator()
    state = gen.bit_generator.state
    for traj in simulate_macro_coupled(ab_equal, 2, 0, gen):
        assert traj.counts.tolist() == [[0, 1]]
    assert gen.bit_generator.state == state


def test_micro_reproducible(ab_equal):
    a = simulate_macro_coupled(ab_equal, 2, 15, RngStream(7, 0).generator())[0]
    b = simulate_macro_coupled(ab_equal, 2, 15, RngStream(7, 0).generator())[0]
    assert a.counts.shape[0] == b.counts.shape[0]
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa.counts, sb.counts)


def test_micro_survival_frequency_matches_exact_value(rich, rich_only):
    exact = quenched_survival([rich, rich], 1)
    assert exact == pytest.approx(0.69, abs=1e-12)
    replicas = 20_000
    gen = RngStream(21, 0).generator()
    alive = sum(bool(simulate_macro_coupled(rich_only, 1, 2, gen)[0].counts[-1].any())
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
    first = simulate_macro_coupled(ens, 1, 30, gen)[0]
    second = simulate_macro_coupled(ens, 1, 30, gen)[0]
    fresh = RngStream(3, 0).generator()
    for trajectory in (first, second):
        again = simulate_macro_coupled(ens, 1, 30, fresh)[0]
        assert [s.counts.tolist() for s in again] == [s.counts.tolist() for s in trajectory]

    replay = RngStream(3, 0).generator()
    for trajectory in (first, second):
        died = next(s.generation for s in trajectory if s.extinct)
        for _ in range(died):
            replay.random(1)
            replay.multinomial(np.array([1]), [1.0])
    assert replay.bit_generator.state == gen.bit_generator.state


def reference_step(ens, counts, idx, gen):
    """One generation, one row at a time in member -> type -> row order, with
    a 1-D multinomial draw of the row's own law only for n > 0."""
    new = np.zeros_like(counts)
    for m, env in enumerate(ens.members):
        for k in range(ens.order):
            weights, child_counts = env._atom_weights[k], env._atom_child_counts[k]
            for r in range(counts.shape[0]):
                if idx[r] == m and counts[r, k] > 0:
                    new[r] += gen.multinomial(counts[r, k], weights) @ child_counts
    return new


def reference_forward(ens, initial_type, horizon, gen, size, step=None):
    """Every replica, dead or alive, advanced by `reference_step`."""
    counts = np.zeros((size, ens.order), dtype=np.int64)
    counts[:, initial_type - 1] = 1
    for t in range(1, horizon + 1):
        counts = reference_step(ens, counts, ens.sample_index_array(size, gen), gen)
        if step is not None:
            step(t, np.arange(size), counts, counts @ np.arange(1, ens.order + 1))
        if not counts.any():
            break
    return counts


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), order=st.integers(1, 3),
       members=st.integers(1, 4), size=st.integers(1, 40),
       horizon=st.integers(1, 20), hook=st.booleans(), dies=st.booleans(),
       line=st.booleans())
def test_live_row_driver_matches_the_every_row_reference(seed, order, members, size,
                                                         horizon, hook, dies, line):
    gen = np.random.default_rng(seed)
    ens = random_ensemble(gen, order, members)
    # one-atom laws, padded to the width of the random members' laws; a dead
    # member drawn with weight 0.8 ends every replica long before generation
    # 20 unless a hook refills them
    extra = (one_child_env(order),) * line + (dead_end_env(order),) * dies
    if extra:
        mass = (0.1,) * line + (0.8,) * dies
        ens = EnvironmentEnsemble(ens.members + extra,
                                  np.append(np.full(members, (1.0 - sum(mass)) / members),
                                            mass))
    if dies:
        horizon = 20
    itype = int(gen.integers(1, order + 1))
    got, want = run_live_rows_and_reference(ens, itype, horizon, size, hook,
                                            gen.bit_generator.state)
    assert got == want
    if dies and not hook:
        assert got[0] == ("ok", [[0] * order] * size)


def run_live_rows_and_reference(ens, itype, horizon, size, hook, state):
    """Final counts of every replica and the generator state after the
    live-row driver and after the every-row reference, both started from
    `state`."""
    order = ens.order
    cap = (2 ** 63 - 1) // order

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
                                plain_refill(g, size) if hook else None)
        assert np.all(np.diff(rows) > 0) and counts.any(axis=1).all()
        full = np.zeros((size, order), dtype=np.int64)
        full[rows] = counts
        return full.tolist()

    def every_row(g):
        return reference_forward(ens, itype, horizon, g, size,
                                 plain_refill(g, size) if hook else None).tolist()

    return run(live_rows), run(every_row)


@pytest.mark.parametrize("preset, size, horizon, hook, exercises", [
    ("critical", 64, 60, False, ""),
    ("critical", 64, 60, True, "counts in the thousands"),
    ("critical", 3, 40, False, "a member without rows"),
    ("supercritical", 8, 150, False, "counts in the thousands"),
])
def test_live_row_driver_matches_the_every_row_reference_on_presets(
        preset, size, horizon, hook, exercises):
    ens = load_preset(preset)
    batches = []
    advance = simulator._advance_batch

    def spy(counts, member_idx, *args):
        batches.append((np.bincount(member_idx, minlength=ens.size), counts.max()))
        return advance(counts, member_idx, *args)

    with mock.patch.object(simulator, "_advance_batch", spy):
        got, want = run_live_rows_and_reference(
            ens, 1, horizon, size, hook, np.random.default_rng(11).bit_generator.state)
    assert got == want
    if exercises == "counts in the thousands":
        # numpy draws a binomial by BTPE once n * p exceeds 30
        assert max(top for _, top in batches) >= 1000
    if exercises == "a member without rows":
        assert any(0 in per_member for per_member, _ in batches)


@pytest.mark.parametrize("size", [1, 2, 63, 4097])
@pytest.mark.parametrize("hook", ["none", "paths", "resample"])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), order=st.integers(1, 4),
       members=st.integers(1, 3), horizon=st.integers(1, 12), childless=st.booleans())
def test_gathering_driver_matches_the_masking_reference(hook, size, seed, order, members,
                                                        horizon, childless):
    # byte-equal output, rows, counts and sizes after every hook call, and
    # generator end state, with no hook, the paths record and the refill
    gen = np.random.default_rng(seed)
    ens = random_ensemble(gen, order, members)
    if childless:
        ens = EnvironmentEnsemble(ens.members + (dead_end_env(order),),
                                  np.append(np.full(members, 0.6 / members), 0.4))
    itype = int(gen.integers(1, order + 1))
    state = gen.bit_generator.state
    cap = (2 ** 63 - 1) // order

    def spying(forward, seen):
        """`forward` with each hook call followed by a copy of what it left."""
        def spied(ens, itype, horizon, gen, size, cap=simulator.POPULATION_CAP, step=None):
            def spy(t, rows, counts, sizes):
                step(t, rows, counts, sizes)
                seen.append((t, rows.tobytes(), counts.tobytes(), sizes.tobytes()))
            return forward(ens, itype, horizon, gen, size, cap, spy if step else None)
        return spied

    def paths():
        try:
            return log_population_path(ens, itype, horizon, max(size, 2), cap=cap).values
        except InsufficientSurvivorsError:    # no survivor: the chunk's array is empty
            return np.empty((0, horizon + 1))

    def run(gathering):
        g, seen = np.random.default_rng(), []
        g.bit_generator.state = state
        try:
            if hook == "none":
                forward = _forward if gathering else conftest.plain_forward
                out = [a.tobytes() for a in forward(ens, itype, horizon, g, size, cap)]
            elif gathering:
                with mock.patch.object(simulator, "run_chunked",
                                       lambda task, replicas, seed: task(g, size)), \
                        mock.patch.object(simulator, "_forward", spying(_forward, seen)):
                    out = (paths() if hook == "paths" else
                           simulator._survivor_sizes(ens, itype, horizon, size, 0, True))
            else:
                with mock.patch.object(conftest, "plain_forward",
                                       spying(conftest.plain_forward, seen)):
                    out = (conftest.plain_path_logs(ens, itype, horizon, g, size, cap,
                                                    horizon ** -0.5)
                           if hook == "paths" else
                           conftest.plain_survivor_sizes(ens, itype, horizon, g, size))
            out = ("ok", out if hook == "none" else out.tobytes())
        except (InsufficientSurvivorsError, PopulationCapError) as exc:
            out = ("error", type(exc).__name__, str(exc))
        return out, seen, g.bit_generator.state

    got, want = run(True), run(False)
    assert got == want
    if hook != "none" and got[0][0] == "ok":
        assert got[1]       # the spy saw the hook run


@pytest.mark.parametrize("case", ["zero rows", "order 1", "a member without rows"])
def test_advance_batch_equals_per_law_draws(case):
    gen = np.random.default_rng(23)
    if case == "order 1":
        members = (random_environment(gen, 1), one_child_env(), dead_end_env())
        counts, idx = gen.integers(0, 50, (30, 1)), gen.integers(0, 3, 30)
    else:
        members = random_ensemble(gen, 3, 3).members + (one_child_env(3),)
        counts = gen.integers(0, 20, (0 if case == "zero rows" else 25, 3))
        idx = gen.choice([0, 2, 3], size=counts.shape[0])
    ens = EnvironmentEnsemble(members, np.full(len(members), 1.0 / len(members)))
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    new, sizes = simulator._advance_batch(counts, idx, ens._particle_table, a, 1)
    want = reference_step(ens, counts, idx, b)
    assert new.shape == counts.shape and new.dtype == np.int64
    assert new.tolist() == want.tolist()
    assert sizes.tolist() == (want @ np.arange(1, ens.order + 1)).tolist()
    assert a.bit_generator.state == b.bit_generator.state


def assert_trajectory_views(traj):
    """Iteration and zeta agree with the counts array."""
    states = list(traj)
    assert [s.generation for s in states] == list(range(traj.counts.shape[0]))
    assert [s.counts.tolist() for s in states] == traj.counts.tolist()
    assert traj.zeta.tolist() == [s.zeta for s in states]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), order=st.integers(1, 3),
       members=st.integers(1, 3), horizon=st.integers(0, 30),
       dies=st.booleans(), line=st.booleans(), cap=st.sampled_from([100, 10 ** 12]))
def test_single_trajectory_routes_match_the_forward_driver(seed, order, members,
                                                           horizon, dies, line, cap):
    gen = np.random.default_rng(seed)
    ens = random_ensemble(gen, order, members)
    # one-atom members, which the coupled loop advances without a multinomial
    extra = (dead_end_env(order),) * dies + (one_child_env(order),) * line
    if extra:
        ens = EnvironmentEnsemble(ens.members + extra,
                                  np.append(np.full(members, 0.2 / members),
                                            np.full(len(extra), 0.8 / len(extra))))
    itype = int(gen.integers(1, order + 1))
    state = gen.bit_generator.state

    def forward(g):
        # the batched driver at one replica, padded with zeros past extinction
        counts = np.zeros((horizon + 1, order), dtype=np.int64)
        counts[0, itype - 1] = 1

        def record(t, rows, new, sizes):
            counts[t] = new[0]

        try:
            _forward(ens, itype, horizon, g, 1, cap, record)
        except PopulationCapError as exc:
            return counts[:exc.generation], exc.generation
        return counts, None

    def coupled(g):
        try:
            (m, c), failed = simulate_macro_coupled(ens, itype, horizon, g, cap), None
        except PopulationCapError as exc:
            (m, c), failed = exc.trajectory, exc.generation
        assert_trajectory_views(m)
        assert_trajectory_views(c)
        assert np.array_equal(m.counts, c.counts)
        return m.counts, failed

    def run(route):
        g = np.random.default_rng()
        g.bit_generator.state = state
        counts, failed = route(g)
        return counts.tolist(), failed, g.bit_generator.state

    assert run(coupled) == run(forward)


def array_row_coupled(ens, initial_type, horizon, rng, cap):
    """The coupled loop as it was when it wrote one numpy row per generation
    into a preallocated (horizon + 1, 2N) array, the reference for the loop
    that collects Python ints: (micro, macro, failing generation or None)."""
    order, table = ens.order, ens._particle_table
    both = np.zeros((horizon + 1, 2 * order), dtype=np.int64)
    both[0, [initial_type - 1, order + initial_type - 1]] = 1
    counts, columns = both[0, :order].tolist(), range(2 * order)
    for t in range(1, horizon + 1):
        law = bisect_right(ens._thresholds, rng.random()) * order
        new = [0] * (2 * order)
        for k, nk in enumerate(counts):
            if nk:
                rows = table.coupled[law + k]
                draws = rng.multinomial(nk, table.weights[law + k]).tolist() \
                    if len(rows) > 1 else (nk,)
                for c, row in zip(draws, rows):
                    if c:
                        for j in columns:
                            new[j] += c * row[j]
        both[t] = new
        counts = new[:order]
        size = sum(k * n for k, n in enumerate(counts, 1))
        if size > cap:
            return both[:t, order:], both[:t, :order], t
        if size == 0:
            break
    return both[:, order:], both[:, :order], None


def assert_coupled_matches_array_rows(ens, initial_type, horizon, state, cap):
    """Same counts, cap generation and final generator state as the reference;
    returns the library's (micro, macro, failing generation or None)."""
    def run(route):
        g = np.random.default_rng()
        g.bit_generator.state = state
        return route(g), g.bit_generator.state

    def library(g):
        try:
            return (*simulate_macro_coupled(ens, initial_type, horizon, g, cap), None)
        except PopulationCapError as exc:
            return (*exc.trajectory, exc.generation)

    (micro, macro, failed), after = run(library)
    (ref_micro, ref_macro, ref_failed), ref_after = run(
        lambda g: array_row_coupled(ens, initial_type, horizon, g, cap))
    for traj, ref in ((micro, ref_micro), (macro, ref_macro)):
        assert traj.counts.dtype == np.int64
        assert traj.counts.shape == ref.shape
        assert traj.counts.tolist() == ref.tolist()
    assert failed == ref_failed
    assert after == ref_after
    return micro, macro, failed


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), order=st.integers(1, 4),
       members=st.integers(1, 3), horizon=st.integers(0, 30),
       extra=st.sampled_from(["none", "dead", "full"]),
       cap=st.one_of(st.integers(1, 8), st.integers(9, 10 ** 4),
                     st.just(simulator.POPULATION_CAP)))
def test_coupled_loop_matches_the_array_row_loop(seed, order, members, horizon, extra, cap):
    gen = np.random.default_rng(seed)
    ens = random_ensemble(gen, order, members)
    # a one-atom member that kills every group, or one whose members all
    # have `order` children, so extinction and the cap each come early
    if extra != "none":
        full = Environment(order, tuple(SiblingLaw(k, order, (((order,) * k, 1.0),))
                                        for k in range(1, order + 1)))
        added = full if extra == "full" else dead_end_env(order)
        ens = EnvironmentEnsemble(ens.members + (added,),
                                  np.append(np.full(members, 0.5 / members), 0.5))
    itype = int(gen.integers(1, order + 1))
    assert_coupled_matches_array_rows(ens, itype, horizon, gen.bit_generator.state, cap)


def test_coupled_loop_edge_cases_match_the_array_row_loop():
    state = RngStream(3, 0).generator().bit_generator.state
    supercritical = load_preset("supercritical")
    # horizon 0: the initial generation alone, and no draw
    micro, _, failed = assert_coupled_matches_array_rows(supercritical, 1, 0, state, 10)
    assert micro.counts.tolist() == [[1, 0]] and failed is None
    # extinction at generation 1: the rest of the rows stay zero
    micro, _, failed = assert_coupled_matches_array_rows(only(dead_end_env(3)), 2, 6,
                                                         state, 10)
    assert micro.counts.tolist() == [[0, 1, 0]] + [[0, 0, 0]] * 6 and failed is None
    # a cap error at generation 1 carries the one-row pair of generation 0
    micro, macro, failed = assert_coupled_matches_array_rows(only(doubling_env()), 2, 5,
                                                             state, 3)
    assert failed == 1 and micro.counts.tolist() == macro.counts.tolist() == [[0, 1]]
    # the largest cap allowed: the counts stay exact up to the cap error
    largest = (2 ** 63 - 1) // supercritical.order
    micro, _, failed = assert_coupled_matches_array_rows(supercritical, 1, 800, state,
                                                         largest)
    assert failed is not None and 0 < micro.zeta[-1] <= largest


@pytest.mark.parametrize("horizon", [0, 1, 25])
def test_one_atom_laws_draw_only_the_member_uniform(horizon):
    # deterministic_line is one one-atom law: each generation draws the
    # member's uniform and nothing else
    gen, ref = RngStream(5, 0).generator(), RngStream(5, 0).generator()
    micro, macro = simulate_macro_coupled(load_preset("deterministic_line"), 1, horizon, gen)
    for _ in range(horizon):
        ref.random()
    assert gen.bit_generator.state == ref.bit_generator.state
    assert micro.counts.tolist() == macro.counts.tolist() == [[1]] * (horizon + 1)


def test_seeded_coupled_output_is_pinned():
    # sha256 of both routes' stacked counts and the final generator states on
    # C4's presets, horizon 20, streams RngStream(400, 0..499); recorded
    # with the earlier numpy-array loop, so a moved draw, count or stream shows
    digest = hashlib.sha256()
    for name in ("critical", "subcritical", "supercritical", "deterministic_line"):
        ens = load_preset(name)
        micro, macro, states = [], [], []
        for rep in range(500):
            gen = RngStream(400, rep).generator()
            m, g = simulate_macro_coupled(ens, 1, 20, gen)
            micro.append(m.counts)
            macro.append(g.counts)
            states.append(gen.bit_generator.state)
        for stack in (micro, macro):
            digest.update(np.ascontiguousarray(np.stack(stack), dtype="<i8").tobytes())
        digest.update(json.dumps(states, sort_keys=True).encode())
    assert digest.hexdigest() == \
        "b68c90e6cd79eba6f6d744823de2e9bf7df50d1fe685cd87f7bcbcc0e5ad4a79"


def test_seeded_particle_output_is_pinned():
    # sha256 of critical log-population paths (horizon 128, 5,120 replicas,
    # so 2 chunks), resampled conditional size laws on subcritical and the
    # two-member boom_bust, a particle survival estimate on critical, and the
    # end state of every chunk's generator; recorded with the sort-and-block
    # step, one multinomial call per member and type, so a moved draw shows
    digest = hashlib.sha256()
    states = []
    chunked = simulator.run_chunked

    def recording(task, replicas, seed):
        def task_and_state(gen, size):
            out = task(gen, size)
            states.append(gen.bit_generator.state)
            return out
        return chunked(task_and_state, replicas, seed)

    with mock.patch.object(simulator, "run_chunked", recording), \
            mock.patch.dict(os.environ, {"SIBDEP_WORKERS": "1"}):
        paths = log_population_path(load_preset("critical"), 1, 128, replicas=5120,
                                    seed=3, cap=10 ** 15)
        digest.update(paths.values.astype("<f8").tobytes())
        for name in ("subcritical", "boom_bust"):
            law = conditional_size_distribution(load_preset(name), 1, 40, replicas=5120,
                                                seed=4, method="resample")
            digest.update(law.support.astype("<i8").tobytes())
            digest.update(law.probabilities.astype("<f8").tobytes())
        est = estimate_survival(load_preset("critical"), 2, 64, replicas=5120, seed=5,
                                method="particle")
        digest.update(json.dumps(est.to_dict(), sort_keys=True).encode())
    assert len(states) == 8
    digest.update(json.dumps(states, sort_keys=True).encode())
    assert digest.hexdigest() == \
        "71e7e8ca92389bec7fc7373033365f556ebbf8f9e2a8650e3797027c5d1ed2df"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_seeded_row_moves_are_pinned(workers):
    # sha256 of log-population paths on the two-member boom_bust started by
    # a pair (column 0 is log 2; in both chunks rows die at every one of the
    # 40 generations), a resampled conditional size law on critical (thousands
    # of refills, each with several dead walkers), and the end state of every
    # chunk's generator, sorted since two workers finish chunks in any order
    digest = hashlib.sha256()
    states, dead = [], []
    chunked, forward = simulator.run_chunked, simulator._forward

    def recording(task, replicas, seed):
        def task_and_state(gen, size):
            out = task(gen, size)
            states.append(json.dumps(gen.bit_generator.state, sort_keys=True))
            return out
        return chunked(task_and_state, replicas, seed)

    def counting(ens, itype, horizon, gen, size, cap=simulator.POPULATION_CAP, step=None):
        def spy(t, rows, counts, sizes):
            dead.append(int((sizes == 0).sum()))
            step(t, rows, counts, sizes)
        return forward(ens, itype, horizon, gen, size, cap, spy)

    with mock.patch.object(simulator, "run_chunked", recording), \
            mock.patch.object(simulator, "_forward", counting), \
            mock.patch.dict(os.environ, {"SIBDEP_WORKERS": workers}):
        paths = log_population_path(load_preset("boom_bust"), 2, 40, replicas=5120,
                                    seed=7, cap=10 ** 15)
        assert len(dead) == 80 and min(dead) > 0
        assert np.all(paths.values[:, 0] == math.log(2) * 40 ** -0.5)
        digest.update(paths.values.astype("<f8").tobytes())
        law = conditional_size_distribution(load_preset("critical"), 1, 60, replicas=5120,
                                            seed=8, method="resample")
        assert sum(dead[80:]) > 5000
        digest.update(law.support.astype("<i8").tobytes())
        digest.update(law.probabilities.astype("<f8").tobytes())
    assert len(states) == 4
    digest.update(json.dumps(sorted(states)).encode())
    assert digest.hexdigest() == \
        "9caf72ce5c84c00d22dae810fef1fef85c9c4d6d8c8b3d108627695a5fee51b3"


def test_coupled_bookkeeping_agrees_exactly(ab_equal):
    for rep in range(300):
        m, g = simulate_macro_coupled(ab_equal, 2, 20, RngStream(33, rep).generator())
        assert m.counts.shape[0] == g.counts.shape[0] == 21
        for sm, sg in zip(m, g):
            np.testing.assert_array_equal(sm.counts, sg.counts)
            assert sm.zeta == sg.zeta


def test_micro_cap_error_keeps_partial_trajectory():
    with pytest.raises(PopulationCapError) as exc:
        simulate_macro_coupled(only(doubling_env()), 2, 50,
                               RngStream(0, 0).generator(), cap=100)
    err = exc.value
    assert err.cap == 100
    assert err.generation == 6          # counts run 2, 4, ..., 128 > 100
    # generations 0..5 of the micro route
    assert err.trajectory[0].zeta.tolist() == [2, 4, 8, 16, 32, 64]


def test_coupled_cap_error():
    with pytest.raises(PopulationCapError) as exc:
        simulate_macro_coupled(only(doubling_env()), 2, 50,
                               RngStream(0, 0).generator(), cap=100)
    m, g = exc.value.trajectory
    assert m.counts.tolist() == g.counts.tolist()
    assert m.zeta[-1] == g.zeta[-1] == 64


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


@pytest.mark.parametrize("itype", [0, 3, -1])
def test_out_of_range_initial_type_fails_before_any_draw(ab_equal, monkeypatch,
                                                         itype):
    def no_draws(*args):
        raise AssertionError("the type check must come before any draw")

    monkeypatch.setattr("sibdep.simulator.run_chunked", no_draws)
    calls = [
        lambda: quenched_survival(ab_equal.members, itype),
        lambda: estimate_survival(ab_equal, itype, 4, 64),
        lambda: estimate_survival(ab_equal, itype, 4, 64, method="particle"),
        lambda: survival_scaling_scan(ab_equal, itype, [2, 4], 64),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=rf"^initial type {itype} outside 1\.\.2$"):
            call()


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


def test_stderr_of_a_tiny_survival_is_not_zero(monkeypatch):
    # rows near 1e-262 square to underflow; the stderr must still be the rows'
    # spread, here computed on rows rescaled so that the largest is 1
    rows = []
    summarize = simulator._summarize

    def spied(values, *args):
        rows.append(values)
        return summarize(values, *args)

    monkeypatch.setattr(simulator, "_summarize", spied)
    est = estimate_survival(load_preset("subcritical_mix"), 1, 2000, replicas=4096, seed=1)
    (values,) = rows
    scale = 1.0 / values.max()
    reference = (values * scale).std(ddof=1) / math.sqrt(values.size) / scale
    assert est.value > 0.0
    assert est.stderr > 0.0
    assert est.stderr == pytest.approx(reference, rel=1e-12)


@pytest.mark.parametrize("name", PRESET_NAMES)
@pytest.mark.parametrize("horizon", [1, 7, 64])
def test_quenched_estimate_is_the_scan_at_one_horizon(name, horizon):
    # 5,000 replicas make two chunks, the second partial
    ens = load_preset(name)
    for itype in range(1, ens.order + 1):
        for seed in (0, 3):
            est = estimate_survival(ens, itype, horizon, replicas=5000, seed=seed)
            (row,) = survival_scaling_scan(ens, itype, [horizon], replicas=5000, seed=seed)
            assert same_bits([est.value, est.stderr], [row.estimate, row.stderr])


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


def with_workers(workers, call):
    with mock.patch.dict(os.environ, {"SIBDEP_WORKERS": str(workers)}):
        return call()


# more than one 4096-replica chunk, the last one usually partial
MULTI_CHUNK = st.integers(4097, 9000)


@settings(max_examples=10, deadline=None)
@given(replicas=MULTI_CHUNK)
def test_quenched_results_ignore_worker_count(ab_equal, replicas):
    def runs():
        return [estimate_survival(ab_equal, 1, 6, replicas, seed=1).to_dict(),
                [r.to_dict() for r in survival_scaling_scan(
                    ab_equal, 2, [3, 6, 12], replicas, seed=2)]]

    assert with_workers(2, runs) == with_workers(1, runs)


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
    assert probability_of(dist, 1) == 1.0
    assert probability_of(dist, 2) == 0.0
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
    tv = 0.5 * sum(abs(probability_of(dist, int(z)) - exact.get(int(z), 0.0))
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
    assert pe.survivors == pe.values.shape[0]
    assert 0 < pe.survivors < 2048
    np.testing.assert_allclose(pe.times, np.arange(17) / 16)
    scale = 16 ** -0.5
    stacked = pe.values
    assert np.all(np.isfinite(stacked))
    np.testing.assert_allclose(stacked[:, 0], scale * math.log(2), rtol=1e-15)
    np.testing.assert_allclose(pe.mean_path, stacked.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(pe.endpoints, stacked[:, -1], rtol=0)
    assert np.all(pe.endpoints >= 0.0)
    assert pe.summary_dict()["survivors"] == pe.survivors


def test_path_results_ignore_worker_count(ab_equal):
    def run():
        return log_population_path(ab_equal, 1, 12, replicas=9000, seed=4)

    one, three = with_workers(1, run), with_workers(3, run)
    np.testing.assert_array_equal(one.endpoints, three.endpoints)


def test_path_scale_and_cap():
    ens = only(doubling_env())
    pe = log_population_path(ens, 2, 8, replicas=4, seed=0, cap=10 ** 6)
    # deterministic doubling: zeta(t) = 2^(t+1), scaled by 1 / sqrt(8)
    expect = 1.0 / math.sqrt(8.0) * np.log(2.0 ** np.arange(1, 10))
    np.testing.assert_allclose(pe.mean_path, expect, rtol=1e-12)
    with pytest.raises(PopulationCapError):
        log_population_path(ens, 2, 20, replicas=4, seed=0, cap=1000)
    with pytest.raises(InsufficientSurvivorsError):
        log_population_path(only(dead_end_env()), 1, 4, replicas=8, seed=0)


@pytest.mark.parametrize("alpha", [1e-300, 5e-324])
def test_path_scale_underflow_fails_before_any_draw(monkeypatch, alpha):
    def no_draws(*args):
        raise AssertionError("the scale check must come before any draw")

    monkeypatch.setattr("sibdep.simulator.run_chunked", no_draws)
    with pytest.raises(ValueError, match=rf"underflows to 0 at alpha={alpha!r}$"):
        log_population_path(load_preset("supercritical"), 1, 8, replicas=64, alpha=alpha)


@pytest.mark.parametrize("cap", [0, -1])
def test_cap_below_one_fails_before_any_draw(monkeypatch, cap):
    def no_draws(*args):
        raise AssertionError("the cap check must come before any draw")

    class NoDraws:
        def __getattr__(self, name):
            no_draws()

    monkeypatch.setattr("sibdep.simulator.run_chunked", no_draws)
    ens = load_preset("supercritical")
    calls = [
        lambda: log_population_path(ens, 1, 8, replicas=64, cap=cap),
        lambda: simulate_macro_coupled(ens, 1, 8, NoDraws(), cap=cap),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^cap must be at least 1$"):
            call()


@pytest.mark.parametrize("call, message", [
    (lambda ens, g: estimate_survival(ens, 1, 2.5, 64), "horizon must be an integer"),
    (lambda ens, g: estimate_survival(ens, 1, 4, 8.5), "replicas must be an integer"),
    (lambda ens, g: estimate_survival(ens, 1, 4, 64.0, method="particle"),
     "replicas must be an integer"),
    (lambda ens, g: survival_scaling_scan(ens, 1, [2.5, 4], 64), "horizons must be integers"),
    (lambda ens, g: survival_scaling_scan(ens, 1, [2, 4], 8.5), "replicas must be an integer"),
    (lambda ens, g: conditional_size_distribution(ens, 1, 2.5, 64),
     "horizon must be an integer"),
    (lambda ens, g: log_population_path(ens, 1, 3.0, 64), "horizon must be an integer"),
    (lambda ens, g: log_population_path(ens, 1, 8, 64, cap=1e6), "cap must be an integer"),
    (lambda ens, g: simulate_macro_coupled(ens, 1, 2.5, g), "horizon must be an integer"),
    (lambda ens, g: simulate_macro_coupled(ens, 1, 8, g, cap=1e6), "cap must be an integer"),
], ids=["survival-horizon", "survival-replicas", "particle-replicas", "scan-horizons",
        "scan-replicas", "condsize-horizon", "paths-horizon", "paths-cap",
        "coupled-horizon", "coupled-cap"])
def test_sizes_and_horizons_must_be_integers_before_any_draw(monkeypatch, call, message):
    def no_draws(*args):
        raise AssertionError("the integer check must come before any draw")

    class NoDraws:
        def __getattr__(self, name):
            no_draws()

    monkeypatch.setattr("sibdep.simulator.run_chunked", no_draws)
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(load_preset("supercritical"), NoDraws())


@pytest.mark.parametrize("call, message", [
    (lambda ens, g: estimate_survival(ens, 1, True, 64), "horizon must be an integer"),
    (lambda ens, g: estimate_survival(ens, 1, 4, True), "replicas must be an integer"),
    (lambda ens, g: estimate_survival(ens, 1, 4, 64, seed=True),
     "seed True must be a nonnegative integer"),
    (lambda ens, g: estimate_survival(ens, 1, True, 64, method="particle"),
     "horizon must be an integer"),
    (lambda ens, g: estimate_survival(ens, 1, 4, True, method="particle"),
     "replicas must be an integer"),
    (lambda ens, g: survival_scaling_scan(ens, 1, [True, 4], 64), "horizons must be integers"),
    (lambda ens, g: survival_scaling_scan(ens, 1, [2, 4], True), "replicas must be an integer"),
    (lambda ens, g: conditional_size_distribution(ens, 1, True, 64),
     "horizon must be an integer"),
    (lambda ens, g: log_population_path(ens, 1, True, 64), "horizon must be an integer"),
    (lambda ens, g: log_population_path(ens, 1, 8, 64, cap=True), "cap must be an integer"),
    (lambda ens, g: simulate_macro_coupled(ens, 1, True, g), "horizon must be an integer"),
    (lambda ens, g: simulate_macro_coupled(ens, 1, 8, g, cap=True), "cap must be an integer"),
], ids=["survival-horizon", "survival-replicas", "survival-seed", "particle-horizon",
        "particle-replicas", "scan-horizons", "scan-replicas", "condsize-horizon",
        "paths-horizon", "paths-cap", "coupled-horizon", "coupled-cap"])
def test_bools_are_no_sizes_horizons_or_seeds_before_any_draw(monkeypatch, call, message):
    # bool is a numbers.Integral: True would run as 1 on some routes and
    # crash inside numpy on others
    def no_draws(*args):
        raise AssertionError("the integer check must come before any draw")

    class NoDraws:
        def __getattr__(self, name):
            no_draws()

    monkeypatch.setattr(RngStream, "generator", no_draws)
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(load_preset("critical"), NoDraws())


@pytest.mark.parametrize("itype", [True, 1.5, 2.0])
def test_initial_type_must_be_an_integer_before_any_draw(monkeypatch, itype):
    # True would run as type 1, and 1.5 or 2.0 ended in numpy's IndexError
    def no_draws(*args):
        raise AssertionError("the integer check must come before any draw")

    class NoDraws:
        def __getattr__(self, name):
            no_draws()

    monkeypatch.setattr(RngStream, "generator", no_draws)
    ens = load_preset("critical")
    calls = [
        lambda: quenched_survival(ens.members, itype),
        lambda: estimate_survival(ens, itype, 4, 64),
        lambda: estimate_survival(ens, itype, 4, 64, method="particle"),
        lambda: survival_scaling_scan(ens, itype, [2, 4], 64),
        lambda: conditional_size_distribution(ens, itype, 4, 64),
        lambda: log_population_path(ens, itype, 4, 64),
        lambda: simulate_macro_coupled(ens, itype, 4, NoDraws()),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^initial type must be an integer$"):
            call()


def test_numpy_integer_initial_type_is_the_plain_one():
    ens = load_preset("critical")
    for method in ("quenched", "particle"):
        assert estimate_survival(ens, np.int64(1), 4, 64, method=method) == \
            estimate_survival(ens, 1, 4, 64, method=method)
    assert survival_scaling_scan(ens, np.int64(1), [2, 4], 64) == \
        survival_scaling_scan(ens, 1, [2, 4], 64)
    assert same_bits(log_population_path(ens, np.int64(1), 4, 64).values,
                     log_population_path(ens, 1, 4, 64).values)
    micro, _ = simulate_macro_coupled(ens, np.int64(1), 6, RngStream(0, 0).generator())
    assert micro.counts.tolist() == \
        simulate_macro_coupled(ens, 1, 6, RngStream(0, 0).generator())[0].counts.tolist()


class Kind(IntEnum):
    ONE = 1


@pytest.mark.parametrize("value, integer", [
    (1, True), (0, True), (-3, True), (2 ** 70, True), (Kind.ONE, True),
    (np.int64(1), True), (np.int8(-1), True), (np.uint64(2 ** 63), True),
    (True, False), (False, False), (np.bool_(True), False), (2.0, False),
    (np.float64(2.0), False), ("1", False), (None, False),
], ids=repr)
def test_integer_domain_is_integral_and_not_bool(value, integer):
    assert errors._integer(value) is integer


def test_numpy_integers_are_sizes_and_horizons():
    ens = load_preset("critical")
    assert survival_scaling_scan(ens, 1, np.array([4, 2]), np.int64(64)) == \
        survival_scaling_scan(ens, 1, [4, 2], 64)
    micro, _ = simulate_macro_coupled(ens, 1, np.int64(3), RngStream(0, 0).generator(),
                                      cap=np.int64(10 ** 6))
    assert micro.counts.shape[0] == 4


def test_path_memory_follows_live_rows():
    """One chunk of the critical run keeps only live rows' log sizes: a dense
    (replicas, horizon + 1) float array alone would take 16.8 MB."""
    ens = load_preset("critical")
    tracemalloc.start()
    try:
        log_population_path(ens, 1, 512, replicas=4096, seed=0, cap=10 ** 15)
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
@given(replicas=MULTI_CHUNK, workers=st.sampled_from([1, 2]))
def test_particle_results_ignore_worker_count(ab_equal, replicas, workers):
    def runs():
        return [
            _outcome(lambda: estimate_survival(ab_equal, 1, 6, replicas, seed=1,
                                               method="particle")),
            _outcome(lambda: conditional_size_distribution(
                ab_equal, 1, 4, replicas, seed=2, method="direct").to_dict()),
            _outcome(lambda: conditional_size_distribution(
                ab_equal, 1, 6, replicas, seed=3, method="resample").to_dict()),
            _outcome(lambda: log_population_path(ab_equal, 2, 8, replicas,
                                                 seed=4).values.tolist()),
        ]

    assert with_workers(workers, runs) == with_workers(1, runs)


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


@pytest.mark.parametrize("seed", range(5))
def test_quenched_rows_obey_the_first_moment_bound(seed):
    # P(survive to h | environment) <= e_1' M_1 ... M_h 1, with M_t the
    # group-level mean matrix of generation t's member; the extinction form
    # broke it on rows with small survival
    w = 0.541046142578125
    ens = EnvironmentEnsemble(load_preset("boom_bust").members, np.array([w, 1.0 - w]))
    idx = ens.sample_index_array((512, 512), RngStream(seed, 0).generator())
    survival = _quenched_survival_rows(ens, idx, 1)
    mats = np.stack([mo.macro_moments(env).mean for env in ens.members])
    expected = np.zeros((idx.shape[0], ens.order))
    expected[:, 0] = 1.0
    for t in range(idx.shape[1]):
        expected = np.einsum("ri,rij->rj", expected, mats[idx[:, t]])
    bound = expected.sum(axis=1)
    assert np.all(survival <= bound * (1.0 + 1e-12))


def test_seeded_quenched_output_is_pinned():
    # sha256 of the quenched rows on the critical boom_bust mixture (512 x 512
    # indices from RngStream(s, 0), s = 0..2), of scan rows on two presets and
    # of one quenched_survival word; recorded with the one-step-per-call
    # kernel, so a moved bit of any survival value shows
    digest = hashlib.sha256()
    w = 0.541046142578125
    ens = EnvironmentEnsemble(load_preset("boom_bust").members, np.array([w, 1.0 - w]))
    for s in range(3):
        idx = ens.sample_index_array((512, 512), RngStream(s, 0).generator())
        digest.update(_quenched_survival_rows(ens, idx, 1).astype("<f8").tobytes())
    for name in ("critical", "subcritical_mix"):
        rows = survival_scaling_scan(load_preset(name), 2, [1, 7, 8, 9, 16, 17, 100],
                                     replicas=5000, seed=5)
        digest.update(json.dumps([r.to_dict() for r in rows], sort_keys=True).encode())
    boom, bust = ens.members
    word = [boom if m else bust for m in RngStream(7, 0).generator().random(300) < w]
    digest.update(np.float64(quenched_survival(word, 1)).astype("<f8").tobytes())
    assert digest.hexdigest() == \
        "650b95942d56f9df2e7b2d3a5192820d678b1a1d0346d33735e18422632212ee"


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), order=st.integers(1, 4),
       size=st.integers(1, 3), rows=st.sampled_from([1, 2, 3, 64]),
       length=st.sampled_from([1, 7, 8, 9, 16, 17]), strided=st.booleans(),
       dead=st.booleans())
def test_quenched_loop_equals_the_plain_step_composition(seed, order, size, rows,
                                                         length, strided, dead):
    # lengths straddle the loop's blocks of 8 generations; a strided idx is
    # the scan's idx[:, :h]; a childless member makes survivals of exactly 0,
    # which must read +0.0 as the plain step's do
    gen = np.random.default_rng(seed)
    ens = random_ensemble(gen, order, size)
    if dead:
        ens = EnvironmentEnsemble((dead_end_env(order),) + ens.members[1:], ens.weights)
    idx = ens.sample_index_array((rows, length + 3 if strided else length), gen)
    idx = idx[:, :length]
    q = np.ones((rows, order))
    for t in range(length - 1, -1, -1):
        q = plain_survival_step(ens, q, idx[:, t])
    for itype in range(1, order + 1):
        assert same_bits(_quenched_survival_rows(ens, idx, itype),
                         np.minimum(q[:, itype - 1], 1.0))


@pytest.mark.parametrize("n", [60, 100, 1000])
def test_small_quenched_survival_does_not_cancel(n):
    # one child or none with probability 1/2 each: survival to n is 2**-n,
    # which 1 - (extinction probability) loses from n = 54 on
    coin = Environment(1, (SiblingLaw(1, 1, (((0,), 0.5), ((1,), 0.5))),))
    assert quenched_survival([coin] * n, 1) == pytest.approx(2.0 ** -n, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("pair_weights", [(0.3467642574483109, 0.2580374409806181,
                                            0.3951983015710711), (0.06, 0.57, 0.37)])
def test_quenched_survival_stays_in_the_unit_interval(pair_weights):
    # every atom has children, so survival is 1, but the size-2 weights
    # normalize to a sum an ulp away from 1: below it for the first law,
    # above it for the second, whose one-step survival is 1 + ulp
    env = Environment(2, (
        SiblingLaw(1, 2, (((1,), 0.5), ((2,), 0.5))),
        SiblingLaw(2, 2, tuple(zip(((1, 1), (1, 2), (2, 2)), pair_weights))),
    ))
    for h in range(1, 6):
        for itype in (1, 2):
            value = quenched_survival([env] * h, itype)
            assert math.isfinite(value) and 0.0 <= value <= 1.0
            assert value == pytest.approx(1.0, abs=1e-15)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), order=st.integers(1, 3),
       size=st.integers(1, 3), length=st.integers(1, 200))
def test_one_sequence_and_the_batched_rows_agree(seed, order, size, length):
    gen = np.random.default_rng(seed)
    ens = random_ensemble(gen, order, size)
    idx = ens.sample_index_array((3, length), gen)
    itype = int(gen.integers(1, order + 1))
    rows = _quenched_survival_rows(ens, idx, itype)
    for r in range(idx.shape[0]):
        word = [ens.members[m] for m in idx[r]]
        assert quenched_survival(word, itype) == pytest.approx(rows[r], rel=0.0, abs=1e-15)
