"""Offspring-law containers, validation, evaluation, and serialization."""
import dataclasses
import functools
import json
import math
import operator
import re
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sibdep.env_model import (
    _DRAW_BLOCK,
    Environment,
    EnvironmentEnsemble,
    SiblingLaw,
    ensemble_from_dict,
    ensemble_to_dict,
    load_ensemble,
    read_ensemble_doc,
    validate_sibling_law,
)
from sibdep.errors import EnsembleFormatError, InvalidLawError
from sibdep.presets import PRESET_NAMES, preset_path
from sibdep.simulator import simulate_macro_coupled

import oracles
from conftest import (make_rich, make_lean, one_child_env, only, plain_survival_step,
                      random_ensemble, random_environment, same_bits)


# -- construction and structural checks ------------------------------------

def test_atoms_sorted_and_frozen():
    law = SiblingLaw(2, 2, (((1, 2), 0.5), ((0, 0), 0.5)))
    assert [t for t, _ in law.atoms] == [(0, 0), (1, 2)]


def test_construction_rejects_bad_shapes():
    with pytest.raises(ValueError, match="arity"):
        SiblingLaw(2, 2, (((1,), 1.0),))
    with pytest.raises(ValueError, match="canonical"):
        SiblingLaw(2, 2, (((2, 1), 1.0),))
    with pytest.raises(ValueError, match="duplicate"):
        SiblingLaw(2, 2, (((1, 1), 0.5), ((1, 1), 0.5)))
    with pytest.raises(ValueError, match="at least one atom"):
        SiblingLaw(1, 2, ())
    with pytest.raises(ValueError, match="exceeds order"):
        SiblingLaw(3, 2, (((1, 1, 1), 1.0),))


def test_validation_report_flags_each_defect():
    bad_sum = SiblingLaw(2, 2, (((0, 0), 0.10), ((0, 1), 0.30), ((0, 2), 0.10),
                                ((1, 1), 0.20), ((1, 2), 0.20), ((2, 2), 0.20)))
    rep = validate_sibling_law(bad_sum)
    assert not rep.ok
    assert rep.normalization_defect == pytest.approx(0.10, abs=1e-12)

    neg = SiblingLaw(1, 2, (((0,), 1.5), ((1,), -0.5)))
    rep = validate_sibling_law(neg)
    assert rep.negative_weights and not rep.ok

    oor = SiblingLaw(1, 1, (((0,), 0.5), ((2,), 0.5)))
    rep = validate_sibling_law(oor)
    assert rep.out_of_range and not rep.ok

    inf = SiblingLaw(1, 1, (((0,), 0.5), ((1,), math.inf)))
    rep = validate_sibling_law(inf)
    assert rep.nonfinite_weights and not rep.ok


def test_environment_requires_every_group_size():
    law1 = SiblingLaw(1, 2, (((0,), 0.5), ((1,), 0.5)))
    with pytest.raises(ValueError, match="missing laws"):
        Environment(2, (law1,))
    with pytest.raises(ValueError, match="duplicate law"):
        Environment(1, (SiblingLaw(1, 1, (((1,), 1.0),)),
                        SiblingLaw(1, 1, (((0,), 1.0),)))
                    )


def test_environment_rejects_invalid_weights_with_defect():
    law1 = SiblingLaw(1, 2, (((0,), 0.5), ((1,), 0.5)))
    bad = SiblingLaw(2, 2, (((0, 0), 0.6), ((1, 1), 0.6)))
    with pytest.raises(InvalidLawError, match="defect"):
        Environment(2, (law1, bad))


def test_environment_normalizes_exactly_once():
    env = make_rich()
    for law in env.laws:
        assert law.weight_sum() == pytest.approx(1.0, abs=1e-15)


# -- marginals and pair marginals ------------------------------------------

def test_rich_marginals_match_hand_values():
    env = make_rich()
    assert [env.marginal(2, j) for j in (0, 1, 2)] == pytest.approx(
        [0.30, 0.45, 0.25], abs=1e-15)
    assert env.pair_marginal(2, 1, 1) == pytest.approx(0.20, abs=1e-15)
    assert env.pair_marginal(2, 1, 2) == pytest.approx(0.10, abs=1e-15)


def test_pair_matrix_symmetric_and_row_consistent():
    gen = np.random.default_rng(7)
    for _ in range(20):
        order = int(gen.integers(2, 6))
        env = random_environment(gen, order)
        counts = range(order + 1)
        for i in range(2, order + 1):
            pm = np.array([[env.pair_marginal(i, j, k) for k in counts] for j in counts])
            assert np.allclose(pm, pm.T, atol=1e-14)
            assert np.allclose(pm.sum(axis=1), [env.marginal(i, j) for j in counts],
                               atol=1e-12)


def test_marginal_row_sums_to_one():
    gen = np.random.default_rng(11)
    for _ in range(10):
        env = random_environment(gen, int(gen.integers(1, 6)))
        for i in range(1, env.order + 1):
            row = [env.marginal(i, j) for j in range(env.order + 1)]
            assert sum(row) == pytest.approx(1.0, abs=1e-12)


# -- generating maps -------------------------------------------------------

def test_phi_and_f_frozen_values():
    size_1, size_2 = make_rich().laws
    assert oracles.phi(size_2, (0.5, 0.5)) == pytest.approx(0.425, abs=1e-12)
    assert oracles.f(size_2, (0.5, 0.5)) == pytest.approx(0.5875, abs=1e-12)
    assert oracles.phi(size_1, (0.0, 0.0)) == pytest.approx(0.2, abs=1e-15)


def test_phi_fixed_point_and_monotonicity():
    gen = np.random.default_rng(23)
    for _ in range(10):
        env = random_environment(gen, int(gen.integers(2, 5)))
        ones = np.ones(env.order)
        for law in env.laws:
            assert oracles.phi(law, ones) == pytest.approx(1.0, abs=1e-12)
        # survival 0 is a fixed point of the kernel, exactly
        zeros = np.zeros((1, env.order))
        assert np.array_equal(
            only(env).survival_step(zeros, np.zeros(1, dtype=int)),
            zeros)
        lo = gen.uniform(0.0, 0.5, env.order)
        hi = lo + gen.uniform(0.0, 0.5, env.order)
        maps = env.phi_map(np.stack([lo, hi]))
        assert np.all(maps[0] <= maps[1] + 1e-14)
        for law in env.laws:
            assert oracles.phi(law, lo) <= oracles.phi(law, hi) + 1e-14


def test_phi_map_matches_scalar_phi():
    env = make_lean()
    s = np.array([0.3, 0.8])
    vec = env.phi_map(s[None, :])[0]
    assert vec[0] == pytest.approx(oracles.phi(env.laws[0], s), abs=1e-15)
    assert vec[1] == pytest.approx(oracles.phi(env.laws[1], s), abs=1e-15)


def test_phi_map_batches_rows_independently():
    env = make_rich()
    rows = np.array([[0.1, 0.9], [0.5, 0.5], [1.0, 0.0]])
    batched = env.phi_map(rows)
    for r, row in enumerate(rows):
        want = [oracles.phi(law, row) for law in env.laws]
        np.testing.assert_allclose(batched[r], want, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(batched[r], env.phi_map(row[None, :])[0],
                                   rtol=0.0, atol=1e-15)


@st.composite
def _ensemble_points(draw):
    """A random ensemble, points in the unit box with some rows on its
    corners 0 and 1, and one member index per row."""
    order = draw(st.integers(1, 4))
    size = draw(st.integers(1, 3))
    ens = random_ensemble(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))),
                          order, size)
    rows = draw(st.integers(1, 50))
    s = draw(arrays(float, (rows, order), elements=st.floats(0.0, 1.0)))
    corner = np.array(draw(st.lists(st.sampled_from(["inside", "zeros", "ones"]),
                                    min_size=rows, max_size=rows)))
    s[corner == "zeros"] = 0.0
    s[corner == "ones"] = 1.0
    idx = np.array(draw(st.lists(st.integers(0, size - 1), min_size=rows,
                                 max_size=rows)))
    return ens, s, idx


@settings(max_examples=60, deadline=None)
@given(case=_ensemble_points())
def test_phi_step_and_phi_map_match_pointwise_phi(case):
    # the points are survival vectors q for the step, extinction vectors s
    # for phi_map; both corners, q = 0 and q = 1, are drawn
    ens, q, idx = case
    step = ens.survival_step(q, idx)
    maps = [env.phi_map(q) for env in ens.members]
    assert same_bits(step, plain_survival_step(ens, q, idx))
    for m, env in enumerate(ens.members):
        alone = only(env)
        assert same_bits(maps[m], 1.0 - plain_survival_step(alone, 1.0 - q, np.zeros_like(idx)))
    for r, row in enumerate(q):
        env = ens.members[idx[r]]
        want = [1.0 - oracles.phi(law, 1.0 - row) for law in env.laws]
        np.testing.assert_allclose(step[r], want, rtol=0.0, atol=1e-14)
        want = [oracles.phi(law, row) for law in env.laws]
        np.testing.assert_allclose(maps[idx[r]][r], want, rtol=0.0, atol=1e-14)


def test_survival_step_rejects_member_indices_out_of_range():
    # a gather position is idx + row * size, so an index of size or more, or a
    # negative one, would read another row's member maps instead of failing
    ens = random_ensemble(np.random.default_rng(5), 2, 2)
    q = np.full((2, 2), 0.25)
    for idx in ([2, 0], [0, -1], [1, 7]):
        with pytest.raises(IndexError):
            ens.survival_step(q, np.array(idx))
    assert same_bits(ens.survival_step(q, np.array([1, 0])),
                     plain_survival_step(ens, q, np.array([1, 0])))


# -- sampling --------------------------------------------------------------

def test_sample_empirical_marginal_matches_exact():
    # one particle step from a size-2 group: each member has j children, and
    # so founds one size-j group, with the marginal probability p_2j
    env = make_rich()
    ens = only(env)
    gen = np.random.default_rng(99)
    groups = np.array([simulate_macro_coupled(ens, 2, 1, gen)[0].counts[1]
                       for _ in range(4000)])
    emp = groups.sum(axis=0) / (2 * 4000)
    emp = np.concatenate([[1.0 - emp.sum()], emp])
    for j in (0, 1, 2):
        assert emp[j] == pytest.approx(env.marginal(2, j), abs=0.02)


def test_ensemble_sampling_follows_weights():
    ens = EnvironmentEnsemble((make_rich(), make_lean()),
                              np.array([0.2, 0.8]))
    idx = ens.sample_index_array(20_000, np.random.default_rng(17))
    assert abs(float((idx == 0).mean()) - 0.2) < 0.01
    assert ens.sample_index_array(
        7, np.random.default_rng(2)).tolist() == ens.sample_index_array(
        7, np.random.default_rng(2)).tolist()


def test_ensemble_sampling_matches_generator_choice():
    # Seeded results depend on member draws being exactly those of
    # Generator.choice with the ensemble weights: one uniform bisected on the
    # ensemble's thresholds for a single trajectory, a count of the
    # thresholds at or below each uniform for batches.
    ens = EnvironmentEnsemble((make_rich(), make_lean(), make_rich()),
                              np.array([0.541046142578125, 0.3, 0.158953857421875]))
    cdf = ens.weights.cumsum()
    cdf /= cdf[-1]
    thresholds = ens._thresholds
    assert cdf[-1] == 1.0 and thresholds == tuple(cdf[:-1].tolist())
    probes = [0.0, *thresholds, 1.0 - 2.0 ** -53]
    assert [bisect_right(thresholds, u) for u in probes] == \
        ens.member_index(np.array(probes)).tolist() == \
        cdf.searchsorted(probes, side="right").tolist()
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    assert [bisect_right(thresholds, a.random()) for _ in range(2000)] == [
        int(b.choice(3, p=ens.weights)) for _ in range(2000)]
    assert a.bit_generator.state == b.bit_generator.state
    assert np.array_equal(ens.sample_index_array((40, 50), a),
                          b.choice(3, size=(40, 50), p=ens.weights))
    assert a.bit_generator.state == b.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 300),
       zeros=st.sampled_from([0.0, 0.3, 0.9]))
@example(seed=0, size=256, zeros=0.3).via("the last uint8 size")
@example(seed=1, size=257, zeros=0.3).via("the first uint16 size")
@example(seed=2, size=3, zeros=0.0).via("no zero weight")
def test_member_index_counts_as_searchsorted_on_the_choice_cdf(seed, size, zeros):
    # zero weights repeat a threshold, and trailing ones put thresholds at
    # 1.0, which no uniform reaches
    gen = np.random.default_rng(seed)
    w = gen.random(size) * (gen.random(size) >= zeros)
    w[gen.integers(size)] += 1.0
    ens = EnvironmentEnsemble((make_rich(),) * size, w / w.sum())
    cdf = ens.weights.cumsum()   # as Generator.choice builds it
    cdf /= cdf[-1]
    edges = cdf[:-1]
    u = np.concatenate([gen.random(64), [0.0, 1.0 - 2.0 ** -53], edges,
                        np.nextafter(edges, 0.0)])
    u = u[u < 1.0]
    idx = ens.member_index(u)
    assert idx.dtype == np.min_scalar_type(size - 1)
    assert idx.shape == u.shape
    assert np.array_equal(idx, cdf.searchsorted(u, side="right"))
    grid = u[:64].reshape(8, 8)
    assert ens.member_index(grid).dtype == idx.dtype
    assert np.array_equal(ens.member_index(grid), cdf.searchsorted(grid, side="right"))


_SHAPES = st.one_of(
    st.integers(0, 3 * _DRAW_BLOCK),
    st.tuples(st.integers(0, 6), st.integers(0, 2 * _DRAW_BLOCK + 9)),
    st.tuples(st.integers(1, 3 * _DRAW_BLOCK), st.integers(1, 4)),
)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), members=st.integers(1, 9), shape=_SHAPES)
@example(seed=0, members=2, shape=(1, 1)).via("one uniform")
@example(seed=1, members=3, shape=(5, _DRAW_BLOCK // 5)).via("below one block")
@example(seed=2, members=2, shape=(4, _DRAW_BLOCK // 4)).via("one block")
@example(seed=3, members=9, shape=(3, _DRAW_BLOCK // 2)).via("above one block")
@example(seed=4, members=2, shape=(2, 2 * _DRAW_BLOCK + 9)).via("a row wider than a block")
def test_blocked_member_draws_equal_one_draw_of_every_uniform(seed, members, shape):
    gen = np.random.default_rng(seed)
    weights = gen.random(members) + 0.01
    ens = EnvironmentEnsemble((make_rich(),) * members, weights / weights.sum())
    blocked, whole = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    got = ens.sample_index_array(shape, blocked)
    want = ens.member_index(whole.random(shape))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert blocked.bit_generator.state == whole.bit_generator.state


def test_member_draws_hold_no_array_of_uniforms():
    # the float64 uniforms of one draw would take eight times the uint8 index
    ens = EnvironmentEnsemble((make_rich(), make_lean()), np.array([0.4, 0.6]))
    gen = np.random.default_rng(7)
    tracemalloc.start()
    try:
        idx = ens.sample_index_array((4096, 2048), gen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert idx.dtype == np.uint8
    assert peak <= 1.5 * idx.nbytes + 2 ** 20, peak / idx.nbytes


def table_arrays(ens: EnvironmentEnsemble) -> list:
    """Every array of the ensemble's quenched and particle tables."""
    particle = ens._particle_table
    fields = [getattr(particle, f.name) for f in dataclasses.fields(particle)]
    return [a for v in (*ens._phi_tables, *fields)
            for a in (v if isinstance(v, tuple) else (v,)) if isinstance(a, np.ndarray)]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_tables_are_row_major(name):
    # the kernels multiply and gather these on every generation; numpy's
    # matmul takes a transposed operand several times slower
    arrays = table_arrays(load_ensemble(preset_path(name)))
    assert arrays and all(a.flags.c_contiguous for a in arrays)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("size", [1, 2, 3])
def test_random_tables_are_row_major(order, size):
    arrays = table_arrays(random_ensemble(np.random.default_rng(10 * order + size), order, size))
    assert arrays and all(a.flags.c_contiguous for a in arrays)


@pytest.mark.parametrize("order, size", [(1, 1), (2, 3), (3, 2)])
def test_particle_table_is_read_only_and_stacks_every_law(order, size):
    # a one-atom member beside random ones, so every order has padded laws
    gen = np.random.default_rng(10 * order + size)
    ens = EnvironmentEnsemble(random_ensemble(gen, order, size).members
                              + (one_child_env(order),), np.full(size + 1, 1.0 / (size + 1)))
    table = ens._particle_table
    assert table is ens._particle_table
    for arr in (table.pvals, table.children, table.type_sizes, *table.weights):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.weights = ()
    assert table.type_sizes.tolist() == list(range(1, order + 1))
    # the thresholds the coupled loop bisects are Python floats in a tuple
    assert type(ens._thresholds) is tuple
    assert {type(c) for c in ens._thresholds} == {float}
    # the coupled rows are nested tuples of Python ints, so they are immutable
    # and the coupled loop's sums cannot wrap
    assert {type(row) for law in table.coupled for row in (law, *law)} == {tuple}
    assert {type(v) for law in table.coupled for row in law for v in row} == {int}
    # law m * N + i - 1 is member m's size-i law; the grid tables are padded
    # to the widest law, with zeros in front
    assert len(table.weights) == len(table.coupled) == ens.size * order
    width = max(w.shape[0] for w in table.weights)
    assert width > 1
    assert table.pvals.shape == (ens.size, order, 1, width)
    assert table.children.shape == (ens.size, order, width, order)
    assert table.children.dtype == np.int64
    for m, env in enumerate(ens.members):
        for k in range(order):
            law = m * order + k
            pad = width - env._atom_weights[k].shape[0]
            assert not table.pvals[m, k, 0, :pad].any()
            assert not table.children[m, k, :pad].any()
            assert np.array_equal(table.pvals[m, k, 0, pad:], env._atom_weights[k])
            assert np.array_equal(table.children[m, k, pad:], env._atom_child_counts[k])
            assert np.array_equal(table.weights[law], env._atom_weights[k])
            coupled = np.array(table.coupled[law])
            assert np.array_equal(coupled[:, :order], env._atom_child_counts[k])
            assert np.array_equal(coupled[:, order:], env._sibship_counts[k])


def test_ensemble_weight_validation():
    envs = (make_rich(), make_lean())
    with pytest.raises(ValueError, match="defect"):
        EnvironmentEnsemble(envs, np.array([0.8, 0.8]))
    with pytest.raises(ValueError, match="nonnegative"):
        EnvironmentEnsemble(envs, np.array([1.5, -0.5]))
    with pytest.raises(ValueError, match="disagree on order"):
        EnvironmentEnsemble((make_rich(),
                             Environment(1, (SiblingLaw(1, 1, (((1,), 1.0),)),)),),
                            np.array([0.5, 0.5]))


def test_random_environment_always_valid():
    gen = np.random.default_rng(31)
    for _ in range(25):
        env = random_environment(gen, int(gen.integers(1, 6)))
        for law in env.laws:
            assert validate_sibling_law(law).ok


# -- interchange format ----------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), order=st.integers(1, 4),
       size=st.integers(1, 4), rows=st.integers(1, 20))
def test_json_round_trip_keeps_tables_weights_and_maps(seed, order, size, rows):
    gen = np.random.default_rng(seed)
    members = tuple(random_environment(gen, order, label=f"m{j}") for j in range(size))
    ens = EnvironmentEnsemble(members, gen.dirichlet(np.ones(size)), label="random")
    back = ensemble_from_dict(json.loads(json.dumps(ensemble_to_dict(ens))))

    # loading normalizes weights again, which may move them by an ulp
    assert back.order == ens.order and back.label == ens.label
    np.testing.assert_allclose(back.weights, ens.weights, rtol=1e-15, atol=0.0)
    s = gen.random((rows, order))
    for env, env2 in zip(ens.members, back.members, strict=True):
        assert env2.label == env.label
        for law, law2 in zip(env.laws, env2.laws, strict=True):
            assert [t for t, _ in law2.atoms] == [t for t, _ in law.atoms]
            np.testing.assert_allclose([w for _, w in law2.atoms],
                                       [w for _, w in law.atoms], rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(env2.phi_map(s), env.phi_map(s), rtol=0.0, atol=1e-15)


def test_round_trip_preserves_structure(tmp_path):
    ens = EnvironmentEnsemble((make_rich(), make_lean()),
                              np.array([0.3, 0.7]), label="pair")
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(ensemble_to_dict(ens)), encoding="utf-8")
    back = load_ensemble(path)
    assert back.label == "pair" and back.size == 2
    assert np.allclose(back.weights, [0.3, 0.7], atol=1e-15)
    for env, env2 in zip(ens.members, back.members):
        assert env.label == env2.label
        for law, law2 in zip(env.laws, env2.laws):
            assert [t for t, _ in law.atoms] == [t for t, _ in law2.atoms]
            got = [w for _, w in law2.atoms]
            want = [w for _, w in law.atoms]
            assert np.allclose(got, want, rtol=0.0, atol=1e-14)


def test_format_errors_carry_document_positions():
    with pytest.raises(EnsembleFormatError, match="document root"):
        ensemble_from_dict([])
    with pytest.raises(EnsembleFormatError, match="missing required key 'N'"):
        ensemble_from_dict({"environments": []})
    doc = {"N": 2, "environments": [
        {"weight": 1.0, "laws": [
            {"group_size": 1, "atoms": [{"tuple": [0], "weight": 0.5},
                                        {"tuple": [1], "weight": 0.5}]},
            {"group_size": 2, "atoms": [{"tuple": [2, 1], "weight": 1.0}]},
        ]}]}
    with pytest.raises(EnsembleFormatError,
                       match=r"environments\[0\].laws\[1\].atoms\[0\].tuple"):
        ensemble_from_dict(doc)
    doc["environments"][0]["laws"][1]["atoms"][0] = {"tuple": [1], "weight": 1.0}
    with pytest.raises(EnsembleFormatError, match="arity 1 does not match"):
        ensemble_from_dict(doc)


def test_invalid_json_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"N": 2,', encoding="utf-8")
    with pytest.raises(EnsembleFormatError, match="line"):
        load_ensemble(path)


def test_invalid_law_in_document_names_member():
    doc = {"N": 1, "environments": [
        {"weight": 1.0, "label": "bad", "laws": [
            {"group_size": 1, "atoms": [{"tuple": [0], "weight": 0.7},
                                        {"tuple": [1], "weight": 0.7}]},
        ]}]}
    with pytest.raises(InvalidLawError, match=r"environments\[0\]"):
        ensemble_from_dict(doc)


def _coin_doc(**law):
    """An N = 1 document with one fair-coin law; keyword args replace law keys."""
    return {"N": 1, "environments": [{"weight": 1.0, "laws": [
        {"group_size": 1, "atoms": [{"tuple": [0], "weight": 0.5},
                                    {"tuple": [1], "weight": 0.5}], **law}]}]}


def test_json_true_is_no_integer():
    doc = _coin_doc()
    doc["N"] = True
    with pytest.raises(EnsembleFormatError,
                       match=r"^document root\.N: must be a positive integer, got True$"):
        ensemble_from_dict(doc)
    with pytest.raises(EnsembleFormatError, match=r"^environments\[0\]\.laws\[0\]\.group_size: "
                                                  r"must be a positive integer, got True$"):
        ensemble_from_dict(_coin_doc(group_size=True))
    with pytest.raises(EnsembleFormatError, match=r"^environments\[0\]\.laws\[0\]\.atoms\[1\]"
                                                  r"\.tuple: entries must be integers"):
        ensemble_from_dict(_coin_doc(atoms=[{"tuple": [0], "weight": 0.5},
                                            {"tuple": [True], "weight": 0.5}]))


def test_weights_beyond_float_range_name_their_position():
    doc = _coin_doc()
    doc["environments"][0]["weight"] = 10 ** 400
    with pytest.raises(EnsembleFormatError, match=r"^environments\[0\]\.weight: must be "
                                                  r"a number within float range, got 1000"):
        ensemble_from_dict(doc)
    doc = _coin_doc(atoms=[{"tuple": [0], "weight": 0.5}, {"tuple": [1], "weight": -10 ** 400}])
    with pytest.raises(EnsembleFormatError, match=r"^environments\[0\]\.laws\[0\]\.atoms\[1\]"
                                                  r"\.weight: must be a number within float"):
        ensemble_from_dict(doc)
    doc = _coin_doc()
    doc["environments"][0]["weight"] = math.nan   # json.loads reads NaN
    with pytest.raises(ValueError, match=r"^document root: ensemble weights must be finite$"):
        ensemble_from_dict(doc)


def test_missing_laws_report_stays_short_at_large_order():
    doc = _coin_doc()
    doc["N"] = 10 ** 7
    doc["environments"][0]["laws"][0]["atoms"] = [{"tuple": [0], "weight": 1.0}]
    with pytest.raises(ValueError, match="missing laws") as exc:
        ensemble_from_dict(doc)
    assert str(exc.value) == "environments[0]: missing laws for group sizes 2..10000000"
    law = lambda i: SiblingLaw(i, 40, (((0,) * i, 1.0),))
    with pytest.raises(ValueError, match=r"^missing laws for group sizes 1, 3\.\.5, 7, 9 "
                                         r"and 3 more ranges$"):
        Environment(40, tuple(law(i) for i in (2, 6, 8, 10, 12, 20)))


def _json_paths(value, path=()):
    """Every position in a parsed document, the root first."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _json_paths(child, path + (key,))


# the JSON kind of a preset value; no preset holds a huge integer
_KIND_OF = {bool: "bool", type(None): "null", str: "string", list: "list",
            dict: "object", float: "float", int: "int"}


_OTHER_KINDS = {
    "bool": st.booleans(),
    "null": st.none(),
    "string": st.text(max_size=4),
    "list": st.lists(st.integers(-1, 3), max_size=3),
    "object": st.dictionaries(st.sampled_from(["N", "tuple", "weight"]),
                              st.integers(0, 2), max_size=2),
    "float": st.floats(),
    "huge int": st.integers(2 ** 1024, 10 ** 400),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data(), name=st.sampled_from(PRESET_NAMES))
def test_any_value_of_another_kind_gives_a_positioned_typed_error(data, name):
    doc = read_ensemble_doc(preset_path(name))
    path = data.draw(st.sampled_from(list(_json_paths(doc))), label="path")
    parent = None if not path else functools.reduce(operator.getitem, path[:-1], doc)
    old = doc if parent is None else parent[path[-1]]
    kind = data.draw(st.sampled_from([k for k in _OTHER_KINDS if k != _KIND_OF[type(old)]]))
    new = data.draw(_OTHER_KINDS[kind], label="value")
    if parent is None:
        doc = new
    else:
        parent[path[-1]] = new
    with pytest.raises(ValueError) as exc:
        ensemble_from_dict(doc)
    assert type(exc.value) in (EnsembleFormatError, InvalidLawError, ValueError)
    assert re.match(r"(document root|environments\[\d+\])[.:]", str(exc.value)), str(exc.value)
