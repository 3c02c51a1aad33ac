"""Mean matrices, curvature, group-level reduction, and eigen machinery."""
import math
import warnings

import numpy as np
import pytest

from sibdep.errors import DegenerateEnvironmentError
from sibdep.moments import (
    curvature_stats,
    delta_max,
    eta_variance,
    eta_variance_matrix,
    hessians,
    macro_eigenvector,
    macro_moments,
    mean_matrix,
    moment_set,
    perron,
)

import oracles
from conftest import make_line, make_rich, random_environment


def test_rich_mean_matrix_hand_values():
    m = mean_matrix(make_rich())
    assert np.allclose(m, [[0.3, 1.0], [0.45, 0.5]], atol=1e-12)


def test_hessians_are_diagonal_second_factorials():
    env = make_rich()
    h = hessians(env)
    # k(k-1) p_ik: only k = 2 contributes for two types
    assert h[0, 0, 0] == 0.0
    assert h[0, 1, 1] == pytest.approx(2.0 * 0.5, abs=1e-12)
    assert h[1, 1, 1] == pytest.approx(2.0 * 0.25, abs=1e-12)
    assert np.allclose(h[:, 0, 1], 0.0) and np.allclose(h[:, 1, 0], 0.0)


def test_hessian_matches_finite_difference_of_f():
    # d2 f / d s_j^2 at s = 1 equals the Hessian diagonal j(j-1) p_ij
    env = make_rich()
    h = hessians(env)
    eps = 1e-4
    for i in (1, 2):
        for j in (1, 2):
            s0 = np.ones(2)
            up = s0.copy()
            up[j - 1] += eps
            dn = s0.copy()
            dn[j - 1] -= eps
            law = env.laws[i - 1]
            fd = (oracles.f(law, up) - 2.0 * oracles.f(law, s0) + oracles.f(law, dn)) / eps ** 2
            assert fd == pytest.approx(h[i - 1, j - 1, j - 1], abs=1e-5)


def test_curvature_stats_ratio_definition():
    env = make_rich()
    stats = curvature_stats(env)
    assert stats.mean_norm == pytest.approx(abs(mean_matrix(env)).sum(),
                                            abs=1e-12)
    assert stats.ratio == pytest.approx(
        stats.hessian_sum / stats.mean_norm ** 2, abs=1e-15)


def test_curvature_zero_for_line():
    stats = curvature_stats(make_line())
    assert stats.hessian_sum == 0.0 and stats.ratio == 0.0


def test_macro_mean_and_second_match_atom_enumeration():
    gen = np.random.default_rng(41)
    for _ in range(15):
        env = random_environment(gen, int(gen.integers(2, 5)))
        mm = macro_moments(env)
        assert np.allclose(mm.mean, oracles.macro_mean_by_enumeration(env),
                           atol=1e-12)
        assert np.allclose(mm.second, oracles.macro_second_by_enumeration(env),
                           atol=1e-12)


def test_perron_matches_quadratic_oracle():
    gen = np.random.default_rng(5)
    for _ in range(30):
        env = random_environment(gen, 2)
        m = mean_matrix(env)
        res = perron(m)
        root, vec = oracles.perron_2x2(m)
        assert res.value == pytest.approx(root, abs=1e-9)
        assert np.allclose(res.vector, vec, atol=1e-7)


def test_perron_matches_cubic_oracle():
    gen = np.random.default_rng(6)
    for _ in range(20):
        env = random_environment(gen, 3)
        m = mean_matrix(env)
        assert perron(m).value == pytest.approx(
            oracles.perron_root_3x3(m), abs=1e-8)


def test_perron_residual_and_normalization():
    m = mean_matrix(make_rich())
    res = perron(m)
    assert res.vector.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(m @ res.vector - res.value * res.vector)) <= 1e-9
    assert res.residual <= 1e-9


def test_perron_identity_matrix_degenerate_tiebreak():
    with pytest.warns(RuntimeWarning, match="non-simple"):
        res = perron(np.eye(3))
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(res.vector, 1.0 / 3.0, atol=1e-12)
    assert res.degenerate


def test_perron_periodic_matrix_settles():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = perron(np.array([[0.0, 2.0], [1.0, 0.0]]))
    root = math.sqrt(2.0)
    assert res.value == pytest.approx(root, abs=1e-12)
    np.testing.assert_allclose(res.vector, np.array([root, 1.0]) / (1.0 + root),
                               atol=1e-12)
    assert res.degenerate is False
    assert res.residual <= 1e-12


def test_perron_three_cycle_gives_uniform_vector():
    cycle = np.roll(np.eye(3), 1, axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = perron(cycle)
    assert res.value == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(res.vector, 1.0 / 3.0, atol=1e-12)
    assert res.degenerate is False


@pytest.mark.parametrize("n", [2, 3, 4])
def test_perron_defective_root_needs_no_iteration(n):
    # a Jordan block: power iteration would converge only like 1/k
    with pytest.warns(RuntimeWarning, match="defective"):
        res = perron(np.triu(np.ones((n, n))))
    assert res.value == 1.0
    np.testing.assert_array_equal(res.vector, np.eye(n)[0])
    assert res.iterations == 0 and res.residual == 0.0
    assert res.degenerate


def test_perron_defective_root_beside_a_simple_one():
    # rho = 2 is a 2x2 Jordan block; the third root 1 stays out of the way
    m = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.warns(RuntimeWarning, match="defective"):
        res = perron(m)
    assert res.value == 2.0
    np.testing.assert_array_equal(res.vector, [1.0, 0.0, 0.0])
    assert res.degenerate


def test_perron_input_validation():
    with pytest.raises(ValueError, match="square"):
        perron(np.ones((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        perron(np.array([[1.0, np.inf], [0.0, 1.0]]))


def test_macro_eigenvector_transform():
    u = np.array([0.4, 0.6])
    big_u = macro_eigenvector(u)
    want = np.array([1 * 0.4, 2 * 0.6])
    assert np.allclose(big_u, want / want.sum(), atol=1e-15)
    with pytest.raises(ValueError):
        macro_eigenvector(np.array([0.0, 0.0]))


def test_group_level_spectrum_agrees_with_particle_level():
    gen = np.random.default_rng(8)
    for _ in range(10):
        env = random_environment(gen, int(gen.integers(2, 5)))
        m = mean_matrix(env)
        mac = macro_moments(env).mean
        pr = perron(m)
        pm = perron(mac)
        assert pm.value == pytest.approx(pr.value, abs=1e-9)
        big_u = macro_eigenvector(pr.vector)
        assert np.max(np.abs(mac @ big_u - pr.value * big_u)) <= 1e-9


def test_eta_variance_by_direct_formula():
    env = make_rich()
    # size-1 parent begets at most one group, so counts are Bernoulli
    for j in (1, 2):
        p = env.marginal(1, j)
        assert eta_variance(env, 1, j) == pytest.approx(p * (1 - p), abs=1e-12)
    mat = eta_variance_matrix(env)
    assert mat.shape == (2, 2)
    assert delta_max(env) == pytest.approx(mat.max(), abs=1e-15)
    assert np.all(mat >= -1e-12)


def test_moment_set_is_complete_and_consistent():
    env = make_rich()
    ms = moment_set(env)
    assert ms.label == "rich"
    assert np.allclose(ms.mean, mean_matrix(env), atol=1e-15)
    assert ms.perron_root == pytest.approx(perron(ms.mean).value, abs=1e-12)
    assert np.allclose(ms.group_type_weights,
                       macro_eigenvector(ms.right_eigenvector), atol=1e-12)
    d = ms.to_dict()
    assert d["mean"] == ms.mean.tolist()
    assert isinstance(d["perron_root"], float)


def test_curvature_requires_mass():
    from sibdep.env_model import Environment, SiblingLaw
    dead = Environment(1, (SiblingLaw(1, 1, (((0,), 1.0),)),))
    with pytest.raises(DegenerateEnvironmentError):
        curvature_stats(dead)
