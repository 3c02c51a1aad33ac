"""End-to-end checks of the toolkit's core claims, each with a time budget.

Every test prints one verdict line; run with -s to see them as they pass.
The structural identities are exact (1e-12 or tighter); the scaling and
distributional checks run at fixed seeds with frozen tolerances.
"""
import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import ks_2samp

from sibdep import moments as mo
from sibdep.env_model import EnvironmentEnsemble
from sibdep.presets import load_preset
from sibdep.rng import RngStream
from sibdep.simulator import (
    conditional_size_distribution,
    estimate_survival,
    log_population_path,
    quenched_survival,
    simulate_macro_coupled,
    survival_scaling_scan,
)
from sibdep.spectral import (
    ConditionParams,
    calibrate_critical_pair,
    check_conditions,
    estimate_lambda_theta,
)

from conftest import make_lean, make_rich, random_environment, total_variation_distance
from oracles import (
    enumerate_survival,
    gaussian_meander,
    macro_mean_by_enumeration,
    macro_second_by_enumeration,
)


@contextmanager
def criterion(tag: str, budget_s: float, text: str):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, (
        f"[{tag}] {text}: budget {budget_s:.0f} s exceeded ({elapsed:.1f} s)")
    print(f"[{tag}] {text}: PASS ({elapsed:.1f} s, budget {budget_s:.0f} s)")


_batch_cache: list = []


def environment_batch():
    """200 random environments over orders 2..5, shared by the first tests."""
    if not _batch_cache:
        rng = np.random.default_rng(12345)
        _batch_cache.extend(
            random_environment(rng, order)
            for order in (2, 3, 4, 5) for _ in range(50))
    return _batch_cache


def test_c01_group_level_moments_exact():
    with criterion("C1", 5.0, "group-level first and second moments exact "
                              "on 200 random environments"):
        for env in environment_batch():
            n = env.order
            i = np.arange(1, n + 1)[:, None]
            j = np.arange(1, n + 1)[None, :]
            micro = mo.mean_matrix(env)
            macro = mo.macro_moments(env)
            assert np.max(np.abs(macro.mean * j - micro * i)) <= 1e-12
            assert np.max(np.abs(macro.mean - macro_mean_by_enumeration(env))) \
                <= 1e-12
            second = macro_second_by_enumeration(env)
            assert np.max(np.abs(macro.second - second)) <= 1e-12
            for gi in range(2, n + 1):
                pairs = np.array([[env.pair_marginal(gi, j, k) for k in range(1, n + 1)]
                                  for j in range(1, n + 1)])
                assert np.max(np.abs(macro.second[gi - 1]
                                     - gi * (gi - 1) * pairs)) <= 1e-12


def test_c02_shared_spectrum_and_eigenvector_transform():
    with criterion("C2", 5.0, "per-child and group-level spectra agree with "
                              "the weighted eigenvector transform"):
        for env in environment_batch():
            micro = mo.perron(mo.mean_matrix(env))
            macro_mean = mo.macro_moments(env).mean
            macro = mo.perron(macro_mean)
            assert abs(micro.value - macro.value) <= 1e-9
            u = mo.macro_eigenvector(micro.vector)
            assert np.max(np.abs(macro_mean @ u - micro.value * u)) <= 1e-9


def test_c03_product_conjugation_identity():
    with criterion("C3", 5.0, "mean matrix products commute with the "
                              "group-level rescaling on 50 random sequences"):
        rng = np.random.default_rng(77)
        for _ in range(50):
            order = int(rng.integers(2, 4))
            length = int(rng.integers(1, 21))
            envs = [random_environment(rng, order) for _ in range(length)]
            micro = np.eye(order)
            macro = np.eye(order)
            for env in envs:
                micro = micro @ mo.mean_matrix(env)
                macro = macro @ mo.macro_moments(env).mean
            i = np.arange(1, order + 1)[:, None]
            j = np.arange(1, order + 1)[None, :]
            assert np.allclose(macro * j, micro * i, rtol=1e-10, atol=0.0)


def test_c04_coupled_bookkeeping_identity_on_presets():
    with criterion("C4", 30.0, "individual and group bookkeeping agree on "
                               "10^4 coupled trajectories per regime"):
        for name in ("critical", "subcritical", "supercritical",
                     "deterministic_line"):
            ens = load_preset(name)
            weights = np.arange(1, ens.order + 1)
            for rep in range(10_000):
                micro, macro = simulate_macro_coupled(
                    ens, 1, 20, RngStream(400, rep).generator())
                assert micro.counts.shape == (21, ens.order)
                assert np.array_equal(micro.counts, macro.counts)
                assert np.array_equal(micro.zeta, macro.counts @ weights)


def test_c05_survival_estimators_cross_validate():
    with criterion("C5", 120.0, "exact, enumerated, and particle survival "
                                "estimates agree"):
        rich, lean = make_rich(), make_lean()
        for length in (1, 2, 3, 4):
            for word in itertools.product((rich, lean), repeat=length):
                for itype in (1, 2):
                    exact = quenched_survival(list(word), itype)
                    assert abs(exact - enumerate_survival(list(word), itype)) \
                        <= 1e-12
        ens = EnvironmentEnsemble((rich, lean), np.array([0.5, 0.5]))
        q = estimate_survival(ens, 1, 10, replicas=100_000, seed=61)
        p = estimate_survival(ens, 1, 10, replicas=100_000, seed=62,
                              method="particle")
        assert abs(q.value - p.value) <= 3.0 * math.hypot(q.stderr, p.stderr)


def test_c06_hand_computed_survival_values():
    with criterion("C6", 1.0, "one- and two-step survival match hand values"):
        rich = make_rich()
        assert abs(quenched_survival([rich], 1) - 0.8) <= 1e-12
        assert abs(quenched_survival([rich, rich], 1) - 0.69) <= 1e-12
        assert abs(enumerate_survival([rich, rich], 1) - 0.69) <= 1e-12


def test_c07_subcritical_decay_rates():
    with criterion("C7", 120.0, "survival decay slopes match the dominant "
                                "root of the expected mean matrix"):
        horizons = list(range(20, 61, 5))
        lean = make_lean()
        lean_only = EnvironmentEnsemble((lean,), np.array([1.0]))
        log_rho = math.log(mo.perron(mo.mean_matrix(lean)).value)
        assert abs(log_rho - (-0.4147)) <= 5e-4
        rows = survival_scaling_scan(lean_only, 1, horizons, replicas=16, seed=0)
        slope = np.polyfit(horizons, np.log([r.estimate for r in rows]), 1)[0]
        assert abs(slope - log_rho) <= 0.05 * abs(log_rho)

        mix = EnvironmentEnsemble((make_rich(), lean), np.array([0.2, 0.8]))
        mean = 0.2 * mo.mean_matrix(make_rich()) + 0.8 * mo.mean_matrix(lean)
        log_rho_mix = math.log(mo.perron(mean).value)
        rows = survival_scaling_scan(mix, 1, horizons, replicas=20_000, seed=17)
        slope = np.polyfit(horizons, np.log([r.estimate for r in rows]), 1)[0]
        assert abs(slope - log_rho_mix) <= 0.05 * abs(log_rho_mix)


def test_c08_first_moment_growth_identity():
    with criterion("C8", 30.0, "the mean product norm growth matches the "
                               "dominant root of the expected mean matrix"):
        rich, lean = make_rich(), make_lean()
        ens = EnvironmentEnsemble((rich, lean), np.array([0.5, 0.5]))
        est = estimate_lambda_theta(ens, 1.0, horizon=30, replicas=10_000,
                                    seed=7)
        mean = 0.5 * mo.mean_matrix(rich) + 0.5 * mo.mean_matrix(lean)
        rho = mo.perron(mean).value
        assert abs(est.value - rho) <= 0.02 * rho


def test_c09_calibrated_critical_scaling_plateau():
    with criterion("C9", 600.0, "calibrated zero-growth mixture keeps "
                                "sqrt(n)-scaled survival within a 1.2 ratio"):
        ens = load_preset("boom_bust")
        boom, bust = ens.members
        res = calibrate_critical_pair(boom, bust, tol=2e-5, horizon=20_000,
                                      replicas=2048, seed=0)
        assert abs(res.growth.value) <= 1e-3
        assert res.weight == pytest.approx(0.541046142578125, abs=1e-12)
        assert res.trace[0][2] == res.trace[1][2] == 0.0   # exact brackets
        mix = EnvironmentEnsemble((boom, bust),
                                  np.array([res.weight, 1.0 - res.weight]))
        rows = survival_scaling_scan(mix, 1, [64, 128, 256, 512],
                                     replicas=10_000, seed=202)
        scaled = [r.scaled for r in rows]
        assert max(scaled) / min(scaled) <= 1.2


def test_c10_direction_checks_match_grid_search():
    with criterion("C10", 10.0, "vertex-reduced expansion and inverse-growth "
                                "values match brute-force direction grids"):
        rng = np.random.default_rng(10)
        for order in (2, 3):
            if order == 2:
                t = np.linspace(0.0, 1.0, 1000)
                grid = np.stack([t, 1.0 - t], axis=1)
            else:
                m = 44
                pts = [(a / m, b / m, (m - a - b) / m)
                       for a in range(m + 1) for b in range(m + 1 - a)]
                grid = np.array(pts)
            for _ in range(10):
                size = int(rng.integers(1, 4))
                members = tuple(random_environment(rng, order)
                                for _ in range(size))
                ens = EnvironmentEnsemble(members, rng.dirichlet(np.ones(size)))
                report = check_conditions(
                    ens, ConditionParams(horizon=16, replicas=8, seed=1))

                rows = [mo.mean_matrix(env).sum(axis=1)
                        for env in ens.members]
                expand = report.get("uniform_expansion_event")
                grid_mins = [float((grid @ r).min()) for r in rows]
                for got, bf in zip(expand.values["member_min_row_sums"],
                                   grid_mins):
                    assert abs(got - bf) <= 1e-6
                best = max(grid_mins)
                assert expand.holds == (best > 1.0)
                assert abs(math.exp(expand.values["delta"]) - best) <= 1e-6

                inverse = report.get("inverse_norm_moment")
                bf_value = max(
                    float(np.dot(ens.weights, [1.0 / (x @ r) for r in rows]))
                    for x in grid)
                assert inverse.holds is True
                assert abs(inverse.values["value"] - bf_value) <= 1e-6


def test_c11_conditional_size_law_stabilizes():
    with criterion("C11", 300.0, "survivor size histograms at doubled depth "
                                 "stay within 0.05 total variation"):
        lean_only = EnvironmentEnsemble((make_lean(),), np.array([1.0]))
        near = conditional_size_distribution(lean_only, 1, 40, replicas=20_000,
                                             seed=31, method="resample")
        far = conditional_size_distribution(lean_only, 1, 60, replicas=20_000,
                                            seed=32, method="resample")
        assert near.survivors >= 1000 and far.survivors >= 1000
        assert total_variation_distance(near, far) <= 0.05


def test_c12_critical_paths_approach_meander_profile():
    with criterion("C12", 600.0, "normalized surviving log-size endpoints "
                                 "match a simulated meander endpoint sample"):
        ens = load_preset("critical")
        paths = log_population_path(ens, 1, 512, replicas=100_000, seed=41,
                                    cap=10 ** 15)
        assert paths.survivors >= 1000
        assert float(paths.values.min()) >= 0.0
        oracle = gaussian_meander(100_000, steps=256, seed=99)
        matched = paths.endpoints * (oracle.mean() / paths.endpoints.mean())
        stat = ks_2samp(matched, oracle).statistic
        assert stat <= 0.1
