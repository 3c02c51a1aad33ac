"""Random matrix products, growth estimators, condition checks, calibration."""
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sibdep import moments as mo
from sibdep.env_model import EnvironmentEnsemble
from sibdep.errors import CalibrationError, DegenerateProductError
from sibdep.presets import load_preset
from sibdep.spectral import (
    ConditionParams,
    MatrixEnsemble,
    ProductAccumulator,
    calibrate_critical,
    calibrate_critical_pair,
    _indexed_log_norms,
    check_conditions,
    estimate_lambda_theta,
    estimate_lyapunov,
    lambda_prime_at_one,
    product_lognorm,
)

CHECK_IDS = {
    "mean_norm_moment", "support_irreducible", "entry_ratio_bounded",
    "zero_growth", "uniform_expansion_event", "inverse_norm_moment",
    "curvature_ratio_moment", "log_curvature_moment", "shared_eigenvector",
    "reproduction_spread", "log_root_attraction", "variance_tail_moment",
}


def test_matrix_ensemble_normalizes_and_freezes():
    me = MatrixEnsemble(np.stack([np.eye(2), 2 * np.eye(2)]), [2.0, 6.0])
    assert me.size == 2 and me.order == 2
    np.testing.assert_allclose(me.weights, [0.25, 0.75])
    with pytest.raises(ValueError):
        me.matrices[0, 0, 0] = 9.0


def test_matrix_ensemble_rejects_bad_input():
    with pytest.raises(ValueError, match=r"\(K, N, N\)"):
        MatrixEnsemble(np.ones((2, 2, 3)), [0.5, 0.5])
    with pytest.raises(ValueError, match="weights"):
        MatrixEnsemble(np.ones((2, 2, 2)), [1.0])
    with pytest.raises(ValueError, match="nonnegative"):
        MatrixEnsemble(np.ones((2, 2, 2)), [1.0, -0.5])
    with pytest.raises(ValueError, match="finite"):
        MatrixEnsemble(np.full((1, 2, 2), np.inf), [1.0])
    with pytest.raises(ValueError, match="nonnegative"):
        MatrixEnsemble(np.array([[[1.0, -0.5], [0.0, 1.0]]]), [1.0])


def test_from_environments_micro_and_macro(ab_equal):
    me = MatrixEnsemble.from_environments(ab_equal)
    np.testing.assert_allclose(me.matrices[0], mo.mean_matrix(ab_equal.members[0]))
    np.testing.assert_allclose(me.matrices[1], mo.mean_matrix(ab_equal.members[1]))
    mg = MatrixEnsemble.from_environments(ab_equal, macro=True)
    np.testing.assert_allclose(
        mg.matrices[0], mo.macro_moments(ab_equal.members[0]).mean)


def test_accumulator_tracks_exact_product():
    a = np.array([[1.0, 2.0], [0.5, 1.0]])
    b = np.array([[0.25, 0.0], [1.0, 3.0]])
    acc = ProductAccumulator.identity(2).step(a).step(b)
    np.testing.assert_allclose(acc.matrix(), a @ b, rtol=1e-14)
    assert acc.log_norm() == pytest.approx(math.log(np.abs(a @ b).sum()), rel=1e-14)
    assert acc.steps == 2
    # renormalized state keeps unit entrywise-abs sum
    assert np.abs(acc.current).sum() == pytest.approx(1.0)


def test_accumulator_raises_on_collapse():
    acc = ProductAccumulator.identity(2)
    with pytest.raises(DegenerateProductError) as exc:
        acc.step(np.zeros((2, 2)))
    assert exc.value.steps == 1


@st.composite
def _indexed_products(draw):
    """Nonnegative members with a positive diagonal, so no product collapses."""
    order = draw(st.integers(1, 4))
    size = draw(st.integers(1, 3))
    length = draw(st.integers(1, 40))
    rows = draw(st.integers(1, 5))
    entries = st.floats(0.0, 10.0)
    mats = np.array(draw(st.lists(entries, min_size=size * order * order,
                                  max_size=size * order * order))).reshape(size, order, order)
    diag = draw(st.lists(st.floats(0.01, 10.0), min_size=size * order,
                         max_size=size * order))
    mats[:, np.arange(order), np.arange(order)] = np.reshape(diag, (size, order))
    idx = np.array(draw(st.lists(st.integers(0, size - 1), min_size=rows * length,
                                 max_size=rows * length))).reshape(rows, length)
    return mats, idx


@settings(max_examples=60, deadline=None)
@given(case=_indexed_products())
def test_indexed_log_norms_match_reference_product(case):
    mats, idx = case
    got = _indexed_log_norms(mats, idx)
    want = [product_lognorm(mats[row])[0] for row in idx]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_indexed_log_norms_report_collapse_step_quietly():
    mats = np.stack([np.eye(2), np.zeros((2, 2))])
    idx = np.array([[0, 0, 0, 0], [0, 0, 1, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateProductError) as exc:
            _indexed_log_norms(mats, idx)
    assert exc.value.steps == 3


def test_product_lognorm_on_environments(rich, lean):
    m = mo.mean_matrix(rich) @ mo.mean_matrix(lean)
    val, acc = product_lognorm([rich, lean])
    assert val == pytest.approx(math.log(np.abs(m).sum()), rel=1e-13)
    assert acc.steps == 2
    with pytest.raises(ValueError, match="at least one factor"):
        product_lognorm([])
    with pytest.raises(ValueError, match="macro"):
        product_lognorm([np.eye(2)], use_macro=True)


def test_single_member_growth_is_deterministic(rich_only, rich):
    horizon = 64
    est = estimate_lyapunov(rich_only, horizon=horizon, replicas=8, seed=0)
    exact, _ = product_lognorm([rich] * (horizon + 1))
    assert est.stderr == 0.0
    assert est.value == pytest.approx(exact / horizon, rel=1e-12)
    assert est.to_dict() == {"value": est.value, "stderr": 0.0,
                             "horizon": horizon, "replicas": 8}


def test_growth_estimate_seeding(ab_equal):
    a = estimate_lyapunov(ab_equal, horizon=128, replicas=64, seed=5)
    b = estimate_lyapunov(ab_equal, horizon=128, replicas=64, seed=5)
    c = estimate_lyapunov(ab_equal, horizon=128, replicas=64, seed=6)
    assert a == b
    assert a.value != c.value
    assert a.stderr > 0.0
    with pytest.raises(ValueError, match="horizon"):
        estimate_lyapunov(ab_equal, horizon=0)


def test_macro_growth_conjugation_bound(ab_sub):
    # group-level means are a diagonal conjugation of the per-child means,
    # so with identical member draws the log norms differ by at most log(order)
    horizon = 128
    micro = estimate_lyapunov(ab_sub, horizon=horizon, replicas=64, seed=9)
    macro = estimate_lyapunov(ab_sub, horizon=horizon, replicas=64, seed=9,
                              use_macro=True)
    assert abs(macro.value - micro.value) <= math.log(2) / horizon + 1e-12


def test_theta_one_moment_matches_dominant_root(rich_only, rich):
    est = estimate_lambda_theta(rich_only, theta=1.0, horizon=512, replicas=4)
    assert est.stderr == 0.0
    assert est.value == pytest.approx(math.exp(est.log_value), rel=1e-14)
    assert est.value == pytest.approx(mo.perron(mo.mean_matrix(rich)).value,
                                      rel=5e-3)


def test_moment_growth_validation(rich_only):
    with pytest.raises(ValueError, match="theta"):
        estimate_lambda_theta(rich_only, theta=0.0)
    with pytest.raises(ValueError, match="horizon"):
        estimate_lambda_theta(rich_only, theta=1.0, horizon=0)


def test_derivative_is_exact_for_single_member(rich_only):
    # one member makes the moment curve linear in the exponent, so the
    # central difference reproduces the growth rate to roundoff
    d = lambda_prime_at_one(rich_only, horizon=64, replicas=16, seed=1)
    g = estimate_lyapunov(rich_only, horizon=64, replicas=16, seed=1)
    assert d.value == pytest.approx(g.value, abs=1e-9)
    assert d.stderr == pytest.approx(0.0, abs=1e-9)


def test_derivative_negative_when_mixture_shrinks(ab_sub):
    d = lambda_prime_at_one(ab_sub, horizon=256, replicas=512, seed=3)
    assert d.value < 0.0
    assert d.stderr > 0.0
    assert d.value + 3.0 * d.stderr < 0.0
    with pytest.raises(ValueError, match="step"):
        lambda_prime_at_one(ab_sub, step=1.0)
    with pytest.raises(ValueError, match="horizon"):
        lambda_prime_at_one(ab_sub, horizon=0)


def test_condition_report_on_balanced_pair(critical_pair):
    report = check_conditions(critical_pair)
    assert {c.id for c in report.checks} == CHECK_IDS
    assert report.get("zero_growth").holds is True
    shared = report.get("shared_eigenvector")
    assert shared.holds is True
    assert shared.values["residual"] <= 1e-8
    # a common eigendirection spans an invariant line, so irreducibility
    # of the support action genuinely fails here
    assert report.get("support_irreducible").holds is False
    expand = report.get("uniform_expansion_event")
    assert expand.holds is True
    assert expand.values["witness_member"] == 0
    assert expand.values["delta"] == pytest.approx(math.log(4.0 / 3.0))
    assert report.get("reproduction_spread").holds is True
    json.dumps(report.to_dict())   # payload must serialize as-is


def test_condition_report_contrasts(ab_equal, line_only, lean_only):
    rep = check_conditions(ab_equal, ConditionParams(horizon=64, replicas=32))
    assert rep.get("shared_eigenvector").holds is False
    assert rep.get("support_irreducible").holds is True
    assert rep.get("zero_growth").holds is False

    line = check_conditions(line_only, ConditionParams(horizon=16, replicas=8))
    assert line.get("curvature_ratio_moment").values["value"] == 0.0
    assert line.get("log_curvature_moment").holds is False
    assert line.get("support_irreducible").holds is False

    lean = check_conditions(lean_only, ConditionParams(horizon=16, replicas=8))
    assert lean.get("uniform_expansion_event").holds is False


def test_condition_report_lookup_and_text(critical_pair):
    report = check_conditions(critical_pair,
                              ConditionParams(horizon=32, replicas=16))
    assert report.get("zero_growth").id == "zero_growth"
    with pytest.raises(KeyError):
        report.get("no_such_check")
    lines = report.summary_lines()
    assert len(lines) == len(CHECK_IDS)
    assert any("zero_growth" in ln and "holds" in ln for ln in lines)


def test_zero_growth_holds_on_critical_preset_across_seeds():
    ens = load_preset("critical")
    for seed in range(50):
        zg = check_conditions(ens, ConditionParams(seed=seed)).get("zero_growth")
        assert zg.values["offset"] == math.log(2.0) / 512
        assert zg.holds is True, (seed, zg.values)


def test_growth_floor_widens_criticality_band(ab_sub):
    strict = check_conditions(ab_sub, ConditionParams(horizon=128, replicas=64))
    loose = check_conditions(
        ab_sub, ConditionParams(horizon=128, replicas=64, growth_floor=10.0))
    assert strict.get("zero_growth").holds is False
    assert loose.get("zero_growth").holds is True


def test_calibration_stops_at_midpoint_for_balanced_pair(critical_pair):
    flood, ebb = critical_pair.members
    res = calibrate_critical(flood, ebb, tol=1e-2, horizon=500,
                             replicas=256, seed=2)
    assert res.weight == 0.5
    assert res.iterations == 1
    assert abs(res.growth.value) <= 1e-2
    assert res.trace[0][0] == 0.0 and res.trace[1][0] == 1.0
    assert res.trace[2][0] == 0.5


def test_calibration_requires_a_bracket(lean):
    with pytest.raises(CalibrationError, match="bracket") as exc:
        calibrate_critical(lean, lean, horizon=200, replicas=64, seed=0)
    trace = exc.value.trace
    assert len(trace) == 2
    assert all(value < 0.0 for _, value, _ in trace)


def test_calibration_on_boom_bust_preset():
    ens = load_preset("boom_bust")
    boom, bust = ens.members
    res = calibrate_critical(boom, bust, tol=5e-3, horizon=800,
                             replicas=256, seed=0)
    again = calibrate_critical(boom, bust, tol=5e-3, horizon=800,
                               replicas=256, seed=0)
    assert 0.0 < res.weight < 1.0
    assert abs(res.growth.value) <= 5e-3
    assert res.weight == again.weight
    assert len(res.trace) == res.iterations + 2
    d = res.to_dict()
    assert d["weight"] == res.weight and len(d["trace"]) == len(res.trace)


def test_calibration_matrix_validation():
    with pytest.raises(ValueError, match="square"):
        calibrate_critical_pair(np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(ValueError, match="nonnegative"):
        calibrate_critical_pair(np.array([[2.0, -1.0], [0.0, 2.0]]), 0.5 * np.eye(2))
