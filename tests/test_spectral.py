"""Random matrix products, growth estimators, condition checks, calibration."""
import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sibdep import moments as mo
from sibdep.env_model import Environment, EnvironmentEnsemble, SiblingLaw
from sibdep.errors import CalibrationError, DegenerateProductError
from sibdep.presets import PRESET_NAMES, load_preset
from sibdep.rng import RngStream
from sibdep.spectral import (
    ConditionParams,
    _growth_rate,
    _mean_matrices,
    calibrate_critical_pair,
    _indexed_log_norms,
    check_conditions,
    estimate_lambda_theta,
    estimate_lyapunov,
    lambda_prime_at_one,
)

from conftest import matrix_log_norms
from oracles import plain_calibration, product_lognorm

CHECK_IDS = {
    "mean_norm_moment", "support_irreducible", "entry_ratio_bounded",
    "zero_growth", "uniform_expansion_event", "inverse_norm_moment",
    "curvature_ratio_moment", "log_curvature_moment", "shared_eigenvector",
    "reproduction_spread", "log_root_attraction", "variance_tail_moment",
}


def test_mean_matrices_micro_and_macro(ab_equal):
    mats = _mean_matrices(ab_equal.members)
    assert mats.shape == (2, 2, 2)
    np.testing.assert_allclose(mats[0], mo.mean_matrix(ab_equal.members[0]))
    np.testing.assert_allclose(mats[1], mo.mean_matrix(ab_equal.members[1]))
    macro = _mean_matrices(ab_equal.members, macro=True)
    np.testing.assert_allclose(macro[0], mo.macro_moments(ab_equal.members[0]).mean)


def test_accumulator_tracks_exact_product():
    a = np.array([[1.0, 2.0], [0.5, 1.0]])
    b = np.array([[0.25, 0.0], [1.0, 3.0]])
    got = product_lognorm([a, b])
    assert isinstance(got, float)
    assert got == pytest.approx(math.log(np.abs(a @ b).sum()), rel=1e-14)


def test_accumulator_raises_on_collapse():
    with pytest.raises(DegenerateProductError) as exc:
        product_lognorm([np.eye(2), np.zeros((2, 2)), np.eye(2)])
    assert exc.value.steps == 2
    with pytest.raises(DegenerateProductError) as exc:
        product_lognorm([np.zeros((2, 2))])
    assert exc.value.steps == 1


@st.composite
def _indexed_products(draw, max_order=4, collapses=False):
    """Nonnegative members with a positive diagonal, so no product collapses;
    with `collapses`, any entry may be 0, so that some products do."""
    order = draw(st.integers(1, max_order))
    size = draw(st.integers(1, 3))
    length = draw(st.integers(1, 40))
    rows = draw(st.integers(1, 5))
    entries = st.floats(0.0, 10.0)
    if collapses:
        entries = st.one_of(st.just(0.0), entries, st.floats(0.01, 10.0))
    mats = np.array(draw(st.lists(entries, min_size=size * order * order,
                                  max_size=size * order * order))).reshape(size, order, order)
    if not collapses:
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
    want = [product_lognorm(mats[row]) for row in idx]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(case=_indexed_products(), data=st.data())
def test_indexed_log_norms_rows_do_not_depend_on_their_company(case, data):
    # the calibration's one call for its bracket rows and its first trial relies
    # on this: a row's log norm is the same bits among all rows or any two or
    # more of them.  Measured up to order 7; at order 8 BLAS row sums may move
    # an ulp with the company.  numpy hands a lone row to other BLAS routines,
    # which may round differently
    mats, idx = case
    every = _indexed_log_norms(mats, idx)
    rows = idx.shape[0]
    subset = data.draw(st.lists(st.integers(0, rows - 1), min_size=min(2, rows),
                                max_size=rows, unique=True))
    np.testing.assert_array_equal(_indexed_log_norms(mats, idx[subset]), every[subset])
    alone = np.concatenate([_indexed_log_norms(mats, row) for row in idx[:, None]])
    np.testing.assert_allclose(alone, every, rtol=1e-12, atol=1e-12)


def _wide_case(order, size, seed):
    """2,049 rows of 20 factors, about a fifth of the entries 0."""
    gen = np.random.default_rng(seed)
    mats = gen.random((size, order, order)) * 10.0 * (gen.random((size, order, order)) > 0.2)
    return mats, gen.integers(0, size, (2049, 20))


def _kernel_outcome(kernel, mats, idx):
    """The log norms' bytes, or the step a DegenerateProductError names."""
    try:
        return kernel(mats, idx).tobytes()
    except DegenerateProductError as exc:
        return exc.steps


@settings(max_examples=200, deadline=None)
@given(case=_indexed_products(max_order=3, collapses=True))
@example(case=_wide_case(1, 2, 0)).via("2,049 rows at order 1")
@example(case=_wide_case(2, 2, 1)).via("2,049 rows at order 2")
@example(case=_wide_case(3, 3, 2)).via("2,049 rows at order 3")
def test_indexed_log_norms_equal_the_matrix_form_kernel_bit_for_bit(case):
    # the column steps at order 2 must give the bytes of BLAS row sums and a
    # broadcast divide, and collapse at the same step; orders 1 and 3 guard
    # the matrix path beside them
    mats, idx = case
    assert _kernel_outcome(_indexed_log_norms, mats, idx) == \
        _kernel_outcome(matrix_log_norms, mats, idx)


@pytest.mark.parametrize("step", [8, 9, 131])
@pytest.mark.parametrize("row", [0, 2])
def test_indexed_log_norms_name_the_collapse_step_across_blocks(step, row):
    mats = np.stack([np.eye(2), np.zeros((2, 2))])
    idx = np.zeros((4, 140), dtype=np.intp)
    idx[row, step - 1] = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateProductError) as exc:
            _indexed_log_norms(mats, idx)
    assert exc.value.steps == step
    assert str(exc.value) == f"a replica's product norm collapsed at step {step}"


@pytest.mark.parametrize("bad", [2, 7, -1])
@pytest.mark.parametrize("row", [0, 2, 4])
def test_indexed_log_norms_reject_member_indices_out_of_range(bad, row):
    # a gather position is idx + row * size, so an index of size or more, or a
    # negative one, would read another row's block instead of failing
    mats = np.stack([np.eye(2), 2.0 * np.eye(2)])
    idx = np.zeros((5, 12), dtype=np.intp)
    idx[row, 6] = bad
    with pytest.raises(IndexError, match=r"^member indices must lie in \[0, 2\)$"):
        _indexed_log_norms(mats, idx)
    idx[row, 6] = 1
    np.testing.assert_array_equal(_indexed_log_norms(mats, idx),
                                  [math.log(2.0) * (r == row) + math.log(2.0) for r in range(5)])


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
    val = product_lognorm(_mean_matrices([rich, lean]))
    assert val == pytest.approx(math.log(np.abs(m).sum()), rel=1e-13)
    with pytest.raises(ValueError, match="at least one factor"):
        product_lognorm([])


def test_single_member_growth_is_deterministic(rich_only, rich):
    horizon = 64
    est = estimate_lyapunov(rich_only, horizon=horizon, replicas=8, seed=0)
    exact = product_lognorm(_mean_matrices([rich] * (horizon + 1)))
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


def test_derivative_rejects_a_step_that_rounds_to_one(ab_sub):
    for step in (5e-324, 1e-17):
        with pytest.raises(ValueError, match=rf"^step {step!r} is too small: "
                                             r"1 - step or 1 \+ step rounds to 1$"):
            lambda_prime_at_one(ab_sub, step=step, horizon=8, replicas=8)
    assert math.isfinite(lambda_prime_at_one(ab_sub, step=1e-8, horizon=8, replicas=8).value)


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


def test_seeded_spectral_output_is_pinned():
    # sha256 of the three product estimators on subcritical_mix and critical
    # (horizon 64, 5,120 replicas, so 2 chunks) and of the condition reports
    # on every preset; recorded with the searchsorted member draw, so a moved
    # member or a moved bit of any log norm shows
    digest = hashlib.sha256()
    for name in ("subcritical_mix", "critical"):
        ens = load_preset(name)
        for est in (estimate_lyapunov(ens, horizon=64, replicas=5120, seed=11),
                    estimate_lambda_theta(ens, 1.5, horizon=64, replicas=5120, seed=12),
                    lambda_prime_at_one(ens, horizon=64, replicas=5120, seed=13)):
            digest.update(json.dumps(est.to_dict(), sort_keys=True).encode())
    for name in PRESET_NAMES:
        report = check_conditions(load_preset(name),
                                  ConditionParams(horizon=64, replicas=512, seed=14))
        digest.update(json.dumps(report.to_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == \
        "500129c67aae5778eef90bebf7f3b666dbce0389bdaf187b13a5c9278d88bfca"


def test_condition_report_lookup(critical_pair):
    report = check_conditions(critical_pair,
                              ConditionParams(horizon=32, replicas=16))
    assert report.get("zero_growth").id == "zero_growth"
    with pytest.raises(KeyError):
        report.get("no_such_check")


def _sparse_env(p: float) -> Environment:
    """Two types; every group has no children, or two per member with chance p."""
    return Environment(2, (SiblingLaw(1, 2, (((0,), 1.0 - p), ((2,), p))),
                           SiblingLaw(2, 2, (((0, 0), 1.0 - p), ((2, 2), p)))))


@pytest.mark.parametrize("ens, params, message", [
    ("sparse", {"eps": 1e4}, "the eps=10000.0 curvature ratio moment overflows a float"),
    ("critical", {"eps": 1e4}, "the eps=10000.0 log curvature moment overflows a float"),
    # count variance 0.36 against a dominant root 0.2: log+ of the ratio is log 9 > 1
    ("sparse", {"alpha": 1e3},
     "the alpha=1000.0, eps=0.1 variance tail moment overflows a float"),
])
def test_overflowing_condition_moments_are_quiet_typed_errors(ens, params, message):
    ens = (load_preset(ens) if ens != "sparse"
           else EnvironmentEnsemble((_sparse_env(0.1),), np.array([1.0])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_conditions(ens, ConditionParams(horizon=8, replicas=8, **params))


def test_zero_growth_holds_on_critical_preset_across_seeds():
    ens = load_preset("critical")
    for seed in range(50):
        zg = check_conditions(ens, ConditionParams(seed=seed)).get("zero_growth")
        assert zg.values["offset"] == math.log(2.0) / 512
        assert zg.holds is True, (seed, zg.values)


def test_zero_growth_fails_on_subcritical_pair(ab_sub):
    report = check_conditions(ab_sub, ConditionParams(horizon=128, replicas=64))
    assert report.get("zero_growth").holds is False


def test_calibration_stops_at_midpoint_for_balanced_pair(critical_pair):
    flood, ebb = critical_pair.members
    res = calibrate_critical_pair(flood, ebb, tol=1e-2, horizon=500,
                                  replicas=256, seed=2)
    assert res.weight == 0.5
    assert res.iterations == 1
    assert abs(res.growth.value) <= 1e-2
    assert res.trace[0][0] == 0.0 and res.trace[1][0] == 1.0
    assert res.trace[2][0] == 0.5


def test_calibration_requires_a_bracket(lean):
    with pytest.raises(CalibrationError, match="bracket") as exc:
        calibrate_critical_pair(lean, lean, horizon=200, replicas=64, seed=0)
    trace = exc.value.trace
    assert len(trace) == 2
    assert all(value < 0.0 for _, value, _ in trace)


def test_calibration_stops_once_the_weight_interval_cannot_be_halved(rich, lean):
    # no estimate comes within 5e-324 of zero, and after some 53 halvings no
    # float is left between the bracket ends, so a rerun would repeat the midpoint
    with pytest.raises(CalibrationError, match=r"within \d+ iterations$") as exc:
        calibrate_critical_pair(rich, lean, tol=5e-324, horizon=5, replicas=5,
                                max_iter=2 ** 63 - 1)
    weights = [w for w, _, _ in exc.value.trace]
    assert len(weights) < 1100 and len(set(weights)) == len(weights)


def test_calibration_on_boom_bust_preset():
    ens = load_preset("boom_bust")
    boom, bust = ens.members
    res = calibrate_critical_pair(boom, bust, tol=5e-3, horizon=800,
                                  replicas=256, seed=0)
    again = calibrate_critical_pair(boom, bust, tol=5e-3, horizon=800,
                                    replicas=256, seed=0)
    assert 0.0 < res.weight < 1.0
    assert abs(res.growth.value) <= 5e-3
    assert res.weight == again.weight
    assert len(res.trace) == res.iterations + 2
    d = res.to_dict()
    assert d["weight"] == res.weight and len(d["trace"]) == len(res.trace)


def test_calibration_brackets_equal_the_kernel_over_every_row():
    boom, bust = load_preset("boom_bust").members
    horizon, replicas, seed = 40, 24, 3
    res = calibrate_critical_pair(boom, bust, tol=0.5, horizon=horizon,
                                  replicas=replicas, seed=seed)
    mats = _mean_matrices((bust, boom))
    uniforms = RngStream(seed, 0).generator().random((replicas, horizon + 1))
    # the first trial shares the brackets' call and keeps its own call's bits
    for entry, weight in zip(res.trace[:3], (0.0, 1.0, 0.5)):
        want = _growth_rate(_indexed_log_norms(mats, uniforms < weight), horizon)
        assert entry == (weight, want.value, want.stderr)


def test_calibration_brackets_are_exact():
    # every row at weight 0 or 1 is the same product, so the growth is its
    # log norm over the horizon, with no spread to report
    boom, bust = load_preset("boom_bust").members
    horizon = 1000
    res = calibrate_critical_pair(boom, bust, tol=5e-3, horizon=horizon, replicas=256, seed=0)
    mats = _mean_matrices((bust, boom))
    for (weight, value, stderr), member in zip(res.trace[:2], (0, 1)):
        log = _indexed_log_norms(mats, np.full((256, horizon + 1), member, dtype=np.uint8))[0]
        assert (weight, value, stderr) == (float(member), float(log / horizon), 0.0)


def _calibration_outcome(call, *args, **kwargs):
    """(weight, iterations, trace) of a calibration, or (message, trace) of its error."""
    try:
        out = call(*args, **kwargs)
    except CalibrationError as exc:
        return str(exc), tuple(exc.trace)
    if isinstance(out, tuple):
        weight, iterations, trace = out
        return weight, iterations, tuple(trace)
    return out.weight, out.iterations, out.trace


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("replicas", [1, 16])
def test_calibration_past_level_16_equals_the_plain_bisection(seed, replicas):
    # a tol of 1e-12 is never met, so all 40 levels run; the bisection closes
    # in on a jump of the growth, which sits at one of the uniforms, so its
    # levels past 16 decide the entries of that uniform's 2**-16 bucket by the
    # uniforms themselves
    boom, bust = load_preset("boom_bust").members
    horizon, tol, max_iter = 40, 1e-12, 40
    uniforms = RngStream(seed, 0).generator().random((replicas, horizon + 1))
    want = _calibration_outcome(plain_calibration, _indexed_log_norms,
                                _mean_matrices((bust, boom)), uniforms, tol, max_iter)
    got = _calibration_outcome(calibrate_critical_pair, boom, bust, tol=tol,
                               horizon=horizon, replicas=replicas, seed=seed,
                               max_iter=max_iter)
    assert got == want
    trace = got[-1]
    assert len(trace) == max_iter + 2
    assert math.floor(trace[-1][0] * 2 ** 16) in np.floor(uniforms * 2 ** 16)


def test_a_failed_bracket_equals_the_plain_bisection(lean):
    horizon, replicas, seed = 40, 16, 5
    uniforms = RngStream(seed, 0).generator().random((replicas, horizon + 1))
    want = _calibration_outcome(plain_calibration, _indexed_log_norms,
                                _mean_matrices((lean, lean)), uniforms, 1e-3, 60)
    got = _calibration_outcome(calibrate_critical_pair, lean, lean, horizon=horizon,
                               replicas=replicas, seed=seed)
    assert got == want and len(got) == 2 and "bracket" in got[0]


def test_calibration_makes_one_kernel_call_per_iteration(monkeypatch):
    from sibdep import spectral

    boom, bust = load_preset("boom_bust").members
    kernel, shapes = spectral._indexed_log_norms, []

    def recorded(mats, idx):
        shapes.append(idx.shape)
        return kernel(mats, idx)

    monkeypatch.setattr(spectral, "_indexed_log_norms", recorded)
    res = calibrate_critical_pair(boom, bust, tol=5e-3, horizon=60, replicas=12, seed=0)
    assert res.iterations >= 2
    assert shapes == [(14, 61)] + [(12, 61)] * (res.iterations - 1)


@pytest.mark.parametrize("replicas", [1, 2, 5])
@pytest.mark.parametrize("mats, error", [
    # both pure products grow or shrink, but every mixed product collapses: the
    # bracket holds, and the first trial raises as its own call would
    (np.stack([np.diag([0.0, 0.5]), np.diag([2.0, 0.0])]), DegenerateProductError),
    # the same, with a bracket that does not hold: that is reported first
    (np.stack([np.diag([0.0, 1.0]), np.diag([1.0, 0.0])]), CalibrationError),
])
def test_calibration_reports_a_collapse_in_its_first_trial_after_the_bracket(
        monkeypatch, rich, lean, replicas, mats, error):
    from sibdep import spectral

    monkeypatch.setattr(spectral, "_mean_matrices", lambda envs: mats)
    with pytest.raises(error) as exc:
        calibrate_critical_pair(rich, lean, horizon=30, replicas=replicas, seed=0)
    assert exc.value.__context__ is None
    if error is DegenerateProductError:
        uniforms = RngStream(0, 0).generator().random((replicas, 31))
        with pytest.raises(DegenerateProductError) as alone:
            _indexed_log_norms(mats, uniforms < 0.5)
        assert (str(exc.value), exc.value.steps) == (str(alone.value), alone.value.steps)
    else:
        assert [w for w, _, _ in exc.value.trace] == [0.0, 1.0]


@pytest.mark.parametrize("sample, message", [
    ({"horizon": 0}, "horizon must be at least 1"),
    ({"horizon": -3}, "horizon must be at least 1"),
    ({"replicas": 0}, "replicas must be positive"),
])
def test_calibration_rejects_empty_samples(rich, lean, sample, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        calibrate_critical_pair(rich, lean, **sample)


@pytest.fixture
def no_draws(monkeypatch):
    from sibdep import spectral

    def no_draws(*args, **kwargs):
        raise AssertionError("a draw was made")

    monkeypatch.setattr(spectral.RngStream, "generator", no_draws)
    monkeypatch.setattr(spectral, "_indexed_log_norms", no_draws)


@pytest.mark.parametrize("budget, message", [
    ({"tol": 0.0}, "tol must be positive and finite"),
    ({"tol": -1.0}, "tol must be positive and finite"),
    ({"tol": math.nan}, "tol must be positive and finite"),
    ({"tol": math.inf}, "tol must be positive and finite"),
    ({"max_iter": 0}, "max_iter must be at least 1"),
    ({"max_iter": -2}, "max_iter must be at least 1"),
])
def test_calibration_rejects_a_bad_budget_before_any_draw(no_draws, rich, lean,
                                                         budget, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        calibrate_critical_pair(rich, lean, horizon=50, replicas=8, **budget)


@pytest.mark.parametrize("call, message", [
    (lambda a, b: estimate_lyapunov(EnvironmentEnsemble((a, b), np.array([0.5, 0.5])),
                                    horizon=2.5), "horizon must be an integer"),
    (lambda a, b: estimate_lambda_theta(EnvironmentEnsemble((a,), np.array([1.0])), 1.0,
                                        horizon=8, replicas=8.5),
     "replicas must be an integer"),
    (lambda a, b: check_conditions(EnvironmentEnsemble((a,), np.array([1.0])),
                                   ConditionParams(horizon=16.0, replicas=8)),
     "horizon must be an integer"),
    (lambda a, b: calibrate_critical_pair(a, b, horizon=10.5), "horizon must be an integer"),
    (lambda a, b: calibrate_critical_pair(a, b, horizon=10, replicas=8.5),
     "replicas must be an integer"),
    (lambda a, b: calibrate_critical_pair(a, b, horizon=10, replicas=8, max_iter=2.5),
     "max_iter must be an integer"),
], ids=["lyapunov-horizon", "lambda-theta-replicas", "conditions-horizon",
        "calibrate-horizon", "calibrate-replicas", "calibrate-max-iter"])
def test_sizes_and_horizons_must_be_integers_before_any_draw(no_draws, rich, lean,
                                                            call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(rich, lean)


@pytest.mark.parametrize("call, message", [
    (lambda ens, a, b: estimate_lyapunov(ens, horizon=True, replicas=8),
     "horizon must be an integer"),
    (lambda ens, a, b: estimate_lyapunov(ens, horizon=8, replicas=True),
     "replicas must be an integer"),
    (lambda ens, a, b: estimate_lyapunov(ens, horizon=8, replicas=8, seed=True),
     "seed True must be a nonnegative integer"),
    (lambda ens, a, b: estimate_lambda_theta(ens, 1.0, horizon=True, replicas=8),
     "horizon must be an integer"),
    (lambda ens, a, b: lambda_prime_at_one(ens, horizon=8, replicas=True),
     "replicas must be an integer"),
    (lambda ens, a, b: check_conditions(ens, ConditionParams(horizon=True, replicas=8)),
     "horizon must be an integer"),
    (lambda ens, a, b: calibrate_critical_pair(a, b, horizon=True, replicas=8),
     "horizon must be an integer"),
    (lambda ens, a, b: calibrate_critical_pair(a, b, horizon=10, replicas=True),
     "replicas must be an integer"),
    (lambda ens, a, b: calibrate_critical_pair(a, b, horizon=10, replicas=8, max_iter=True),
     "max_iter must be an integer"),
    (lambda ens, a, b: calibrate_critical_pair(a, b, horizon=10, replicas=8, seed=True),
     "seed True must be a nonnegative integer"),
], ids=["lyapunov-horizon", "lyapunov-replicas", "lyapunov-seed", "lambda-theta-horizon",
        "lambda-prime-replicas", "conditions-horizon", "calibrate-horizon",
        "calibrate-replicas", "calibrate-max-iter", "calibrate-seed"])
def test_bools_are_no_sizes_horizons_or_seeds_before_any_draw(no_draws, rich, lean,
                                                              call, message):
    # bool is a numbers.Integral: True would run as 1 without the check
    ens = EnvironmentEnsemble((rich, lean), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(ens, rich, lean)


def test_calibration_rejects_a_pair_of_different_orders_before_any_draw(no_draws, rich):
    line = load_preset("deterministic_line").members[0]
    with pytest.raises(ValueError, match="^orders differ: 2 and 1$"):
        calibrate_critical_pair(rich, line, horizon=50, replicas=8)
