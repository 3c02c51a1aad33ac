"""Bundled example ensembles: loading, regimes, agreement with fixtures."""
import math
import re
from pathlib import Path

import numpy as np
import pytest

from sibdep import moments as mo
from sibdep.env_model import validate_sibling_law
from sibdep.presets import PRESET_NAMES, load_preset, preset_path
from sibdep.simulator import quenched_survival
from sibdep.spectral import estimate_lyapunov

from conftest import make_lean, make_rich
from oracles import perron_2x2


def same_laws(env_a, env_b):
    for la, lb in zip(env_a.laws, env_b.laws, strict=True):
        assert [a[0] for a in la.atoms] == [b[0] for b in lb.atoms]
        np.testing.assert_allclose([a[1] for a in la.atoms],
                                   [b[1] for b in lb.atoms], rtol=0, atol=1e-14)


def test_names_paths_and_summaries():
    assert len(PRESET_NAMES) == 6
    # the README's preset list gives every preset, in order, a one-line summary
    readme = Path(__file__).resolve().parent.parent / "README.md"
    listed = re.findall(r"^- `(\w+)`: \S", readme.read_text(encoding="utf-8"),
                        flags=re.MULTILINE)
    assert [name for name in listed if name in PRESET_NAMES] == list(PRESET_NAMES)
    for name in PRESET_NAMES:
        path = preset_path(name)
        assert path.is_file()
        with open(str(path), encoding="utf-8") as fh:
            assert path.read_text(encoding="utf-8") == fh.read()
    with pytest.raises(KeyError, match="available"):
        preset_path("tropical")


def test_every_preset_loads_valid():
    for name in PRESET_NAMES:
        ens = load_preset(name)
        assert ens.size >= 1
        assert ens.weights.sum() == pytest.approx(1.0, abs=1e-12)
        for env in ens.members:
            for law in env.laws:
                assert validate_sibling_law(law).ok


def test_critical_preset_is_exactly_balanced(critical_pair):
    ens = load_preset("critical")
    assert [env.label for env in ens.members] == ["flood", "ebb"]
    np.testing.assert_allclose(ens.weights, [0.5, 0.5])
    rows_up = mo.mean_matrix(ens.members[0]).sum(axis=1)
    rows_down = mo.mean_matrix(ens.members[1]).sum(axis=1)
    np.testing.assert_allclose(rows_up, 4.0 / 3.0, rtol=1e-12)
    np.testing.assert_allclose(rows_down, 3.0 / 4.0, rtol=1e-12)
    # the log growth factors cancel exactly at equal weights
    assert 0.5 * (math.log(4.0 / 3.0) + math.log(3.0 / 4.0)) == pytest.approx(
        0.0, abs=1e-15)
    for mine, fixture in zip(ens.members, critical_pair.members):
        same_laws(mine, fixture)
    est = estimate_lyapunov(ens, horizon=2000, replicas=256, seed=1)
    assert abs(est.value) <= 3.5 * est.stderr + 1e-6


def test_line_preset_is_frozen():
    ens = load_preset("deterministic_line")
    env = ens.members[0]
    assert ens.order == 1
    np.testing.assert_allclose(mo.mean_matrix(env), [[1.0]])
    for n in (1, 5, 60, 1000):
        assert quenched_survival([env] * n, 1) == 1.0


def test_regime_roots_match_independent_solver():
    sub = load_preset("subcritical")
    sup = load_preset("supercritical")
    for ens, below in ((sub, True), (sup, False)):
        m = mo.mean_matrix(ens.members[0])
        root = mo.perron(m).value
        oracle_root, _ = perron_2x2(m)
        assert root == pytest.approx(oracle_root, abs=1e-10)
        assert (root < 1.0) is below


def test_single_member_presets_match_inline_fixtures():
    same_laws(load_preset("supercritical").members[0], make_rich())
    same_laws(load_preset("subcritical").members[0], make_lean())


def test_subcritical_mix_is_weighted_average():
    ens = load_preset("subcritical_mix")
    np.testing.assert_allclose(ens.weights, [0.2, 0.8])
    mixture_mean = sum(w * mo.mean_matrix(env)
                       for w, env in zip(ens.weights, ens.members))
    by_hand = 0.2 * mo.mean_matrix(make_rich()) + 0.8 * mo.mean_matrix(make_lean())
    np.testing.assert_allclose(mixture_mean, by_hand, atol=1e-14)
    root = mo.perron(mixture_mean).value
    assert root == pytest.approx(perron_2x2(mixture_mean)[0], abs=1e-10)
    assert root < 1.0


def test_boom_bust_members_bracket_zero_growth():
    ens = load_preset("boom_bust")
    assert [env.label for env in ens.members] == ["boom", "bust"]
    rows_boom = mo.mean_matrix(ens.members[0]).sum(axis=1)
    rows_bust = mo.mean_matrix(ens.members[1]).sum(axis=1)
    # independent pair reproduction gives equal rows: the expected child
    # count per member decides growth outright
    np.testing.assert_allclose(rows_boom, 1.8, rtol=1e-12)
    np.testing.assert_allclose(rows_bust, 0.5, rtol=1e-12)
    assert math.log(rows_boom[0]) > 0.0 > math.log(rows_bust[0])
