"""Self-test of the benchmark's checks: each must pass a right input and
reject a known-wrong one.

    python3 bench/selftest.py

The right inputs are built from the same references the benchmark uses (w*,
the Perron roots, a meander sample, the enumerated macro means) or from
closed forms; they are small, so the whole test takes a few seconds.  Exits 1
and names the check when a check passes a wrong input or rejects a right one.
"""
from __future__ import annotations

import copy
import math
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks as ck  # noqa: E402
import workloads as wl  # noqa: E402


def scan_rows(ref):
    rows = []
    for h in wl.SCAN_HORIZONS:
        est = ref["exact_h6"] if h == 6 else 0.72 / math.sqrt(h)
        rows.append({"horizon": h, "estimate": est, "stderr": 0.003,
                     "scaled": math.sqrt(h) * est})
    return rows


def cases():
    """(check name, check on a right input, check on a wrong input)."""
    orc = ck.load_oracles(ROOT)
    from sibdep.presets import load_preset

    # quenched-scan: exact h6 from the enumeration oracle, a c/sqrt(n) column
    bb = load_preset("boom_bust")
    roots = ck.boom_bust_roots(orc, *bb.members)
    scan_ref = {"exact_h6": 0.34}
    rows = scan_rows(scan_ref)
    reversed_rows = [dict(r, estimate=e) for r, e in
                     zip(rows, reversed([r["estimate"] for r in rows]))]
    off_h6 = copy.deepcopy(rows)
    off_h6[0]["estimate"] += 10 * off_h6[0]["stderr"]
    drifting = copy.deepcopy(rows)
    drifting[-1]["scaled"] *= 1.5
    yield ("scan: survival column reversed", lambda: ck.check_scan([rows], scan_ref),
           lambda: ck.check_scan([reversed_rows], scan_ref))
    yield ("scan: horizon-6 estimate 10 stderr off", lambda: ck.check_scan([rows], scan_ref),
           lambda: ck.check_scan([off_h6], scan_ref))
    yield ("scan: scaled column ratio 1.5", lambda: ck.check_scan([rows], scan_ref),
           lambda: ck.check_scan([drifting], scan_ref))

    # particle-paths: a second meander sample stands in for the survivors
    meander = orc.gaussian_meander(5000, steps=ck.MEANDER_STEPS, seed=1)
    ends = orc.gaussian_meander(1500, steps=ck.MEANDER_STEPS, seed=2)
    mean_path = np.linspace(0.0, ends.mean(), 9)

    def paths(e, m=mean_path):
        return [{"endpoints": list(e), "mean_path": list(m), "survivors": len(e)}]
    yield ("paths: endpoints scaled by 1.5", lambda: ck.check_paths(paths(ends), meander),
           lambda: ck.check_paths(paths(ends * 1.5), meander))
    squared = ends ** 2
    yield ("paths: endpoint law squared", lambda: ck.check_paths(paths(ends), meander),
           lambda: ck.check_paths(paths(squared, np.linspace(0.0, squared.mean(), 9)),
                                  meander))
    negative = ends - ends.mean()
    yield ("paths: negative endpoints", lambda: ck.check_paths(paths(ends), meander),
           lambda: ck.check_paths(paths(negative, np.zeros(9)), meander))
    yield ("paths: 999 survivors", lambda: ck.check_paths(paths(ends), meander),
           lambda: ck.check_paths(paths(ends[:999], np.linspace(0, ends[:999].mean(), 9)),
                                  meander))
    support = np.arange(1, 7)
    probs = 0.5 ** support / (0.5 ** support).sum()
    law = {"law_support": support, "law_probs": probs}
    yield ("condsize: law shifted by one",
           lambda: ck.check_condsize({"support": support.tolist(),
                                      "probabilities": probs.tolist()}, law),
           lambda: ck.check_condsize({"support": (support + 1).tolist(),
                                      "probabilities": probs.tolist()}, law))

    # spectral-products: closed forms from the Perron roots
    a, b = roots["log_rho_boom"], roots["log_rho_bust"]
    h = wl.CALIBRATE_HORIZON

    def calib(w, v0=b, v1=a):
        return {"weight": w, "horizon": h, "replicas": wl.CALIBRATE_REPLICAS,
                "trace": [[0.0, v0, 0.0], [1.0, v1, 0.0], [0.5, 0.0, 0.0]]}
    w_star = roots["w_star"]
    yield ("calibrate: w* shifted by 0.01", lambda: ck.check_calibrate(calib(w_star), roots),
           lambda: ck.check_calibrate(calib(w_star + 0.01), roots))
    yield ("calibrate: weight-0 trace row off by 0.01",
           lambda: ck.check_calibrate(calib(w_star), roots),
           lambda: ck.check_calibrate(calib(w_star, v0=b + 0.01), roots))
    rho, _ = orc.perron_2x2(ck.mixture_mean(orc, load_preset("subcritical_mix")))
    lyap_ref = {"rho_mix": rho}
    yield ("lyapunov: growth 5% high",
           lambda: ck.check_lyapunov({"moment_growth": {"value": rho}}, lyap_ref),
           lambda: ck.check_lyapunov({"moment_growth": {"value": 1.05 * rho}}, lyap_ref))

    def report(holds, est, se):
        return {"params": {"horizon": wl.CONDITIONS_HORIZON},
                "checks": [{"id": "zero_growth", "holds": holds,
                            "values": {"estimate": est, "stderr": se}}]}
    good = {"critical": report(True, 0.001, 0.0008),
            "deterministic_line": report(True, 0.0, 0.0),
            "subcritical": report(False, -0.41, 0.0)}
    yield ("conditions: critical estimate 10 stderr off", lambda: ck.check_conditions(good),
           lambda: ck.check_conditions(dict(good, critical=report(True, 0.008, 0.0008))))
    yield ("conditions: deterministic_line fails zero growth",
           lambda: ck.check_conditions(good),
           lambda: ck.check_conditions(dict(good, deterministic_line=report(False, 0.0, 0.0))))
    yield ("conditions: subcritical passes zero growth", lambda: ck.check_conditions(good),
           lambda: ck.check_conditions(dict(good, subcritical=report(True, -0.41, 0.0))))
    yield ("moments: periodic root 2.0 instead of sqrt 2",
           lambda: ck.check_periodic_moments({"mixture": {"perron_root": math.sqrt(2.0)}}),
           lambda: ck.check_periodic_moments({"mixture": {"perron_root": 2.0}}))

    # coupled-bookkeeping: Poisson counts with the enumerated mean at the horizon
    ens = load_preset("supercritical")
    exact = np.linalg.matrix_power(ck.mixture_mean(orc, ens), wl.COUPLED_HORIZON)[0]
    gen = np.random.default_rng(3)
    macro = gen.poisson(exact, size=(2000, wl.COUPLED_HORIZON + 1, ens.order))
    zeta = macro @ np.arange(1, ens.order + 1)
    altered = macro.copy()
    altered[7, 5, 0] += 1
    yield ("coupled: one macro state altered",
           lambda: ck.check_coupled(macro, macro, zeta, exact),
           lambda: ck.check_coupled(macro, altered, zeta, exact))
    bad_zeta = zeta.copy()
    bad_zeta[3, 2] += 1
    yield ("coupled: one zeta altered", lambda: ck.check_coupled(macro, macro, zeta, exact),
           lambda: ck.check_coupled(macro, macro, bad_zeta, exact))
    yield ("coupled: mean counts 1.5 times the exact",
           lambda: ck.check_coupled(macro, macro, zeta, exact),
           lambda: ck.check_coupled(macro, macro, zeta, exact / 1.5))


def same_files_case():
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        first, same, other = (Path(tmp) / n for n in ("a", "b", "c"))
        for d, text in ((first, "1"), (same, "1"), (other, "2")):
            d.mkdir()
            (d / "result.json").write_text(text)
            (d / "manifest.json").write_text(str(id(d)))
        return ck.same_files(first, same), ck.same_files(first, other)


def main() -> int:
    bad = []
    results = [(name, right(), wrong()) for name, right, wrong in cases()]
    results.append(("rounds: result bytes differ", *same_files_case()))
    for name, right, wrong in results:
        if right:
            bad.append(f"{name}: the right input was rejected: {right}")
        if not wrong:
            bad.append(f"{name}: the wrong input passed")
        print(f"{'ok ' if not right and wrong else 'BAD'} {name}")
    for line in bad:
        print(line, file=sys.stderr)
    print(f"{len(results) - len(bad)} of {len(results)} checks reject their wrong input"
          if not bad else f"{len(bad)} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
