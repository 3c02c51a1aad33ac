"""References made apart from the program, and the checks of its outputs.

References come from the enumeration oracles in ``tests/oracles.py`` (loaded
read-only by path) and from closed forms; they are computed anew on every
run, before the timed process starts.  Every check is a plain function of
decoded outputs and references that returns a list of failure messages, so
``selftest.py`` can feed each one a known-wrong input.
"""
from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import numpy as np

import workloads as wl

SQRT2 = math.sqrt(2.0)
KS_LIMIT = 0.1             # C12's bound on the meander endpoint law
TV_LIMIT = 0.05            # conditional size law against the exact one
RATIO_LIMIT = 1.2          # C9's bound on the sqrt(n)-scaled survival column
GROWTH_LIMIT = 0.02        # C8's bound on the theta = 1 moment growth
MIN_SURVIVORS = 1000       # C12 needs this many surviving paths
DKW_FAILURE = 1e-9         # chance that the calibration slack is too small
MEANDER_DRAWS = 10_000
MEANDER_STEPS = 256
MEANDER_SEED = 99


def load_oracles(root: Path):
    spec = importlib.util.spec_from_file_location("oracles", root / "tests" / "oracles.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def boom_bust_roots(orc, boom, bust) -> dict:
    """Perron roots of the two members and the critical weight w*.

    Both members have equal row sums, so they share the eigenvector (1/2, 1/2)
    and the growth rate at weight w is w log rho_boom + (1 - w) log rho_bust.
    """
    rho_boom, _ = orc.perron_2x2(orc.macro_mean_by_enumeration(boom))
    rho_bust, _ = orc.perron_2x2(orc.macro_mean_by_enumeration(bust))
    a, b = math.log(rho_boom), math.log(rho_bust)
    return {"log_rho_boom": a, "log_rho_bust": b, "w_star": -b / (a - b)}


def mixture_mean(orc, ens) -> np.ndarray:
    """Weight-averaged group-level mean matrix, enumerated from the atoms.

    It is conjugate to the particle mean (diag(i) M diag(i)^-1), so both have
    the same Perron root.
    """
    return sum(float(w) * orc.macro_mean_by_enumeration(env)
               for w, env in zip(ens.weights, ens.members))


def references(workload: str, root: Path) -> dict:
    """Everything the workload's checks compare against, computed now."""
    import sibdep
    from sibdep.presets import load_preset

    orc = load_oracles(root)
    if workload == "quenched-scan":
        bb = load_preset("boom_bust")
        ref = boom_bust_roots(orc, *bb.members)
        mix = sibdep.EnvironmentEnsemble(
            bb.members, np.array([ref["w_star"], 1.0 - ref["w_star"]]))
        ref["exact_h6"] = orc.annealed_survival(mix, 1, wl.SCAN_HORIZONS[0])
        return ref
    if workload == "particle-paths":
        support, probs, lost = orc.conditional_size_law(
            load_preset("subcritical"), 1, wl.CONDSIZE_HORIZON)
        return {"meander": orc.gaussian_meander(MEANDER_DRAWS, steps=MEANDER_STEPS,
                                                seed=MEANDER_SEED, max_batch=MEANDER_DRAWS),
                "law_support": support, "law_probs": probs, "law_lost": lost}
    if workload == "spectral-products":
        ref = boom_bust_roots(orc, *load_preset("boom_bust").members)
        rho, _ = orc.perron_2x2(mixture_mean(orc, load_preset("subcritical_mix")))
        ref["rho_mix"] = rho
        return ref
    if workload == "coupled-bookkeeping":
        means = {}
        for p in wl.COUPLED_PRESETS:
            ens = load_preset(p)
            e1 = np.zeros(ens.order)
            e1[0] = 1.0
            means[p] = e1 @ np.linalg.matrix_power(mixture_mean(orc, ens),
                                                   wl.COUPLED_HORIZON)
        return {"mean_counts": means}
    raise KeyError(workload)


# -- generic -----------------------------------------------------------------


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: largest gap of the two ECDFs."""
    a, b = np.sort(np.asarray(a, float)), np.sort(np.asarray(b, float))
    grid = np.concatenate([a, b])
    gap = (np.searchsorted(a, grid, side="right") / a.size
           - np.searchsorted(b, grid, side="right") / b.size)
    return float(np.abs(gap).max())


def total_variation(support_a, probs_a, support_b, probs_b) -> float:
    pa = dict(zip(np.asarray(support_a).tolist(), np.asarray(probs_a).tolist()))
    pb = dict(zip(np.asarray(support_b).tolist(), np.asarray(probs_b).tolist()))
    return 0.5 * sum(abs(pa.get(z, 0.0) - pb.get(z, 0.0)) for z in set(pa) | set(pb))


def same_files(first: Path, other: Path) -> list[str]:
    """Result files must repeat byte for byte; only the manifest's clock varies."""
    names = sorted(p.name for p in first.iterdir() if p.name != "manifest.json")
    others = sorted(p.name for p in other.iterdir() if p.name != "manifest.json")
    if names != others:
        return [f"{other}: files {others} differ from {names}"]
    return [f"{other / n}: bytes differ from {first / n}"
            for n in names if (first / n).read_bytes() != (other / n).read_bytes()]


def read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


# -- quenched-scan -------------------------------------------------------------


def check_scan(cycle: list[list[dict]], ref: dict) -> list[str]:
    """Each scan's estimates do not increase with the horizon and its horizon-6
    estimate lies within 4 stderr of the exact value; the scans of a cycle,
    pooled, keep the sqrt(n)-scaled column over 64..512 within C9's ratio."""
    fails = []
    for k, rows in enumerate(cycle):
        horizons = [r["horizon"] for r in rows]
        if horizons != list(wl.SCAN_HORIZONS):
            return [f"scan {k}: horizons {horizons}, expected {list(wl.SCAN_HORIZONS)}"]
        est = [r["estimate"] for r in rows]
        if any(later > earlier for earlier, later in zip(est, est[1:])):
            fails.append(f"scan {k}: survival estimates increase with the horizon: {est}")
        first = rows[0]
        if abs(first["estimate"] - ref["exact_h6"]) > 4.0 * first["stderr"]:
            fails.append(f"scan {k}: horizon-6 estimate {first['estimate']} is more than "
                         f"4 stderr ({first['stderr']}) from the exact {ref['exact_h6']}")
    # equal row counts, so the pooled estimate is the mean of the scans'
    scaled = [np.mean([rows[j]["scaled"] for rows in cycle])
              for j, h in enumerate(wl.SCAN_HORIZONS) if h >= 64]
    if min(scaled) <= 0.0 or max(scaled) / min(scaled) > RATIO_LIMIT:
        fails.append(f"pooled sqrt(n)-scaled column {scaled} spreads beyond {RATIO_LIMIT}")
    return fails


# -- particle-paths ------------------------------------------------------------


def check_paths(payloads: list[dict], meander) -> list[str]:
    """Each call's stored values are finite and >= 0 and its mean path ends at
    its endpoints' mean; the calls' survivors pooled are at least 1000 and,
    mean-matched, lie within KS 0.1 of the meander sample (C12)."""
    fails = []
    for i, payload in enumerate(payloads):
        ends = np.asarray(payload["endpoints"], float)
        mean_path = np.asarray(payload["mean_path"], float)
        for label, values in (("endpoint", ends), ("mean path", mean_path)):
            if not np.all(np.isfinite(values)) or np.any(values < 0.0):
                fails.append(f"paths call {i}: a stored {label} value is negative "
                             "or not finite")
        if payload["survivors"] != ends.size or ends.size == 0:
            fails.append(f"paths call {i}: {ends.size} endpoints for "
                         f"{payload['survivors']} survivors")
        elif abs(mean_path[-1] - ends.mean()) > 1e-9 * max(1.0, abs(ends.mean())):
            fails.append(f"paths call {i}: mean path ends at {mean_path[-1]}, the "
                         f"endpoints average {ends.mean()}")
    pooled = np.concatenate([np.asarray(p["endpoints"], float) for p in payloads])
    if pooled.size < MIN_SURVIVORS:
        return fails + [f"{pooled.size} survivors; at least {MIN_SURVIVORS} needed"]
    if pooled.mean() > 0.0:
        stat = ks_statistic(pooled * (np.mean(meander) / pooled.mean()), meander)
        if stat > KS_LIMIT:
            fails.append(f"mean-matched endpoints lie at KS {stat:.4f} from the "
                         f"meander sample (limit {KS_LIMIT})")
    return fails


def check_condsize(payload: dict, ref: dict) -> list[str]:
    fails = []
    probs = np.asarray(payload["probabilities"], float)
    if abs(probs.sum() - 1.0) > 1e-9 or np.any(probs < 0.0):
        fails.append(f"conditional law masses sum to {probs.sum()}")
    tv = total_variation(payload["support"], probs, ref["law_support"], ref["law_probs"])
    if tv > TV_LIMIT:
        fails.append(f"resampled size law is at total variation {tv:.4f} from the "
                     f"exact law (limit {TV_LIMIT})")
    return fails


# -- spectral-products ---------------------------------------------------------


def check_calibrate(payload: dict, ref: dict, tol: float = wl.CALIBRATE_TOL) -> list[str]:
    """The weight lies within tol / (a - b) of w*, plus the O(1/h) offset of the
    norm and a DKW bound on the sampled member fraction."""
    fails = []
    a, b = ref["log_rho_boom"], ref["log_rho_bust"]
    h, reps = payload["horizon"], payload["replicas"]
    slack = ((tol + math.log(2.0) / h) / (a - b)
             + math.sqrt(math.log(2.0 / DKW_FAILURE) / (2.0 * reps * (h + 1))))
    if abs(payload["weight"] - ref["w_star"]) > slack:
        fails.append(f"calibrated weight {payload['weight']} is more than {slack:.2e} "
                     f"from w* = {ref['w_star']}")
    ends = {w: v for w, v, _ in payload["trace"] if w in (0.0, 1.0)}
    for w, exact in ((0.0, b), (1.0, a)):
        bound = (abs(exact) + math.log(2.0)) / h + 1e-9
        if w not in ends or abs(ends[w] - exact) > bound:
            fails.append(f"trace growth at weight {w} is {ends.get(w)}, "
                         f"not within {bound:.2e} of {exact}")
    return fails


def check_lyapunov(payload: dict, ref: dict) -> list[str]:
    got = payload["moment_growth"]["value"]
    rel = abs(got - ref["rho_mix"]) / ref["rho_mix"]
    if rel > GROWTH_LIMIT:
        return [f"theta = 1 growth {got} is {rel:.2%} from the Perron root "
                f"{ref['rho_mix']} of the mixture mean"]
    return []


def check_conditions(reports: dict) -> list[str]:
    """zero_growth on the presets whose growth rate is known in closed form."""
    fails = []
    for preset, payload in reports.items():
        zg = next(c for c in payload["checks"] if c["id"] == "zero_growth")
        est, se = zg["values"]["estimate"], zg["values"]["stderr"]
        if preset == "deterministic_line":
            if zg["holds"] is not True or est != 0.0:
                fails.append(f"zero_growth on {preset}: holds={zg['holds']}, "
                             f"estimate {est}; the growth rate is exactly 0")
        elif preset == "critical":
            # the norm adds log 2 / horizon to a zero growth rate
            bound = 4.0 * se + math.log(2.0) / payload["params"]["horizon"]
            if abs(est) > bound:
                fails.append(f"zero_growth on {preset}: estimate {est} is beyond "
                             f"{bound:.2e} of the exact 0")
        elif zg["holds"] is not False:
            fails.append(f"zero_growth on {preset}: holds={zg['holds']}, but its "
                         f"growth rate is far from 0 (estimate {est})")
    return fails


def check_periodic_moments(payload: dict) -> list[str]:
    root = payload["mixture"]["perron_root"]
    if abs(root - SQRT2) > 1e-9:
        return [f"periodic mean matrix [[0,2],[1,0]]: Perron root {root}, not sqrt 2"]
    return []


# -- coupled-bookkeeping -------------------------------------------------------


def check_coupled(micro, macro, zeta, exact_mean) -> list[str]:
    """Both routes agree state by state; zeta is the weighted group total; the
    mean group counts at the horizon match e1 A^T within 4 stderr, with an
    absolute floor of 4 sqrt(mean / trajectories) for when every line died."""
    fails = []
    micro, macro, zeta = (np.asarray(x) for x in (micro, macro, zeta))
    if micro.shape != macro.shape or not np.array_equal(micro, macro):
        bad = int((micro != macro).any(axis=2).sum()) if micro.shape == macro.shape else -1
        fails.append(f"micro and macro routes disagree on {bad} states")
    sizes = np.arange(1, macro.shape[2] + 1)
    if zeta.shape != macro.shape[:2] or not np.array_equal(zeta, macro @ sizes):
        fails.append("a state's zeta differs from its weighted group total")
    last = macro[:, -1, :].astype(float)
    n = last.shape[0]
    mean = last.mean(axis=0)
    se = last.std(axis=0, ddof=1) / math.sqrt(n)
    exact = np.asarray(exact_mean, float)
    allowed = 4.0 * se + 4.0 * np.sqrt(np.maximum(exact, 0.0) / n)
    if np.any(np.abs(mean - exact) > allowed):
        fails.append(f"mean group counts {mean.tolist()} at the horizon are beyond "
                     f"{allowed.tolist()} of the exact {exact.tolist()}")
    return fails
