"""Command line front end for the toolkit.

Every command reads one ensemble config (a JSON file path, or ``preset:NAME``
for a bundled ensemble), runs the corresponding library operation, and reports
deterministically.  With ``--out DIR`` the results are persisted as files plus
a run manifest and a one-line summary goes to standard output; without it the
full JSON payload is printed instead and nothing is written.

Persisted artifacts embed a config hash: the SHA-256 of the canonical JSON
encoding of the command name, the ensemble document, and every numeric
parameter including the seed.  Re-running a command with the same config and
seed reproduces the result files byte for byte.  The manifest records each
result file's SHA-256 digest; ``verify_run_dir`` rechecks a directory against
its manifest and flags stale or edited files.

Exit codes: 0 success, 1 domain error (reported as machine-readable JSON on
standard output), 2 usage or parse error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import EnsembleFormatError, InvalidLawError, SibdepError
from .env_model import (
    EnvironmentEnsemble,
    ensemble_from_dict,
    validate_sibling_law,
)
from .moments import mean_matrix, moment_set, perron
from .presets import PRESET_NAMES, preset_path
from .simulator import (
    POPULATION_CAP,
    conditional_size_distribution,
    estimate_survival,
    log_population_path,
    survival_scaling_scan,
)
from .spectral import (
    ConditionParams,
    calibrate_critical,
    check_conditions,
    estimate_lambda_theta,
    estimate_lyapunov,
    lambda_prime_at_one,
)

PRESET_PREFIX = "preset:"


# -- canonical encoding ----------------------------------------------------

def _jsonable(obj):
    """Recursively convert numpy scalars and arrays to plain Python types."""
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def canonical_json(obj) -> str:
    """Key-sorted, separator-free JSON used for hashing and persisted files."""
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"))


def config_hash(command: str, doc: dict, params: dict) -> str:
    payload = {"command": command, "ensemble": doc, "params": params}
    return hashlib.sha256(canonical_json(payload).encode("ascii")).hexdigest()


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


# -- artifact writing ------------------------------------------------------

def write_json(path: Path, payload: dict) -> None:
    text = json.dumps(_jsonable(payload), sort_keys=True, indent=2)
    path.write_text(text + "\n", encoding="utf-8")


def write_csv(path: Path, chash: str, header: list[str], rows) -> None:
    lines = [f"# config_hash={chash}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest(out: Path, command: str, chash: str, seed: int,
                   wall: float, results: list[str]) -> None:
    names = sorted(results)
    write_json(out / "manifest.json", {
        "toolkit_version": __version__,
        "command": command,
        "config_hash": chash,
        "seed": seed,
        "wall_clock_seconds": wall,
        "results": names,
        "sha256": {name: file_digest(out / name) for name in names},
    })


def verify_run_dir(out_dir) -> dict:
    """Check every result file in a run directory against its manifest.

    Returns a report dict; ``ok`` is False when any listed file is missing,
    carries a different embedded config hash than the manifest records, or
    no longer has the content digest the manifest records.
    """
    out = Path(out_dir)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    chash = manifest["config_hash"]
    digests = manifest.get("sha256", {})
    mismatches = []
    checked = []
    for name in manifest["results"]:
        path = out / name
        checked.append(name)
        if not path.is_file():
            mismatches.append({"file": name, "problem": "missing"})
            continue
        if name.endswith(".json"):
            embedded = json.loads(path.read_text(encoding="utf-8")).get("config_hash")
        else:
            first = path.read_text(encoding="utf-8").splitlines()[0]
            embedded = first.removeprefix("# config_hash=") if first.startswith(
                "# config_hash=") else None
        if embedded != chash:
            mismatches.append({"file": name, "problem": "config hash mismatch",
                               "embedded": embedded})
        recorded = digests.get(name)
        if recorded != file_digest(path):
            mismatches.append({"file": name, "problem": "digest mismatch",
                               "recorded": recorded})
    return {"out_dir": str(out), "config_hash": chash,
            "checked": checked, "mismatches": mismatches,
            "ok": not mismatches}


class _Artifacts:
    """Collects result files for one command run, then writes the manifest."""

    def __init__(self, out_dir, command, chash, seed):
        self.out = Path(out_dir) if out_dir else None
        self.command = command
        self.chash = chash
        self.seed = seed
        self.names: list[str] = []
        self.start = time.monotonic()
        if self.out is not None:
            self.out.mkdir(parents=True, exist_ok=True)

    def json(self, name: str, payload: dict) -> None:
        if self.out is None:
            return
        write_json(self.out / name, payload)
        self.names.append(name)

    def csv(self, name: str, header: list[str], rows) -> None:
        if self.out is None:
            return
        write_csv(self.out / name, self.chash, header, rows)
        self.names.append(name)

    def finish(self, payload: dict, summary: str) -> int:
        if self.out is None:
            print(json.dumps(_jsonable(payload), sort_keys=True, indent=2))
        else:
            write_manifest(self.out, self.command, self.chash, self.seed,
                           time.monotonic() - self.start, self.names)
            print(summary)
        return 0


# -- config ingestion ------------------------------------------------------

def _read_doc(source: str) -> dict:
    if source.startswith(PRESET_PREFIX):
        name = source[len(PRESET_PREFIX):]
        try:
            text = preset_path(name).read_text(encoding="utf-8")
        except KeyError as exc:
            raise EnsembleFormatError(str(exc.args[0])) from exc
    else:
        text = Path(source).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise EnsembleFormatError(
            f"{source}: invalid JSON at line {exc.lineno} "
            f"column {exc.colno}: {exc.msg}") from exc


def _load_config(source: str) -> tuple[EnvironmentEnsemble, dict]:
    doc = _read_doc(source)
    return ensemble_from_dict(doc), doc


# -- commands --------------------------------------------------------------

def cmd_validate(ns) -> int:
    try:
        doc = _read_doc(ns.config)
        ens = ensemble_from_dict(doc)
    except InvalidLawError as exc:
        report = {"ok": False, "error": str(exc)}
        if exc.report:
            report["reports"] = {str(k): r.to_dict() for k, r in exc.report.items()}
        print(json.dumps(_jsonable(report), sort_keys=True, indent=2))
        return 1
    members = []
    for env, weight in zip(ens.members, ens.weights):
        members.append({
            "label": env.label,
            "weight": float(weight),
            "laws": [validate_sibling_law(law).to_dict() for law in env.laws],
        })
    print(json.dumps(_jsonable({
        "ok": True,
        "label": ens.label,
        "order": ens.order,
        "members": members,
    }), sort_keys=True, indent=2))
    return 0


def cmd_moments(ns) -> int:
    ens, doc = _load_config(ns.config)
    params = {"seed": ns.seed}
    chash = config_hash("moments", doc, params)
    art = _Artifacts(ns.out, "moments", chash, ns.seed)

    sets = [moment_set(env) for env in ens.members]
    mixture_mean = sum(
        w * mean_matrix(env) for w, env in zip(ens.weights, ens.members)
    )
    mixture_root = perron(np.asarray(mixture_mean)).value
    payload = {
        "config_hash": chash,
        "seed": ns.seed,
        "label": ens.label,
        "order": ens.order,
        "weights": ens.weights.tolist(),
        "members": [ms.to_dict() for ms in sets],
        "mixture": {"mean": np.asarray(mixture_mean).tolist(),
                    "perron_root": mixture_root},
    }
    art.json("moments.json", payload)
    return art.finish(payload, f"moments: {ens.size} members, "
                               f"mixture perron root {mixture_root:.6f}")


def cmd_lyapunov(ns) -> int:
    ens, doc = _load_config(ns.config)
    params = {"seed": ns.seed, "horizon": ns.horizon, "replicas": ns.replicas,
              "macro": ns.macro, "theta": ns.theta, "derivative": ns.derivative,
              "step": ns.step}
    chash = config_hash("lyapunov", doc, params)
    art = _Artifacts(ns.out, "lyapunov", chash, ns.seed)

    growth = estimate_lyapunov(ens, horizon=ns.horizon, replicas=ns.replicas,
                               seed=ns.seed, use_macro=ns.macro)
    payload = {"config_hash": chash, "seed": ns.seed, "label": ens.label,
               "growth_rate": growth.to_dict()}
    if ns.theta is not None:
        moment = estimate_lambda_theta(ens, ns.theta, horizon=ns.horizon,
                                       replicas=ns.replicas, seed=ns.seed,
                                       use_macro=ns.macro)
        payload["moment_growth"] = moment.to_dict()
    if ns.derivative:
        deriv = lambda_prime_at_one(ens, step=ns.step, horizon=ns.horizon,
                                    replicas=ns.replicas, seed=ns.seed,
                                    use_macro=ns.macro)
        payload["moment_growth_slope"] = deriv.to_dict()
    art.json("lyapunov.json", payload)
    return art.finish(payload, f"lyapunov: growth rate {growth.value:+.6f} "
                               f"(stderr {growth.stderr:.2e})")


def cmd_conditions(ns) -> int:
    ens, doc = _load_config(ns.config)
    params = {"seed": ns.seed, "horizon": ns.horizon, "replicas": ns.replicas,
              "theta": ns.theta, "eps": ns.eps, "alpha": ns.alpha}
    chash = config_hash("conditions", doc, params)
    art = _Artifacts(ns.out, "conditions", chash, ns.seed)

    report = check_conditions(ens, ConditionParams(
        theta=ns.theta, eps=ns.eps, alpha=ns.alpha,
        horizon=ns.horizon, replicas=ns.replicas, seed=ns.seed))
    holds = sum(1 for c in report.checks if c.holds is True)
    fails = sum(1 for c in report.checks if c.holds is False)
    undecided = sum(1 for c in report.checks if c.holds is None)
    payload = {"config_hash": chash, "seed": ns.seed, "label": ens.label}
    payload.update(report.to_dict())
    art.json("conditions.json", payload)
    return art.finish(payload, f"conditions: {holds} hold, {fails} fail, "
                               f"{undecided} undecided")


def cmd_calibrate(ns) -> int:
    ens, doc = _load_config(ns.config)
    if ens.size != 2:
        raise ValueError(
            "calibrate needs a two-member ensemble "
            "(member 0 expanding, member 1 contracting); "
            f"config has {ens.size}")
    params = {"seed": ns.seed, "tol": ns.tol, "horizon": ns.horizon,
              "replicas": ns.replicas, "max_iter": ns.max_iter}
    chash = config_hash("calibrate", doc, params)
    art = _Artifacts(ns.out, "calibrate", chash, ns.seed)

    result = calibrate_critical(ens.members[0], ens.members[1],
                                tol=ns.tol, horizon=ns.horizon,
                                replicas=ns.replicas, seed=ns.seed,
                                max_iter=ns.max_iter)
    payload = {"config_hash": chash, "seed": ns.seed, "label": ens.label}
    payload.update(result.to_dict())
    art.json("calibrate.json", payload)
    art.csv("calibrate.csv", ["step", "weight", "growth", "stderr"],
            [(i, w, v, s) for i, (w, v, s) in enumerate(result.trace)])
    return art.finish(payload,
                      f"calibrate: weight {result.weight:.6f} on expanding "
                      f"member, growth {result.growth.value:+.3e} after "
                      f"{result.iterations} iterations")


def cmd_survival(ns) -> int:
    ens, doc = _load_config(ns.config)
    params = {"seed": ns.seed, "initial_type": ns.initial_type,
              "horizon": ns.horizon, "replicas": ns.replicas,
              "method": ns.method}
    chash = config_hash("survival", doc, params)
    art = _Artifacts(ns.out, "survival", chash, ns.seed)

    est = estimate_survival(ens, ns.initial_type, ns.horizon,
                            replicas=ns.replicas, seed=ns.seed,
                            method=ns.method)
    payload = {"config_hash": chash, "seed": ns.seed, "label": ens.label}
    payload.update(est.to_dict())
    if ns.format == "csv":
        art.csv("survival.csv",
                ["horizon", "initial_type", "estimate", "stderr",
                 "replicas", "method"],
                [(est.horizon, est.initial_type, est.value, est.stderr,
                  est.replicas, est.method)])
    art.json("survival.json", payload)
    return art.finish(payload, f"survival: {est.value:.6g} "
                               f"(stderr {est.stderr:.2e}) at horizon "
                               f"{est.horizon}")


def cmd_scan(ns) -> int:
    ens, doc = _load_config(ns.config)
    horizons = [int(h) for h in ns.horizons.split(",") if h.strip()]
    params = {"seed": ns.seed, "initial_type": ns.initial_type,
              "horizons": horizons, "replicas": ns.replicas,
              "alpha": ns.alpha}
    chash = config_hash("scan", doc, params)
    art = _Artifacts(ns.out, "scan", chash, ns.seed)

    rows = survival_scaling_scan(ens, ns.initial_type, horizons,
                                 replicas=ns.replicas, alpha=ns.alpha,
                                 seed=ns.seed)
    payload = {"config_hash": chash, "seed": ns.seed, "label": ens.label,
               "initial_type": ns.initial_type, "alpha": ns.alpha,
               "replicas": ns.replicas,
               "rows": [r.to_dict() for r in rows]}
    if ns.format == "csv":
        art.csv("scan.csv", ["horizon", "estimate", "stderr", "scaled"],
                [(r.horizon, r.estimate, r.stderr, r.scaled) for r in rows])
    art.json("scan.json", payload)
    return art.finish(payload,
                      f"scan: {len(rows)} horizons, scaled column "
                      f"{rows[0].scaled:.4f} -> {rows[-1].scaled:.4f}")


def cmd_paths(ns) -> int:
    ens, doc = _load_config(ns.config)
    params = {"seed": ns.seed, "initial_type": ns.initial_type,
              "horizon": ns.horizon, "replicas": ns.replicas,
              "alpha": ns.alpha, "cap": ns.cap}
    chash = config_hash("paths", doc, params)
    art = _Artifacts(ns.out, "paths", chash, ns.seed)

    ensemble = log_population_path(ens, ns.initial_type, ns.horizon,
                                   replicas=ns.replicas, alpha=ns.alpha,
                                   seed=ns.seed, cap=ns.cap)
    payload = {"config_hash": chash, "seed": ns.seed, "label": ens.label,
               "initial_type": ns.initial_type, "cap": ns.cap}
    payload.update(ensemble.summary_dict())
    if ns.format == "csv":
        art.csv("paths.csv", ["replica", "endpoint"],
                list(enumerate(ensemble.endpoints)))
    art.json("paths.json", payload)
    return art.finish(payload,
                      f"paths: {ensemble.survivors} of {ensemble.replicas} "
                      f"replicas survive to horizon {ensemble.horizon}")


def cmd_condsize(ns) -> int:
    ens, doc = _load_config(ns.config)
    params = {"seed": ns.seed, "initial_type": ns.initial_type,
              "horizon": ns.horizon, "replicas": ns.replicas,
              "method": ns.method}
    chash = config_hash("condsize", doc, params)
    art = _Artifacts(ns.out, "condsize", chash, ns.seed)

    dist = conditional_size_distribution(ens, ns.initial_type, ns.horizon,
                                         replicas=ns.replicas, seed=ns.seed,
                                         method=ns.method)
    payload = {"config_hash": chash, "seed": ns.seed, "label": ens.label}
    payload.update(dist.to_dict())
    if ns.format == "csv":
        art.csv("condsize.csv", ["size", "probability"],
                list(zip(dist.support.tolist(), dist.probabilities.tolist())))
    art.json("condsize.json", payload)
    return art.finish(payload,
                      f"condsize: {dist.survivors} survivors, mean size "
                      f"{dist.mean():.4f} at horizon {dist.horizon}")


# -- parser ----------------------------------------------------------------

def _add_common(sp, replicas: int | None = None) -> None:
    sp.add_argument("--config", required=True,
                    help="ensemble JSON path, or preset:NAME "
                         f"(presets: {', '.join(PRESET_NAMES)})")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None, metavar="DIR",
                    help="persist results and a manifest here; without it "
                         "the JSON payload prints to stdout")
    sp.add_argument("--format", choices=("csv", "json"), default="csv",
                    help="csv writes data files next to the JSON summary; "
                         "json writes the summary only")
    if replicas is not None:
        sp.add_argument("--replicas", type=int, default=replicas)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sibdep",
        description="Branching populations with within-group offspring "
                    "dependence: validation, moments, growth rates, and "
                    "survival experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check an ensemble config")
    sp.add_argument("--config", required=True)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("moments", help="per-member moment summaries")
    _add_common(sp)
    sp.set_defaults(func=cmd_moments)

    sp = sub.add_parser("lyapunov", help="top growth rate of random products")
    _add_common(sp, replicas=256)
    sp.add_argument("--horizon", type=int, default=512)
    sp.add_argument("--theta", type=float, default=None,
                    help="also estimate the moment growth rate at this exponent")
    sp.add_argument("--derivative", action="store_true",
                    help="also estimate the moment growth slope at exponent 1")
    sp.add_argument("--step", type=float, default=0.1,
                    help="finite difference half-width for --derivative")
    sp.add_argument("--macro", action="store_true",
                    help="use group-level mean matrices")
    sp.set_defaults(func=cmd_lyapunov)

    sp = sub.add_parser("conditions", help="structural condition report")
    _add_common(sp, replicas=256)
    sp.add_argument("--horizon", type=int, default=512)
    sp.add_argument("--theta", type=float, default=1.0)
    sp.add_argument("--eps", type=float, default=0.1)
    sp.add_argument("--alpha", type=float, default=2.0)
    sp.set_defaults(func=cmd_conditions)

    sp = sub.add_parser("calibrate",
                        help="find the critical mixture weight of a "
                             "two-member ensemble")
    _add_common(sp, replicas=512)
    sp.add_argument("--tol", type=float, default=1e-3)
    sp.add_argument("--horizon", type=int, default=2000)
    sp.add_argument("--max-iter", type=int, default=60)
    sp.set_defaults(func=cmd_calibrate)

    sp = sub.add_parser("survival", help="extinction-complement estimate")
    _add_common(sp, replicas=10_000)
    sp.add_argument("--initial-type", type=int, default=1)
    sp.add_argument("--horizon", type=int, default=64)
    sp.add_argument("--method", choices=("quenched", "particle"),
                    default="quenched")
    sp.set_defaults(func=cmd_survival)

    sp = sub.add_parser("scan", help="survival decay across horizons")
    _add_common(sp, replicas=10_000)
    sp.add_argument("--initial-type", type=int, default=1)
    sp.add_argument("--horizons", default="64,128,256,512",
                    help="comma-separated horizon list")
    sp.add_argument("--alpha", type=float, default=2.0)
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("paths", help="normalized log size paths of survivors")
    _add_common(sp, replicas=20_000)
    sp.add_argument("--initial-type", type=int, default=1)
    sp.add_argument("--horizon", type=int, default=512)
    sp.add_argument("--alpha", type=float, default=2.0)
    sp.add_argument("--cap", type=int, default=POPULATION_CAP,
                    help="per-generation population cap")
    sp.set_defaults(func=cmd_paths)

    sp = sub.add_parser("condsize",
                        help="population size law among survivors")
    _add_common(sp, replicas=20_000)
    sp.add_argument("--initial-type", type=int, default=1)
    sp.add_argument("--horizon", type=int, default=20)
    sp.add_argument("--method", choices=("auto", "direct", "resample"),
                    default="auto")
    sp.set_defaults(func=cmd_condsize)

    return parser


def _emit_error(exc: Exception) -> None:
    print(json.dumps({"error": {"type": type(exc).__name__,
                                "message": str(exc)}}))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return ns.func(ns)
    except EnsembleFormatError as exc:
        _emit_error(exc)
        return 2
    except FileNotFoundError as exc:
        _emit_error(exc)
        return 2
    except (SibdepError, ValueError) as exc:
        _emit_error(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
