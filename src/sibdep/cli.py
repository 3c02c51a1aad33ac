"""Command line front end for the toolkit.

Every command reads one ensemble config (a JSON file path, or ``preset:NAME``
for a bundled ensemble), runs the corresponding library operation, and reports
deterministically.  With ``--out DIR`` the results are persisted as files plus
a run manifest and a one-line summary goes to standard output; without it the
full JSON payload is printed instead and nothing is written.

All commands but ``validate`` share one runner: the command computes a result
body, an optional CSV table and a summary line, and the runner adds the
header, writes ``<command>.json`` (and ``<command>.csv`` under ``--format
csv``) and the manifest.  Persisted artifacts embed a config hash: the SHA-256
of the canonical JSON encoding of the command name, the ensemble document,
and every parsed option except ``--config``, ``--out`` and ``--format``.
Re-running a command with the same config and seed reproduces the result
files byte for byte.  The manifest records each result file's SHA-256 digest;
``verify_run_dir`` rechecks a directory against its manifest and flags stale
or edited files.

A command imports the estimator module it runs (``simulator``, ``spectral``
or ``moments``) only when it runs, so building the parser and ``validate``
load none of them.

Exit codes: 0 success, 1 domain error (reported as machine-readable JSON on
standard output), 2 usage or parse error, or a config or output path that
cannot be read or written.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .env_model import (
    EnvironmentEnsemble,
    ensemble_from_dict,
    read_ensemble_doc,
    validate_sibling_law,
)
from .errors import (POPULATION_CAP, EnsembleFormatError, InvalidLawError, SibdepError,
                     check_domains)
from .presets import PRESET_NAMES, preset_path
from .records import plain

PRESET_PREFIX = "preset:"

# parsed attributes that say where and how results are written, not what
# they are; every other attribute goes into the config hash
_UNHASHED = ("command", "func", "config", "out", "format")


# -- canonical encoding ----------------------------------------------------

def canonical_json(obj) -> str:
    """Key-sorted, separator-free JSON: the encoding the config hash digests."""
    return json.dumps(plain(obj), sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_hash(command: str, doc: dict, params: dict) -> str:
    payload = {"command": command, "ensemble": doc, "params": params}
    return hashlib.sha256(canonical_json(payload).encode("ascii")).hexdigest()


def hashed_options(ns) -> dict:
    """The parsed options a command's config hash covers."""
    return {k: v for k, v in vars(ns).items() if k not in _UNHASHED}


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _pretty_json(payload: dict) -> str:
    """The layout of result files and stdout payloads; NaN or inf raises ValueError."""
    return json.dumps(plain(payload), sort_keys=True, indent=2, allow_nan=False)


# -- artifact writing ------------------------------------------------------

def write_json(path: Path, payload: dict) -> None:
    """Write one JSON file; its directory is made only once the payload encodes."""
    text = _pretty_json(payload)
    path.parent.mkdir(parents=True, exist_ok=True)
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


def _plain_name(name) -> bool:
    """A file name with no directory part, as write_manifest lists results:
    any other would read a file outside the run directory."""
    return isinstance(name, str) and name not in ("", ".", "..") and Path(name).name == name


def _well_typed(manifest) -> bool:
    if not (isinstance(manifest, dict) and {"config_hash", "results"} <= manifest.keys()):
        return False
    results, digests = manifest["results"], manifest.get("sha256", {})
    return (isinstance(results, list) and all(map(_plain_name, results))
            and isinstance(digests, dict) and all(isinstance(d, str) for d in digests.values()))


def verify_run_dir(out_dir) -> dict:
    """Check every result file in a run directory against its manifest.

    Returns a report dict; ``ok`` is False when any listed file is missing,
    is a symbolic link (whose target is not read), carries a different
    embedded config hash than the manifest records, or no longer has the
    content digest the manifest records.  A manifest that is missing, or no
    JSON object with ``config_hash`` and ``results`` keys, a list of plain
    file names under ``results`` and an object of strings under ``sha256``,
    is the one mismatch, with no hash and no file checked.
    """
    out = Path(out_dir)
    try:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError):
        manifest = None
    if not _well_typed(manifest):
        problem = "malformed" if (out / "manifest.json").is_file() else "missing"
        return {"out_dir": str(out), "config_hash": None, "checked": [],
                "mismatches": [{"file": "manifest.json", "problem": problem}], "ok": False}
    chash = manifest["config_hash"]
    digests = manifest.get("sha256", {})
    mismatches = []
    checked = []
    for name in manifest["results"]:
        path = out / name
        checked.append(name)
        if path.is_symlink():   # its target may lie outside the run directory
            mismatches.append({"file": name, "problem": "not a regular file"})
            continue
        if not path.is_file():
            mismatches.append({"file": name, "problem": "missing"})
            continue
        text = path.read_text(encoding="utf-8", errors="replace")
        if name.endswith(".json"):
            try:   # an edit may leave no JSON object to read the hash from
                embedded = json.loads(text).get("config_hash")
            except (ValueError, RecursionError, AttributeError):
                embedded = None
        else:
            first = (text.splitlines() or [""])[0]
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


# -- config ingestion ------------------------------------------------------

def _read_doc(source: str) -> dict:
    if source.startswith(PRESET_PREFIX):
        try:
            source = preset_path(source[len(PRESET_PREFIX):])
        except KeyError as exc:
            raise EnsembleFormatError(str(exc.args[0])) from exc
    return read_ensemble_doc(source)


# -- the runner ------------------------------------------------------------

def run_command(compute, ns) -> int:
    """Run one artifact-writing command and report its result.

    ``compute(ens, ns)`` returns the result body, the CSV table as
    ``(header, rows)`` or None, and a one-line summary.  The body, under a
    ``config_hash``/``seed``/``label`` header, prints to stdout, or with
    ``--out`` goes to ``<command>.json``; the table goes to
    ``<command>.csv`` under ``--format csv`` only; the manifest lists both.
    """
    doc = _read_doc(ns.config)
    ens = ensemble_from_dict(doc)
    check_domains(seed=ns.seed)
    start = time.monotonic()
    body, table, summary = compute(ens, ns)
    # hashed after compute, so a non-finite option gets the library's message
    chash = config_hash(ns.command, doc, hashed_options(ns))
    payload = {"config_hash": chash, "seed": ns.seed, "label": ens.label, **body}
    if ns.out is None:
        print(_pretty_json(payload))
        return 0
    out = Path(ns.out)
    names = [f"{ns.command}.json"]
    write_json(out / names[0], payload)   # creates --out once the payload encodes
    if table is not None and ns.format == "csv":
        names.append(f"{ns.command}.csv")
        write_csv(out / names[1], chash, *table)
    write_manifest(out, ns.command, chash, ns.seed, time.monotonic() - start, names)
    print(summary)
    return 0


# -- commands --------------------------------------------------------------

def cmd_validate(ns) -> int:
    try:
        ens = ensemble_from_dict(_read_doc(ns.config))
    except InvalidLawError as exc:
        report = {"ok": False, "error": str(exc)}
        if exc.report:
            report["reports"] = {str(k): r.to_dict() for k, r in exc.report.items()}
        print(_pretty_json(report))
        return 1
    members = []
    for env, weight in zip(ens.members, ens.weights):
        members.append({
            "label": env.label,
            "weight": float(weight),
            "laws": [validate_sibling_law(law).to_dict() for law in env.laws],
        })
    print(_pretty_json({"ok": True, "label": ens.label, "order": ens.order,
                        "members": members}))
    return 0


def cmd_moments(ens: EnvironmentEnsemble, ns):
    from .moments import moment_set, perron
    sets = [moment_set(env) for env in ens.members]
    mixture_mean = sum(w * ms.mean for w, ms in zip(ens.weights, sets))
    mixture_root = perron(mixture_mean).value
    body = {"order": ens.order, "weights": ens.weights,
            "members": [ms.to_dict() for ms in sets],
            "mixture": {"mean": mixture_mean, "perron_root": mixture_root}}
    return body, None, (f"moments: {ens.size} members, "
                        f"mixture perron root {mixture_root:.6f}")


def cmd_lyapunov(ens: EnvironmentEnsemble, ns):
    from . import spectral
    # one product sample for every section; the checks come before the draw
    check_domains(theta=ns.theta, step=ns.step if ns.derivative else None)
    logs = spectral._sampled_log_norms(ens, ns.horizon, ns.replicas, ns.seed, ns.macro)
    growth = spectral._growth_rate(logs, ns.horizon)
    body = {"growth_rate": growth.to_dict()}
    if ns.theta is not None:
        body["moment_growth"] = spectral._moment_growth(logs, ns.theta, ns.horizon).to_dict()
    if ns.derivative:
        slope = spectral._growth_slope(logs, ns.step, ns.horizon)
        body["moment_growth_slope"] = slope.to_dict()
    return body, None, (f"lyapunov: growth rate {growth.value:+.6f} "
                        f"(stderr {growth.stderr:.2e})")


def cmd_conditions(ens: EnvironmentEnsemble, ns):
    from .spectral import ConditionParams, check_conditions
    report = check_conditions(ens, ConditionParams(
        theta=ns.theta, eps=ns.eps, alpha=ns.alpha,
        horizon=ns.horizon, replicas=ns.replicas, seed=ns.seed))
    n = {v: sum(1 for c in report.checks if c.holds is v) for v in (True, False, None)}
    return report.to_dict(), None, (
        f"conditions: {n[True]} hold, {n[False]} fail, {n[None]} undecided")


def cmd_calibrate(ens: EnvironmentEnsemble, ns):
    from .spectral import calibrate_critical_pair
    if ens.size != 2:
        raise ValueError(
            "calibrate needs a two-member ensemble "
            "(member 0 expanding, member 1 contracting); "
            f"config has {ens.size}")
    result = calibrate_critical_pair(ens.members[0], ens.members[1],
                                     tol=ns.tol, horizon=ns.horizon,
                                     replicas=ns.replicas, seed=ns.seed,
                                     max_iter=ns.max_iter)
    table = (["step", "weight", "growth", "stderr"],
             [(i, w, v, s) for i, (w, v, s) in enumerate(result.trace)])
    return result.to_dict(), table, (
        f"calibrate: weight {result.weight:.6f} on expanding member, "
        f"growth {result.growth.value:+.3e} after {result.iterations} iterations")


def cmd_survival(ens: EnvironmentEnsemble, ns):
    from .simulator import estimate_survival
    est = estimate_survival(ens, ns.initial_type, ns.horizon,
                            replicas=ns.replicas, seed=ns.seed,
                            method=ns.method)
    table = (["horizon", "initial_type", "estimate", "stderr", "replicas", "method"],
             [(est.horizon, est.initial_type, est.value, est.stderr,
               est.replicas, est.method)])
    return est.to_dict(), table, (f"survival: {est.value:.6g} "
                                  f"(stderr {est.stderr:.2e}) at horizon {est.horizon}")


def cmd_scan(ens: EnvironmentEnsemble, ns):
    from .simulator import survival_scaling_scan
    rows = survival_scaling_scan(ens, ns.initial_type, ns.horizons,
                                 replicas=ns.replicas, alpha=ns.alpha,
                                 seed=ns.seed)
    body = {"initial_type": ns.initial_type, "alpha": ns.alpha,
            "replicas": ns.replicas, "rows": [r.to_dict() for r in rows]}
    table = (["horizon", "estimate", "stderr", "scaled"],
             [(r.horizon, r.estimate, r.stderr, r.scaled) for r in rows])
    return body, table, (f"scan: {len(rows)} horizons, scaled column "
                         f"{rows[0].scaled:.4f} -> {rows[-1].scaled:.4f}")


def cmd_paths(ens: EnvironmentEnsemble, ns):
    from .simulator import log_population_path
    paths = log_population_path(ens, ns.initial_type, ns.horizon,
                                replicas=ns.replicas, alpha=ns.alpha,
                                seed=ns.seed, cap=ns.cap)
    body = {"initial_type": ns.initial_type, "cap": ns.cap, **paths.summary_dict()}
    table = (["replica", "endpoint"], list(enumerate(paths.endpoints)))
    return body, table, (f"paths: {paths.survivors} of {paths.replicas} "
                         f"replicas survive to horizon {paths.horizon}")


def cmd_condsize(ens: EnvironmentEnsemble, ns):
    from .simulator import conditional_size_distribution
    dist = conditional_size_distribution(ens, ns.initial_type, ns.horizon,
                                         replicas=ns.replicas, seed=ns.seed,
                                         method=ns.method)
    table = (["size", "probability"],
             list(zip(dist.support.tolist(), dist.probabilities.tolist())))
    return dist.to_dict(), table, (f"condsize: {dist.survivors} survivors, mean size "
                                   f"{dist.mean():.4f} at horizon {dist.horizon}")


# -- parser ----------------------------------------------------------------

def _horizon_list(text: str) -> list[int]:
    try:
        return [int(h) for h in text.split(",") if h.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _add_command(sub, name: str, help: str, compute,
                 replicas: int | None = None) -> argparse.ArgumentParser:
    """A subcommand that runs ``compute`` through ``run_command``."""
    sp = sub.add_parser(name, help=help)
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
    sp.set_defaults(func=functools.partial(run_command, compute))
    return sp


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; every parse makes a fresh namespace and
    converts the string defaults anew, so the parser keeps no state per call."""
    parser = argparse.ArgumentParser(
        prog="sibdep",
        description="Branching populations with within-group offspring "
                    "dependence: validation, moments, growth rates, and "
                    "survival experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check an ensemble config")
    sp.add_argument("--config", required=True)
    sp.set_defaults(func=cmd_validate)

    _add_command(sub, "moments", "per-member moment summaries", cmd_moments)

    sp = _add_command(sub, "lyapunov", "top growth rate of random products",
                      cmd_lyapunov, replicas=256)
    sp.add_argument("--horizon", type=int, default=512)
    sp.add_argument("--theta", type=float, default=None,
                    help="also estimate the moment growth rate at this exponent")
    sp.add_argument("--derivative", action="store_true",
                    help="also estimate the moment growth slope at exponent 1")
    sp.add_argument("--step", type=float, default=0.1,
                    help="finite difference half-width for --derivative")
    sp.add_argument("--macro", action="store_true",
                    help="use group-level mean matrices")

    sp = _add_command(sub, "conditions", "structural condition report",
                      cmd_conditions, replicas=256)
    sp.add_argument("--horizon", type=int, default=512)
    sp.add_argument("--theta", type=float, default=1.0)
    sp.add_argument("--eps", type=float, default=0.1)
    sp.add_argument("--alpha", type=float, default=2.0)

    sp = _add_command(sub, "calibrate", "find the critical mixture weight of a "
                                        "two-member ensemble",
                      cmd_calibrate, replicas=512)
    sp.add_argument("--tol", type=float, default=1e-3)
    sp.add_argument("--horizon", type=int, default=2000)
    sp.add_argument("--max-iter", type=int, default=60)

    sp = _add_command(sub, "survival", "extinction-complement estimate",
                      cmd_survival, replicas=10_000)
    sp.add_argument("--initial-type", type=int, default=1)
    sp.add_argument("--horizon", type=int, default=64)
    sp.add_argument("--method", choices=("quenched", "particle"),
                    default="quenched")

    sp = _add_command(sub, "scan", "survival decay across horizons",
                      cmd_scan, replicas=10_000)
    sp.add_argument("--initial-type", type=int, default=1)
    sp.add_argument("--horizons", type=_horizon_list, default="64,128,256,512",
                    help="comma-separated horizon list")
    sp.add_argument("--alpha", type=float, default=2.0)

    sp = _add_command(sub, "paths", "normalized log size paths of survivors",
                      cmd_paths, replicas=20_000)
    sp.add_argument("--initial-type", type=int, default=1)
    sp.add_argument("--horizon", type=int, default=512)
    sp.add_argument("--alpha", type=float, default=2.0)
    sp.add_argument("--cap", type=int, default=POPULATION_CAP,
                    help="per-generation population cap")

    sp = _add_command(sub, "condsize", "population size law among survivors",
                      cmd_condsize, replicas=20_000)
    sp.add_argument("--initial-type", type=int, default=1)
    sp.add_argument("--horizon", type=int, default=20)
    sp.add_argument("--method", choices=("auto", "direct", "resample"),
                    default="auto")

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
    except (EnsembleFormatError, OSError) as exc:
        _emit_error(exc)
        return 2
    except (SibdepError, ValueError) as exc:
        _emit_error(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
