"""sibdep benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload quenched-scan --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all          # every workload, one by one

The references (oracles from tests/oracles.py and closed forms) are computed
first, in this process.  The workload then runs in fresh single-threaded
worker processes (``worker.py``): a few that only set up, to time set-up, and
one that runs whole rounds for ``--seconds`` (or, with ``--trace 1``,
untraced, traced and two-worker rounds).  Times are reported in units of
the workload's reference kernel timed around each operation (``calib.py``),
turned back into seconds.  Back here, every output is checked against the
references, and the last line printed is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it is a record of the run: machine, versions, rounds, checks.
Exits 2 without a result when the program or its oracles are missing.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"       # inputs and outputs of a run, removed after it
OUT = ROOT / ".bench_out"         # run records and traced spans, kept
SETUP_SAMPLES = 8                 # set-up-only processes; the measured one adds a ninth
WORKER_TIMEOUT = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "replica_steps_per_s": "1/s", "time_to_1pct_s": "s",
              "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(RuntimeError):
    """The benchmark could not run to its end; no result is printed."""


def spawn_worker(workload, seed, work, mode, seconds, report, spans=None):
    env = {k: v for k, v in os.environ.items() if k != "SIBDEP_WORKERS"}
    env.update({k: "1" for k in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--work", str(work), "--report", str(report),
           "--mode", mode, "--seconds", str(seconds)]
    if spans:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker ({mode}) exceeded {WORKER_TIMEOUT:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker ({mode}) exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(report.read_text(encoding="utf-8"))


def write_inputs(workload, work: Path, ref: dict) -> None:
    """Config documents the operations read; the ensemble weights come from w*."""
    import workloads as wl
    from sibdep.presets import preset_path

    if workload == "quenched-scan":
        doc = json.loads(preset_path("boom_bust").read_text(encoding="utf-8"))
        doc["label"] = "boom_bust_critical"
        doc["environments"][0]["weight"] = ref["w_star"]
        doc["environments"][1]["weight"] = 1.0 - ref["w_star"]
        (work / wl.SCAN_CONFIG).write_text(json.dumps(doc), encoding="utf-8")
    elif workload == "spectral-products":
        # mean matrix [[0, 2], [1, 0]]: a lone member has two children, a pair
        # has one each; its eigenvalues are +-sqrt 2
        doc = {"N": 2, "label": "periodic", "environments": [{
            "weight": 1.0, "label": "swap", "laws": [
                {"group_size": 1, "atoms": [{"tuple": [2], "weight": 1.0}]},
                {"group_size": 2, "atoms": [{"tuple": [1, 1], "weight": 1.0}]}]}]}
        (work / wl.PERIODIC_CONFIG).write_text(json.dumps(doc), encoding="utf-8")


def check_outputs(workload, rounds, seed, work: Path, ref: dict):
    """Check every operation's outputs; returns (failures, relative stderr of
    the workload's headline estimate)."""
    import numpy as np

    import checks as ck
    import workloads as wl
    from sibdep.cli import verify_run_dir

    fails = []
    ok = set()
    for rnd in rounds:
        for rec in rnd["ops"]:
            if rec["rc"] == 0:
                ok.add(rec["name"])
            elif rec["name"] != wl.EXPECTED_FAILURE:
                fails.append(f"{rec['name']} exited {rec['rc']}: {rec['stdout'][-300:]}")
    # the first round on each input set is checked; the others must repeat it
    first = {}
    for rnd in rounds:
        first.setdefault(rnd["index"], work / rnd["dir"])
    for k, base in first.items():
        for op in wl.operations(workload, seed, str(work), k):
            if op.name not in ok:
                continue
            if op.argv and not verify_run_dir(base / op.name)["ok"]:
                fails.append(f"{base.name}/{op.name}: verify_run_dir is not ok")
            for rnd in rounds:
                if rnd["index"] == k and work / rnd["dir"] != base:
                    fails += ck.same_files(base / op.name, work / rnd["dir"] / op.name)

    def out(name, file, k=0):
        return ck.read_json(first[k] / name / file)

    if workload == "quenched-scan":
        cycle = [out("scan", "scan.json", k)["rows"] for k in range(wl.SCAN_CYCLE)]
        fails += ck.check_scan(cycle, ref)
        est, se = np.array([(rows[-1]["estimate"], rows[-1]["stderr"]) for rows in cycle]).T
        rel = np.sqrt((se ** 2).sum()) / est.sum()   # equal row counts: pooled mean
    elif workload == "particle-paths":
        payloads = [out("paths", "paths.json", k) for k in range(wl.PATHS_CYCLE)]
        fails += ck.check_paths(payloads, ref["meander"])
        fails += ck.check_condsize(out("condsize", "condsize.json"), ref)
        ends = np.concatenate([np.asarray(p["endpoints"], float) for p in payloads])
        rel = ends.std(ddof=1) / np.sqrt(ends.size) / ends.mean()
    elif workload == "spectral-products":
        fails += ck.check_calibrate(out("calibrate", "calibrate.json"), ref)
        lyap = out("lyapunov", "lyapunov.json")
        fails += ck.check_lyapunov(lyap, ref)
        fails += ck.check_conditions({p: out(f"conditions-{p}", "conditions.json")
                                      for p in wl.PRESETS})
        if wl.EXPECTED_FAILURE in ok:
            fails += ck.check_periodic_moments(out(wl.EXPECTED_FAILURE, "moments.json"))
        growth = lyap["growth_rate"]
        rel = growth["stderr"] / abs(growth["value"])
    elif workload == "coupled-bookkeeping":
        for p in wl.COUPLED_PRESETS:
            # one cycle's rounds pool their trajectories
            arrays = [np.concatenate([np.load(first[i] / f"coupled-{p}" / f"{k}.npy")
                                      for i in range(wl.COUPLED_CYCLE)])
                      for k in ("micro", "macro", "zeta")]
            fails += [f"coupled-{p}: {m}" for m in
                      ck.check_coupled(*arrays, ref["mean_counts"][p])]
            if p == "supercritical":
                zeta = arrays[2][:, -1].astype(float)
                rel = zeta.std(ddof=1) / np.sqrt(zeta.size) / zeta.mean()
    return fails, float(rel)


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    import numpy as np

    import checks as ck
    import workloads as wl
    from calib import REF_SECONDS
    from spans import LAYER_METRICS

    WORK.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    tag = f"{workload}-seed{seed}" + ("-trace" if trace else "")
    try:
        ref = ck.references(workload, ROOT)
        write_inputs(workload, work, ref)

        def set_up_only(i):
            return spawn_worker(workload, seed, work, "setup", seconds,
                                work / f"setup{i}.json")

        # set-up samples before and after the rounds, so that one slow spell
        # of the host does not set their median
        half = 0 if trace else SETUP_SAMPLES // 2
        setups = [set_up_only(i) for i in range(half)]
        report = spawn_worker(workload, seed, work, "trace" if trace else "run", seconds,
                              work / "report.json", spans=OUT / f"{tag}-spans.json"
                              if trace else None)
        setups.append(report)
        setups += [set_up_only(i) for i in range(half, 2 * half)]
        setups = [(s["setup_s"], s["setup_ref"]) for s in setups]
        # each operation in units of the reference kernel timed around it,
        # the median over the rounds
        report["op_seconds"] = {
            rec["name"]: REF_SECONDS * statistics.median(
                r["ops"][i]["seconds"] / r["ops"][i]["ref"] for r in report["rounds"])
            for i, rec in enumerate(report["rounds"][0]["ops"])}
        ops = wl.operations(workload, seed, str(work))
        try:
            fails, rel = check_outputs(workload, report["rounds"], seed, work, ref)
        except Exception as exc:   # a malformed or missing output fails the run
            fails, rel = [f"checking stopped: {type(exc).__name__}: {exc}"], 0.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls = [r["wall"] for r in report["rounds"]]
    if trace:
        metrics = {name: {"value": report["layers"][name], "unit": unit}
                   for name, unit in LAYER_METRICS.items()}
    else:
        # each operation at its fastest over the rounds: on a shared host,
        # slowdowns from outside the process only ever add time
        wall = sum(report["op_seconds"].values())
        values = {"wall_s": wall,
                  "replica_steps_per_s": sum(op.nominal for op in ops) / wall,
                  # the headline estimate pools one cycle of rounds
                  "time_to_1pct_s": wl.cycle(workload) * wall * (rel / 0.01) ** 2,
                  "peak_rss_mb": report["peak_rss_mb"],
                  "setup_s": statistics.median(t / r for t, r in setups) * REF_SECONDS}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "src_lines": src_lines(),
        "rounds": len(walls), "round_walls": walls, "setup_samples": setups,
        "op_seconds": report["op_seconds"],
        "op_times": [[o["seconds"] for o in r["ops"]] for r in report["rounds"]],
        "ref_times": [[o["ref"] for o in r["ops"]] for r in report["rounds"]],
        "headline_rel_stderr": rel, "failures": fails,
    }
    if trace:
        traced = next(r["wall"] for r in report["rounds"] if r["dir"] == "traced")
        layers = report["layers"]
        record["traced_wall"] = traced
        record["self_share"] = {
            name[:-len(".self_s")]: layers[name] / traced
            for name in LAYER_METRICS if name.endswith(".self_s")}
    result = {"correct": not fails, "attempted": len(walls) * len(ops),
              "failed": sum(rec["rc"] != 0 for r in report["rounds"] for rec in r["ops"]),
              "metrics": metrics}
    (OUT / f"{tag}.json").write_text(json.dumps({"record": record, "result": result},
                                                indent=1), encoding="utf-8")
    return record, result


def run_all(ns) -> int:
    """Every workload in its own process, one after another."""
    import workloads as wl
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in wl.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", workload, "--seed", str(ns.seed),
                               "--seconds", str(ns.seconds), "--trace", str(ns.trace)],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:<48} {m['value']:>16.6g} {m['unit']}")
            total["metrics"][f"{workload}.{name}"] = m
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="quenched-scan, particle-paths, spectral-products, "
                         "coupled-bookkeeping, or all")
    ap.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="how long the rounds run (default 15)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from a traced round")
    ns = ap.parse_args(argv)

    missing = [p for p in ("src/sibdep/__init__.py", "tests/oracles.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"cannot benchmark: {', '.join(missing)} not found under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl

    if ns.workload == "all":
        return run_all(ns)
    if ns.workload not in wl.WORKLOADS:
        ap.error(f"unknown workload {ns.workload!r}")
    try:
        record, result = run_workload(ns.workload, ns.seed, ns.seconds, bool(ns.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
