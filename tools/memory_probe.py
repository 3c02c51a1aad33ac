#!/usr/bin/env python3
"""Measure the peak memory and time of the two largest runs, each in a fresh process.

The jobs:

- ``calibration``: acceptance criterion C9's calibration,
  ``calibrate_critical_pair(boom, bust, tol=2e-5, horizon=20_000,
  replicas=2048, seed=0)`` on the ``boom_bust`` preset's members;
- ``far-scan``: the far scan of README's plateau section at its sizes,
  ``survival_scaling_scan(ens, 1, [1024, 2048, 4096, 8192], replicas=4096,
  seed=202)``, on the critical ``boom_bust`` mixture (weight
  0.541046142578125, C9's calibrated weight).

Each run starts a new interpreter with the tree's ``src`` on ``PYTHONPATH``,
so a run's peak resident size (``ru_maxrss``) is its own.  The seconds are
the job's, from inside that process, without the interpreter's start.  Given
several trees, the script runs them in turn and rotates which goes first in
each round, so that a slow spell of the host falls on all of them.  It
prints ``nproc``, Python and numpy, then one line per run with the job's
result, so runs of two trees can be checked for the same numbers, and last
the median of each tree and job.

    python3 tools/memory_probe.py
    python3 tools/memory_probe.py --root ../parent --root . --rounds 3
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

JOBS = {
    "calibration": """
boom, bust = load_preset("boom_bust").members
res = calibrate_critical_pair(boom, bust, tol=2e-5, horizon=20_000, replicas=2048, seed=0)
result = {"weight": res.weight, "iterations": res.iterations}
""",
    "far-scan": """
w = 0.541046142578125
ens = EnvironmentEnsemble(load_preset("boom_bust").members, np.array([w, 1.0 - w]))
rows = survival_scaling_scan(ens, 1, [1024, 2048, 4096, 8192], replicas=4096, seed=202)
result = {"estimates": [r.estimate for r in rows]}
""",
}

# run in the fresh process: the imports come before the clock starts
CHILD = """
import json, resource, time
import numpy as np
from sibdep import (EnvironmentEnsemble, calibrate_critical_pair, load_preset,
                    survival_scaling_scan)
start = time.perf_counter()
{job}
seconds = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024   # kB on Linux
print(json.dumps({{"max_rss_mb": peak, "seconds": seconds, "result": result}}))
"""


def run_job(root: Path, job: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", CHILD.format(job=JOBS[job])],
                          cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{job} in {root}: exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, action="append",
                    help="a source tree to run; repeat for several (default: this repository)")
    ap.add_argument("--rounds", type=int, default=1, help="runs of each tree and job (default: 1)")
    ns = ap.parse_args(argv)
    if ns.rounds < 1:
        ap.error("--rounds must be at least 1")
    roots = [r.resolve() for r in ns.root or [REPO]]
    import numpy
    print(f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"numpy {numpy.__version__}", flush=True)

    runs: dict = {(str(root), job): [] for root in roots for job in JOBS}
    for k in range(ns.rounds):
        order = roots[k % len(roots):] + roots[:k % len(roots)]
        for job in JOBS:
            for root in order:
                run = run_job(root, job)
                runs[(str(root), job)].append(run)
                print(f"round {k + 1} {job} {root}: max_rss_mb {run['max_rss_mb']:.1f} "
                      f"seconds {run['seconds']:.2f} result {json.dumps(run['result'])}",
                      flush=True)
    for (root, job), done in runs.items():
        print(f"median over {len(done)}: {job} {root}: max_rss_mb "
              f"{statistics.median(r['max_rss_mb'] for r in done):.1f} seconds "
              f"{statistics.median(r['seconds'] for r in done):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
