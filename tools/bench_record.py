#!/usr/bin/env python3
"""Record the benchmark's end-to-end metrics of one source tree in BENCH_<label>.json.

Runs ``bench/run.py --seed S --trace 0`` of the tree five times per workload,
for ``run_seconds`` of ``BENCHMARK.json`` each, one run at a time and the
workloads in turn, so that a slow spell of the host is spread over all of
them; S is ``--seed``, 1 unless given.  The entry holds the seed, the host
(``nproc``, Python, numpy, and whether ``PYTHONDONTWRITEBYTECODE`` is set: a
run that may not cache bytecode compiles every module it imports), the
tree's ``src_lines`` and commit, the files under the measured paths that
differ from that commit with the sha256 of that diff, and per workload the median and quartiles of each end-to-end metric
that ``BENCHMARK.json`` names, with every run's value.  A tree whose
uncommitted changes are later committed as C can be checked against its
entry: ``git diff --binary --no-color --no-ext-diff <commit> C -- src bench
tests/oracles.py | sha256sum`` gives the same hash.
Untracked files under the measured paths would escape that hash, so they stop
the recording.

    python3 tools/bench_record.py --label 615c5c3 --root /path/to/checkout
    python3 tools/bench_record.py --label 615c5c3-seed9001 --seed 9001

The script only runs the benchmark; it changes nothing under ``bench/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
MEASURED = ("src", "bench", "tests/oracles.py")   # what a benchmark run reads
RUNS = 5


def git(root: Path, *args: str) -> str:
    proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
    return proc.stdout.rstrip("\n") if proc.returncode == 0 else ""


def uncommitted_sha256(root: Path) -> str | None:
    """sha256 of the measured paths' diff from HEAD, None for a clean tree."""
    diff = subprocess.run(["git", "-C", str(root), "diff", "--binary", "--no-color",
                           "--no-ext-diff", "HEAD", "--", *MEASURED],
                          capture_output=True, check=True).stdout
    return hashlib.sha256(diff).hexdigest() if diff else None


def run_once(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One benchmark run: its record and its result, the last two lines it prints."""
    proc = subprocess.run([sys.executable, str(root / "bench" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: bench/run.py exited {proc.returncode}\n{proc.stderr}")
    record, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return record, result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    ap.add_argument("--root", type=Path, default=REPO,
                    help="the source tree to run (default: this repository)")
    ap.add_argument("--seed", type=int, default=1,
                    help="the seed of every run (default: 1)")
    ns = ap.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9._-]+", ns.label):
        ap.error(f"label {ns.label!r} may hold only letters, digits, '.', '_' and '-'")

    root = ns.root.resolve()
    untracked = git(root, "ls-files", "--others", "--exclude-standard", "--", *MEASURED)
    if untracked:
        ap.error(f"untracked files under the measured paths: {untracked.split()}")
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    runs: dict = {w: [] for w in workloads}
    for k in range(RUNS):
        for w in workloads:
            runs[w].append(run_once(root, w, ns.seed, seconds))
            print(f"run {k + 1}/{RUNS} {w}: "
                  f"wall_s={runs[w][-1][1]['metrics']['wall_s']['value']:.4g}", flush=True)

    first = runs[workloads[0]][0][0]
    entry = {
        "label": ns.label,
        "commit": git(root, "rev-parse", "HEAD"),
        "uncommitted": git(root, "diff", "--name-only", "HEAD", "--", *MEASURED).split(),
        "uncommitted_sha256": uncommitted_sha256(root),
        **{key: first[key] for key in ("nproc", "python", "numpy", "src_lines")},
        "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "seed": ns.seed,
        "command": f"bench/run.py --workload W --seed {ns.seed} --seconds {seconds:g} --trace 0",
        "runs": RUNS,
        "workloads": {},
    }
    for w in workloads:
        results = [result for _, result in runs[w]]
        entry["workloads"][w] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {name: {"unit": unit,
                               **summary([r["metrics"][name]["value"] for r in results])}
                        for name, unit in units.items()},
        }
    path = REPO / f"BENCH_{ns.label}.json"
    path.write_text(json.dumps(entry, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
