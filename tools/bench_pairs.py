#!/usr/bin/env python3
"""Measure a change against its parent in alternating pairs of benchmark runs.

Each pair runs ``bench/run.py --workload W --seed S --trace 0`` once on the
parent tree and once on the change tree, for ``run_seconds`` of
``BENCHMARK.json``; the parent goes first in odd pairs and the change in
even ones, so a slow spell of the host falls on both sides.  The script
prints every pair's end-to-end metrics, each side's median and quartiles per
metric, how many pairs the change won (ties count for neither), and whether
the metric meets the claim rule: the change wins at least nine pairs in ten,
and its median beats the parent's by more than the parent's interquartile
range.  The rule is stated for ten pairs or more, so fewer pairs read as
not decided, whatever they show.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload quenched-scan --seed 1 --pairs 10

The script only runs the benchmark; it changes nothing under ``bench/``.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench_record import run_once, summary   # beside this script, on sys.path when run


MIN_PAIRS = 10   # the fewest pairs the claim rule decides on


def verdict(parent: list[float], change: list[float], better: str) -> dict:
    """Per-side summaries, the change's wins, and whether the claim rule holds:
    "meets" is None below MIN_PAIRS pairs, where the rule does not decide."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    before, after = summary(parent), summary(change)
    gap = sign * (before["median"] - after["median"])
    iqr = before["q3"] - before["q1"]
    return {"parent": before, "change": after, "wins": wins, "pairs": len(parent),
            "gap": gap, "parent_iqr": iqr,
            "meets": (10 * wins >= 9 * len(parent) and gap > iqr
                      if len(parent) >= MIN_PAIRS else None)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="the parent's source tree")
    ap.add_argument("--change", type=Path, required=True, help="the change's source tree")
    ap.add_argument("--workload", required=True, help="a workload of BENCHMARK.json")
    ap.add_argument("--seed", type=int, default=1, help="the seed of every run (default: 1)")
    ap.add_argument("--pairs", type=int, default=10, help="pairs of runs (default: 10)")
    ns = ap.parse_args(argv)
    if ns.pairs < 2:
        ap.error("--pairs must be at least 2, for quartiles")

    trees = {"parent": ns.parent.resolve(), "change": ns.change.resolve()}
    specs = [json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
             for root in trees.values()]
    if specs[0] != specs[1]:
        ap.error("the two trees' BENCHMARK.json differ")
    spec = specs[0]
    if ns.workload not in [w["name"] for w in spec["workloads"]]:
        ap.error(f"unknown workload {ns.workload!r}")
    metrics = spec["end_to_end"]

    values: dict = {side: {m["name"]: [] for m in metrics} for side in trees}
    for k in range(ns.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            _, result = run_once(trees[side], ns.workload, ns.seed, spec["run_seconds"])
            if not result["correct"] or result["failed"]:
                print(f"pair {k + 1} {side}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}")
            for m in metrics:
                values[side][m["name"]].append(result["metrics"][m["name"]]["value"])
        print(f"pair {k + 1} ({order[0]} first): " + "  ".join(
            f"{m['name']} {values['parent'][m['name']][-1]:.5g}/"
            f"{values['change'][m['name']][-1]:.5g}" for m in metrics), flush=True)

    print(f"{ns.workload}, seed {ns.seed}, {ns.pairs} pairs (parent/change):")
    for m in metrics:
        v = verdict(values["parent"][m["name"]], values["change"][m["name"]], m["better"])
        p, c = v["parent"], v["change"]
        print(f"  {m['name']} ({m['unit']}, {m['better']} is better): "
              f"parent {p['median']:.5g} [{p['q1']:.5g}, {p['q3']:.5g}], "
              f"change {c['median']:.5g} [{c['q1']:.5g}, {c['q3']:.5g}]; "
              f"change wins {v['wins']}/{v['pairs']}, median gain {v['gap']:.3g} "
              f"against parent IQR {v['parent_iqr']:.3g}: "
              + {True: "meets the claim rule", False: "does not meet the claim rule",
                 None: f"not decided (fewer than {MIN_PAIRS} pairs)"}[v["meets"]])
    return 0


if __name__ == "__main__":
    sys.exit(main())
