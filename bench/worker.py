"""The measured process: set up, run rounds of one workload, report timings.

Started by ``run.py`` in a fresh single-threaded process.  Modes:

- ``setup``: import sibdep, build every ensemble the workload uses, fill
  their first-use caches, and report how long that took and how long the
  workload's reference kernel took just after.
- ``run``: set up, then run whole rounds until ``--seconds`` have passed
  (at least one cycle of rounds), and report each operation's time and the
  reference kernel's time around it.
- ``trace``: set up, then run one untraced cycle, a traced round, another
  untraced round and an untraced round at two workers, all but the cycle on
  the inputs of round 0, and report the layer metrics.  Tracing overhead and
  the two-worker speed-up are measured against the faster untraced round on
  those inputs, all in units of the reference kernel (``calib.py``).

Results go to the files the operations write under ``--work``; timings and
the peak resident memory go to the ``--report`` JSON file.  The process
checks nothing itself: the checks run in ``run.py``, so their cost and memory
stay out of this process.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.

    ``ru_maxrss`` would not do: Linux carries the parent's peak into a child
    across fork and exec, and the parent holds the references.
    """
    with open("/proc/self/status", encoding="utf-8", errors="replace") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def set_up(ops):
    """Import the program and build every ensemble the operations use."""
    import sibdep.cli  # noqa: F401  (the entry point every command goes through)
    from sibdep.env_model import load_ensemble
    from sibdep.presets import load_preset

    ensembles = {}
    for src in wl.config_sources(ops):
        if src.startswith("preset:"):
            ensembles[src] = load_preset(src[len("preset:"):])
        else:
            ensembles[src] = load_ensemble(src)
    for ens in ensembles.values():
        for env in ens.members:
            env._sibship_counts   # built on first use by the coupled route
    return ensembles


def run_cli(op, out: Path):
    from sibdep import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(op.argv) + ["--out", str(out)])
    return rc, buf.getvalue()


def run_coupled(op, ensembles, seed):
    from sibdep import simulator
    from sibdep.rng import RngStream
    ens = ensembles[f"preset:{op.preset}"]
    return [simulator.simulate_macro_coupled(ens, 1, wl.COUPLED_HORIZON,
                                             RngStream(seed, rep).generator())
            for rep in range(op.first_stream, op.first_stream + wl.COUPLED_TRAJECTORIES)]


def save_coupled(trajectories, out: Path):
    """Stack one operation's trajectories into .npy files, outside the timing."""
    import numpy as np
    out.mkdir(parents=True, exist_ok=True)
    np.save(out / "micro.npy", np.array([[s.counts for s in m] for m, _ in trajectories]))
    np.save(out / "macro.npy", np.array([[s.counts for s in g] for _, g in trajectories]))
    np.save(out / "zeta.npy", np.array([[s.zeta for s in m] for m, _ in trajectories]))


def run_round(ops, ensembles, seed, out: Path, ref, tracer=None):
    """One pass over the operations; returns (wall seconds, per-op records).

    The wall time is the sum of the operations' times: a library call's
    results are stored between operations, outside the timing.  ``ref``
    times the workload's reference kernel (``calib.py``); it runs after each
    operation, and an operation's ``ref`` is the mean of the kernel times
    just before and just after it.
    """
    records = []
    for op in ops:
        call = (run_cli, op, out / op.name) if op.argv else (run_coupled, op, ensembles, seed)
        t = time.perf_counter()
        if tracer is None:
            result = call[0](*call[1:])
        else:
            result = tracer.run(f"op.{op.name}", *call)
        seconds = time.perf_counter() - t
        if op.argv:
            rc, stdout = result
        else:
            rc, stdout = 0, ""
            save_coupled(result, out / op.name)
        del result
        records.append({"name": op.name, "rc": rc, "seconds": seconds,
                        "ref": ref.around()})
    return sum(r["seconds"] for r in records), records


class Reference:
    """The workload's reference kernel, timed in a chain: each timing is the
    one after an operation and the one before the next."""

    def __init__(self, workload):
        from calib import reference
        self.time = lambda: reference(workload)
        self.last = self.time()

    def around(self) -> float:
        before, self.last = self.last, self.time()
        return (before + self.last) / 2.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True, help="directory of inputs and outputs")
    ap.add_argument("--report", required=True, help="JSON file to write")
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--spans", help="JSON file for the traced round's spans")
    ns = ap.parse_args(argv)

    work = Path(ns.work)
    cycle = wl.cycle(ns.workload)
    ops = [wl.operations(ns.workload, ns.seed, str(work), k) for k in range(cycle)]
    ensembles = set_up(ops[0])
    report = {"setup_s": time.perf_counter() - _T0}
    # the host's speed just after set-up, outside its timing
    ref = Reference(ns.workload)
    report["setup_ref"] = ref.around()
    rounds = []

    def timed(name, index, tracer=None):
        """Run a round; returns its time at the reference host's speed."""
        from calib import REF_SECONDS
        wall, records = run_round(ops[index], ensembles, ns.seed, work / name, ref, tracer)
        rounds.append({"dir": name, "index": index, "wall": wall, "ops": records})
        return REF_SECONDS * sum(r["seconds"] / r["ref"] for r in records)

    if ns.mode == "run":
        start = time.perf_counter()
        while len(rounds) < cycle or time.perf_counter() - start < ns.seconds:
            timed(f"round{len(rounds)}", len(rounds) % cycle)
    elif ns.mode == "trace":
        from spans import Tracer
        first = timed("untraced0", 0)
        for k in range(1, cycle):
            timed(f"untraced{k}", k)
        tracer = Tracer()
        tracer.install()
        try:
            traced = timed("traced", 0, tracer)
        finally:
            tracer.uninstall()
        again = timed("untraced_again", 0)
        base = min(first, again)
        os.environ["SIBDEP_WORKERS"] = "2"
        try:
            two = timed("two_workers", 0)
        finally:
            del os.environ["SIBDEP_WORKERS"]
        metrics = tracer.layer_metrics()
        metrics["rng.run_chunked.speedup_2w"] = base / two
        metrics["trace.overhead_s"] = traced - base
        report["layers"] = metrics
        if ns.spans:
            Path(ns.spans).write_text(json.dumps(tracer.span_records()), encoding="utf-8")
    report["rounds"] = rounds
    report["peak_rss_mb"] = peak_rss_mb()
    Path(ns.report).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
