"""The benchmark loads tests/oracles.py by path and wraps the package's layer
functions by name; these tests guard both uses."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_checks_pass_their_selftest():
    # an edit to the shared oracles that breaks a benchmark check fails here
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "19 of 19" in done.stdout, done.stdout


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_bench_tracer_installs_and_restores_every_layer():
    # a renamed or deleted layer name fails install() here, not only in a traced run
    from sibdep import spectral

    kernel = spectral._indexed_log_norms
    tracer = load_spans().Tracer()
    try:   # a half-done install is undone too
        tracer.install()
        patched = list(tracer._patches)
        assert spectral._indexed_log_norms is not kernel
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, (owner, attr)
    assert spectral._indexed_log_norms is kernel


def test_bench_tracer_sees_every_calibration_kernel_call():
    # the brackets share the first bisection step's kernel call and each later
    # step takes one more; a local alias of the kernel would hide calls from
    # spectral.log_norms
    from sibdep import spectral
    from sibdep.presets import load_preset

    boom, bust = load_preset("boom_bust").members
    tracer = load_spans().Tracer()
    try:
        tracer.install()
        res = spectral.calibrate_critical_pair(boom, bust, tol=5e-2, horizon=40,
                                               replicas=16, seed=0)
    finally:
        tracer.uninstall()
    calls, _ = tracer.self_times()
    assert res.iterations >= 1
    assert calls["spectral.log_norms"] == res.iterations
    assert tracer.counts["spectral.calibrate.iterations"] == res.iterations


def test_bench_worker_saves_one_coupled_operation():
    # the worker reads Environment._sibship_counts and a Trajectory's rows;
    # a change there fails here, not only in a full benchmark run
    script = """
import importlib.util, json, sys, tempfile
from pathlib import Path
import numpy as np
spec = importlib.util.spec_from_file_location("bench_worker", sys.argv[1])
worker = importlib.util.module_from_spec(spec)
spec.loader.exec_module(worker)
wl = worker.wl
with tempfile.TemporaryDirectory() as tmp:
    ops = wl.operations("coupled-bookkeeping", 1, tmp, 0)
    op = ops[0]
    ensembles = worker.set_up(ops)
    worker.save_coupled(worker.run_coupled(op, ensembles, 1), Path(tmp) / op.name)
    shapes = {n: np.load(Path(tmp) / op.name / f"{n}.npy").shape
              for n in ("micro", "macro", "zeta")}
print(json.dumps({"shapes": shapes, "order": ensembles[f"preset:{op.preset}"].order,
                  "trajectories": wl.COUPLED_TRAJECTORIES, "horizon": wl.COUPLED_HORIZON}))
"""
    done = subprocess.run([sys.executable, "-c", script, str(ROOT / "bench" / "worker.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    got = json.loads(done.stdout)
    rows = (got["trajectories"], got["horizon"] + 1)
    assert got["shapes"] == {"micro": [*rows, got["order"]], "macro": [*rows, got["order"]],
                             "zeta": list(rows)}
