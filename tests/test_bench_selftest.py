"""The benchmark loads tests/oracles.py by path and wraps the package's layer
functions by name; these tests guard both uses."""
import importlib.util
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


def test_bench_tracer_installs_and_restores_every_layer():
    # a renamed or deleted layer name fails install() here, not only in a traced run
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    from sibdep import spectral

    kernel = spectral._indexed_log_norms
    tracer = spans.Tracer()
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
