"""The benchmark loads tests/oracles.py by path; its self-test guards that use."""
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
