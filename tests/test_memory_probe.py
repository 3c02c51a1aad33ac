"""tools/memory_probe.py runs each job in a fresh process and rotates the trees."""
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def probe():
    path = ROOT / "tools" / "memory_probe.py"
    spec = importlib.util.spec_from_file_location("memory_probe", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_job_reports_its_peak_seconds_and_result(probe, monkeypatch):
    monkeypatch.setitem(probe.JOBS, "tiny",
                        "result = {'members': load_preset('boom_bust').size}")
    run = probe.run_job(ROOT, "tiny")
    assert run["result"] == {"members": 2}
    assert run["max_rss_mb"] > 0.0 and run["seconds"] >= 0.0


def test_trees_take_turns_going_first(probe, monkeypatch, capsys):
    calls = []

    def fake_run(root, job):
        calls.append((root.name, job))
        return {"max_rss_mb": 10.0 if root.name == "a" else 20.0, "seconds": 1.0,
                "result": {"job": job}}

    monkeypatch.setattr(probe, "run_job", fake_run)
    assert probe.main(["--root", str(ROOT / "a"), "--root", str(ROOT / "b"),
                       "--rounds", "2"]) == 0
    assert calls == [("a", "calibration"), ("b", "calibration"),
                     ("a", "far-scan"), ("b", "far-scan"),
                     ("b", "calibration"), ("a", "calibration"),
                     ("b", "far-scan"), ("a", "far-scan")]
    out = capsys.readouterr().out
    assert out.startswith("nproc ")
    assert f"median over 2: far-scan {ROOT / 'b'}: max_rss_mb 20.0 seconds 1.00" in out
