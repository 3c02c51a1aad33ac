"""tools/bench_record.py refuses what it cannot record faithfully, before any run."""
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


@pytest.fixture
def recorder(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def no_run(*args):
        raise AssertionError("the recorder ran the benchmark")

    monkeypatch.setattr(module, "run_once", no_run)
    return module


def test_label_outside_the_file_name_alphabet_is_an_error(recorder, capsys):
    with pytest.raises(SystemExit) as exc:
        recorder.main(["--label", "a b"])
    assert exc.value.code == 2
    assert "label 'a b'" in capsys.readouterr().err
    assert not (recorder.REPO / "BENCH_a b.json").exists()


def test_untracked_source_file_is_an_error(recorder, tmp_path, capsys):
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "extra.py").write_text("", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        recorder.main(["--label", "untracked-check", "--root", str(tmp_path)])
    assert exc.value.code == 2
    assert "untracked files under the measured paths: ['src/extra.py']" in capsys.readouterr().err
    assert not (recorder.REPO / "BENCH_untracked-check.json").exists()


@pytest.mark.parametrize("argv, seed", [((), 1), (("--seed", "9001"), 9001)])
def test_seed_reaches_every_run_and_the_entry(recorder, monkeypatch, tmp_path, argv, seed):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    metrics = [{"name": "wall_s", "unit": "s"}, {"name": "peak_rss_mb", "unit": "MB"}]
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 2, "workloads": [{"name": "a"}, {"name": "b"}],
        "end_to_end": metrics}), encoding="utf-8")
    subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t",
                    "commit", "-q", "--allow-empty", "-m", "empty"], check=True)
    seeds = []

    def fake_run(root, workload, run_seed, seconds):
        seeds.append(run_seed)
        record = {"nproc": 2, "python": "3", "numpy": "2", "src_lines": 10}
        result = {"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {m["name"]: {"value": float(len(seeds))} for m in metrics}}
        return record, result

    monkeypatch.setattr(recorder, "run_once", fake_run)
    monkeypatch.setattr(recorder, "REPO", tmp_path)
    assert recorder.main(["--label", "seeded", "--root", str(tmp_path), *argv]) == 0
    assert seeds == [seed] * 2 * recorder.RUNS
    entry = json.loads((tmp_path / "BENCH_seeded.json").read_text(encoding="utf-8"))
    assert entry["seed"] == seed
    assert entry["dont_write_bytecode"] is True
    assert entry["command"] == f"bench/run.py --workload W --seed {seed} --seconds 2 --trace 0"
    assert entry["workloads"]["b"]["metrics"]["wall_s"]["values"] == [2.0, 4.0, 6.0, 8.0, 10.0]
