"""tools/bench_record.py refuses what it cannot record faithfully, before any run."""
import importlib.util
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
