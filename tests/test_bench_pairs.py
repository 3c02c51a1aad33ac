"""tools/bench_pairs.py alternates the two trees and applies the claim rule."""
import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture
def pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOLS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("parent, change, meets", [
    ([2.0] * 10, [1.0] * 9 + [3.0], True),           # 9 of 10 wins
    ([2.0] * 10, [1.0] * 8 + [3.0] * 2, False),      # 8 of 10 wins
    ([2.0, 3.0] * 5, [1.9, 2.9] * 5, False),         # 10 wins, a gap inside the IQR
    ([2.0, 2.1, 2.2], [1.0, 1.1, 1.2], None),        # 3 of 3 wins beyond the IQR: too few
    ([2.0] * 9, [1.0] * 9, None),                    # 9 of 9 wins: still too few
])
def test_verdict_needs_nine_wins_in_ten_and_a_gap_beyond_the_iqr(pairs, parent, change, meets):
    assert pairs.verdict(parent, change, "lower")["meets"] is meets
    flipped = pairs.verdict([-p for p in parent], [-c for c in change], "higher")
    assert flipped["meets"] is meets


def test_sides_alternate_and_each_metric_gets_its_verdict(pairs, monkeypatch, tmp_path, capsys):
    spec = {"run_seconds": 3, "workloads": [{"name": "w"}],
            "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower"},
                           {"name": "setup_s", "unit": "s", "better": "lower"}]}
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec), encoding="utf-8")
    calls = []

    def fake_run(root, workload, seed, seconds):
        calls.append((root.name, workload, seed, seconds))
        k = sum(name == root.name for name, *_ in calls) - 1   # this side's pair
        slow = root.name == "parent"
        wall = 2.0 if slow or k == 9 else 1.0        # the change wins 9 of 10
        setup = 2.0 if slow or k >= 8 else 1.0       # the change wins 8 of 10
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"wall_s": {"value": wall}, "setup_s": {"value": setup}}}
        return {}, result

    monkeypatch.setattr(pairs, "run_once", fake_run)
    assert pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                       str(tmp_path / "change"), "--workload", "w", "--seed", "9001"]) == 0
    assert [name for name, *_ in calls] == ["parent", "change", "change", "parent"] * 5
    assert {tuple(rest) for _, *rest in calls} == {("w", 9001, 3)}
    out = capsys.readouterr().out
    assert "wall_s (s, lower is better)" in out
    assert "change wins 9/10, median gain 1 against parent IQR 0: meets the claim rule" in out
    assert "change wins 8/10, median gain 1 against parent IQR 0: does not meet" in out


def test_fewer_than_ten_pairs_print_no_claim_verdict(pairs, monkeypatch, tmp_path, capsys):
    spec = {"run_seconds": 3, "workloads": [{"name": "w"}],
            "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower"}]}
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec), encoding="utf-8")
    walls = iter([2.0, 1.0, 1.1, 2.1, 2.2, 1.2])   # the change wins 3 of 3

    def fake_run(root, workload, seed, seconds):
        return {}, {"correct": True, "attempted": 1, "failed": 0,
                    "metrics": {"wall_s": {"value": next(walls)}}}

    monkeypatch.setattr(pairs, "run_once", fake_run)
    assert pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                       str(tmp_path / "change"), "--workload", "w", "--pairs", "3"]) == 0
    out = capsys.readouterr().out
    assert ("change wins 3/3, median gain 1 against parent IQR 0.1: "
            "not decided (fewer than 10 pairs)") in out
    assert "meets the claim rule" not in out
