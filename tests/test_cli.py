"""Command line surface: exit codes, artifacts, hashing, determinism."""
import hashlib
import importlib.metadata
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10, where pytest itself depends on tomli
    import tomli as tomllib

from sibdep.cli import main, verify_run_dir
from sibdep.presets import preset_path


def run_cli(capsys, *argv):
    rc = main(list(argv))
    return rc, capsys.readouterr().out


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def csv_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# config_hash=")
    header = lines[1].split(",")
    return lines[0].removeprefix("# config_hash="), header, [
        ln.split(",") for ln in lines[2:]]


def test_validate_accepts_bundled_config(capsys):
    rc, out = run_cli(capsys, "validate", "--config", "preset:critical")
    doc = json.loads(out)
    assert rc == 0
    assert doc["ok"] is True
    assert doc["order"] == 2
    assert [m["label"] for m in doc["members"]] == ["flood", "ebb"]
    assert all(law["ok"] for m in doc["members"] for law in m["laws"])


def test_validate_reports_weight_defect(capsys, tmp_path):
    doc = read_json(preset_path("deterministic_line"))
    doc["environments"][0]["laws"][0]["atoms"][0]["weight"] = 1.1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    rc, out = run_cli(capsys, "validate", "--config", str(bad))
    report = json.loads(out)
    assert rc == 1
    assert report["ok"] is False
    assert "defect" in report["error"]


def test_unreadable_configs_exit_2(capsys, tmp_path):
    rc, out = run_cli(capsys, "moments", "--config", str(tmp_path / "no.json"))
    assert rc == 2
    assert json.loads(out)["error"]["type"] == "FileNotFoundError"

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{ nope", encoding="utf-8")
    rc, out = run_cli(capsys, "moments", "--config", str(garbled))
    err = json.loads(out)["error"]
    assert rc == 2
    assert err["type"] == "EnsembleFormatError"
    assert "line 1" in err["message"]

    rc, out = run_cli(capsys, "moments", "--config", "preset:zzz")
    assert rc == 2
    assert "available" in json.loads(out)["error"]["message"]


def test_moments_payload_on_stdout(capsys):
    rc, out = run_cli(capsys, "moments", "--config", "preset:supercritical")
    doc = json.loads(out)
    assert rc == 0
    assert len(doc["config_hash"]) == 64
    mean = doc["mixture"]["mean"]
    assert mean[0] == pytest.approx([0.3, 1.0], abs=1e-12)
    assert mean[1] == pytest.approx([0.45, 0.5], abs=1e-12)
    assert doc["mixture"]["perron_root"] == pytest.approx(1.078233, abs=1e-6)


def test_moments_on_periodic_mean_matrix(capsys, tmp_path):
    # one member whose mean matrix is [[0, 2], [1, 0]], with roots +-sqrt 2
    doc = {"N": 2, "label": "periodic", "environments": [{
        "weight": 1.0, "label": "swap", "laws": [
            {"group_size": 1, "atoms": [{"tuple": [2], "weight": 1.0}]},
            {"group_size": 2, "atoms": [{"tuple": [1, 1], "weight": 1.0}]}]}]}
    cfg = tmp_path / "periodic.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    rc, out = run_cli(capsys, "moments", "--config", str(cfg))
    payload = json.loads(out)
    assert rc == 0
    assert payload["mixture"]["mean"] == [[0.0, 2.0], [1.0, 0.0]]
    assert payload["mixture"]["perron_root"] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert payload["members"][0]["perron_root"] == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_run_directory_artifacts_and_verification(capsys, tmp_path):
    args = ("survival", "--config", "preset:critical", "--horizon", "8",
            "--replicas", "256")
    out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    rc, text = run_cli(capsys, *args, "--out", str(out_a))
    assert rc == 0
    assert text.startswith("survival:") and "{" not in text

    manifest = read_json(out_a / "manifest.json")
    assert manifest["results"] == ["survival.csv", "survival.json"]
    assert manifest["command"] == "survival"
    assert verify_run_dir(out_a)["ok"] is True

    run_cli(capsys, *args, "--out", str(out_b))
    for name in ("survival.json", "survival.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    run_cli(capsys, *args, "--seed", "5", "--out", str(out_c))
    assert read_json(out_c / "survival.json")["config_hash"] != \
        manifest["config_hash"]

    # tampering with a result file must show up in verification
    body = (out_a / "survival.csv").read_text(encoding="utf-8").splitlines()
    body[0] = "# config_hash=" + "0" * 64
    (out_a / "survival.csv").write_text("\n".join(body) + "\n", encoding="utf-8")
    report = verify_run_dir(out_a)
    assert report["ok"] is False
    assert report["mismatches"][0]["problem"] == "config hash mismatch"

    (out_b / "survival.json").unlink()
    missing = verify_run_dir(out_b)
    assert missing["ok"] is False
    assert {"file": "survival.json", "problem": "missing"} in missing["mismatches"]


def test_manifest_digests_catch_edited_results(capsys, tmp_path):
    run_cli(capsys, "survival", "--config", "preset:critical", "--horizon", "8",
            "--replicas", "256", "--out", str(tmp_path))
    manifest = read_json(tmp_path / "manifest.json")
    assert manifest["results"] == ["survival.csv", "survival.json"]
    assert manifest["sha256"] == {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in manifest["results"]}

    # edits that keep the embedded config hash are caught by the digests alone
    doc = read_json(tmp_path / "survival.json")
    doc["value"] = 9.16
    (tmp_path / "survival.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n",
                                            encoding="utf-8")
    lines = (tmp_path / "survival.csv").read_text(encoding="utf-8").splitlines()
    cells = lines[-1].split(",")
    cells[2] = "0.9"
    lines[-1] = ",".join(cells)
    (tmp_path / "survival.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    report = verify_run_dir(tmp_path)
    assert report["ok"] is False
    assert [(m["file"], m["problem"]) for m in report["mismatches"]] == [
        ("survival.csv", "digest mismatch"), ("survival.json", "digest mismatch")]
    assert report["mismatches"][0]["recorded"] == manifest["sha256"]["survival.csv"]


def test_survival_rejects_replica_floor(capsys):
    rc, out = run_cli(capsys, "survival", "--config", "preset:critical",
                      "--replicas", "1")
    err = json.loads(out)["error"]
    assert rc == 1
    assert err["type"] == "ValueError"
    assert err["message"] == "replicas >= 2 required"


def test_paths_rejects_cap_past_int64(capsys):
    rc, out = run_cli(capsys, "paths", "--config", "preset:supercritical",
                      "--cap", "9223372036854775807")
    err = json.loads(out)["error"]
    assert rc == 1
    assert err["type"] == "ValueError"
    assert err["message"].endswith("the largest cap allowed is 4611686018427387903")


@pytest.mark.parametrize("alpha", ["0", "-1.5"])
def test_scan_rejects_nonpositive_alpha(capsys, tmp_path, alpha):
    rc, out = run_cli(capsys, "scan", "--config", "preset:subcritical",
                      "--horizons", "2,4", "--replicas", "16",
                      "--alpha", alpha, "--out", str(tmp_path))
    err = json.loads(out)["error"]
    assert rc == 1
    assert err == {"type": "ValueError", "message": "alpha must be positive"}


def test_scan_csv_is_parseable_and_consistent(capsys, tmp_path):
    rc, _ = run_cli(capsys, "scan", "--config", "preset:subcritical",
                    "--horizons", "2,4,8", "--replicas", "256",
                    "--out", str(tmp_path))
    assert rc == 0
    chash, header, rows = csv_rows(tmp_path / "scan.csv")
    assert header == ["horizon", "estimate", "stderr", "scaled"]
    assert len(rows) == 3
    payload = read_json(tmp_path / "scan.json")
    assert payload["config_hash"] == chash
    for row, jrow in zip(rows, payload["rows"]):
        h, est, _, scaled = (float(v) for v in row)
        assert h == jrow["horizon"]
        assert est == jrow["estimate"]           # .17g round-trips exactly
        assert scaled == pytest.approx(math.sqrt(h) * est, rel=1e-15)


def test_calibrate_command_and_member_count_guard(capsys, tmp_path):
    rc, _ = run_cli(capsys, "calibrate", "--config", "preset:boom_bust",
                    "--tol", "1e-2", "--horizon", "400", "--replicas", "128",
                    "--out", str(tmp_path))
    assert rc == 0
    payload = read_json(tmp_path / "calibrate.json")
    assert 0.0 < payload["weight"] < 1.0
    _, _, rows = csv_rows(tmp_path / "calibrate.csv")
    assert len(rows) == payload["iterations"] + 2
    assert verify_run_dir(tmp_path)["ok"] is True

    rc, out = run_cli(capsys, "calibrate", "--config", "preset:supercritical")
    assert rc == 1
    assert "two-member" in json.loads(out)["error"]["message"]


def test_lyapunov_optional_sections(capsys):
    rc, out = run_cli(capsys, "lyapunov", "--config", "preset:subcritical_mix",
                      "--horizon", "64", "--replicas", "32",
                      "--theta", "1.0", "--derivative")
    doc = json.loads(out)
    assert rc == 0
    assert set(doc) >= {"growth_rate", "moment_growth", "moment_growth_slope"}
    assert doc["growth_rate"]["value"] < 0.0
    assert doc["moment_growth"]["theta"] == 1.0
    assert math.isfinite(doc["moment_growth_slope"]["value"])


def test_conditions_artifact(capsys, tmp_path):
    rc, _ = run_cli(capsys, "conditions", "--config", "preset:critical",
                    "--horizon", "64", "--replicas", "32",
                    "--out", str(tmp_path))
    assert rc == 0
    payload = read_json(tmp_path / "conditions.json")
    assert len(payload["checks"]) == 12
    assert verify_run_dir(tmp_path)["ok"] is True


def test_paths_and_condsize_artifacts(capsys, tmp_path):
    rc, _ = run_cli(capsys, "paths", "--config", "preset:supercritical",
                    "--horizon", "8", "--replicas", "64",
                    "--out", str(tmp_path / "p"))
    assert rc == 0
    payload = read_json(tmp_path / "p" / "paths.json")
    _, _, rows = csv_rows(tmp_path / "p" / "paths.csv")
    assert len(rows) == payload["survivors"]
    assert all(float(endpoint) >= 0.0 for _, endpoint in rows)

    rc, _ = run_cli(capsys, "condsize", "--config", "preset:supercritical",
                    "--horizon", "6", "--replicas", "512",
                    "--method", "direct", "--out", str(tmp_path / "c"))
    assert rc == 0
    _, header, rows = csv_rows(tmp_path / "c" / "condsize.csv")
    assert header == ["size", "probability"]
    assert sum(float(p) for _, p in rows) == pytest.approx(1.0, abs=1e-12)


def test_json_only_format_skips_csv(capsys, tmp_path):
    rc, _ = run_cli(capsys, "survival", "--config", "preset:critical",
                    "--horizon", "4", "--replicas", "64",
                    "--format", "json", "--out", str(tmp_path))
    assert rc == 0
    assert not (tmp_path / "survival.csv").exists()
    assert read_json(tmp_path / "manifest.json")["results"] == ["survival.json"]


CHILD_TIMEOUT_S = 60


def declared_console_script(name):
    """The console-script entry point the package declares under `name`.

    Read from the installed distribution's metadata when there is one,
    otherwise from [project.scripts] in pyproject.toml, which is what an
    install turns into the generated wrapper.
    """
    found = importlib.metadata.entry_points(group="console_scripts", name=name)
    if found:
        return next(iter(found))
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    return importlib.metadata.EntryPoint(
        name=name, value=scripts[name], group="console_scripts")


def test_installed_entry_points():
    module = subprocess.run(
        [sys.executable, "-m", "sibdep.cli", "moments",
         "--config", "preset:critical"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    assert module.returncode == 0, module.stderr
    assert json.loads(module.stdout)["order"] == 2

    # Run the declared target the way the generated console script does.
    entry = declared_console_script("sibdep")
    wrapper = (f"import sys; from {entry.module} import {entry.attr}; "
               f"sys.exit({entry.attr}())")
    script = subprocess.run(
        [sys.executable, "-c", wrapper, "validate",
         "--config", "preset:critical"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    assert script.returncode == 0, script.stderr
    assert json.loads(script.stdout)["ok"] is True


@pytest.mark.skipif(shutil.which("sibdep") is None,
                    reason="the sibdep executable exists only where the "
                           "package is installed")
def test_installed_console_script_executable():
    script = subprocess.run(
        ["sibdep", "validate", "--config", "preset:critical"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    assert script.returncode == 0, script.stderr
    assert json.loads(script.stdout)["ok"] is True
