"""Command line surface: exit codes, artifacts, hashing, determinism."""
import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10, where pytest itself depends on tomli
    import tomli as tomllib

from sibdep.cli import build_parser, hashed_options, main, verify_run_dir
from sibdep.presets import PRESET_NAMES, load_preset, preset_path
from sibdep.spectral import estimate_lambda_theta, estimate_lyapunov, lambda_prime_at_one


# every artifact-writing command at a size that runs in milliseconds
TINY_RUNS = {
    "moments": ("moments", "--config", "preset:critical"),
    "lyapunov": ("lyapunov", "--config", "preset:subcritical_mix", "--horizon", "16",
                 "--replicas", "8", "--theta", "1.5"),
    "conditions": ("conditions", "--config", "preset:critical", "--horizon", "16",
                   "--replicas", "8"),
    "calibrate": ("calibrate", "--config", "preset:boom_bust", "--tol", "0.1",
                  "--horizon", "50", "--replicas", "16"),
    "survival": ("survival", "--config", "preset:critical", "--horizon", "4",
                 "--replicas", "64"),
    "scan": ("scan", "--config", "preset:subcritical", "--horizons", "2,4",
             "--replicas", "64"),
    "paths": ("paths", "--config", "preset:supercritical", "--horizon", "8",
              "--replicas", "64"),
    "condsize": ("condsize", "--config", "preset:supercritical", "--horizon", "6",
                 "--replicas", "512", "--method", "direct"),
}
CSV_COMMANDS = ("survival", "scan", "paths", "condsize", "calibrate")

# one changed value per hashed option, appended after the tiny run's own
# arguments so that it overrides them
OPTION_CHANGES = {
    "moments": {},
    "lyapunov": {"--horizon": "17", "--replicas": "9", "--theta": "1.25",
                 "--derivative": None, "--step": "0.2", "--macro": None},
    "conditions": {"--horizon": "17", "--replicas": "9", "--theta": "0.5",
                   "--eps": "0.2", "--alpha": "1.5"},
    "calibrate": {"--tol": "0.2", "--horizon": "51", "--replicas": "17",
                  "--max-iter": "30"},
    "survival": {"--initial-type": "2", "--horizon": "5", "--replicas": "65",
                 "--method": "particle"},
    "scan": {"--initial-type": "2", "--horizons": "2,5", "--replicas": "65",
             "--alpha": "1.5"},
    "paths": {"--initial-type": "2", "--horizon": "9", "--replicas": "65",
              "--alpha": "1.5", "--cap": "1000000"},
    "condsize": {"--initial-type": "2", "--horizon": "7", "--replicas": "513",
                 "--method": "resample"},
}


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


@pytest.mark.parametrize("atoms, defect, line", [
    ([{"tuple": [1], "weight": 1.1}], "normalization_defect", "defect"),
    ([{"tuple": [1], "weight": 1.5}, {"tuple": [0], "weight": -0.5}], "negative_weights",
     "negative weight -0.5"),
    ([{"tuple": [2], "weight": 1.0}], "out_of_range", "outside 0..order"),
])
def test_validate_prints_the_per_law_reports(capsys, tmp_path, atoms, defect, line):
    doc = read_json(preset_path("deterministic_line"))
    doc["environments"][0]["laws"][0]["atoms"] = atoms
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    rc, out = run_cli(capsys, "validate", "--config", str(bad))
    report = json.loads(out)
    assert rc == 1
    assert report["ok"] is False
    assert report["error"].startswith("environments[0]: environment line rejected")
    assert line in report["error"]
    law = report["reports"]["1"]
    assert law["group_size"] == 1
    assert law["ok"] is False
    assert law[defect]


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


@pytest.mark.parametrize("raw", [
    b'{"N": ' + b"1" * 5000 + b"}",          # past the integer conversion limit
    b'{"N": 1, "label": "\xff"}',             # not UTF-8
    b"[" * 100_000 + b"]" * 100_000,          # deeper than the parser recurses
], ids=["long-integer", "not-utf8", "deep-nesting"])
def test_undecodable_configs_exit_2_naming_the_path(capsys, tmp_path, raw):
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(raw)
    rc, out = run_cli(capsys, "validate", "--config", str(cfg))
    err = json.loads(out)["error"]
    assert rc == 2
    assert err["type"] == "EnsembleFormatError"
    assert err["message"].startswith(f"{cfg}: unreadable JSON: ")


@pytest.mark.parametrize("edit, position", [
    (lambda doc: doc.update(N=True), "document root.N"),
    (lambda doc: doc["environments"][0]["laws"][0].update(group_size=True),
     "environments[0].laws[0].group_size"),
    (lambda doc: doc["environments"][0].update(weight=10 ** 400), "environments[0].weight"),
    (lambda doc: doc["environments"][0]["laws"][0]["atoms"][0].update(weight=10 ** 400),
     "environments[0].laws[0].atoms[0].weight"),
])
def test_validate_reports_a_wrong_json_kind_as_a_format_error(capsys, tmp_path, edit, position):
    doc = read_json(preset_path("deterministic_line"))
    assert doc["N"] == 1   # a bool group_size of 1 would pass an isinstance(int) check
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    rc, out = run_cli(capsys, "validate", "--config", str(bad))
    err = json.loads(out)["error"]
    assert rc == 2
    assert err["type"] == "EnsembleFormatError"
    assert err["message"].startswith(f"{position}: must be ")


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
    # every artifact-writing command: a rerun writes byte-identical result
    # files, and the run directory verifies against its manifest
    for command, tiny in TINY_RUNS.items():
        runs = [tmp_path / command / side for side in ("a", "b")]
        for out in runs:
            rc, text = run_cli(capsys, *tiny, "--out", str(out))
            assert rc == 0, command
            assert text.startswith(f"{command}:") and "{" not in text
        manifest = read_json(runs[0] / "manifest.json")
        assert manifest["command"] == command
        assert manifest["results"] == sorted(
            f"{command}.{ext}" for ext in ("json", "csv")
            if ext == "json" or command in CSV_COMMANDS)
        assert verify_run_dir(runs[0])["ok"] is True, command
        for name in manifest["results"]:
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name

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


@pytest.mark.parametrize("name, text", [
    ("survival.json", "not json"),
    ("survival.json", "[1,2]"),
    ("survival.csv", ""),
], ids=["json-unparsable", "json-not-an-object", "csv-emptied"])
def test_verify_run_dir_reports_files_edited_past_parsing(capsys, tmp_path, name, text):
    run_cli(capsys, "survival", "--config", "preset:critical", "--horizon", "4",
            "--replicas", "64", "--out", str(tmp_path))
    recorded = read_json(tmp_path / "manifest.json")["sha256"][name]
    (tmp_path / name).write_text(text, encoding="utf-8")
    report = verify_run_dir(tmp_path)
    assert report["ok"] is False
    assert report["mismatches"] == [
        {"file": name, "problem": "config hash mismatch", "embedded": None},
        {"file": name, "problem": "digest mismatch", "recorded": recorded}]


@pytest.mark.parametrize("text, problem", [
    (None, "missing"),
    ("not json", "malformed"),
    ("[1]", "malformed"),
    ("\"survival.json\"", "malformed"),
    ('{"results": ["survival.json"]}', "malformed"),
    ('{"config_hash": "00"}', "malformed"),
    ('{"config_hash": "00", "results": 5}', "malformed"),
    ('{"config_hash": "00", "results": [1]}', "malformed"),
    ('{"config_hash": "00", "results": "survival.json"}', "malformed"),
    ('{"config_hash": "00", "results": ["survival.json"], "sha256": [1]}', "malformed"),
    ('{"config_hash": "00", "results": ["survival.json"], "sha256": {"survival.json": 1}}',
     "malformed"),
    *((json.dumps({"config_hash": "00", "results": ["survival.json", name]}), "malformed")
      for name in ("../survival.json", "/etc/hostname", "sub/survival.json", "", ".", "..")),
], ids=["missing", "unparsable", "a-list", "a-string", "no-config-hash", "no-results",
        "results-a-number", "results-of-numbers", "results-a-string", "sha256-a-list",
        "sha256-of-numbers", "result-up-a-level", "result-absolute", "result-in-a-subdir",
        "result-empty", "result-dot", "result-dot-dot"])
def test_verify_run_dir_reports_a_bad_manifest(capsys, tmp_path, text, problem):
    run_cli(capsys, "survival", "--config", "preset:critical", "--horizon", "4",
            "--replicas", "64", "--out", str(tmp_path))
    manifest = tmp_path / "manifest.json"
    if text is None:
        manifest.unlink()
    else:
        manifest.write_text(text, encoding="utf-8")
    assert verify_run_dir(tmp_path) == {
        "out_dir": str(tmp_path), "config_hash": None, "checked": [],
        "mismatches": [{"file": "manifest.json", "problem": problem}], "ok": False}


def test_verify_run_dir_reads_nothing_outside_the_run_directory(capsys, tmp_path,
                                                                monkeypatch):
    # a manifest alone, naming another run's result with that run's hash and
    # digest, would verify if the name were read as a path
    run_cli(capsys, "moments", "--config", "preset:critical", "--out", str(tmp_path / "A"))
    theirs = read_json(tmp_path / "A" / "manifest.json")
    (tmp_path / "B").mkdir()
    (tmp_path / "B" / "manifest.json").write_text(json.dumps({
        "config_hash": theirs["config_hash"], "results": ["../A/moments.json"],
        "sha256": {"../A/moments.json": theirs["sha256"]["moments.json"]}}), encoding="utf-8")

    def no_reads(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr("sibdep.cli.file_digest", no_reads)
    report = verify_run_dir(tmp_path / "B")
    assert report["ok"] is False and report["checked"] == []
    assert report["mismatches"] == [{"file": "manifest.json", "problem": "malformed"}]


def test_verify_run_dir_refuses_a_result_that_is_a_link(capsys, tmp_path, monkeypatch):
    # a copy of run A's manifest beside a link to A's result would vouch for a
    # file outside the directory; write_manifest never writes links
    run_cli(capsys, "moments", "--config", "preset:critical", "--out", str(tmp_path / "A"))
    (tmp_path / "B").mkdir()
    shutil.copy(tmp_path / "A" / "manifest.json", tmp_path / "B" / "manifest.json")
    (tmp_path / "B" / "moments.json").symlink_to(tmp_path / "A" / "moments.json")

    def no_reads(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr("sibdep.cli.file_digest", no_reads)
    report = verify_run_dir(tmp_path / "B")
    assert report["ok"] is False and report["checked"] == ["moments.json"]
    assert report["mismatches"] == [{"file": "moments.json", "problem": "not a regular file"}]


@pytest.mark.parametrize("argv, kind", [
    (("validate", "--config", "{dir}"), "IsADirectoryError"),
    (("survival", "--config", "{dir}", "--horizon", "4", "--replicas", "16"),
     "IsADirectoryError"),
    (("moments", "--config", "preset:critical", "--out", "{file}"), "FileExistsError"),
], ids=["validate-a-directory", "survival-a-directory", "out-an-existing-file"])
def test_unreadable_or_unwritable_paths_exit_2(capsys, tmp_path, argv, kind):
    (tmp_path / "file").write_text("", encoding="utf-8")
    argv = [a.format(dir=tmp_path, file=tmp_path / "file") for a in argv]
    rc, out = run_cli(capsys, *argv)
    assert rc == 2
    assert json.loads(out)["error"]["type"] == kind


def test_survival_rejects_replica_floor(capsys):
    rc, out = run_cli(capsys, "survival", "--config", "preset:critical",
                      "--replicas", "1")
    err = json.loads(out)["error"]
    assert rc == 1
    assert err["type"] == "ValueError"
    assert err["message"] == "replicas >= 2 required"


@pytest.mark.parametrize("argv, message", [
    (("survival", "--initial-type", "0"), "initial type 0 outside 1..2"),
    (("survival", "--initial-type", "3"), "initial type 3 outside 1..2"),
    (("scan", "--initial-type", "0"), "initial type 0 outside 1..2"),
    (("scan", "--initial-type", "3"), "initial type 3 outside 1..2"),
    (("calibrate", "--horizon", "0"), "horizon must be at least 1"),
    (("calibrate", "--horizon", "-3"), "horizon must be at least 1"),
    (("calibrate", "--replicas", "0"), "replicas must be positive"),
    (("calibrate", "--tol", "-1"), "tol must be positive and finite"),
    (("calibrate", "--tol", "0"), "tol must be positive and finite"),
    (("calibrate", "--tol", "nan"), "tol must be positive and finite"),
    (("calibrate", "--tol", "inf"), "tol must be positive and finite"),
    (("calibrate", "--max-iter", "0"), "max_iter must be at least 1"),
    (("scan", "--alpha", "nan"), "alpha must be finite"),
    (("scan", "--alpha", "inf"), "alpha must be finite"),
    (("paths", "--alpha", "nan"), "alpha must be finite"),
    (("paths", "--alpha", "inf"), "alpha must be finite"),
    (("lyapunov", "--theta", "nan"), "theta must be finite"),
    (("lyapunov", "--theta", "inf"), "theta must be finite"),
    (("lyapunov", "--derivative", "--step", "nan"),
     "step must lie in (0, 1) so both exponents stay positive"),
    (("conditions", "--theta", "nan"), "theta must be finite"),
    (("conditions", "--eps", "inf"), "eps must be finite"),
    (("conditions", "--alpha=-inf"), "alpha must be finite"),
    (("lyapunov", "--config", "preset:supercritical", "--theta", "1e300",
      "--horizon", "8", "--replicas", "8"),
     "the theta=1e+300 moment growth rate overflows a float"),
    (("scan", "--alpha", "1e-300", "--horizons", "2,4", "--replicas", "16"),
     "the scaled column horizon**(1/alpha) overflows a float at alpha=1e-300"),
    (("conditions", "--eps", "1e4", "--horizon", "8", "--replicas", "8"),
     "the eps=10000.0 log curvature moment overflows a float"),
    (("paths", "--config", "preset:supercritical", "--alpha", "1e-300",
      "--horizon", "8", "--replicas", "64"),
     "the path scale horizon**(-1/alpha) underflows to 0 at alpha=1e-300"),
    (("scan", "--alpha", "5e-324", "--horizons", "2,4", "--replicas", "16"),
     "the scaled column horizon**(1/alpha) overflows a float at alpha=5e-324"),
    (("conditions", "--theta", "-1"), "theta must be positive"),
    (("conditions", "--theta", "0"), "theta must be positive"),
    (("conditions", "--eps", "-1"), "eps must be positive"),
    (("conditions", "--eps", "0"), "eps must be positive"),
    (("conditions", "--alpha=-0.0"), "alpha must be positive"),
    (("conditions", "--alpha=-1"), "alpha must be positive"),
    (("lyapunov", "--derivative", "--step", "5e-324"),
     "step 5e-324 is too small: 1 - step or 1 + step rounds to 1"),
    (("lyapunov", "--derivative", "--step", "1e-17"),
     "step 1e-17 is too small: 1 - step or 1 + step rounds to 1"),
    (("paths", "--cap", "0"), "cap must be at least 1"),
])
def test_out_of_range_inputs_are_typed_errors(capsys, tmp_path, argv, message):
    if "--config" not in argv:
        config = "preset:boom_bust" if argv[0] == "calibrate" else "preset:critical"
        argv = (*argv, "--config", config)
    rc, out = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert rc == 1
    assert json.loads(out) == {"error": {"type": "ValueError", "message": message}}
    assert not tmp_path.joinpath("manifest.json").exists()


def test_overflowing_condition_moment_leaves_no_out_dir(capsys, tmp_path):
    out_dir = tmp_path / "not-yet"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out = run_cli(capsys, "conditions", "--config", "preset:supercritical",
                          "--theta", "1e4", "--horizon", "8", "--replicas", "8",
                          "--out", str(out_dir))
    assert rc == 1
    assert json.loads(out) == {"error": {
        "type": "ValueError",
        "message": "the theta=10000.0 moment of the mean matrix norm overflows a float"}}
    assert not out_dir.exists()


@pytest.mark.parametrize("command", sorted(TINY_RUNS))
def test_negative_seed_is_a_typed_error_before_any_write(capsys, tmp_path, command):
    out_dir = tmp_path / "not-yet"
    rc, out = run_cli(capsys, *TINY_RUNS[command], "--seed", "-1", "--out", str(out_dir))
    assert rc == 1
    assert json.loads(out) == {"error": {
        "type": "ValueError", "message": "seed -1 must be a nonnegative integer"}}
    assert not out_dir.exists()


def test_results_ignore_worker_count_end_to_end(capsys, tmp_path, monkeypatch):
    # more replicas than one 4096-replica chunk, so two workers share the work
    runs = {
        "scan": ("scan", "--config", "preset:critical", "--horizons", "4,8",
                 "--replicas", "5000"),
        "paths": ("paths", "--config", "preset:supercritical", "--horizon", "8",
                  "--replicas", "5000"),
    }
    for command, argv in runs.items():
        one, two = tmp_path / command / "unset", tmp_path / command / "two"
        monkeypatch.delenv("SIBDEP_WORKERS", raising=False)
        assert run_cli(capsys, *argv, "--out", str(one))[0] == 0
        monkeypatch.setenv("SIBDEP_WORKERS", "2")
        assert run_cli(capsys, *argv, "--out", str(two))[0] == 0
        for name in (f"{command}.json", f"{command}.csv"):
            assert (one / name).read_bytes() == (two / name).read_bytes(), name


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


# -- every run ends in strict JSON or a typed error ---------------------------

INT64_EDGES = ("9223372036854775807", "-9223372036854775808")
EDGE_FLOATS = ("0.0", "-0.0", "5e-324", "1e-300", "1e308", "-1e308", *INT64_EDGES, "0.5", "2")
EDGE_INTS = ("0", "1", "2", *INT64_EDGES)
# replica counts and horizons stay tiny: no large value is ever drawn
COUNTS = ("-9223372036854775808", "-1", "0", "1", "2", "5")
PROPERTY_OPTIONS = {
    "moments": {},
    "lyapunov": {"--theta": EDGE_FLOATS, "--step": EDGE_FLOATS,
                 "--derivative": None, "--macro": None},
    "conditions": {"--theta": EDGE_FLOATS, "--eps": EDGE_FLOATS, "--alpha": EDGE_FLOATS},
    "calibrate": {"--tol": EDGE_FLOATS, "--max-iter": EDGE_INTS},
    "survival": {"--initial-type": EDGE_INTS, "--method": ("quenched", "particle")},
    "scan": {"--initial-type": EDGE_INTS, "--alpha": EDGE_FLOATS},
    "paths": {"--initial-type": EDGE_INTS, "--alpha": EDGE_FLOATS, "--cap": EDGE_INTS},
    "condsize": {"--initial-type": EDGE_INTS,
                 "--method": ("auto", "direct", "resample")},
}


def _member(label, weight, singles, pairs):
    return {"label": label, "weight": weight, "laws": [
        {"group_size": size, "atoms": [{"tuple": list(t), "weight": w} for t, w in atoms]}
        for size, atoms in ((1, singles), (2, pairs))]}


GROWER = (((0,), 0.2), ((2,), 0.8)), (((1, 2), 1.0),)
CHILDLESS = (((0,), 1.0),), (((0, 0), 1.0),)
ZERO_ROW = (((2,), 1.0),), (((0, 0), 1.0),)       # pairs never have children
# singles beget singles and pairs beget pairs: a block-diagonal mean matrix
SINGLES_UP = (((0,), 0.3), ((1,), 0.7)), (((0, 2), 0.5), ((2, 2), 0.5))
SINGLES_DOWN = (((0,), 0.7), ((1,), 0.3)), (((0, 0), 0.5), ((0, 2), 0.5))
DEGENERATE_CONFIGS = {
    "childless-member": (("grower", 0.5, *GROWER), ("childless", 0.5, *CHILDLESS)),
    "zero-row": (("grower", 0.5, *GROWER), ("zero-row", 0.5, *ZERO_ROW)),
    "zero-weight-dead": (("grower", 1.0, *GROWER), ("dead", 0.0, *CHILDLESS)),
    "reducible": (("up", 0.5, *SINGLES_UP), ("down", 0.5, *SINGLES_DOWN)),
}


@pytest.fixture(scope="module")
def property_configs(tmp_path_factory):
    root = tmp_path_factory.mktemp("configs")
    configs = [f"preset:{name}" for name in PRESET_NAMES]
    for name, members in DEGENERATE_CONFIGS.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps({"N": 2, "label": name, "environments": [
            _member(*member) for member in members]}), encoding="utf-8")
        configs.append(str(path))
    return configs


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_run_ends_in_strict_json_or_a_typed_error(property_configs, data):
    command = data.draw(st.sampled_from(sorted(PROPERTY_OPTIONS)))
    argv = [command, "--config", data.draw(st.sampled_from(property_configs)),
            "--seed=" + data.draw(st.sampled_from(EDGE_INTS))]
    if command == "scan":
        argv.append("--horizons=" + data.draw(st.sampled_from(("1", "2,5", "0,3", "-1,2"))))
    elif command != "moments":
        argv += ["--horizon=" + data.draw(st.sampled_from(COUNTS)),
                 "--replicas=" + data.draw(st.sampled_from(COUNTS))]
    for option, values in PROPERTY_OPTIONS[command].items():
        if values is None:
            if data.draw(st.booleans()):
                argv.append(option)
        elif data.draw(st.booleans()):
            argv.append(f"{option}={data.draw(st.sampled_from(values))}")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main([*argv, "--out", str(out)])
        assert "Traceback" not in stderr.getvalue()
        if rc == 0:
            json.loads((out / f"{command}.json").read_text(encoding="utf-8"),
                       parse_constant=_reject_constant)
        else:
            assert rc in (1, 2), argv
            error = json.loads(stdout.getvalue())["error"]
            assert set(error) == {"type", "message"}, argv
            assert not out.exists(), argv


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


def test_lyapunov_sections_match_the_library_estimators(capsys):
    # more replicas than one 4096-replica chunk, and the macro view
    sample = {"horizon": 24, "replicas": 5000, "seed": 3, "use_macro": True}
    rc, out = run_cli(capsys, "lyapunov", "--config", "preset:subcritical_mix",
                      "--horizon", "24", "--replicas", "5000", "--seed", "3",
                      "--macro", "--theta", "1", "--derivative")
    assert rc == 0
    doc = json.loads(out)
    ens = load_preset("subcritical_mix")
    assert doc["growth_rate"] == estimate_lyapunov(ens, **sample).to_dict()
    assert doc["moment_growth"] == estimate_lambda_theta(ens, 1.0, **sample).to_dict()
    assert doc["moment_growth_slope"] == lambda_prime_at_one(ens, **sample).to_dict()


# every member has a childless type: no member has a positive minimum row
# sum, so the best expansion threshold log(0) does not exist
HALF_DEAD = {"N": 2, "label": "half-dead", "environments": [{"weight": 1.0, "laws": [
    {"group_size": 1, "atoms": [{"tuple": [1], "weight": 0.5},
                                {"tuple": [2], "weight": 0.5}]},
    {"group_size": 2, "atoms": [{"tuple": [0, 0], "weight": 1.0}]}]}]}


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


def test_every_artifact_is_strict_json(capsys, tmp_path):
    half_dead = tmp_path / "half_dead.json"
    half_dead.write_text(json.dumps(HALF_DEAD), encoding="utf-8")
    configs = [f"preset:{name}" for name in PRESET_NAMES] + [str(half_dead)]
    for c, config in enumerate(configs):
        for command, argv in TINY_RUNS.items():
            out = tmp_path / str(c) / command
            rc, printed = run_cli(capsys, *argv, "--config", config, "--out", str(out))
            assert rc in (0, 1), (config, command)
            texts = ([path.read_text(encoding="utf-8") for path in out.glob("*.json")]
                     if rc == 0 else [printed])
            assert texts, (config, command)
            for text in texts:
                json.loads(text, parse_constant=_reject_constant)
    report = read_json(tmp_path / str(len(configs) - 1) / "conditions" / "conditions.json")
    expansion = next(c for c in report["checks"] if c["id"] == "uniform_expansion_event")
    assert expansion["values"]["delta"] is None
    assert expansion["holds"] is False


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


@pytest.mark.parametrize("command", CSV_COMMANDS)
def test_json_only_format_skips_csv(capsys, tmp_path, command):
    rc, _ = run_cli(capsys, *TINY_RUNS[command], "--format", "json",
                    "--out", str(tmp_path))
    assert rc == 0
    assert not (tmp_path / f"{command}.csv").exists()
    assert read_json(tmp_path / "manifest.json")["results"] == [f"{command}.json"]


@pytest.mark.parametrize("command", sorted(TINY_RUNS))
def test_config_hash_covers_exactly_the_parsed_options(capsys, tmp_path, command):
    base = TINY_RUNS[command]
    hashed = hashed_options(build_parser().parse_args(list(base)))
    changes = {"--seed": "7", **OPTION_CHANGES[command]}
    assert {flag[2:].replace("-", "_") for flag in changes} == set(hashed)

    def stdout_hash(*extra):
        rc, out = run_cli(capsys, *base, *extra)
        assert rc == 0, out
        return json.loads(out)["config_hash"]

    chash = stdout_hash()
    for flag, value in changes.items():
        extra = (flag,) if value is None else (flag, value)
        assert stdout_hash(*extra) != chash, flag

    for fmt in ("csv", "json"):
        out = tmp_path / fmt
        rc, _ = run_cli(capsys, *base, "--format", fmt, "--out", str(out))
        assert rc == 0
        assert read_json(out / f"{command}.json")["config_hash"] == chash


def test_malformed_horizons_are_a_usage_error(capsys):
    rc = main(["scan", "--config", "preset:subcritical", "--horizons", "8,x"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "--horizons" in err and "'8,x'" in err


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
