"""What each entry point loads: the package and the command line import an
estimator module only when a command runs it."""
import ast
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import sibdep

SRC = Path(__file__).resolve().parent.parent / "src"
ESTIMATORS = {"simulator", "spectral", "moments"}

# print the sibdep submodules loaded after running ``code``
PROBE = """
import json, sys
{code}
print(json.dumps(sorted(m.split(".", 1)[1] for m in sys.modules
                        if m.startswith("sibdep."))))
"""


def loaded_after(code: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", PROBE.format(code=code)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def cli_run(*argv: str) -> str:
    return ("import contextlib, io\nfrom sibdep.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({list(argv)!r}) == 0\n")


@pytest.mark.parametrize("code, loads", [
    ("import sibdep.cli", set()),
    (cli_run("validate", "--config", "preset:critical"), set()),
    (cli_run("scan", "--config", "preset:subcritical", "--horizons", "2,4",
             "--replicas", "64"), {"simulator"}),
    (cli_run("conditions", "--config", "preset:critical", "--horizon", "16",
             "--replicas", "8"), {"spectral", "moments"}),
], ids=["import-cli", "validate", "scan", "conditions"])
def test_an_entry_point_loads_only_the_estimators_it_runs(code, loads):
    loaded = loaded_after(code)
    assert "cli" in loaded
    assert loaded & ESTIMATORS == loads, sorted(loaded)


def test_importing_the_package_loads_no_module():
    assert loaded_after("import sibdep") == set()


def test_every_exported_name_resolves_and_is_listed():
    listed = dir(sibdep)
    for name in sibdep.__all__:
        assert getattr(sibdep, name) is not None, name
        assert name in listed, name
    namespace: dict = {}
    exec("from sibdep import *", namespace)
    assert set(sibdep.__all__) <= namespace.keys()
    # an exported name is the owning module's binding, not a copy of it
    assert sibdep.perron is sibdep.moments.perron
    assert "perron" not in vars(sibdep)
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        sibdep.nonesuch


def _uses_in_src() -> dict[str, int]:
    """How often each identifier is read in `src/`, outside `sibdep/__init__.py`
    and outside the top-level `def` or `class` that defines it."""
    uses: Counter = Counter()
    for path in (SRC / "sibdep").rglob("*.py"):
        if path == SRC / "sibdep" / "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(node, "name", None)
            for sub in ast.walk(node):
                word = sub.id if isinstance(sub, ast.Name) else \
                    sub.attr if isinstance(sub, ast.Attribute) else None
                if word is not None and word != own:
                    uses[word] += 1
    return uses


def test_every_exported_name_has_a_user():
    # a name stays public only if the library itself, the benchmark, the
    # tools or a README example uses it; the tests alone keep nothing alive
    root = SRC.parent
    texts = [(root / "README.md").read_text(encoding="utf-8")]
    texts += [p.read_text(encoding="utf-8")
              for folder in ("bench", "tools") for p in sorted((root / folder).rglob("*.py"))]
    uses = _uses_in_src()
    unused = [name for name in sibdep.__all__
              if not uses[name]
              and not any(re.search(rf"\b{re.escape(name)}\b", text) for text in texts)]
    assert unused == []
