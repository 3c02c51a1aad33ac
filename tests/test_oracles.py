"""The reference implementations stay independent of the code they check."""
import ast
from pathlib import Path

import sibdep

ORACLES = Path(__file__).with_name("oracles.py")


def test_oracles_import_only_math_numpy_and_public_package_names():
    # a reference that read a package module or the tables it caches from a
    # law would share the faults it is there to catch
    tree = ast.parse(ORACLES.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert {a.name for a in node.names} <= {"math", "numpy"}, ast.unparse(node)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            assert node.level == 0 and node.module == "sibdep", ast.unparse(node)
            assert {a.name for a in node.names} <= set(sibdep.__all__), ast.unparse(node)
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            assert isinstance(node.value, ast.Name) and node.value.id == "self", \
                ast.unparse(node)
