"""The declared dependencies in pyproject.toml match what the code imports.

Every third-party module imported under src/ is a runtime dependency,
every one imported under tests/ is a runtime or `test` dependency, and
each declared dependency is imported somewhere.  Imports inside
functions count too.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def third_party_imports(directory: Path):
    local = {"ecds"} | {path.stem for path in directory.glob("*.py")}
    names = set()
    for path in directory.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return {name for name in names if name not in sys.stdlib_module_names} - local


def declared(requirements):
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_") for req in requirements}


def test_declared_dependencies_match_imports():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    runtime = declared(project["dependencies"])
    test = declared(project["optional-dependencies"]["test"])
    src = third_party_imports(ROOT / "src")
    tests = third_party_imports(ROOT / "tests")
    assert src <= runtime, "undeclared runtime imports: %s" % sorted(src - runtime)
    assert tests <= runtime | test, "undeclared test imports: %s" % sorted(tests - runtime - test)
    unused = (runtime | test) - src - tests
    assert not unused, "declared but never imported: %s" % sorted(unused)
