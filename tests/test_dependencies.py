"""The dependencies are declared once, in pyproject.toml: every third-party
import is declared there, and CI and README install from it."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # the standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]
SOURCES = ("src", "tests", "perfbench")
INSTALL = 'pip install -e ".[test]"'


def _top_level_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def _declared() -> "set[str]":
    """The names of the project's dependencies and optional dependencies,
    normalized as import names (each distribution here imports as its name)."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    requirements = [*project["dependencies"], *sum(project["optional-dependencies"].values(), [])]
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_")
            for r in requirements}


def test_every_third_party_import_is_declared():
    files = [path for top in SOURCES for path in sorted((ROOT / top).rglob("*.py"))]
    # the repo's own modules: the occloc package, and the scripts perfbench
    # and the tests import from their own directories
    local = {"occloc"} | {path.stem for path in files}
    declared = _declared()
    undeclared = {
        (name, str(path.relative_to(ROOT)))
        for path in files
        for name in _top_level_imports(path)
        if name not in sys.stdlib_module_names and name not in local and name not in declared
    }
    assert undeclared == set()


def test_ci_and_readme_install_from_the_project():
    assert INSTALL in (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    assert INSTALL in (ROOT / "README.md").read_text()
