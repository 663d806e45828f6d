"""Public surface: every exported name exists, every re-export is public,
and every exported name has a caller outside the tests."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import spmofdm

MODULES = ("analysis", "codebook", "combinatorics", "constellations", "selection",
           "simulation")
ROOT = Path(spmofdm.__file__).parents[2]


def test_all_names_exist():
    for name in MODULES:
        module = importlib.import_module(f"spmofdm.{name}")
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, (name, missing)


def test_package_reexports_are_listed():
    tree = ast.parse(Path(spmofdm.__file__).read_text())
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert {node.module for node in imports} == set(MODULES)
    for node in imports:
        public = importlib.import_module(f"spmofdm.{node.module}").__all__
        unlisted = [a.name for a in node.names if a.name not in public]
        assert not unlisted, (node.module, unlisted)
        assert all(hasattr(spmofdm, a.name) for a in node.names)


def _names_read(path):
    """Every name, attribute and import alias in a file's code; strings and
    docstrings do not count."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_every_export_has_a_caller():
    # the library is what src/, the demos and perfbench read; a name only
    # the tests call belongs with the tests
    files = [p for p in (ROOT / "src" / "spmofdm").glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    assert len(files) > 10
    read = set().union(*map(_names_read, files))
    unread = {name: [n for n in importlib.import_module(f"spmofdm.{name}").__all__
                     if n not in read] for name in MODULES}
    assert not any(unread.values()), unread


def test_import_loads_no_scipy_special():
    # SciPy adds set-up time to every run; only the clique bound's
    # factorisation needs it (scipy.linalg's LAPACK wrappers), on first use
    code = ("import sys, spmofdm.cli; "
            "print('scipy.linalg' in sys.modules, 'scipy.special' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.split() == ["False", "False"]
