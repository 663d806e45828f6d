"""Public surface: every exported name exists, every re-export is public."""

import ast
import importlib
from pathlib import Path

import spmofdm

MODULES = ("analysis", "codebook", "combinatorics", "constellations", "selection",
           "simulation")


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
