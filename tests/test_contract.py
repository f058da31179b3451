"""The library's contract, read off its source: stdlib only, no floats.

Each ``src/mukaikit/*.py`` is parsed with ``ast``. Every import must name
a standard-library module or ``mukaikit`` itself (relative imports
included), and no float literal or ``float`` name may appear, so no
verdict can pass through floating point.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import mukaikit

SOURCES = sorted(Path(mukaikit.__file__).parent.glob("*.py"))


def _imported_roots(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield "mukaikit" if node.level else node.module.split(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_mukaikit(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    foreign = {m for m in _imported_roots(tree)
               if m != "mukaikit" and m not in sys.stdlib_module_names}
    assert not foreign


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_float_literal_or_name(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    floats = [node.lineno for node in ast.walk(tree)
              if (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)))
              or (isinstance(node, ast.Name) and node.id == "float")]
    assert not floats


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"exactlin.py", "shortvec.py", "walls.py", "cli.py"}
