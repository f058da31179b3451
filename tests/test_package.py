"""The package namespace: lazy attributes that behave like eager ones.

``mukaikit/__init__.py`` imports no submodule; each exported name loads
its module on first use (PEP 562). These tests check that every name in
``__all__`` is the object its module defines, that ``dir`` and star
imports see them, that a submodule is still importable by name, and that
the README's API example runs as written in a fresh interpreter.
"""

from __future__ import annotations

import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import mukaikit

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("name", mukaikit.__all__)
def test_exported_name_is_its_module_attribute(name):
    obj = getattr(mukaikit, name)
    assert getattr(sys.modules[obj.__module__], name) is obj
    assert obj.__module__.startswith("mukaikit.")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        mukaikit.no_such_name  # noqa: B018
    assert not hasattr(mukaikit, "no_such_name")


def test_version():
    assert mukaikit.__version__ == "0.1.0"


def _child(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)


def test_import_loads_no_submodule_and_dir_lists_every_name():
    proc = _child("import sys, mukaikit\n"
                  "print(sorted(set(mukaikit.__all__) - set(dir(mukaikit))))\n"
                  "print(sorted(m for m in sys.modules if m.startswith('mukaikit')))")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[]\n['mukaikit']\n"


def test_from_import_yields_submodules():
    # perfbench imports the layer modules this way on a fresh package.
    from mukaikit import walls

    assert isinstance(walls, types.ModuleType) and walls is sys.modules["mukaikit.walls"]
    proc = _child("import mukaikit\n"
                  "from mukaikit import lattice, moduli, mukai, surface, twisted, walls\n"
                  "print(walls.__name__, moduli.__name__)")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "mukaikit.walls mukaikit.moduli\n"


def test_readme_api_example_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"A taste of the API:\n\n```python\n(.*?)```", text, re.S).group(1)
    assert "from mukaikit import *" in block
    proc = _child(block)
    assert (proc.returncode, proc.stderr) == (0, "")
