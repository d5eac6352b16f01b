"""Every name a pinchlab module imports is used in that module.

A stdlib stand-in for a linter's unused-import rule: each module of
src/pinchlab but __init__.py (which imports to re-export) is parsed with
ast, and a name it imports must appear in its code.  An import on a line
marked "# noqa" is exempt, for a name imported only so that others find it
there.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pinchlab"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """(line, name) of each name imported by source and never used in it."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa" not in lines[alias.lineno - 1]:
                    imported[(alias.asname or alias.name).split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import numpy as np\n"
              "from json import dumps, loads  # noqa\n"
              "from fractions import (\n"
              "    Fraction,\n"
              "    gcd,\n"
              ")\n"
              "x: Fraction = np.zeros(1)\n")
    assert unused_imports(source) == [(2, "os"), (7, "gcd")]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((SRC / module).read_text()) == []
