"""Every name a pinchlab module imports is used in that module, and the
profile kernels take no libm pow.

A stdlib stand-in for a linter's unused-import rule: each module of
src/pinchlab but __init__.py (which imports to re-export) is parsed with
ast, and a name it imports must appear in its code.  An import on a line
marked "# noqa" is exempt, for a name imported only so that others find it
there.  The same parse guards the per-row kernels of profiles.py against a
** with a constant exponent of 3 or more, which numpy evaluates on a float
array through libm pow, tens of times slower than products.
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


POW_FREE = ("estimate_gaps", "_assemble")   # profiles.py's per-row kernels


def pow_traps(source, functions):
    """(function, line) of each ** or **= with a constant exponent of 3 or
    more inside the functions of source named in functions."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name in functions:
            for op in ast.walk(node):
                exponent = (op.right if isinstance(op, ast.BinOp)
                            else op.value if isinstance(op, ast.AugAssign) else None)
                if (isinstance(getattr(op, "op", None), ast.Pow)
                        and isinstance(exponent, ast.Constant)
                        and isinstance(exponent.value, (int, float))
                        and exponent.value >= 3):
                    found.append((node.name, op.lineno))
    return sorted(found)


def test_the_check_finds_a_pow_trap():
    source = ("def estimate_gaps(lam, k):\n"
              "    a = lam ** 3\n"
              "    b = lam ** 2 + lam ** k\n"
              "    b **= 4.0\n"
              "    return a * b\n"
              "def other(lam):\n"
              "    return lam ** 3\n")
    assert pow_traps(source, POW_FREE) == [("estimate_gaps", 2), ("estimate_gaps", 4)]


def test_profile_kernels_take_no_pow():
    source = (SRC / "profiles.py").read_text()
    defined = {node.name for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.FunctionDef)}
    assert set(POW_FREE) <= defined
    assert pow_traps(source, POW_FREE) == []
