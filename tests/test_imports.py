"""Every name a pinchlab module imports is used in that module, and the
profile kernels take no libm pow.

A stdlib stand-in for a linter's unused-import rule: each module of
src/pinchlab but __init__.py (which imports to re-export) is parsed with
ast, and a name it imports must appear in its code.  An import on a line
marked "# noqa" is exempt, for a name imported only so that others find it
there.  The same parse guards the per-row kernels of profiles.py against a
** with a constant exponent of 3 or more, which numpy evaluates on a float
array through libm pow, tens of times slower than products.  And every
public top-level def and class of src/pinchlab is reached from module-level
code (the CLI's entry point among it) or from bench/*.py, or is on KEEP
with its reason.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pinchlab"
BENCH = Path(__file__).resolve().parents[1] / "bench"
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


SCIPY_ROUTE = ("minsec.py", "minimize")   # the one function that may import scipy


def scipy_imports(source):
    """(line, enclosing function or None) of each import of scipy in source."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                 else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
        if any(name.split(".")[0] == "scipy" for name in names):
            found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_the_check_finds_scipy_imports():
    source = ("import scipy.linalg\n"
              "def minimize():\n"
              "    from scipy.optimize import minimize\n"
              "def grid():\n"
              "    from scipy.stats import qmc\n"
              "    import numpy\n")
    assert scipy_imports(source) == [(1, None), (3, "minimize"), (5, "grid")]


def test_only_minsec_minimize_imports_scipy():
    found = [(module, line, function) for module in MODULES + ["__init__.py"]
             for line, function in scipy_imports((SRC / module).read_text())
             if (module, function) != SCIPY_ROUTE]
    assert found == []
    assert [function for _, function in scipy_imports((SRC / "minsec.py").read_text())] \
        == ["minimize"]


# Public names that no runtime path reads, each kept for its reason.
KEEP = {
    "eigen_gap_lemma": "the paper's eigenvalue-gap lemma, criterion 10",
    "equno_identity": "the paper's exact cross-term identity",
    "s_coefficient": "the paper's cubic-term weight of the convex combination",
    "f_norm_expansion": "the paper's |F|^2 expansion, criterion 4",
    "q1": "the paper's Q1 functional, whose value at the reference point criterion 6 checks",
    "check_estimates": "replays any lane's violation alone (ROADMAP item 9)",
    "shift_to_pinching": "the one-tensor entry of shift_to_pinching_stack",
    "sectional": "the one-plane entry of plane_sectionals_stack",
}


def names_read(node):
    """The names the code of node reads: identifiers, attribute names, and
    the names the benchmark's tracer wraps, Wrap(module, name, ...)."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif (isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "Wrap"
              and len(sub.args) > 1 and isinstance(sub.args[1], ast.Constant)):
            found.add(sub.args[1].value)
    return found


def unread_names(modules, roots):
    """The public top-level defs and classes of modules ({name: source})
    that nothing live reads.  Live are the names in roots and the names
    module-level code reads, then, repeatedly, every def or class that a
    live name reads.  Imports are not reads."""
    defs, todo = {}, set(roots)
    for source in modules.values():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                todo |= names_read(node)
    live = set()
    while todo:
        name = todo.pop()
        if name in defs and name not in live:
            live.add(name)
            for node in defs[name]:
                todo |= names_read(node)
    return sorted(name for name in defs if name not in live and not name.startswith("_"))


def test_the_check_finds_an_unread_name():
    modules = {"a": ("def entry():\n    return helper()\n"
                     "def helper():\n    return 1\n"
                     "def dead():\n    return Used()\n"
                     "class Used:\n    pass\n"
                     "def _private():\n    pass\n"
                     "TABLE = {'k': at_import}\n"
                     "def at_import():\n    pass\n"),
               "b": "from a import dead\ndef traced():\n    pass\n"}
    assert unread_names(modules, {"entry"}) == ["Used", "dead", "traced"]
    wraps = names_read(ast.parse('WRAPS = (Wrap("b", "traced", "b.traced"),)\n'))
    assert unread_names(modules, {"entry"} | wraps) == ["Used", "dead"]


def test_every_public_name_runs_or_is_kept():
    modules = {p.name: p.read_text() for p in SRC.glob("*.py") if p.name != "__init__.py"}
    bench = set().union(*(names_read(ast.parse(p.read_text())) for p in BENCH.glob("*.py")))
    assert unread_names(modules, bench | set(KEEP)) == []
    defined = {node.name for source in modules.values() for node in ast.parse(source).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert set(KEEP) <= defined
