"""Every module-level import in the package is read by the module that makes
it, no private module-level name is defined in two modules, and no line is
longer than 100 characters.

No linter ships with the project, so this walks each module's syntax tree
with the standard library.  An import kept on purpose for other modules to
read says so on its line with ``# noqa: F401``; ``__init__.py`` re-exports
and is not checked.  A private helper or constant that two modules need is
defined once and imported by the other, so the copies cannot drift apart.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lrvlasov"


def unused_imports(path: Path) -> list[str]:
    """``file:line name`` for each name a top-level import binds and the
    module never reads."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    bound = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in read]


def test_no_unused_module_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    assert [u for p in modules for u in unused_imports(p)] == []


def private_definitions(path: Path) -> set[str]:
    """Private (single-underscore) names a module defines at top level: its
    functions, classes and assigned names; imports do not count."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_no_private_name_defined_twice():
    where: dict[str, set[str]] = {}
    for p in sorted(SRC.glob("*.py")):
        for name in private_definitions(p):
            where.setdefault(name, set()).add(p.name)
    twice = {n: files for n, files in where.items() if len(files) > 1}
    assert twice == {}


MAX_LINE = 100


def test_no_line_longer_than_max():
    long = [f"{p.name}:{i} ({len(line)})" for p in sorted(SRC.glob("*.py"))
            for i, line in enumerate(p.read_text().splitlines(), start=1) if len(line) > MAX_LINE]
    assert long == []


_RUN_BOTH_FORMATS = """
import sys
from lrvlasov.config import from_preset
from lrvlasov.driver import run

run(from_preset("weak_landau_1d", nx=16, nv=33, t_end=0.05))
run(from_preset("weak_landau_2d2v", nx=8, nv=16, t_end=0.05))
print(sorted(m for m in sys.modules if m.startswith("numpy.random")))
"""


def test_runs_in_both_formats_leave_numpy_random_unimported():
    # both formats sketch with lowrank's standard-library test matrix, so no
    # run pays numpy.random's import (about 20 ms)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _RUN_BOTH_FORMATS], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[]"


def imported_modules(path: Path) -> set[str]:
    """The last dotted part of every module that ``path`` imports, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module.split(".")[-1])
        if isinstance(node, ast.ImportFrom) and node.module is None:  # from . import x
            names.update(alias.name for alias in node.names)
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[-1] for alias in node.names)
    return names


def test_macro_imports_no_format_module():
    # the dimension is decided in formats alone: macro takes the split fluxes
    # from formats.Problem.fluxes and reads neither factored format
    assert imported_modules(SRC / "macro.py") & {"lowrank", "htucker"} == set()
