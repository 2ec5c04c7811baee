"""Every module-level import in the package is read by the module that makes
it, and no private module-level name is defined in two modules.

No linter ships with the project, so this walks each module's syntax tree
with the standard library.  An import kept on purpose for other modules to
read says so on its line with ``# noqa: F401``; ``__init__.py`` re-exports
and is not checked.  A private helper or constant that two modules need is
defined once and imported by the other, so the copies cannot drift apart.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lrvlasov"
# private names that two modules define for unrelated things:
# driver's method policy for a step's truncation and lowrank's sketch loop
UNRELATED = {"_truncate": {"driver.py", "lowrank.py"}}


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
    assert twice == UNRELATED
