"""Every module-level import in the package is read by the module that makes it.

No linter ships with the project, so this walks each module's syntax tree
with the standard library.  An import kept on purpose for other modules to
read says so on its line with ``# noqa: F401``; ``__init__.py`` re-exports
and is not checked.
"""

import ast
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
