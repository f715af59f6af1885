"""Every module-level import of a ``lposd`` module is used by that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lposd"
# ``__init__.py`` imports names only to re-export them.
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def module_imports(tree: ast.Module):
    """(line, bound name) of each import at module level, including those
    under a module-level ``if`` (such as ``if TYPE_CHECKING:``) or ``try``."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.If, ast.Try, ast.ExceptHandler)):
            pending.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.Import):
            yield from ((node.lineno, a.asname or a.name.split(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((node.lineno, a.asname or a.name) for a in node.names)


@pytest.mark.parametrize("module", MODULES)
def test_module_level_imports_are_used(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    # annotations are parsed into the tree too, so an import used only in
    # one (``lp.py``'s ``TYPE_CHECKING`` import of ``scipy.sparse``) counts
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for line, name in module_imports(tree) if name not in used)
    assert not unused, f"{module}: unused imports (line, name) {unused}"
