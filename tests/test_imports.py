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


def private_definitions(tree: ast.Module):
    """(name, statement) of each private function, class or constant that a
    module-level statement defines; dunder names are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in targets
                    if name.startswith("_") and not name.startswith("__"))


def referenced_names(node: ast.AST) -> set[str]:
    """Names that ``node`` reads: loaded names, attribute names and imported names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def test_private_module_level_names_are_referenced():
    """A private helper, class or constant is read somewhere in the package
    outside its own definition, so a rewrite cannot leave one behind."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    reads = [(node, referenced_names(node)) for tree in trees for node in tree.body]
    dead = sorted(
        name
        for tree in trees
        for name, definition in private_definitions(tree)
        if not any(name in names for node, names in reads if node is not definition)
    )
    assert not dead, f"private names defined but never read: {dead}"
