"""Source hygiene: every package module uses each name it imports, every
name in its __all__ is one it defines or imports, and every private
top-level helper is referred to somewhere in the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cohomoring"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))


def _used_names(tree: ast.AST) -> set:
    """Names read anywhere in the module, including inside string annotations
    such as "GroupHom" and the strings of __all__."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in _used_names(tree))
    assert not unused, f"{module} imports names it never uses: {', '.join(unused)}"


def _bound_names(body) -> set:
    """Names that the statements of a module body define or import,
    including those under top-level if and try blocks."""
    bound = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                bound |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse, getattr(node, "finalbody", []),
                          *(h.body for h in getattr(node, "handlers", []))):
                bound |= _bound_names(block)
    return bound


@pytest.mark.parametrize("module", ALL_MODULES)
def test_all_names_exist(module):
    """A stale __all__ entry makes `from cohomoring.<module> import *` raise."""
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    exported = []
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported += ast.literal_eval(node.value)
    missing = sorted(set(exported) - _bound_names(tree.body))
    assert not missing, f"{module} exports names it never defines: {', '.join(missing)}"


def _private_definitions(tree: ast.Module) -> set:
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_")}


def _references(tree: ast.AST) -> set:
    """Names read or imported anywhere, and attribute names, as in
    `groups._hom_rows`."""
    out = _used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out |= {alias.name for alias in node.names}
    return out


def test_private_helpers_are_referenced():
    """A `_`-prefixed top-level function or class that nothing in the package
    refers to is dead code left behind by a deletion."""
    trees = {m: ast.parse((PACKAGE / m).read_text(encoding="utf-8")) for m in ALL_MODULES}
    referenced = set().union(*map(_references, trees.values()))
    dead = sorted(f"{m}: {name}" for m, tree in trees.items()
                  for name in _private_definitions(tree) - referenced)
    assert not dead, f"private helpers nothing refers to: {', '.join(dead)}"
