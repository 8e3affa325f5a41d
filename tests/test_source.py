"""Source checks that no installed linter makes: every imported name is used,
and every private module-level name is loaded by other src/ code."""

import ast
from pathlib import Path

import pytest

import slamobs

# __init__ imports names to re-export them.
MODULES = sorted(p for p in Path(slamobs.__file__).parent.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - used, f"{path.name} never uses {sorted(imported - used)}"


def _private_definitions(tree):
    """(name, node) of each module-level function, class or constant whose
    name starts with one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [
                n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            ]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_every_private_name_is_loaded():
    # A private helper that no src/ code reads is dead: the tests alone do
    # not keep it.
    paths = Path(slamobs.__file__).parent.glob("*.py")
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in paths]
    loads = [
        (node, node.id if isinstance(node, ast.Name) else node.attr)
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    ]
    unused = []
    for tree in trees:
        for name, definition in _private_definitions(tree):
            own = {id(n) for n in ast.walk(definition)}
            if not any(loaded == name and id(node) not in own for node, loaded in loads):
                unused.append(name)
    assert not unused, f"no src/ code loads {sorted(unused)}"
