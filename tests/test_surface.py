"""Every public module-level name of ``ctlab`` has a caller outside tests.

A public function, class or constant of ``src/ctlab`` must be named by
some file under ``src/ctlab/``, ``demos/`` or ``perfbench/`` outside its
own definition, its imports and ``__all__``.  Names are matched as
identifiers (a ``Name`` or an attribute), whatever they refer to.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ctlab"
CALLERS = (PACKAGE, ROOT / "demos", ROOT / "perfbench")

# "module.name" entries that stay public with only test callers.
ALLOWED: list[str] = []


def defined_names(stmt: ast.stmt) -> list[str]:
    """The module-level names that ``stmt`` defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)]


def named(stmt: ast.stmt) -> set[str]:
    """The identifiers that ``stmt`` reads or looks up as attributes."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def unused_public_names() -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for root in CALLERS for path in sorted(root.rglob("*.py"))}
    # (file, statement index) -> identifiers it names
    uses = {(path, i): named(stmt) for path, tree in trees.items()
            for i, stmt in enumerate(tree.body)}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for i, stmt in enumerate(trees[path].body):
            for name in defined_names(stmt):
                if name.startswith("_"):
                    continue
                if not any(name in names for where, names in uses.items()
                           if where != (path, i)):
                    unused.append(f"{path.stem}.{name}")
    return unused


def test_every_public_name_has_a_caller_outside_the_tests():
    assert sorted(unused_public_names()) == sorted(ALLOWED)
