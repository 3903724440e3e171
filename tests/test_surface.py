"""Every public name of ``ctlab`` has a caller outside tests.

A public function, class or constant of ``src/ctlab`` must be named by
some file under ``src/ctlab/``, ``demos/`` or ``perfbench/`` outside its
own definition, its imports and ``__all__``; so must each public method
and property of a public class, outside its own definition.  Names are
matched as identifiers (a ``Name`` or an attribute), whatever they refer
to.
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


def units(stmt: ast.stmt) -> list[tuple[int, list[ast.AST]]]:
    """``stmt`` in parts that name things: a class body statement by
    statement (its index with the statement), the rest of a class as one
    part (index -1), any other statement whole (index -1)."""
    if not isinstance(stmt, ast.ClassDef):
        return [(-1, [stmt])]
    return [(-1, [*stmt.decorator_list, *stmt.bases, *stmt.keywords]),
            *enumerate([[s] for s in stmt.body])]


def methods(stmt: ast.stmt) -> list[tuple[int, str]]:
    """The public methods and properties that a public class ``stmt``
    defines, each with its index in the class body."""
    if not isinstance(stmt, ast.ClassDef) or stmt.name.startswith("_"):
        return []
    return [(j, s.name) for j, s in enumerate(stmt.body)
            if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not s.name.startswith("_")]


def unused_public_names() -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for root in CALLERS for path in sorted(root.rglob("*.py"))}
    # (file, statement index, class body index or -1) -> identifiers it
    # names
    uses = {(path, i, j): set().union(*map(named, part))
            for path, tree in trees.items()
            for i, stmt in enumerate(tree.body)
            for j, part in units(stmt)}

    def used(name, skip):
        return any(name in names for where, names in uses.items()
                   if not skip(where))

    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for i, stmt in enumerate(trees[path].body):
            for name in defined_names(stmt):
                if not name.startswith("_") and not used(
                        name, lambda where: where[:2] == (path, i)):
                    unused.append(f"{path.stem}.{name}")
            for j, name in methods(stmt):
                if not used(name, lambda where: where == (path, i, j)):
                    unused.append(f"{path.stem}.{stmt.name}.{name}")
    return unused


def test_every_public_name_has_a_caller_outside_the_tests():
    assert sorted(unused_public_names()) == sorted(ALLOWED)
