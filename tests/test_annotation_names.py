"""Every name an annotation in ``src/repro`` uses is bound in its module.

``from __future__ import annotations`` keeps annotations unevaluated, so an
annotation naming something the module never imports runs fine and only a
linter (ruff's F821, mypy's ``name-defined``) reports it.  This AST scan is
the same check without either tool: each ``Name`` in an argument, return or
variable annotation — quoted annotations parsed too — must be a builtin or
bound at module level by an import (under ``if TYPE_CHECKING:`` too), a
``def``, a ``class`` or an assignment.
"""

from __future__ import annotations

import ast
import builtins
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"


def _module_bindings(tree: ast.Module) -> set[str]:
    """Names the module's top-level statements bind, looking into ``if``,
    ``try`` and ``with`` blocks but not into function or class bodies."""
    bound: set[str] = set()
    pending = list(tree.body)
    while pending:
        statement = pending.pop()
        if isinstance(statement, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).partition(".")[0]
                         for alias in statement.names)
        elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(statement.name)
        else:
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    bound.add(node.id)
            for field in ("body", "orelse", "finalbody", "handlers"):
                pending.extend(getattr(statement, field, []))
    return bound


def _annotations(tree: ast.Module):
    """Every annotation expression in the module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs
                        + [args.vararg, args.kwarg]):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(annotation: ast.expr):
    """``(line, name)`` for each name the annotation reads, a quoted part
    parsed as the expression it spells."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield annotation.lineno, node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            quoted = ast.parse(node.value, mode="eval").body
            yield from ((annotation.lineno, name) for _, name in _names(quoted))


def unbound_annotation_names(package: Path) -> list[str]:
    """``module:line name`` for each annotation name no binding covers."""
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        bound = _module_bindings(tree) | set(dir(builtins))
        module = path.relative_to(package).as_posix()
        found += [f"{module}:{line} {name}" for annotation in _annotations(tree)
                  for line, name in _names(annotation) if name not in bound]
    return sorted(set(found))


def test_every_annotation_name_is_bound_in_its_module():
    assert unbound_annotation_names(PACKAGE) == []


def test_the_scan_reports_an_unimported_annotation(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from pkg.box import Guarded\n"
        "Alias = int\n\n"
        "def f(a: Guarded, b: 'Quoted', c: list[Alias]) -> Missing:\n"
        "    from pkg.box import Local\n"
        "    value: Local | None = None\n"
        "    return value\n\n"
        "class Shape:\n"
        "    size: 'Optional[Shape]'\n")
    assert unbound_annotation_names(tmp_path) == [
        "mod.py:13 Optional", "mod.py:7 Missing", "mod.py:7 Quoted",
        "mod.py:9 Local"]
