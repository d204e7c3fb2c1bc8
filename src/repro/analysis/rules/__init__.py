"""Bundled rule families.

Importing this package registers every rule (the modules register
themselves via :func:`repro.analysis.registry.register_rule`).  Shared
AST helpers live here so rule modules stay declarative.
"""

from __future__ import annotations

import ast
from typing import Iterator


def dotted(node: ast.AST) -> str | None:
    """Resolve a ``Name``/``Attribute`` chain to ``"a.b.c"``.

    Only pure name-rooted chains resolve; anything hanging off a call,
    subscript or literal returns ``None`` (we cannot know its module).
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(node: ast.AST | None) -> str | None:
    """The final identifier of a name/attribute chain (``a.b.C`` → C)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def module_aliases(tree: ast.AST) -> dict[str, str]:
    """Map local alias -> imported module name (``import x as y``)."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = alias.name
    return aliases


def walk_skipping_defs(body: list[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested function bodies.

    Used by scoped rules (async-safety, invariant discipline) where a
    nested ``def`` opens its own scope and is judged on its own.
    """
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


# Registration side effects: each module calls register_rule (ASY002:
# register_project_rule) at import.
from . import (  # noqa: E402,F401
    async_safety,
    atomicity,
    determinism,
    invariants,
    layering,
    lifecycle,
    numerics,
    seeds,
)
