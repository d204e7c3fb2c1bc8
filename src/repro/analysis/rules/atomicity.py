"""AWA — async atomicity: await points between a read and a write.

The front-end pumps one engine over an asyncio loop: every ``await`` is
a point where another coroutine may run and mutate shared engine state
(pool byte counters, scheduler queues, tenant buckets).  The classic
lost update looks innocent::

    depth = self.queue_depth          # read
    await self._drain_one()           # another submit() runs here
    self.queue_depth = depth - 1      # write of a stale value

These rules are the asyncio analogue of a race detector, as
reaching-definitions over the CFG with an *await-crossed* bit:

========  ==========================================================
AWA001    a write to ``self.X`` uses a local that was computed from
          ``self.X`` before an intervening ``await`` — the value is
          stale by the time it lands.
AWA002    a read-modify-write of ``self.X`` whose right-hand side
          contains ``await`` (``self.X += await f()``): the read
          happens before the suspension, the write after.
========  ==========================================================

Scope: ``async def`` functions inside ``src/repro/`` (the front-end and
anything engine-adjacent that grows ``async`` later).  Re-reading the
attribute after the await — what ``frontend._pump`` does with the
virtual clock — is the fix, and passes.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..cfg import Node, build_cfg, walk_header
from ..dataflow import run_forward, union_join
from ..findings import Finding, Severity
from ..project import FunctionInfo, Project
from ..registry import register_project_rule
from . import walk_skipping_defs


def _self_attr_reads(expr: ast.AST) -> set[str]:
    """Names X for every ``self.X`` loaded inside ``expr``."""
    out: set[str] = set()
    for node in ast.walk(expr):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and isinstance(node.ctx, ast.Load)
        ):
            out.add(node.attr)
    return out


def _local_reads(expr: ast.AST) -> set[str]:
    return {
        n.id
        for n in ast.walk(expr)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def _has_await(stmt: ast.AST) -> bool:
    return any(isinstance(n, ast.Await) for n in walk_header(stmt))


def _self_attr_writes(stmt: ast.AST) -> list[tuple[str, ast.AST]]:
    """(attribute name, RHS) for every ``self.X = ...`` style store."""
    out: list[tuple[str, ast.AST]] = []
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            root = target
            if isinstance(root, ast.Subscript):
                root = root.value
            if (
                isinstance(root, ast.Attribute)
                and isinstance(root.value, ast.Name)
                and root.value.id == "self"
            ):
                out.append((root.attr, stmt.value))
    elif isinstance(stmt, ast.AugAssign):
        root = stmt.target
        if isinstance(root, ast.Subscript):
            root = root.value
        if (
            isinstance(root, ast.Attribute)
            and isinstance(root.value, ast.Name)
            and root.value.id == "self"
        ):
            out.append((root.attr, stmt.value))
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        root2: ast.AST = stmt.target
        if (
            isinstance(root2, ast.Attribute)
            and isinstance(root2.value, ast.Name)
            and root2.value.id == "self"
        ):
            out.append((root2.attr, stmt.value))
    return out


@register_project_rule(
    "AWA001",
    Severity.ERROR,
    "a write to shared state uses a value read before an await "
    "(stale read-modify-write across a suspension point)",
)
def stale_write_across_await(project: Project) -> Iterator[Finding]:
    for fn in project.iter_functions():
        if not fn.is_async or not fn.module.is_repro:
            continue
        body_has_await = any(
            isinstance(n, ast.Await) for n in ast.walk(fn.node)
        )
        if not body_has_await:
            continue
        yield from _check_async_fn(project, fn)


def _check_async_fn(project: Project, fn: FunctionInfo) -> Iterator[Finding]:
    cfg = build_cfg(fn.node, project.catches)
    hits: dict[int, tuple[ast.AST, str, str]] = {}

    def transfer(
        node: Node, state: "frozenset[tuple[str, str, bool]]"
    ) -> "frozenset[tuple[str, str, bool]]":
        stmt = node.stmt
        if stmt is None:
            return state
        facts = set(state)
        awaited = _has_await(stmt)
        if awaited:
            facts = {(var, attr, True) for var, attr, _ in facts}
        # Detect hazardous writes *before* modeling this statement's own
        # assignments (the RHS is evaluated against the incoming state).
        for attr, rhs in _self_attr_writes(stmt):
            for var in _local_reads(rhs):
                if (var, attr, True) in facts:
                    hits[stmt.lineno] = (stmt, var, attr)
        # New taints from simple local assignments.
        targets: list[ast.expr] = []
        value: ast.AST | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = list(stmt.targets), stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is not None:
            direct = _self_attr_reads(value)
            inherited = {
                (attr, crossed or awaited)
                for var, attr, crossed in facts
                for read in _local_reads(value)
                if read == var
            }
            new_taints = {(a, awaited) for a in direct} | inherited
            for target in targets:
                if isinstance(target, ast.Name):
                    facts = {f for f in facts if f[0] != target.id}
                    facts |= {
                        (target.id, attr, crossed)
                        for attr, crossed in new_taints
                    }
        return frozenset(facts)

    run_forward(cfg, frozenset(), transfer, union_join)
    for lineno in sorted(hits):
        stmt, var, attr = hits[lineno]
        yield fn.module.finding(
            "AWA001",
            Severity.ERROR,
            stmt,
            f"write to 'self.{attr}' uses {var!r}, which was derived "
            f"from 'self.{attr}' before an await (in {fn.qualname}); "
            f"re-read the attribute after the suspension point",
        )


@register_project_rule(
    "AWA002",
    Severity.ERROR,
    "read-modify-write of shared state with an await on the right-hand "
    "side",
)
def rmw_with_await(project: Project) -> Iterator[Finding]:
    for fn in project.iter_functions():
        if not fn.is_async or not fn.module.is_repro:
            continue
        for stmt in walk_skipping_defs(fn.node.body):
            if not isinstance(stmt, ast.AugAssign):
                continue
            root: ast.AST = stmt.target
            if isinstance(root, ast.Subscript):
                root = root.value
            if not (
                isinstance(root, ast.Attribute)
                and isinstance(root.value, ast.Name)
                and root.value.id == "self"
            ):
                continue
            if any(isinstance(n, ast.Await) for n in ast.walk(stmt.value)):
                yield fn.module.finding(
                    "AWA002",
                    Severity.ERROR,
                    stmt,
                    f"'self.{root.attr} += <await ...>' reads the "
                    f"attribute before the suspension and writes after "
                    f"it (in {fn.qualname}); await into a local first, "
                    f"then apply the update",
                )
