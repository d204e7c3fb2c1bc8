"""AWA — async atomicity: await points between a read and a write.

The front-end pumps one engine over an asyncio loop: every ``await`` is
a point where another coroutine may run and mutate shared engine state
(pool byte counters, scheduler queues, tenant buckets).  The classic
lost update looks innocent::

    depth = self.queue_depth          # read
    await self._drain_one()           # another submit() runs here
    self.queue_depth = depth - 1      # write of a stale value

These rules are the asyncio analogue of a race detector, as
reaching-definitions over the function body with an *await-crossed* bit:

========  ==========================================================
AWA001    a write to ``self.X`` uses a local that was computed from
          ``self.X`` before an intervening suspension point — the
          value is stale by the time it lands.
AWA002    a read-modify-write of ``self.X`` whose right-hand side
          contains ``await`` (``self.X += await f()``): the read
          happens before the suspension, the write after.
========  ==========================================================

Suspension points are ``await`` expressions and the headers of ``async
with`` (entered and left through awaits) and ``async for`` (every
iteration awaits the next item).

AWA001 needs no flow graph: Python has no ``goto``, so the AST *is* the
flow graph.  :class:`_StaleWrites` walks the body forward carrying
``(local, attr, crossed-an-await)`` facts — branches fork from one
in-state and union, a loop body repeats until the fact set stops
growing, ``break``/``continue`` carry their facts to the loop's exit and
head, and an ``except`` handler starts from every state the ``try`` body
passed through (a raising ``await`` did suspend).

Scope: ``async def`` functions inside ``src/repro/`` (the front-end and
anything engine-adjacent that grows ``async`` later).  Re-reading the
attribute after the await — what ``frontend._pump`` does with the
virtual clock — is the fix, and passes.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding, Severity
from ..registry import register_rule
from ..runner import ModuleInfo
from . import walk_skipping_defs

#: ``(local, attr, crossed)``: ``local`` was computed from ``self.attr``,
#: and a suspension point has (``crossed``) or has not run since.
Fact = tuple[str, str, bool]
Facts = frozenset[Fact]

#: Children that run later or elsewhere, not as part of the statement
#: that holds them: nested statements and ``lambda`` bodies.
_NOT_HEADER = (ast.stmt, ast.ExceptHandler, ast.match_case, ast.Lambda)


def _suspends(stmt: ast.stmt) -> bool:
    """Does evaluating ``stmt`` itself (a compound statement's header,
    not its body) reach a suspension point?"""
    if isinstance(stmt, (ast.AsyncWith, ast.AsyncFor)):
        return True
    stack: list[ast.AST] = [stmt]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Await):
            return True
        stack.extend(
            child
            for child in ast.iter_child_nodes(node)
            if not isinstance(child, _NOT_HEADER)
        )
    return False


def _self_attr(target: ast.AST) -> str | None:
    """X when ``target`` is ``self.X`` or ``self.X[...]``."""
    if isinstance(target, ast.Subscript):
        target = target.value
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        return target.attr
    return None


def _self_attr_reads(expr: ast.AST) -> set[str]:
    """Names X for every ``self.X`` loaded inside ``expr``."""
    return {
        node.attr
        for node in ast.walk(expr)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and _self_attr(node) is not None
    }


def _local_reads(expr: ast.AST) -> set[str]:
    return {
        n.id
        for n in ast.walk(expr)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def _async_defs(module: ModuleInfo) -> Iterator[ast.AsyncFunctionDef]:
    """Every ``async def`` (nested ones too) of a shipped module."""
    if module.is_repro:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield node


class _StaleWrites:
    """One forward walk over an ``async def`` body (see module docstring)."""

    def __init__(self) -> None:
        #: line -> (statement, local, attr) of every stale write seen.
        self.hits: dict[int, tuple[ast.stmt, str, str]] = {}
        #: Per enclosing loop: facts its ``break``s carry to the exit and
        #: its ``continue``s carry back to the head.
        self.loops: list[tuple[set[Fact], set[Fact]]] = []
        #: Per enclosing ``try`` body: every state it has passed through,
        #: any of which an exception may carry into a handler.
        self.tries: list[set[Fact]] = []

    def transfer(self, stmt: ast.stmt, state: Facts) -> Facts:
        """Facts after ``stmt`` itself (for a compound statement, its
        header) has run."""
        awaited = _suspends(stmt)
        facts = {(var, attr, crossed or awaited) for var, attr, crossed in state}
        if (
            isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign))
            and stmt.value is not None
        ):
            targets: list[ast.expr] = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            reads = _local_reads(stmt.value)
            # The RHS is evaluated against the incoming state: look for
            # stale writes before modeling this statement's own bindings.
            for attr in filter(None, map(_self_attr, targets)):
                for var in reads:
                    if (var, attr, True) in facts:
                        self.hits[stmt.lineno] = (stmt, var, attr)
            if not isinstance(stmt, ast.AugAssign):
                # A local assigned from ``self.X``, or from a tainted local.
                taints = {(attr, awaited) for attr in _self_attr_reads(stmt.value)}
                taints |= {(attr, crossed) for var, attr, crossed in facts if var in reads}
                for target in targets:
                    if isinstance(target, ast.Name):
                        facts = {f for f in facts if f[0] != target.id}
                        facts |= {(target.id, attr, crossed) for attr, crossed in taints}
        for seen in self.tries:
            seen |= facts
        return frozenset(facts)

    def block(self, body: list[ast.stmt], state: Facts) -> Facts:
        for stmt in body:
            state = self.stmt(stmt, state)
        return state

    def stmt(self, stmt: ast.stmt, state: Facts) -> Facts:
        """Facts that fall through ``stmt`` to the statement after it."""
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self.loop(stmt, state)
        state = self.transfer(stmt, state)
        if isinstance(stmt, ast.If):
            return self.block(stmt.body, state) | self.block(stmt.orelse, state)
        if isinstance(stmt, ast.With):
            return self.block(stmt.body, state)
        if isinstance(stmt, ast.AsyncWith):
            # ``__aexit__`` is awaited on the way out as well.
            left = self.block(stmt.body, state)
            return frozenset((var, attr, True) for var, attr, _ in left)
        if isinstance(stmt, ast.Match):
            out = state  # no case matched
            for case in stmt.cases:
                out |= self.block(case.body, state)
            return out
        if isinstance(stmt, ast.Try):
            return self.try_(stmt, state)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            return frozenset()
        if isinstance(stmt, (ast.Break, ast.Continue)) and self.loops:
            broke, continued = self.loops[-1]
            (continued if isinstance(stmt, ast.Continue) else broke).update(state)
            return frozenset()
        return state

    def loop(self, stmt: ast.While | ast.For | ast.AsyncFor, state: Facts) -> Facts:
        # ``state`` is what reaches the loop head: from above, from the
        # end of the body and from ``continue``.  Facts only accumulate,
        # so the repeat ends.
        while True:
            self.loops.append((set(), set()))
            head = self.transfer(stmt, state)
            bottom = self.block(stmt.body, head)
            broke, continued = self.loops.pop()
            grown = state.union(bottom, continued)
            if grown == state:
                break
            state = grown
        forever = (
            isinstance(stmt, ast.While)
            and isinstance(stmt.test, ast.Constant)
            and bool(stmt.test.value)
        )
        done: Facts = frozenset() if forever else head
        return self.block(stmt.orelse, done).union(broke)

    def try_(self, stmt: ast.Try, state: Facts) -> Facts:
        self.tries.append(set(state))
        out = self.block(stmt.body, state)
        raised = frozenset(self.tries.pop())
        out = self.block(stmt.orelse, out)
        for handler in stmt.handlers:
            out |= self.block(handler.body, raised)
        if stmt.finalbody:
            # One shared suite for every way in (completion, exception,
            # early return): over-approximates the paths that continue.
            out = self.block(stmt.finalbody, out | raised)
        return out


@register_rule(
    "AWA001",
    Severity.ERROR,
    "a write to shared state uses a value read before an await "
    "(stale read-modify-write across a suspension point)",
)
def stale_write_across_await(module: ModuleInfo) -> Iterator[Finding]:
    for fn in _async_defs(module):
        walk = _StaleWrites()
        walk.block(fn.body, frozenset())
        for lineno in sorted(walk.hits):
            stmt, var, attr = walk.hits[lineno]
            yield module.finding(
                "AWA001",
                Severity.ERROR,
                stmt,
                f"write to 'self.{attr}' uses {var!r}, which was derived "
                f"from 'self.{attr}' before an await (in async def "
                f"{fn.name}); re-read the attribute after the suspension "
                f"point",
            )


@register_rule(
    "AWA002",
    Severity.ERROR,
    "read-modify-write of shared state with an await on the right-hand "
    "side",
)
def rmw_with_await(module: ModuleInfo) -> Iterator[Finding]:
    for fn in _async_defs(module):
        for stmt in walk_skipping_defs(fn.body):
            if not isinstance(stmt, ast.AugAssign):
                continue
            attr = _self_attr(stmt.target)
            if attr is None:
                continue
            if any(isinstance(n, ast.Await) for n in ast.walk(stmt.value)):
                yield module.finding(
                    "AWA002",
                    Severity.ERROR,
                    stmt,
                    f"'self.{attr} += <await ...>' reads the "
                    f"attribute before the suspension and writes after "
                    f"it (in async def {fn.name}); await into a local "
                    f"first, then apply the update",
                )
