"""LIF001 — a locally acquired pool resource is handed off at once.

The page-lifecycle bug class (orphaned cached chains, pins leaked on the
``BudgetExceededError`` path) cost PRs 4–5 most of their debugging time,
and every instance had the same shape: an acquire whose owner is
recorded too late, so *some* way out of the function — usually an
exception — leaves a pinned page nobody will release.  LIF001 closes
that window where it opens.  After ::

    kv = backend.create_request(...)
    page, _ = pool.acquire(...)

binds a local, the following statements of the same block must hand the
resource off — store it (``request.kv = kv``), pass it
(``self.pages.append(page)``), return or yield it, ``release()`` it, or
be a ``try`` whose ``finally`` does one of those — before any statement
that can leave: one containing a ``raise``, ``return``, ``await``,
``yield`` or a call.  Plain assignments in between are fine; the block
ending first is not.

That is a straight-line check over one statement list: no call
resolution (any call might raise, so none is allowed in the window) and
no flow graph (a hand-off behind a branch or a loop is not a hand-off).
On the live tree it is what flags a shed-family raise planted between
``pool.acquire`` and ``self.pages.append(page)``
(``pageify-raise-before-handoff`` in ``tests/mutants.py``) and a pin
recorded only after the per-layer segment loop
(``attach-append-after-segments``); neither is seen by any tier-1 test.
Dropped ``release()``/``commit_chunk()`` calls are *not* this rule's
business — the budget tests kill those in seconds.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding, Severity
from ..registry import register_rule
from ..runner import ModuleInfo
from . import terminal_name

#: Acquire factories: call name -> does the resource land in the first
#: element of a tuple target (``page, shared = pool.acquire(...)``)?
ACQUIRE_OPS: dict[str, bool] = {"create_request": False, "acquire": True}

CLOSE_OPS = frozenset({"release"})

#: A statement containing one of these can leave its block (or run code
#: that can) before the statement after it executes.
_CAN_LEAVE = (ast.Raise, ast.Return, ast.Await, ast.Yield, ast.YieldFrom, ast.Call)


def _acquired_var(stmt: ast.stmt) -> str | None:
    """The local this statement binds to an acquire-factory call."""
    target: ast.expr
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
    elif isinstance(stmt, ast.AnnAssign):
        target = stmt.target
    else:
        return None
    if not isinstance(stmt.value, ast.Call):
        return None
    name = terminal_name(stmt.value)
    if name not in ACQUIRE_OPS:
        return None
    if ACQUIRE_OPS[name] and isinstance(target, ast.Tuple) and target.elts:
        target = target.elts[0]
    return target.id if isinstance(target, ast.Name) else None


def _mentions(expr: ast.AST, var: str) -> bool:
    return any(isinstance(n, ast.Name) and n.id == var for n in ast.walk(expr))


def _hands_off(stmt: ast.stmt, var: str) -> bool:
    """Does ``stmt`` store, pass, return, yield or release ``var``?

    Only a simple statement can (or a ``try`` through its ``finally``):
    a hand-off inside an ``if`` or a loop body may not run.
    """
    if isinstance(stmt, ast.Try):
        return any(_hands_off(s, var) for s in stmt.finalbody)
    targets: list[ast.expr]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    elif isinstance(stmt, (ast.Expr, ast.Return)):
        targets = []
    else:
        return False
    if stmt.value is None:
        return False
    escapes = isinstance(stmt, ast.Return) or any(
        isinstance(t, (ast.Attribute, ast.Subscript)) for t in targets
    )
    if escapes and _mentions(stmt.value, var):
        return True
    for node in ast.walk(stmt.value):
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in CLOSE_OPS
                and isinstance(func.value, ast.Name)
                and func.value.id == var
            ):
                return True
            passed = [*node.args, *(kw.value for kw in node.keywords)]
            if any(isinstance(a, ast.Name) and a.id == var for a in passed):
                return True
        elif isinstance(node, (ast.Yield, ast.YieldFrom)) and node.value is not None:
            if _mentions(node.value, var):
                return True
    return False


def _gap(rest: list[ast.stmt], var: str) -> str | None:
    """Why ``var`` can leak in the statements after its acquire, if it can."""
    for stmt in rest:
        if _hands_off(stmt, var):
            return None
        if any(isinstance(n, _CAN_LEAVE) for n in ast.walk(stmt)):
            return f"line {stmt.lineno} can raise or leave"
    return "its block ends"


def _check_block(module: ModuleInfo, block: list[ast.stmt]) -> Iterator[Finding]:
    for idx, stmt in enumerate(block):
        var = _acquired_var(stmt)
        why = _gap(block[idx + 1 :], var) if var is not None else None
        if why is not None:
            yield module.finding(
                "LIF001",
                Severity.ERROR,
                stmt,
                f"resource {var!r} acquired here is not stored, passed, "
                f"returned or released before {why}; hand it off "
                f"first, or guard the gap with try/finally",
            )


@register_rule(
    "LIF001",
    Severity.ERROR,
    "a locally acquired resource must be handed off before anything "
    "that can leave (store/pass/return/release it, or try/finally)",
)
def local_resource_leak(module: ModuleInfo) -> Iterator[Finding]:
    if not module.is_repro:
        return
    for owner in ast.walk(module.tree):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(owner, field, None)
            # ``IfExp``/``Lambda`` bodies are expressions, not blocks.
            if isinstance(block, list):
                yield from _check_block(module, block)
