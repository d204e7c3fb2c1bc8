"""LIF001 — a locally acquired pool resource must not leak.

The page-lifecycle bug class (double frees, orphaned cached chains,
pins leaked on the ``BudgetExceededError`` path) cost PRs 4–5 most of
their debugging time, and every instance had the same shape: an acquire
whose paired release is missed on *some* path — usually the exception
path.  LIF001 encodes that pairing as typestate over the CFG and call
graph: a locally-held resource (``kv = backend.create_request(...)``,
``page, _ = pool.acquire(...)``) may not reach function exit — normal
or via an escaping tracked exception — neither released nor handed off.
Hand-offs are resolved through the call graph: ``self._finish(kv)``
counts as a release because ``_finish`` calls ``kv.release()``; storing
to an attribute, container or return value transfers ownership.

Exception edges use the call graph's transitive raise summaries for the
shed family (``BudgetExceededError`` and subclasses), so a call that
reaches a ``raise BudgetExceededError`` counts as a possible raise point
in the *caller's* CFG, with local ``except`` clauses matched by class
hierarchy.  On the live tree this is what the rule is kept for: a
shed-family raise planted between ``pool.acquire`` and
``self.pages.append(page)`` is flagged here and by no tier-1 test
(``pageify-raise-before-handoff`` in ``tests/mutants.py``).  Dropped
``release()``/``commit_chunk()`` calls are *not* this rule's business —
the budget tests kill those in seconds.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..callgraph import CallGraph, CallSite
from ..cfg import EXIT, RAISE_EXIT, build_cfg, terminal_name, walk_header
from ..dataflow import run_forward, union_join
from ..findings import Finding, Severity
from ..project import FunctionInfo, Project
from ..registry import register_project_rule

#: The shed family: raised between acquire and release, these are the
#: exceptions that historically leaked resources.
TRACKED_EXCEPTIONS = frozenset(
    {"BudgetExceededError", "RequestShedError", "RequestTimeoutError"}
)

#: Acquire factories: call name -> does the resource land in the first
#: element of a tuple target (``page, shared = pool.acquire(...)``)?
ACQUIRE_OPS: dict[str, bool] = {"create_request": False, "acquire": True}

CLOSE_OPS = frozenset({"release"})


def _assign_targets(stmt: ast.AST) -> list[ast.expr]:
    if isinstance(stmt, ast.Assign):
        return list(stmt.targets)
    if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        return [stmt.target]
    return []


def _acquired_var(stmt: ast.AST) -> "tuple[str, ast.Call] | None":
    """``var`` bound to an acquire-factory call by this statement."""
    targets = _assign_targets(stmt)
    if len(targets) != 1:
        return None
    value = stmt.value if isinstance(stmt, (ast.Assign, ast.AnnAssign)) else None
    if not isinstance(value, ast.Call):
        return None
    name = terminal_name(value.func)
    if name not in ACQUIRE_OPS:
        return None
    target = targets[0]
    if ACQUIRE_OPS[name] and isinstance(target, ast.Tuple) and target.elts:
        target = target.elts[0]
    if isinstance(target, ast.Name):
        return target.id, value
    return None


# ---------------------------------------------------------------------------
# LIF001 — locally-held resources must be released or handed off.
# ---------------------------------------------------------------------------

@register_project_rule(
    "LIF001",
    Severity.ERROR,
    "a locally acquired resource may leak on some path "
    "(release it, hand it off, or guard with try/finally)",
)
def local_resource_leak(project: Project) -> Iterator[Finding]:
    graph = CallGraph(project)
    for fn in project.iter_functions():
        if not fn.module.is_repro:
            continue
        if not any(s.name in ACQUIRE_OPS for s in graph.call_sites(fn)):
            continue
        yield from _check_function_leaks(project, graph, fn)


def _check_function_leaks(
    project: Project, graph: CallGraph, fn: FunctionInfo
) -> Iterator[Finding]:
    cfg = build_cfg(
        fn.node,
        project.catches,
        raises_of=graph.raises_callback(fn, TRACKED_EXCEPTIONS),
    )

    def transfer(
        node: object, state: "frozenset[tuple[str, int]]"
    ) -> "frozenset[tuple[str, int]]":
        stmt = getattr(node, "stmt", None)
        if stmt is None:
            return state
        facts = set(state)
        # Closes, hand-offs and escapes first; acquisition last (a
        # statement may do both, e.g. rebinding).
        closed: set[str] = set()
        for site in graph.sites_in_statement(fn, stmt):
            if site.name in CLOSE_OPS and site.receiver is not None:
                closed.add(site.receiver)
                continue
            closed.update(_handed_off(graph, site, facts))
        # Escapes: stored to attribute/subscript, returned, yielded.
        for name in _escaping_names(stmt):
            closed.add(name)
        # Rebinds kill tracking of the old value.
        for target in _assign_targets(stmt):
            if isinstance(target, ast.Name):
                closed.add(target.id)
            elif isinstance(target, ast.Tuple):
                closed.update(
                    e.id for e in target.elts if isinstance(e, ast.Name)
                )
        if closed:
            facts = {f for f in facts if f[0] not in closed}
        acquired = _acquired_var(stmt)
        if acquired is not None:
            var, call = acquired
            facts = {f for f in facts if f[0] != var}
            facts.add((var, call.lineno))
        return frozenset(facts)

    states = run_forward(cfg, frozenset(), transfer, union_join)
    leaks: dict[tuple[str, int], set[str]] = {}
    for exit_id, how in ((EXIT, "function exit"), (RAISE_EXIT, "an escaping exception")):
        for fact in states.get(exit_id, frozenset()):
            leaks.setdefault(fact, set()).add(how)
    for (var, lineno), hows in sorted(leaks.items(), key=lambda kv: kv[0][1]):
        anchor = ast.stmt()
        anchor.lineno = lineno
        anchor.col_offset = 0
        yield fn.module.finding(
            "LIF001",
            Severity.ERROR,
            anchor,
            f"resource {var!r} acquired here may reach "
            f"{' and '.join(sorted(hows))} without release "
            f"(in {fn.qualname}); release it on every path or hand it off",
        )


def _handed_off(
    graph: CallGraph, site: CallSite, facts: "set[tuple[str, int]]"
) -> set[str]:
    """Tracked names this call closes or takes ownership of."""
    live = {f[0] for f in facts}
    passed = {
        a.id for a in site.call.args if isinstance(a, ast.Name) and a.id in live
    }
    passed |= {
        kw.value.id
        for kw in site.call.keywords
        if isinstance(kw.value, ast.Name) and kw.value.id in live
    }
    if not passed:
        return set()
    callees = graph.resolve(site)
    if not callees:
        # Unknown callee (or a container method): ownership escapes;
        # the benefit of the doubt keeps may-analysis findings honest.
        return passed
    gone: set[str] = set()
    for arg_name, callee_param in graph.argument_bindings(site, callees):
        if arg_name not in passed:
            continue
        for callee in callees:
            if callee_param in graph.closes_params(callee, CLOSE_OPS):
                gone.add(arg_name)
    return gone


def _escaping_names(stmt: ast.AST) -> set[str]:
    out: set[str] = set()
    if isinstance(stmt, (ast.Return,)) and stmt.value is not None:
        for node in ast.walk(stmt.value):
            if isinstance(node, ast.Name):
                out.add(node.id)
    for target in _assign_targets(stmt):
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            value = getattr(stmt, "value", None)
            if value is not None:
                for node in ast.walk(value):
                    if isinstance(node, ast.Name):
                        out.add(node.id)
    for node in walk_header(stmt):
        if isinstance(node, (ast.Yield, ast.YieldFrom)) and node.value is not None:
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Name):
                    out.add(sub.id)
    return out
