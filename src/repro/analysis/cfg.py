"""Per-function control-flow graphs over stdlib ``ast``.

The CFG is statement-granular: each executable statement *header* is one
node (an ``if``'s node is its test; the branch bodies are separate
chains).  Three synthetic nodes frame every graph: ``ENTRY`` (0),
``EXIT`` (1, normal returns) and ``RAISE_EXIT`` (2, exceptions that
escape the function).  Edges carry a *kind* so typestate rules can
distinguish how control arrived:

=========  ==========================================================
next       sequential fall-through
true/false branch taken / not taken (``if``/``while``/``for`` tests)
back       loop back-edge (end of body to head)
break      ``break`` to the statement after the loop
continue   ``continue`` to the loop head
case       ``match`` dispatch into (or past) a case body
except     exception transfer into a handler — carries the *pre* state
           of the raising statement (the statement did not complete)
return     ``return`` to ``EXIT``
raise      an uncaught exception to ``RAISE_EXIT``
finally    deferred transfer into a ``finally`` suite
=========  ==========================================================

Exception edges are parameterized, because "what can raise" is the
whole game for lifecycle analysis:

* every statement inside a ``try`` with handlers gets coarse ``except``
  edges to the handlers of that ``try`` (anything may raise
  *something*), walking outward until a handler certainly catches;
* *known* raises — explicit ``raise`` statements plus whatever the
  ``raises_of`` callback reports for a statement (e.g. calls that
  transitively raise ``BudgetExceededError``, per the call graph) — are
  routed through the handler stack by name, using the ``catches``
  predicate for hierarchy matching, and reach ``RAISE_EXIT`` when no
  frame catches them.

``finally`` suites are built once and shared by every route through
them (normal completion, deferred returns/breaks/raises).  That
over-approximates paths — a raising route appears to also continue
normally — which for may-analyses means *fewer* findings, never bogus
ones.  The package is stdlib-only, like the rest of ``repro.analysis``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence, Union

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Names the exceptions a (non-``raise``) statement may raise, e.g. by
#: resolving its calls against call-graph summaries.  ``WILDCARD`` means
#: "something unknowable".
RaisesFn = Callable[[ast.AST], Sequence[str]]

#: ``catches(handler_type_names, exc_name)`` — ``True`` certainly
#: caught, ``False`` certainly not, ``None`` maybe (edge added, raise
#: keeps propagating outward).
CatchesFn = Callable[[tuple[str, ...], str], "bool | None"]

WILDCARD = "*"

ENTRY = 0
EXIT = 1
RAISE_EXIT = 2

#: Ancestry for the builtin exceptions this repo's handlers name, so the
#: project's matcher understands ``except ValueError`` vs a raise of a
#: ``ValueError`` subclass defined in the tree.
BUILTIN_EXC_BASES: dict[str, str] = {
    "ValueError": "Exception",
    "TypeError": "Exception",
    "KeyError": "LookupError",
    "IndexError": "LookupError",
    "LookupError": "Exception",
    "AttributeError": "Exception",
    "RuntimeError": "Exception",
    "NotImplementedError": "RuntimeError",
    "OSError": "Exception",
    "TimeoutError": "OSError",
    "AssertionError": "Exception",
    "StopIteration": "Exception",
    "StopAsyncIteration": "Exception",
    "ArithmeticError": "Exception",
    "ZeroDivisionError": "ArithmeticError",
    "OverflowError": "ArithmeticError",
    "Exception": "BaseException",
    "KeyboardInterrupt": "BaseException",
    "SystemExit": "BaseException",
}


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    kind: str


@dataclass
class Node:
    nid: int
    #: The header AST node (a statement, or ``ast.ExceptHandler`` for
    #: handler heads); ``None`` for the three synthetic nodes.
    stmt: ast.AST | None
    succs: list[Edge] = field(default_factory=list)


@dataclass
class CFG:
    """One function's control-flow graph."""

    func: FunctionNode
    nodes: list[Node] = field(default_factory=list)

    def new_node(self, stmt: ast.AST | None) -> int:
        nid = len(self.nodes)
        self.nodes.append(Node(nid=nid, stmt=stmt))
        return nid

    def add_edge(self, src: int, dst: int, kind: str) -> None:
        edge = Edge(src, dst, kind)
        if edge not in self.nodes[src].succs:
            self.nodes[src].succs.append(edge)


# ---------------------------------------------------------------------------
# Small AST utilities shared with the rules.
# ---------------------------------------------------------------------------

def terminal_name(node: ast.AST | None) -> str | None:
    """The final identifier of a name/attribute chain (``a.b.C`` → C)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def raise_name(stmt: ast.Raise) -> str:
    """The exception class name a ``raise`` throws (bare → wildcard)."""
    return terminal_name(stmt.exc) or WILDCARD


def handler_type_names(handler: ast.ExceptHandler) -> tuple[str, ...] | None:
    """Type names an ``except`` clause declares; ``None`` = catch-all."""
    if handler.type is None:
        return None
    types = (
        list(handler.type.elts)
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    return tuple(terminal_name(t) or WILDCARD for t in types)


def header_exprs(stmt: ast.AST) -> list[ast.AST]:
    """The expressions a CFG node actually evaluates.

    Compound statements evaluate only their header here (``if``'s test,
    ``for``'s iter); their bodies are separate CFG nodes, so walking the
    raw statement would mis-attribute nested work to the header.
    """
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.target, stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        out: list[ast.AST] = []
        for item in stmt.items:
            out.append(item.context_expr)
            if item.optional_vars is not None:
                out.append(item.optional_vars)
        return out
    if isinstance(stmt, ast.Try):
        return []
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    if isinstance(stmt, ast.ExceptHandler):
        return [stmt.type] if stmt.type is not None else []
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        defaults: list[ast.AST] = list(stmt.args.defaults)
        defaults.extend(d for d in stmt.args.kw_defaults if d is not None)
        defaults.extend(stmt.decorator_list)
        return defaults
    if isinstance(stmt, ast.ClassDef):
        header: list[ast.AST] = list(stmt.bases)
        header.extend(kw.value for kw in stmt.keywords)
        header.extend(stmt.decorator_list)
        return header
    return [stmt]


def walk_header(stmt: ast.AST) -> Iterator[ast.AST]:
    """Walk a node's header expressions, skipping ``lambda`` bodies
    (they run later, in their own scope)."""
    stack: list[ast.AST] = list(header_exprs(stmt))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, ast.Lambda):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _no_raises(stmt: ast.AST) -> Sequence[str]:
    return ()


def _is_const_true(test: ast.expr) -> bool:
    return isinstance(test, ast.Constant) and bool(test.value) is True


# ---------------------------------------------------------------------------
# Builder.
# ---------------------------------------------------------------------------

@dataclass
class _Loop:
    head: int
    break_out: "list[tuple[int, str]]" = field(default_factory=list)


@dataclass
class _Try:
    #: Per handler: (declared type names or None for catch-all,
    #: pending source node ids to wire once the handler head exists).
    handler_edges: "list[tuple[tuple[str, ...] | None, list[int]]]"
    has_finally: bool
    #: Route key -> sources whose transfer must run the finally first.
    #: Keys: ("return",), ("raise", name), ("break",), ("continue",).
    deferred: "dict[tuple[str, ...], list[int]]" = field(default_factory=dict)


class _Builder:
    def __init__(
        self, func: FunctionNode, raises_of: RaisesFn, catches: CatchesFn
    ) -> None:
        self.cfg = CFG(func=func)
        for _ in (ENTRY, EXIT, RAISE_EXIT):
            self.cfg.new_node(None)
        self.raises_of = raises_of
        self.catches = catches
        self.frames: list[_Loop | _Try] = []

    # -- plumbing ----------------------------------------------------------
    def build(self) -> CFG:
        out = self._stmts(self.cfg.func.body, [(ENTRY, "next")])
        self._connect(out, EXIT)
        return self.cfg

    def _connect(self, frontier: "list[tuple[int, str]]", dst: int) -> None:
        for src, kind in frontier:
            self.cfg.add_edge(src, dst, kind)

    def _stmts(
        self, body: Sequence[ast.stmt], frontier: "list[tuple[int, str]]"
    ) -> "list[tuple[int, str]]":
        for stmt in body:
            frontier = self._stmt(stmt, frontier)
        return frontier

    # -- exception routing -------------------------------------------------
    def _coarse_except_edges(self, nid: int) -> None:
        """Anything may raise *something*: wire ``nid`` to the handlers
        of every enclosing ``try``, stopping at a certain catch."""
        for frame in reversed(self.frames):
            if not isinstance(frame, _Try):
                continue
            certain = False
            for names, pending in frame.handler_edges:
                pending.append(nid)
                if names is None or "Exception" in names or "BaseException" in names:
                    certain = True
                    break
            if certain:
                return

    def _route_raise(self, nid: int, exc: str) -> None:
        """Route a *known* raise of ``exc`` through the frame stack."""
        for frame in reversed(self.frames):
            if not isinstance(frame, _Try):
                continue
            for names, pending in frame.handler_edges:
                if names is None:
                    pending.append(nid)
                    return
                verdict = self.catches(names, exc)
                if verdict is True:
                    pending.append(nid)
                    return
                if verdict is None:
                    pending.append(nid)
            if frame.has_finally:
                frame.deferred.setdefault(("raise", exc), []).append(nid)
                return
        self.cfg.add_edge(nid, RAISE_EXIT, "raise")

    def _route_return(self, nid: int) -> None:
        for frame in reversed(self.frames):
            if isinstance(frame, _Try) and frame.has_finally:
                frame.deferred.setdefault(("return",), []).append(nid)
                return
        self.cfg.add_edge(nid, EXIT, "return")

    def _route_loop(self, nid: int, kind: str) -> None:
        loop_at = next(
            (
                i
                for i in range(len(self.frames) - 1, -1, -1)
                if isinstance(self.frames[i], _Loop)
            ),
            None,
        )
        if loop_at is None:  # break/continue outside a loop: dead code
            return
        for frame in reversed(self.frames[loop_at + 1 :]):
            if isinstance(frame, _Try) and frame.has_finally:
                frame.deferred.setdefault((kind,), []).append(nid)
                return
        loop = self.frames[loop_at]
        assert isinstance(loop, _Loop)
        if kind == "break":
            loop.break_out.append((nid, "break"))
        else:
            self.cfg.add_edge(nid, loop.head, "continue")

    # -- statement dispatch ------------------------------------------------
    def _stmt(
        self, stmt: ast.stmt, frontier: "list[tuple[int, str]]"
    ) -> "list[tuple[int, str]]":
        if isinstance(stmt, ast.If):
            return self._if(stmt, frontier)
        if isinstance(stmt, (ast.While,)):
            return self._while(stmt, frontier)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._for(stmt, frontier)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, frontier)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, frontier)
        if isinstance(stmt, ast.Match):
            return self._match(stmt, frontier)
        return self._simple(stmt, frontier)

    def _simple(
        self, stmt: ast.stmt, frontier: "list[tuple[int, str]]"
    ) -> "list[tuple[int, str]]":
        nid = self.cfg.new_node(stmt)
        self._connect(frontier, nid)
        self._coarse_except_edges(nid)
        if isinstance(stmt, ast.Return):
            self._route_return(nid)
            return []
        if isinstance(stmt, ast.Raise):
            self._route_raise(nid, raise_name(stmt))
            return []
        if isinstance(stmt, ast.Break):
            self._route_loop(nid, "break")
            return []
        if isinstance(stmt, ast.Continue):
            self._route_loop(nid, "continue")
            return []
        for exc in self.raises_of(stmt):
            self._route_raise(nid, exc)
        return [(nid, "next")]

    def _if(
        self, stmt: ast.If, frontier: "list[tuple[int, str]]"
    ) -> "list[tuple[int, str]]":
        nid = self.cfg.new_node(stmt)
        self._connect(frontier, nid)
        self._coarse_except_edges(nid)
        for exc in self.raises_of(stmt):
            self._route_raise(nid, exc)
        t_out = self._stmts(stmt.body, [(nid, "true")])
        f_out = self._stmts(stmt.orelse, [(nid, "false")])
        return t_out + f_out

    def _while(
        self, stmt: ast.While, frontier: "list[tuple[int, str]]"
    ) -> "list[tuple[int, str]]":
        head = self.cfg.new_node(stmt)
        self._connect(frontier, head)
        self._coarse_except_edges(head)
        for exc in self.raises_of(stmt):
            self._route_raise(head, exc)
        loop = _Loop(head=head)
        self.frames.append(loop)
        b_out = self._stmts(stmt.body, [(head, "true")])
        self.frames.pop()
        for src, _kind in b_out:
            self.cfg.add_edge(src, head, "back")
        exit_front: "list[tuple[int, str]]" = (
            [] if _is_const_true(stmt.test) else [(head, "false")]
        )
        o_out = self._stmts(stmt.orelse, exit_front)
        return o_out + loop.break_out

    def _for(
        self, stmt: "ast.For | ast.AsyncFor", frontier: "list[tuple[int, str]]"
    ) -> "list[tuple[int, str]]":
        head = self.cfg.new_node(stmt)
        self._connect(frontier, head)
        self._coarse_except_edges(head)
        for exc in self.raises_of(stmt):
            self._route_raise(head, exc)
        loop = _Loop(head=head)
        self.frames.append(loop)
        b_out = self._stmts(stmt.body, [(head, "true")])
        self.frames.pop()
        for src, _kind in b_out:
            self.cfg.add_edge(src, head, "back")
        o_out = self._stmts(stmt.orelse, [(head, "false")])
        return o_out + loop.break_out

    def _with(
        self, stmt: "ast.With | ast.AsyncWith", frontier: "list[tuple[int, str]]"
    ) -> "list[tuple[int, str]]":
        nid = self.cfg.new_node(stmt)
        self._connect(frontier, nid)
        self._coarse_except_edges(nid)
        for exc in self.raises_of(stmt):
            self._route_raise(nid, exc)
        return self._stmts(stmt.body, [(nid, "next")])

    def _match(
        self, stmt: ast.Match, frontier: "list[tuple[int, str]]"
    ) -> "list[tuple[int, str]]":
        nid = self.cfg.new_node(stmt)
        self._connect(frontier, nid)
        self._coarse_except_edges(nid)
        out: "list[tuple[int, str]]" = []
        for case in stmt.cases:
            out.extend(self._stmts(case.body, [(nid, "case")]))
        out.append((nid, "case"))  # no case matched
        return out

    def _try(
        self, stmt: ast.Try, frontier: "list[tuple[int, str]]"
    ) -> "list[tuple[int, str]]":
        frame = _Try(
            handler_edges=[(handler_type_names(h), []) for h in stmt.handlers],
            has_finally=bool(stmt.finalbody),
        )
        self.frames.append(frame)
        body_out = self._stmts(stmt.body, frontier)
        self.frames.pop()
        # orelse runs only on clean completion; its raises are NOT
        # caught by this try's handlers, hence built after the pop.
        body_out = self._stmts(stmt.orelse, body_out)

        handler_out: "list[tuple[int, str]]" = []
        for (_names, pending), handler in zip(frame.handler_edges, stmt.handlers):
            head = self.cfg.new_node(handler)
            for src in sorted(set(pending)):
                self.cfg.add_edge(src, head, "except")
            handler_out.extend(self._stmts(handler.body, [(head, "next")]))

        after = body_out + handler_out
        if not stmt.finalbody:
            return after

        fin_in = list(after)
        for sources in frame.deferred.values():
            fin_in.extend((src, "finally") for src in sorted(set(sources)))
        fin_out = self._stmts(stmt.finalbody, fin_in)
        # Re-route each deferred reason from the (shared) finally exit.
        for key in frame.deferred:
            for src, _kind in fin_out:
                if key == ("return",):
                    self._route_return(src)
                elif key[0] == "raise":
                    self._route_raise(src, key[1])
                else:
                    self._route_loop(src, key[0])
        return fin_out if after else []


def build_cfg(
    func: FunctionNode, catches: CatchesFn, raises_of: RaisesFn = _no_raises
) -> CFG:
    """Build the CFG for one function.

    ``catches`` decides handler/exception hierarchy matches
    (:meth:`repro.analysis.project.Project.catches`); ``raises_of``
    supplies *known* exceptions for non-``raise`` statements (explicit
    ``raise`` statements are always routed).
    """
    return _Builder(func, raises_of, catches).build()
