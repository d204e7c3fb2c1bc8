"""Call resolution and interprocedural summaries over a :class:`Project`.

Resolution is deliberately modest — this is a linter's call graph, not a
compiler's.  A call resolves when the evidence is strong:

* ``f(...)`` — a module-level function in the caller's own module,
  else the unique module-level ``f`` project-wide;
* ``self.m(...)`` — method lookup through the caller's class MRO;
* ``self.attr.m(...)`` — via the class's inferred ``attr_types``;
* ``anything.m(...)`` — the unique class project-wide defining ``m``
  (capped: a name defined by many classes resolves to nothing, and
  builtin-collection method names like ``append`` never resolve).

Unresolved calls stay unresolved and the rules treat them
conservatively.  On top of resolution sit the two summaries LIF001 —
the one rule this module exists for — consumes:

* :meth:`CallGraph.raises_summary` — which *tracked* exceptions escape
  a function, through its callees, minus what local handlers certainly
  catch (this is what turns a ``pool.acquire`` call inside
  ``ingest_chunk`` into a ``BudgetExceededError`` edge in the caller's
  CFG);
* :meth:`CallGraph.closes_params` — parameters a callee may close
  (``kv`` handed to ``_finish`` counts as released because ``_finish``
  calls ``kv.release()``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .cfg import terminal_name, walk_header
from .project import ClassInfo, FunctionInfo, Project

#: Method names that belong to builtin collections; resolving these by
#: uniqueness would wire ``list.append`` to some project class.
_COLLECTION_METHODS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "clear", "copy",
        "sort", "reverse", "index", "count", "get", "setdefault", "update",
        "keys", "values", "items", "popitem", "add", "discard", "union",
        "join", "split", "strip", "format", "read", "write", "close",
        "flush", "encode", "decode", "startswith", "endswith",
    }
)

#: A bare method name defined by more classes than this is ambiguous.
_MAX_CANDIDATE_CLASSES = 4


@dataclass(frozen=True)
class CallSite:
    call: ast.Call
    caller: FunctionInfo
    #: Terminal name of the called expression (``self.pool.acquire`` →
    #: ``acquire``).
    name: str
    #: Dotted receiver (``self``, ``self.pool``, ``kv``) or ``None``
    #: for bare-name calls.
    receiver: str | None


def _dotted(node: ast.AST) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class CallGraph:
    def __init__(self, project: Project) -> None:
        self.project = project
        self._sites: dict[FunctionInfo, list[CallSite]] = {}
        self._raises_memo: dict[tuple[int, frozenset[str]], frozenset[str]] = {}
        self._raises_stack: set[tuple[int, frozenset[str]]] = set()
        self._closes_memo: dict[tuple[int, frozenset[str]], frozenset[str]] = {}

    # ------------------------------------------------------------------
    # Call-site extraction.
    # ------------------------------------------------------------------
    def call_sites(self, fn: FunctionInfo) -> list[CallSite]:
        cached = self._sites.get(fn)
        if cached is not None:
            return cached
        sites: list[CallSite] = []
        for stmt in self._own_statements(fn):
            for node in walk_header(stmt):
                if not isinstance(node, ast.Call):
                    continue
                name = terminal_name(node.func)
                if name is None:
                    continue
                receiver = (
                    _dotted(node.func.value)
                    if isinstance(node.func, ast.Attribute)
                    else None
                )
                sites.append(
                    CallSite(call=node, caller=fn, name=name, receiver=receiver)
                )
        self._sites[fn] = sites
        return sites

    @staticmethod
    def _own_statements(fn: FunctionInfo) -> Iterator[ast.stmt]:
        """Statements of ``fn`` itself, not of nested ``def``s."""
        stack: list[ast.stmt] = list(fn.node.body)
        while stack:
            stmt = stack.pop()
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            yield stmt
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    stack.append(child)
                elif isinstance(child, ast.ExceptHandler):
                    stack.extend(child.body)
                elif isinstance(child, ast.match_case):
                    stack.extend(child.body)

    # ------------------------------------------------------------------
    # Resolution.
    # ------------------------------------------------------------------
    def resolve(self, site: CallSite) -> list[FunctionInfo]:
        project = self.project
        if site.receiver is None:
            local = [
                f
                for f in project.functions_by_name.get(site.name, [])
                if f.module is site.caller.module
            ]
            if local:
                return local[:1]
            everywhere = project.functions_by_name.get(site.name, [])
            return everywhere if len(everywhere) == 1 else []
        cls = self.receiver_class(site)
        if cls is not None:
            method = project.resolve_method(cls, site.name)
            return [method] if method is not None else []
        if site.name in _COLLECTION_METHODS:
            return []
        candidates = project.methods_by_name.get(site.name, [])
        owners = {id(f.cls) for f in candidates}
        if 0 < len(owners) <= _MAX_CANDIDATE_CLASSES:
            return list(candidates)
        return []

    def receiver_class(self, site: CallSite) -> ClassInfo | None:
        """The class a dotted receiver provably holds, if any."""
        receiver = site.receiver
        if receiver is None:
            return None
        caller_cls = site.caller.cls
        if receiver == "self":
            return caller_cls
        root, _, rest = receiver.partition(".")
        if root == "self" and caller_cls is not None and rest and "." not in rest:
            type_name = caller_cls.attr_types.get(rest)
            if type_name is not None:
                return self.project.class_named(type_name)
        if "." not in receiver and receiver[:1].isupper():
            # ClassName.method(...) — direct class reference.
            return self.project.class_named(receiver)
        return None

    # ------------------------------------------------------------------
    # Summaries.
    # ------------------------------------------------------------------
    def raises_summary(
        self, fn: FunctionInfo, tracked: frozenset[str]
    ) -> frozenset[str]:
        """Tracked exceptions that may escape ``fn`` (transitively)."""
        key = (id(fn.node), tracked)
        cached = self._raises_memo.get(key)
        if cached is not None:
            return cached
        if key in self._raises_stack:  # recursion: fixpoint-lite
            return frozenset()
        self._raises_stack.add(key)
        try:
            escaping: set[str] = set()
            self._collect_raises(fn, fn.node.body, tracked, (), escaping)
            result = frozenset(escaping)
        finally:
            self._raises_stack.discard(key)
        self._raises_memo[key] = result
        return result

    def _collect_raises(
        self,
        fn: FunctionInfo,
        body: Sequence[ast.stmt],
        tracked: frozenset[str],
        guards: tuple[tuple[tuple[str, ...] | None, ...], ...],
        escaping: set[str],
    ) -> None:
        def caught(exc: str) -> bool:
            for handlers in guards:
                for names in handlers:
                    if names is None:
                        return True
                    if self.project.catches(names, exc) is True:
                        return True
            return False

        def note(exc: str) -> None:
            if exc in tracked and not caught(exc):
                escaping.add(exc)

        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(stmt, ast.Raise):
                from .cfg import raise_name

                note(raise_name(stmt))
                continue
            for node in walk_header(stmt):
                if isinstance(node, ast.Call):
                    name = terminal_name(node.func)
                    if name is None:
                        continue
                    receiver = (
                        _dotted(node.func.value)
                        if isinstance(node.func, ast.Attribute)
                        else None
                    )
                    site = CallSite(
                        call=node, caller=fn, name=name, receiver=receiver
                    )
                    for callee in self.resolve(site):
                        for exc in self.raises_summary(callee, tracked):
                            note(exc)
            if isinstance(stmt, ast.Try):
                handler_specs = tuple(
                    self._handler_names(h) for h in stmt.handlers
                )
                self._collect_raises(
                    fn, stmt.body, tracked, guards + (handler_specs,), escaping
                )
                for handler in stmt.handlers:
                    self._collect_raises(
                        fn, handler.body, tracked, guards, escaping
                    )
                self._collect_raises(fn, stmt.orelse, tracked, guards, escaping)
                self._collect_raises(fn, stmt.finalbody, tracked, guards, escaping)
            else:
                for child in ast.iter_child_nodes(stmt):
                    if isinstance(child, ast.stmt):
                        self._collect_raises(
                            fn, [child], tracked, guards, escaping
                        )
                    elif isinstance(child, (ast.ExceptHandler, ast.match_case)):
                        self._collect_raises(
                            fn, child.body, tracked, guards, escaping
                        )

    @staticmethod
    def _handler_names(handler: ast.ExceptHandler) -> tuple[str, ...] | None:
        from .cfg import handler_type_names

        return handler_type_names(handler)

    def closes_params(
        self, fn: FunctionInfo, close_ops: frozenset[str]
    ) -> frozenset[str]:
        """Parameter names on which ``fn`` (transitively) may call one
        of ``close_ops`` — e.g. ``kv`` in ``_finish(self, kv)`` when the
        body runs ``kv.release()``."""
        key = (id(fn.node), close_ops)
        cached = self._closes_memo.get(key)
        if cached is not None:
            return cached
        self._closes_memo[key] = frozenset()  # cycle guard
        params = self._param_names(fn)
        closed: set[str] = set()
        for site in self.call_sites(fn):
            if site.name in close_ops and site.receiver in params:
                closed.add(site.receiver)
                continue
            callees = self.resolve(site)
            if not callees:
                continue
            for arg_name, callee_param in self.argument_bindings(site, callees):
                if arg_name not in params:
                    continue
                for callee in callees:
                    if callee_param in self.closes_params(callee, close_ops):
                        closed.add(arg_name)
        result = frozenset(closed)
        self._closes_memo[key] = result
        return result

    @staticmethod
    def _param_names(fn: FunctionInfo) -> frozenset[str]:
        args = fn.node.args
        names = [a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]]
        return frozenset(n for n in names if n != "self")

    def argument_bindings(
        self, site: CallSite, callees: list[FunctionInfo]
    ) -> Iterator[tuple[str, str]]:
        """(caller local name, callee parameter name) pairs for simple
        name arguments at this site."""
        for callee in callees:
            args = callee.node.args
            params = [a.arg for a in [*args.posonlyargs, *args.args]]
            if callee.is_method and params and params[0] == "self":
                params = params[1:]
            for idx, arg in enumerate(site.call.args):
                if isinstance(arg, ast.Name) and idx < len(params):
                    yield arg.id, params[idx]
            for kw in site.call.keywords:
                if kw.arg is not None and isinstance(kw.value, ast.Name):
                    yield kw.value.id, kw.arg

    # ------------------------------------------------------------------
    # CFG integration.
    # ------------------------------------------------------------------
    def sites_in_statement(
        self, fn: FunctionInfo, stmt: ast.AST
    ) -> Iterator[CallSite]:
        """Call sites in one statement's *header* (see ``header_exprs``)."""
        for node in walk_header(stmt):
            if not isinstance(node, ast.Call):
                continue
            name = terminal_name(node.func)
            if name is None:
                continue
            receiver = (
                _dotted(node.func.value)
                if isinstance(node.func, ast.Attribute)
                else None
            )
            yield CallSite(call=node, caller=fn, name=name, receiver=receiver)

    def raises_callback(
        self, fn: FunctionInfo, tracked: frozenset[str]
    ) -> Callable[[ast.AST], Sequence[str]]:
        """A ``raises_of`` for :func:`repro.analysis.cfg.build_cfg`: a
        statement may raise whatever its calls' summaries say escapes."""

        def raises_of(stmt: ast.AST) -> Sequence[str]:
            out: set[str] = set()
            for site in self.sites_in_statement(fn, stmt):
                for callee in self.resolve(site):
                    out |= self.raises_summary(callee, tracked)
            return sorted(out)

        return raises_of
