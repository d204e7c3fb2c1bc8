"""Whole-project index: every class, method and function, cross-linked.

Per-module rules see one file at a time; the project rules (LIF001,
AWA001/002, ASY002) need to know *who defines what* across the tree — which
class a ``self.pool`` attribute holds, what ``BudgetExceededError``
subclasses, which function a bare call name refers to.  :class:`Project`
builds that index once per run from the already-parsed
:class:`~repro.analysis.runner.ModuleInfo` list; the call graph
(:mod:`repro.analysis.callgraph`) layers resolution and summaries on
top of it.

Attribute types come from three honest sources, in priority order:
``self.X = SomeClass(...)`` constructor assignments, ``self.X = param``
where the parameter is annotated with a project class, and a small
curated table for the serve-layer names LIF001 reasons about.
Anything else is *unknown* — the rules treat unknown receivers
conservatively rather than guessing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Union

from .cfg import BUILTIN_EXC_BASES, WILDCARD, terminal_name
from .runner import ModuleInfo

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Serve-layer attribute bindings the constructor scan cannot prove
#: (injected dependencies held behind protocols).  Curated, not guessed:
#: each name is unambiguous in this codebase.
CURATED_ATTR_TYPES: dict[str, str] = {
    "pool": "PagedKVPool",
    "kv": "RequestKV",
    "engine": "ServingEngine",
}


@dataclass
class FunctionInfo:
    """One ``def`` — module-level, method, or nested."""

    module: ModuleInfo
    node: FunctionNode
    name: str
    qualname: str
    cls: "ClassInfo | None" = None

    @property
    def is_method(self) -> bool:
        return self.cls is not None

    @property
    def is_async(self) -> bool:
        return isinstance(self.node, ast.AsyncFunctionDef)

    def __hash__(self) -> int:
        return id(self.node)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FunctionInfo) and other.node is self.node


@dataclass
class ClassInfo:
    module: ModuleInfo
    node: ast.ClassDef
    name: str
    #: Terminal base-class names as written (``pool.BudgetExceededError``
    #: indexes as ``BudgetExceededError``).
    base_names: tuple[str, ...] = ()
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.X`` attribute name -> holding class name, where provable.
    attr_types: dict[str, str] = field(default_factory=dict)


class Project:
    """The cross-module index interprocedural rules run against."""

    def __init__(self, modules: list[ModuleInfo]) -> None:
        self.modules = modules
        self.functions: list[FunctionInfo] = []
        self.classes: list[ClassInfo] = []
        self.classes_by_name: dict[str, list[ClassInfo]] = {}
        #: Module-level functions by bare name.
        self.functions_by_name: dict[str, list[FunctionInfo]] = {}
        #: Methods by bare name, across every class.
        self.methods_by_name: dict[str, list[FunctionInfo]] = {}
        for module in modules:
            self._index_module(module)
        for cls in self.classes:
            self._infer_attr_types(cls)

    # ------------------------------------------------------------------
    # Index construction.
    # ------------------------------------------------------------------
    def _index_module(self, module: ModuleInfo) -> None:
        assert isinstance(module.tree, ast.Module)

        def visit(
            body: list[ast.stmt], cls: ClassInfo | None, prefix: str
        ) -> None:
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{prefix}{stmt.name}"
                    fn = FunctionInfo(
                        module=module,
                        node=stmt,
                        name=stmt.name,
                        qualname=f"{module.relpath}::{qual}",
                        cls=cls,
                    )
                    self.functions.append(fn)
                    if cls is not None and prefix == f"{cls.name}.":
                        cls.methods.setdefault(stmt.name, fn)
                        self.methods_by_name.setdefault(stmt.name, []).append(fn)
                    elif cls is None and prefix == "":
                        self.functions_by_name.setdefault(stmt.name, []).append(fn)
                    visit(stmt.body, cls, f"{qual}.")
                elif isinstance(stmt, ast.ClassDef):
                    info = ClassInfo(
                        module=module,
                        node=stmt,
                        name=stmt.name,
                        base_names=tuple(
                            name
                            for base in stmt.bases
                            if (name := terminal_name(base)) is not None
                        ),
                    )
                    self.classes.append(info)
                    self.classes_by_name.setdefault(stmt.name, []).append(info)
                    visit(stmt.body, info, f"{stmt.name}.")
                elif isinstance(stmt, (ast.If, ast.Try)):
                    # Conditional/guarded definitions still count.
                    visit(stmt.body, cls, prefix)
                    visit(stmt.orelse, cls, prefix)

        visit(module.tree.body, None, "")

    def _infer_attr_types(self, cls: ClassInfo) -> None:
        for method in cls.methods.values():
            annotations: dict[str, str] = {}
            args = method.node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                if arg.annotation is not None:
                    ann = terminal_name(arg.annotation)
                    if ann is not None and ann in self.classes_by_name:
                        annotations[arg.arg] = ann
            for stmt in ast.walk(method.node):
                if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                )
                value = stmt.value
                for target in targets:
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    inferred: str | None = None
                    if isinstance(value, ast.Call):
                        name = terminal_name(value.func)
                        if name is not None and name in self.classes_by_name:
                            inferred = name
                    elif isinstance(value, ast.Name):
                        inferred = annotations.get(value.id)
                    if inferred is not None:
                        cls.attr_types.setdefault(target.attr, inferred)
        for attr, type_name in CURATED_ATTR_TYPES.items():
            if type_name in self.classes_by_name:
                cls.attr_types.setdefault(attr, type_name)

    # ------------------------------------------------------------------
    # Lookups.
    # ------------------------------------------------------------------
    def class_named(self, name: str) -> ClassInfo | None:
        """The class called ``name``, when the project has exactly one."""
        found = self.classes_by_name.get(name, [])
        return found[0] if len(found) == 1 else None

    def mro(self, cls: ClassInfo) -> list[ClassInfo]:
        """Approximate linearization: DFS over in-project bases."""
        out: list[ClassInfo] = []
        seen: set[int] = set()

        def walk(c: ClassInfo) -> None:
            if id(c) in seen:
                return
            seen.add(id(c))
            out.append(c)
            for base in c.base_names:
                parent = self.class_named(base)
                if parent is not None:
                    walk(parent)

        walk(cls)
        return out

    def resolve_method(self, cls: ClassInfo, name: str) -> FunctionInfo | None:
        for owner in self.mro(cls):
            if name in owner.methods:
                return owner.methods[name]
        return None

    def exception_ancestors(self, exc: str) -> frozenset[str]:
        """``exc`` plus every base name, through in-project classes into
        the builtin table (``BudgetExceededError`` → ``ValueError`` →
        ``Exception`` → ``BaseException``)."""
        out: set[str] = set()
        work = [exc]
        while work:
            name = work.pop()
            if name in out:
                continue
            out.add(name)
            cls = self.class_named(name)
            if cls is not None:
                work.extend(cls.base_names)
            if name in BUILTIN_EXC_BASES:
                work.append(BUILTIN_EXC_BASES[name])
        return frozenset(out)

    def catches(self, handler_names: tuple[str, ...], exc: str) -> bool | None:
        """Hierarchy-aware handler matcher for the CFG builder."""
        if WILDCARD in handler_names:
            return None
        if exc == WILDCARD:
            if "Exception" in handler_names or "BaseException" in handler_names:
                return True
            return None
        ancestry = self.exception_ancestors(exc)
        if set(handler_names) & ancestry:
            return True
        known = lambda n: n in BUILTIN_EXC_BASES or self.class_named(n) is not None
        if all(known(n) or n == "BaseException" for n in handler_names):
            return False
        return None

    def iter_functions(self) -> Iterator[FunctionInfo]:
        return iter(self.functions)


def build_project(modules: list[ModuleInfo]) -> Project:
    return Project(modules)
