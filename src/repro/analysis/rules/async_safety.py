"""ASY — async-safety lints for the event-driven front-end.

The serving front-end (`repro.serve.frontend`) multiplexes every client
on one asyncio loop over the shared virtual clock; a single blocking
call inside a coroutine stalls *all* tenants at once, and a coroutine
called without ``await`` silently does nothing.  Two rules:

* ASY001 — blocking calls inside ``async def``: ``time.sleep``, sync
  file I/O (``open``, ``Path.read_text``/``write_text``...),
  ``input``, ``os.system``, the ``subprocess`` family.  Nested ``def``
  bodies open their own (sync) scope and are skipped.
* ASY002 — a call to an ``async def`` defined anywhere in the analyzed
  tree, used as a bare expression statement: the coroutine object is
  created and dropped, never awaited.  Matching is by name across
  modules (``frontend.sleep_until(...)`` in ``workload.py`` resolves to
  the front-end's coroutine); a receiver that is an imported *module*
  (``time.sleep``, ``asyncio.sleep``) is that module's function and is
  skipped.  (Assignments are exempt — handing a coroutine to
  ``asyncio.create_task``/``gather`` is normal.)
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding, Severity
from ..registry import register_project_rule, register_rule
from ..runner import ModuleInfo
from . import dotted, module_aliases, walk_skipping_defs

_BLOCKING_DOTTED = frozenset(
    {
        "time.sleep",
        "os.system",
        "os.popen",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "socket.create_connection",
        "urllib.request.urlopen",
    }
)
_BLOCKING_BUILTINS = frozenset({"open", "input"})
_BLOCKING_METHODS = frozenset(
    {"read_text", "write_text", "read_bytes", "write_bytes"}
)


@register_rule(
    "ASY001",
    Severity.ERROR,
    "blocking call inside async def",
)
def blocking_in_async(module: ModuleInfo) -> Iterator[Finding]:
    for fn in ast.walk(module.tree):
        if not isinstance(fn, ast.AsyncFunctionDef):
            continue
        for node in walk_skipping_defs(fn.body):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            blocked: str | None = None
            if isinstance(func, ast.Name) and func.id in _BLOCKING_BUILTINS:
                blocked = func.id
            elif isinstance(func, ast.Attribute):
                name = dotted(func)
                if name in _BLOCKING_DOTTED:
                    blocked = name
                elif func.attr in _BLOCKING_METHODS:
                    blocked = f"<obj>.{func.attr}"
            if blocked is not None:
                yield module.finding(
                    "ASY001",
                    Severity.ERROR,
                    node,
                    f"blocking call {blocked!r} inside 'async def "
                    f"{fn.name}' stalls the whole event loop (await an "
                    "async equivalent, or move it off-loop)",
                )


@register_project_rule(
    "ASY002",
    Severity.ERROR,
    "coroutine call never awaited",
)
def never_awaited(modules: list[ModuleInfo]) -> Iterator[Finding]:
    names = frozenset(
        node.name
        for module in modules
        for node in ast.walk(module.tree)
        if isinstance(node, ast.AsyncFunctionDef)
    )
    if not names:
        return
    for module in modules:
        imported: dict[str, str] | None = None
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)):
                continue
            func = node.value.func
            if isinstance(func, ast.Name):
                called = func.id
            elif isinstance(func, ast.Attribute):
                called = func.attr
            else:
                continue
            if called not in names:
                continue
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                # ``time.sleep(0)`` / ``asyncio.sleep(0)`` call the imported
                # module's function, whatever async defs the tree has.
                if imported is None:
                    imported = module_aliases(module.tree)
                if func.value.id in imported:
                    continue
            yield module.finding(
                "ASY002",
                Severity.ERROR,
                node,
                f"'{called}' is an async def: calling it builds a "
                "coroutine object and discards it — this statement "
                "does nothing without 'await'",
            )
