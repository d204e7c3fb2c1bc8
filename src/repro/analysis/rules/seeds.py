"""SEE002 — seeds must reach every RNG construction inside ``repro.*``.

DET002 already bans *global-state* RNG (``np.random.normal``,
``random.random``).  What it cannot see is a locally constructed
generator with no seed::

    rng = np.random.default_rng()     # fresh OS entropy every run

which is exactly as replay-hostile as the global one: the trace
replays, admission decisions differ, and the bit-exactness contract
silently becomes "usually".  The rule flags every unseeded
``default_rng()`` / ``RandomState()`` / ``random.Random()``
construction in the shipped package — in a function or at import time,
on a serving path or in the codec's calibration (the live-tree mutants
the test suite does not catch are the calibration ones).

Seeded means a non-``None`` first argument or ``seed=`` keyword;
``default_rng(None)`` is spelled-out entropy and still fires.  Tests
and benchmarks are out of scope — they own their determinism story.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding, Severity
from ..registry import register_rule
from ..runner import ModuleInfo
from . import terminal_name

#: Construction names that mint a generator.
_RNG_SUFFIXES = frozenset({"default_rng", "RandomState"})


def _imports_random_class(module: ModuleInfo) -> bool:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            if any(alias.name == "Random" for alias in node.names):
                return True
    return False


def _is_rng_construction(call: ast.Call, module: ModuleInfo) -> bool:
    name = terminal_name(call.func)
    if name in _RNG_SUFFIXES:
        return True
    if name == "Random":
        if isinstance(call.func, ast.Attribute):
            root = call.func.value
            return isinstance(root, ast.Name) and root.id == "random"
        return _imports_random_class(module)
    return False


def _is_unseeded(call: ast.Call) -> bool:
    seed_args = [a for a in call.args if not isinstance(a, ast.Starred)]
    for kw in call.keywords:
        if kw.arg == "seed":
            return isinstance(kw.value, ast.Constant) and kw.value.value is None
        if kw.arg is None:  # **kwargs — assume the caller knows
            return False
    if call.args and isinstance(call.args[0], ast.Starred):
        return False
    if not seed_args:
        return True
    first = seed_args[0]
    return isinstance(first, ast.Constant) and first.value is None


@register_rule(
    "SEE002",
    Severity.ERROR,
    "unseeded RNG construction inside repro.* (seeds must flow from an "
    "explicit parameter or config)",
)
def unseeded_rng_in_repro(module: ModuleInfo) -> Iterator[Finding]:
    if not module.is_repro:
        return
    for node in ast.walk(module.tree):
        if (
            isinstance(node, ast.Call)
            and _is_rng_construction(node, module)
            and _is_unseeded(node)
        ):
            yield module.finding(
                "SEE002",
                Severity.ERROR,
                node,
                "unseeded RNG construction; thread an explicit seed from "
                "the caller's parameter or config so runs replay "
                "bit-exactly",
            )
