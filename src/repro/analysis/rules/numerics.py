"""NUM001 — float accumulation over unordered containers.

Float addition is not associative: ``sum(d.values())`` and
``sum(some_set)`` visit elements in hash/insertion order, so two runs
that build the container differently can disagree in the last ulp —
enough to flip a greedy rate-control decision or a regression-gate
comparison.  In the codec and metrics paths (where sums feed bit-exact
contracts and gated reports) the rule flags ``sum`` over ``.values()``,
``set(...)``, set literals/comprehensions, and generator/list
comprehensions drawing from one of those.  Fix by imposing an order
(``sum(sorted(...))``) or summing a deterministic sequence.

Heuristic (AST cannot see element types): integer sums are genuinely
safe and earn an inline ``# repro: ignore[NUM001] -- integers``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding, Severity
from ..registry import register_rule
from ..runner import ModuleInfo

#: Where float sums feed bit-exact or gated outputs.
NUMERIC_PATHS = (
    "src/repro/core/",
    "src/repro/entropy.py",
    "src/repro/perf.py",
    "src/repro/memsys.py",
    "src/repro/hardware/",
    "src/repro/obs/",
    "src/repro/serve/metrics.py",
)


def _is_unordered(node: ast.expr) -> str | None:
    """A human label if ``node`` iterates in hash/arbitrary order."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "values":
            return "dict.values()"
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return f"{func.id}(...)"
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set"
    return None


@register_rule(
    "NUM001",
    Severity.ERROR,
    "float sum over an unordered container",
)
def unordered_sum(module: ModuleInfo) -> Iterator[Finding]:
    if not module.relpath.startswith(NUMERIC_PATHS):
        return
    for node in ast.walk(module.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sum"
            and node.args
        ):
            continue
        arg = node.args[0]
        label = _is_unordered(arg)
        if label is None and isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
            for gen in arg.generators:
                label = _is_unordered(gen.iter)
                if label is not None:
                    break
        if label is not None:
            yield module.finding(
                "NUM001",
                Severity.ERROR,
                node,
                f"sum over {label} accumulates in hash order — float "
                "results depend on insertion history; sort first "
                "(sum(sorted(...)))",
            )
