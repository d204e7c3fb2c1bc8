"""Codebase-native static analysis for the repro tree.

``python -m repro.analysis src tests benchmarks`` runs every registered
rule over the given trees and exits non-zero on any finding.

Every rule below earns its place on the *live* tree: ``tests/mutants.py``
plants one-site faults in ``serve/`` and ``core/`` and a rule stays only
if it flags a mutant the tier-1 tests let through (or caught a real bug
when it landed: INV001, DET001, DET003).  See the rule modules for the
contract each one encodes:

=======  ==========================================================
LAY001   imports obey the declared layer matrix (``analysis.layers``)
DET001   no wall-clock reads outside ``repro.obs.timing``
DET002   no global-state RNG (legacy ``np.random``, stdlib ``random``)
DET003   no ``os.environ`` reads inside ``repro.*``
SEE002   no unseeded RNG construction inside ``repro.*``
ASY001   no blocking calls inside ``async def``
ASY002   no coroutine calls that are never awaited
INV001   pool byte counters mutate only via ``_bump``
INV002   no bare ``except:``
INV003   shed-family exceptions never swallowed silently
INV004   no mutable default arguments inside ``repro.*``
NUM001   no float ``sum`` over unordered containers
LIF001   locally acquired resources handed off before anything can leave
AWA001   no stale read-modify-write of shared state across ``await``
AWA002   no ``self.X += await ...`` read-modify-write
=======  ==========================================================

Every rule judges one file at a time except ASY002, the one *project*
rule: it is handed every parsed module because it needs each ``async
def`` name in the tree.  The two flow-sensitive rules read statement
order straight off the AST: LIF001 is a straight-line check over one
statement list, AWA001 a structured forward walk over an ``async def``
body (``rules.lifecycle``, ``rules.atomicity``).

Suppress a single judged-safe line inline; inside ``src/repro/`` the
suppression only counts when it carries a reason::

    clock()  # repro: ignore[DET001] -- measured throughput, not replayed

The package is stdlib-only and imports nothing from the rest of
``repro``, so the analyzer can never be broken by the code it judges.
"""

from __future__ import annotations

from .findings import Finding, Severity
from .layers import LAYER_MATRIX, import_allowed, layer_of
from .registry import (
    ProjectRule,
    Rule,
    iter_project_rules,
    iter_rules,
    register_project_rule,
    register_rule,
)
from .runner import ModuleInfo, analyze_paths, analyze_source

__all__ = [
    "Finding",
    "LAYER_MATRIX",
    "ModuleInfo",
    "ProjectRule",
    "Rule",
    "Severity",
    "analyze_paths",
    "analyze_source",
    "import_allowed",
    "iter_project_rules",
    "iter_rules",
    "layer_of",
    "register_project_rule",
    "register_rule",
]
