"""The rule registry: one decorated function per rule.

A rule is a callable ``(module: ModuleInfo) -> Iterable[Finding]``
registered under a stable ID (``LAY001``, ``DET002``, ...).  IDs are the
public contract — inline suppressions (``# repro: ignore[DET001]``)
refer to them — so renaming one is a breaking change.

Registration is import-driven: ``repro.analysis.rules`` imports every
rule module for its side effects, exactly like pytest plugins.  Rules
must be pure functions of the parsed module (no filesystem, no network,
no global mutable state) so a run is deterministic and order-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .findings import Finding, Severity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .runner import ModuleInfo

RuleFn = Callable[["ModuleInfo"], Iterable[Finding]]
ProjectRuleFn = Callable[["list[ModuleInfo]"], Iterable[Finding]]


@dataclass(frozen=True)
class Rule:
    """A registered rule: stable ID, severity, one-line contract."""

    rule_id: str
    severity: Severity
    summary: str
    fn: RuleFn

    def check(self, module: "ModuleInfo") -> Iterator[Finding]:
        yield from self.fn(module)


@dataclass(frozen=True)
class ProjectRule:
    """A rule that judges the whole project at once.

    Per-module rules see one file; a project rule gets every parsed
    :class:`~repro.analysis.runner.ModuleInfo` of the run.  ASY002 is
    the one rule that needs it (every ``async def`` name in the tree).
    Findings flow into the same suppression pipeline.
    """

    rule_id: str
    severity: Severity
    summary: str
    fn: ProjectRuleFn

    def check(self, modules: "list[ModuleInfo]") -> Iterator[Finding]:
        yield from self.fn(modules)


_REGISTRY: dict[str, Rule] = {}
_PROJECT_REGISTRY: dict[str, ProjectRule] = {}


def register_project_rule(
    rule_id: str, severity: Severity, summary: str
) -> Callable[[ProjectRuleFn], ProjectRuleFn]:
    """Decorator registering ``fn`` as project-scoped rule ``rule_id``."""

    def deco(fn: ProjectRuleFn) -> ProjectRuleFn:
        if rule_id in _PROJECT_REGISTRY or rule_id in _REGISTRY:
            raise ValueError(f"duplicate rule id {rule_id!r}")
        _PROJECT_REGISTRY[rule_id] = ProjectRule(rule_id, severity, summary, fn)
        return fn

    return deco


def iter_project_rules() -> list[ProjectRule]:
    """All project-scoped rules, ordered by ID."""
    _ensure_loaded()
    return [_PROJECT_REGISTRY[k] for k in sorted(_PROJECT_REGISTRY)]


def register_rule(
    rule_id: str, severity: Severity, summary: str
) -> Callable[[RuleFn], RuleFn]:
    """Decorator registering ``fn`` as rule ``rule_id``."""

    def deco(fn: RuleFn) -> RuleFn:
        if rule_id in _REGISTRY or rule_id in _PROJECT_REGISTRY:
            raise ValueError(f"duplicate rule id {rule_id!r}")
        _REGISTRY[rule_id] = Rule(rule_id, severity, summary, fn)
        return fn

    return deco


def iter_rules() -> list[Rule]:
    """All registered rules, ordered by ID (deterministic run order)."""
    _ensure_loaded()
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def _ensure_loaded() -> None:
    # Import the bundled rule modules exactly once, on first use, so
    # ``iter_rules`` works no matter which entry point ran first.
    from . import rules  # noqa: F401  (import for registration side effect)
