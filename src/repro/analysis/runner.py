"""File discovery, parsing, suppression handling and rule dispatch.

The runner walks the target trees, parses each ``*.py`` once into a
:class:`ModuleInfo` (AST + source lines + suppression map + where the
file sits in the repo), hands that to every registered rule, and drops
findings whose anchor line carries a matching inline suppression::

    clock = time.monotonic  # repro: ignore[DET001] -- measured, not replayed
    risky()                 # repro: ignore          (suppresses every rule)

Suppressions are line-scoped and rule-scoped on purpose, and inside
``src/repro/`` one only counts when it says why (``-- reason``): a
waiver in the shipped package is reviewed where it stands.  Test and
benchmark fixtures may use the bare form.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .findings import Finding, Severity

#: Directories never scanned (caches, VCS internals, build output).
SKIP_DIRS = frozenset({"__pycache__", ".git", ".cache", ".venv", "build", "dist"})

_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\s]*)\])?"
    r"(?P<reason>\s*--\s*\S)?"
)


@dataclass
class ModuleInfo:
    """One parsed source file plus everything rules need to judge it."""

    relpath: str
    source: str
    tree: ast.AST
    #: Physical source lines (1-indexed via ``line_at``).
    lines: list[str] = field(default_factory=list)
    #: line number -> suppressed rule IDs; ``None`` means *all* rules.
    suppressions: dict[int, frozenset[str] | None] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Location in the repo.
    # ------------------------------------------------------------------
    @property
    def is_repro(self) -> bool:
        """Inside the shipped package (``src/repro/``)?"""
        return self.relpath.startswith("src/repro/")

    @property
    def repro_module(self) -> str | None:
        """Dotted path inside ``repro`` (``"serve.pool"``; ``""`` for
        ``repro/__init__.py``) or ``None`` outside the package."""
        if not self.is_repro:
            return None
        parts = Path(self.relpath).with_suffix("").parts[2:]
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)

    # ------------------------------------------------------------------
    # Helpers for rules.
    # ------------------------------------------------------------------
    def line_at(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(
        self,
        rule: str,
        severity: Severity,
        node: ast.AST,
        message: str,
    ) -> Finding:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=rule,
            path=self.relpath,
            line=lineno,
            col=col + 1,
            message=message,
            severity=severity,
            snippet=self.line_at(lineno),
        )

    def suppressed(self, finding: Finding) -> bool:
        marked = self.suppressions.get(finding.line, _NOT_MARKED)
        if marked is _NOT_MARKED:
            return False
        return marked is None or finding.rule in marked  # type: ignore[operator]


#: Sentinel distinguishing "no comment on this line" from "bare ignore".
_NOT_MARKED: frozenset[str] = frozenset({"\x00not-marked"})


def _parse_suppressions(
    lines: list[str], need_reason: bool
) -> dict[int, frozenset[str] | None]:
    out: dict[int, frozenset[str] | None] = {}
    for idx, line in enumerate(lines, start=1):
        if "repro:" not in line:
            continue
        match = _SUPPRESS_RE.search(line)
        if match is None or (need_reason and match.group("reason") is None):
            continue
        rules = match.group("rules")
        if rules is None:
            out[idx] = None
        else:
            out[idx] = frozenset(
                r.strip() for r in rules.split(",") if r.strip()
            )
    return out


def parse_module(source: str, relpath: str) -> ModuleInfo | Finding:
    """Parse one file; a syntax error is itself a finding, not a crash."""
    lines = source.splitlines()
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as err:
        return Finding(
            rule="PARSE",
            path=relpath,
            line=err.lineno or 1,
            col=(err.offset or 0) + 1,
            message=f"syntax error: {err.msg}",
            severity=Severity.ERROR,
            snippet=lines[err.lineno - 1].strip() if err.lineno else "",
        )
    return ModuleInfo(
        relpath=relpath,
        source=source,
        tree=tree,
        lines=lines,
        suppressions=_parse_suppressions(
            lines, need_reason=relpath.startswith("src/repro/")
        ),
    )


def iter_python_files(paths: Iterable[Path], root: Path) -> Iterator[Path]:
    """Every ``*.py`` under ``paths`` (files or trees), sorted, deduped."""
    seen: set[Path] = set()
    collected: list[Path] = []
    for target in paths:
        target = (root / target).resolve() if not target.is_absolute() else target
        if target.is_file() and target.suffix == ".py":
            candidates: Iterable[Path] = [target]
        elif target.is_dir():
            candidates = sorted(
                p
                for p in target.rglob("*.py")
                if not (set(p.parts) & SKIP_DIRS)
            )
        else:
            raise FileNotFoundError(f"no such file or directory: {target}")
        for path in candidates:
            if path not in seen:
                seen.add(path)
                collected.append(path)
    return iter(sorted(collected))


def analyze_module(module: ModuleInfo) -> list[Finding]:
    """Run every per-module rule over one parsed module."""
    from .registry import iter_rules

    out: list[Finding] = []
    for rule in iter_rules():
        for finding in rule.check(module):
            if not module.suppressed(finding):
                out.append(finding)
    return sorted(out, key=lambda f: (f.path, f.line, f.col, f.rule))


def run_project_rules(modules: list[ModuleInfo]) -> list[Finding]:
    """Run every project-scoped (cross-module) rule over the parsed
    modules as one project, honoring inline suppressions."""
    from .registry import iter_project_rules

    by_path = {m.relpath: m for m in modules}
    out: list[Finding] = []
    for rule in iter_project_rules():
        for finding in rule.check(modules):
            owner = by_path.get(finding.path)
            if owner is None or not owner.suppressed(finding):
                out.append(finding)
    return sorted(out, key=lambda f: (f.path, f.line, f.col, f.rule))


def parse_paths(
    paths: Iterable[str | Path], root: str | Path
) -> tuple[list[ModuleInfo], list[Finding]]:
    """Parse every python file under ``paths``; syntax errors come back
    as findings, not crashes."""
    root = Path(root).resolve()
    modules: list[ModuleInfo] = []
    errors: list[Finding] = []
    for path in iter_python_files([Path(p) for p in paths], root):
        try:
            relpath = path.relative_to(root).as_posix()
        except ValueError:
            relpath = path.as_posix()
        parsed = parse_module(path.read_text(encoding="utf-8"), relpath)
        if isinstance(parsed, Finding):
            errors.append(parsed)
        else:
            modules.append(parsed)
    return modules, errors


def analyze_source(source: str, relpath: str) -> list[Finding]:
    """Analyze an in-memory snippet as if it lived at ``relpath``.

    The fixture entry point for tests: the path decides which rules and
    scopes apply (``src/repro/...`` vs ``benchmarks/...``).  The snippet
    is its own single-module project, so the project rules run against
    it too.
    """
    parsed = parse_module(source, relpath)
    if isinstance(parsed, Finding):
        return [parsed]
    findings = analyze_module(parsed) + run_project_rules([parsed])
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))


def analyze_paths(paths: Iterable[str | Path], root: str | Path) -> list[Finding]:
    """Analyze every python file under ``paths`` relative to ``root``:
    per-module rules file by file, then the project rules across the
    whole parsed set."""
    modules, findings = parse_paths(paths, root)
    for module in modules:
        findings.extend(analyze_module(module))
    findings.extend(run_project_rules(modules))
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))
