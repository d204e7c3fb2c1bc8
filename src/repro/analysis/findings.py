"""Finding and severity types shared by every rule.

A :class:`Finding` is one rule hit at one source location; ``snippet``
carries the stripped source line it anchors to, so a report reads
without opening the file.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """How a finding gates the run: every finding is an error.

    A rule that cannot justify failing the build does not ship (the
    mutation matrix in ``tests/mutants.py`` is the bar), so there is no
    advisory tier.
    """

    ERROR = "error"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: Severity
    #: The stripped source line the finding anchors to.
    snippet: str = field(default="", compare=False)

    def to_json(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "severity": self.severity.value,
            "snippet": self.snippet,
        }

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} [{self.severity.value}] {self.message}"
        )
