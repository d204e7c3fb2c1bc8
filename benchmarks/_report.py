"""Shared reporting helpers for the benchmark suite.

Every bench regenerates one of the paper's tables or figures and writes a
plain-text report (plus a JSON copy of the raw numbers) under ``results/`` so
EXPERIMENTS.md can cite them.  Expensive experiment outputs are cached in
``results/cache`` keyed by a config tag; delete the directory to force a
recompute.

The seven smoke benches also gate themselves: right after writing its
report each one hands the rows it may not regress to
:func:`check_baseline`, which compares them with the committed snapshot
``results/baseline/<name>.json``.  Refresh a snapshot by copying the
report of a healthy run over it (``cp results/<name>.json
results/baseline/``).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "results_dir",
    "write_report",
    "check_baseline",
    "load_cached",
    "store_cached",
]

#: Version stamp written into every cache entry.  Bump it whenever the
#: codec or the cached payload shapes change: ``load_cached`` treats an
#: entry from any other schema (including legacy unstamped entries) as
#: absent, so a stale cache forces a recompute instead of silently
#: serving numbers from a different codec.
CACHE_SCHEMA_VERSION = 1


def results_dir() -> Path:
    """The repository-level results directory (created on demand)."""
    root = Path(__file__).resolve().parents[1]
    path = root / "results"
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_report(name: str, lines: list[str], data: dict | None = None) -> Path:
    """Write (and echo) a report; optionally store the raw numbers as JSON."""
    path = results_dir() / f"{name}.txt"
    text = "\n".join(lines) + "\n"
    path.write_text(text)
    print(f"\n=== {name} ===")
    print(text)
    if data is not None:
        (results_dir() / f"{name}.json").write_text(json.dumps(data, indent=2))
    return path


def _gated_number(doc, dotted: str) -> float:
    """The number under the dotted key of a report."""
    for part in dotted.split("."):
        doc = doc[part]
    if not isinstance(doc, (int, float)):
        raise TypeError(f"{doc!r} is not a number")
    return float(doc)


def check_baseline(name: str, data: dict, gates: list[tuple]) -> None:
    """Fail if a gated row of ``data`` regressed past its threshold.

    ``gates`` rows are ``(dotted key, direction)`` or ``(dotted key,
    direction, fail_at)``: ``"higher"`` means bigger is better (a drop
    regresses), ``"lower"`` the opposite; ``fail_at`` is the fractional
    regression against ``results/baseline/<name>.json`` that fails
    (default 0.25 — tight, for virtual-clock latencies, counters and
    reuse fractions, which are bit-stable; wall-clock rows pass a wide
    one so they gate collapses, not scheduler jitter).  Improvements
    never fail.  A zero baseline regresses by becoming nonzero in the
    bad direction (``budget_overruns`` 0 -> 2 is unbounded).  A gated
    key that is missing or not a number on either side, and a missing or
    unreadable snapshot, fail too: a row must not stop gating silently.
    Raises one ``AssertionError`` naming every failed row.
    """
    path = results_dir() / "baseline" / f"{name}.json"
    try:
        baseline = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise AssertionError(f"{name}: no readable baseline {path}: {exc}")
    failed = []
    for key, direction, *fail_at in gates:
        sign = {"higher": -1.0, "lower": 1.0}[direction]
        limit = fail_at[0] if fail_at else 0.25
        try:
            base, cur = _gated_number(baseline, key), _gated_number(data, key)
        except (KeyError, TypeError) as exc:
            failed.append(f"{key}: missing or not a number ({exc!r})")
            continue
        if base == 0:
            regression = math.inf if sign * cur > 0 else 0.0
        else:
            regression = sign * (cur - base) / abs(base)
        # ``not <`` so a NaN on either side fails instead of passing.
        if not regression < limit:
            failed.append(
                f"{key}: {base:g} -> {cur:g} "
                f"({regression:+.1%} regression, limit {limit:.0%})"
            )
    if failed:
        raise AssertionError(
            f"{name} regressed against {path}:\n  " + "\n  ".join(failed)
        )


def load_cached(tag: str) -> dict | None:
    """Load a cached experiment result, or None when absent or stale.

    Stale means unreadable, unstamped (written before cache entries
    carried a schema), or stamped with a different
    :data:`CACHE_SCHEMA_VERSION` — all of which mean the numbers may
    predate a codec change and must be recomputed, not served.
    """
    path = results_dir() / "cache" / f"{tag}.json"
    if not path.exists():
        return None
    try:
        blob = json.loads(path.read_text())
    except json.JSONDecodeError:
        return None
    if not isinstance(blob, dict) or blob.get("schema") != CACHE_SCHEMA_VERSION:
        return None
    return blob.get("data")


def store_cached(tag: str, data: dict) -> None:
    """Persist an experiment result (schema-stamped) for future runs."""
    path = results_dir() / "cache" / f"{tag}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"schema": CACHE_SCHEMA_VERSION, "data": data}, indent=2)
    )
