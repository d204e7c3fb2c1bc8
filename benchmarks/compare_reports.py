#!/usr/bin/env python
"""Bench regression gate: diff bench JSON artifacts against a baseline.

CI runs the smoke benches (which write ``results/*.json``) and then this
script, which compares a curated set of metrics against the committed
snapshot in ``results/baseline/``.  A metric that regresses past the
warn threshold (default 10%) prints a warning; past the fail threshold
(default 25%) the script exits non-zero and the job fails.

Only regressions gate — improvements are reported but never fail.  A
missing *result* file is a note, not an error (the bench may simply not
have run in this job), but a missing or unreadable *baseline* file
fails the gate with a clear message: every curated bench has a
committed snapshot, so its absence means the gate silently stopped
gating.  Pass ``--allow-missing-baseline`` while landing a brand-new
bench whose snapshot does not exist yet.  Refresh the snapshot by
copying the gated files from a healthy run::

    python -m pytest benchmarks/bench_serve_throughput.py ...  # regenerate
    cp results/serve_throughput.json ... results/baseline/

Metrics are chosen deterministic-first: virtual-clock latencies, token
counts and reuse fractions are bit-stable across runs, so their
thresholds are tight.  Wall-clock throughputs (tokens/s on a shared CI
runner) carry per-metric overrides with generous margins — they gate
order-of-magnitude collapses, not scheduler jitter.

Unknown keys never gate.  Only the curated ``GATES`` entries are
compared; anything else in a report — new observability counters, a
registry snapshot — is surfaced as an informational
``[new ]`` line and otherwise ignored, so instrumenting a bench can
never fail the baseline gate until its keys are explicitly curated
here.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: metric spec: (dotted key, direction, warn_override, fail_override).
#: direction "higher" = bigger is better (a drop regresses);
#: "lower" = smaller is better (a rise regresses).  ``None`` overrides
#: fall back to the CLI thresholds.
GATES: dict[str, list[tuple[str, str, float | None, float | None]]] = {
    "serve_throughput.json": [
        # Deterministic counters: same trace, same engine, same numbers.
        ("ecco.tokens_generated", "higher", None, None),
        ("ecco.finished", "higher", None, None),
        ("ecco.pool.peak_bytes_resident", "lower", None, None),
        ("ecco.pool.budget_overruns", "lower", None, None),
        # Wall-clock: the baseline may come from a different machine
        # class than the runner, so these only gate collapses — a
        # 0.90 drop is ~10x slower, a 3.0 rise is a 4x TTFT blowup.
        ("ecco.tokens_per_s", "higher", 0.50, 0.90),
        ("ecco.ttft_s_mean", "lower", 1.00, 3.00),
    ],
    "workload_traces.json": [
        # Virtual-clock replay of one seeded bursty trace: counters and
        # simulated latencies are deterministic, tight thresholds apply.
        ("unchunked.prefill_forwarded_tokens", "lower", None, None),
        ("chunked.finished", "higher", None, None),
        ("chunked.ttft_s_p95", "lower", None, None),
        ("cluster.finished", "higher", None, None),
        ("cluster.ttft_s_p95", "lower", None, None),
        ("cluster.budget_overruns", "lower", None, None),
    ],
    "session_reuse.json": [
        ("reuse.turns.reuse_fraction", "higher", None, None),
        ("reuse.turns.prefix_tokens_reused", "higher", None, None),
        ("reuse.turns.prompt_tokens_reencoded", "lower", None, None),
        # Virtual-clock TTFTs: deterministic, tight thresholds apply.
        ("reuse.turns.ttft_s_mean_warm", "lower", None, None),
        ("reuse.report.pool.budget_overruns", "lower", None, None),
    ],
    "prefix_trie.json": [
        ("trie.prefix_tokens_reused", "higher", None, None),
        ("trie.split_tokens_salvaged", "higher", None, None),
        ("forwarded_tokens_ratio", "higher", None, None),
        # Virtual-clock follower TTFT speedup: deterministic.
        ("ttft_follower_speedup", "higher", None, None),
        ("trie.pool.budget_overruns", "lower", None, None),
    ],
    "slo_serving.json": [
        # Virtual-clock A/B: fully deterministic, tight thresholds.
        ("ttft_p95_cut", "higher", None, None),
        ("deadline.slo_ttft_attainment", "higher", None, None),
        ("deadline.finished", "higher", None, None),
        ("deadline.pool.budget_overruns", "lower", None, None),
        # Retry storm: deterministic under its seed.
        ("storm.completed", "higher", None, None),
        ("storm.frontend.shed_rate", "lower", None, None),
    ],
    "codec_throughput_streaming.json": [
        # Wall-clock codec throughput: gate collapses only.
        ("new_decode_tokens_per_s", "higher", 0.50, 0.90),
        # Decode-work counters are deterministic.
        ("tokens_block_decoded.keys", "lower", None, None),
        ("tokens_block_decoded.values", "lower", None, None),
    ],
    "kv_decode_cache.json": [
        ("decode_tokens_per_s", "higher", 0.50, 0.90),
        ("compression_ratio", "higher", None, None),
    ],
}


def _lookup(data: dict, dotted: str):
    node = data
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node if isinstance(node, (int, float)) else None


def _regression(current: float, baseline: float, direction: str) -> float:
    """Fractional regression (positive = worse), relative to baseline."""
    if baseline == 0:
        # A zero baseline can only regress by becoming nonzero in the
        # bad direction (e.g. budget_overruns 0 -> 2 is unbounded-bad).
        bad = current > 0 if direction == "lower" else current < 0
        return float("inf") if bad else 0.0
    delta = (current - baseline) / abs(baseline)
    return -delta if direction == "higher" else delta


def _new_keys(current: dict, baseline: dict, prefix: str = "") -> list[str]:
    """Dotted keys present in ``current`` but absent from ``baseline``.

    Purely informational — new keys (added observability, extra report
    sections) are listed so a reviewer sees them, but they are never
    compared and can never gate.
    """
    out: list[str] = []
    for key, value in current.items():
        dotted = f"{prefix}{key}"
        if key not in baseline:
            out.append(dotted)
        elif isinstance(value, dict) and isinstance(baseline[key], dict):
            out.extend(_new_keys(value, baseline[key], f"{dotted}."))
    return out


def _load_report(path: Path, role: str) -> dict | None:
    """Parse one report JSON; ``None`` (with a message) if unreadable."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"[FAIL] {path}: unreadable {role} file ({exc})")
        return None
    if not isinstance(doc, dict):
        print(f"[FAIL] {path}: {role} file is not a JSON object")
        return None
    return doc


def compare(
    results: Path,
    baseline: Path,
    warn: float,
    fail: float,
    allow_missing_baseline: bool = False,
) -> int:
    if not baseline.is_dir():
        print(
            f"[FAIL] baseline directory {baseline} does not exist — the "
            "regression gate has nothing to compare against.  Commit a "
            "snapshot (see the module docstring) or pass --baseline."
        )
        return 2
    failures = warnings = checked = 0
    for filename, metrics in GATES.items():
        cur_path = results / filename
        base_path = baseline / filename
        if not cur_path.exists():
            print(f"[skip] {filename}: no result file (bench not run)")
            continue
        if not base_path.exists():
            if allow_missing_baseline:
                print(f"[note] {filename}: no committed baseline yet")
                continue
            print(
                f"[FAIL] {filename}: result present but no baseline at "
                f"{base_path} — commit a snapshot from a healthy run "
                "(or pass --allow-missing-baseline for a new bench)"
            )
            failures += 1
            continue
        current_doc = _load_report(cur_path, "result")
        baseline_doc = _load_report(base_path, "baseline")
        if current_doc is None or baseline_doc is None:
            failures += 1
            continue
        fresh = _new_keys(current_doc, baseline_doc)
        if fresh:
            shown = ", ".join(fresh[:8])
            more = f" (+{len(fresh) - 8} more)" if len(fresh) > 8 else ""
            print(f"[new ] {filename}: {shown}{more} — ignored, not gated")
        for key, direction, warn_at, fail_at in metrics:
            cur = _lookup(current_doc, key)
            base = _lookup(baseline_doc, key)
            if cur is None or base is None:
                print(f"[note] {filename}:{key}: missing on one side")
                continue
            checked += 1
            reg = _regression(float(cur), float(base), direction)
            w = warn if warn_at is None else warn_at
            f = fail if fail_at is None else fail_at
            label = f"{filename}:{key} {base:g} -> {cur:g}"
            if reg >= f:
                print(f"[FAIL] {label} ({reg:+.1%} regression, limit {f:.0%})")
                failures += 1
            elif reg >= w:
                print(f"[warn] {label} ({reg:+.1%} regression)")
                warnings += 1
            elif reg <= -w:
                print(f"[ok+ ] {label} ({-reg:+.1%} improvement)")
            else:
                print(f"[ok  ] {label}")
    print(
        f"\nchecked {checked} metrics: {failures} failures, "
        f"{warnings} warnings"
    )
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    root = Path(__file__).resolve().parents[1]
    parser.add_argument(
        "--results", type=Path, default=root / "results",
        help="directory holding the fresh bench JSONs",
    )
    parser.add_argument(
        "--baseline", type=Path, default=root / "results" / "baseline",
        help="directory holding the committed baseline JSONs",
    )
    parser.add_argument(
        "--warn", type=float, default=0.10,
        help="default warn threshold (fractional regression)",
    )
    parser.add_argument(
        "--fail", type=float, default=0.25,
        help="default fail threshold (fractional regression)",
    )
    parser.add_argument(
        "--allow-missing-baseline", action="store_true",
        help="downgrade a missing per-bench baseline file to a note "
        "(for landing a new bench before its snapshot is committed)",
    )
    args = parser.parse_args(argv)
    if args.warn > args.fail:
        parser.error("--warn must not exceed --fail")
    return compare(
        args.results,
        args.baseline,
        args.warn,
        args.fail,
        allow_missing_baseline=args.allow_missing_baseline,
    )


if __name__ == "__main__":
    sys.exit(main())
