"""Compare two benchmark result files: ``compare.py a.json b.json``.

Both files come from ``run.py --out`` (use ``--repeat 3`` or more so a
file carries its own run-to-run spread).  One row per (metric,
workload):

* bounded end-to-end metrics — the medians of ``a`` and ``b``, how much
  worse ``b`` is as a share of ``a``, and a verdict against the bound in
  ``BENCHMARK.json``: ``improved`` only when every run of ``b`` reads
  better than every run of ``a``; ``unresolved`` — never ``unchanged`` —
  when either side's own spread (distance between its first and third
  quartile over its median) is wider than the bound; ``regressed`` when
  ``b``'s median is worse by more than the bound; else ``unchanged``;
* simulated, byte and quality metrics — exact, so every run of both
  files (same seed) must carry the identical value: ``equal`` or
  ``DIFFERS``;
* ``failed_share`` — failed / attempted of each side.

Exit code 1 if any row is ``regressed``, ``unresolved`` or ``DIFFERS``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
EXACT_EXTRA = ("kv_bytes_per_token", "roundtrip_nmse")


def spread(values: list) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return abs(q3 - q1) / abs(median) if median else 0.0


def collect(data: dict, workload: str, section: str, metric: str) -> list:
    return [
        run[workload][section][metric]
        for run in data["runs"]
        if workload in run and metric in run[workload][section]
    ]


def verdict(a: list, b: list, better: str, bound: float) -> tuple:
    """``(worse_share, verdict)`` of ``b`` against ``a``."""
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    worse = sign * (median_b - median_a) / abs(median_a) if median_a else 0.0
    if max(sign * v for v in b) < min(sign * v for v in a):
        return worse, "improved"
    if max(spread(a), spread(b)) > bound:
        return worse, "unresolved"
    if worse > bound:
        return worse, "regressed"
    return worse, "unchanged"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    sides = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            sides.append(json.load(handle))
    a, b = sides
    same_seed = a["seed"] == b["seed"]
    bad = 0
    print(
        f"a: {argv[0]} ({len(a['runs'])} runs, seed {a['seed']})   "
        f"b: {argv[1]} ({len(b['runs'])} runs, seed {b['seed']})"
    )
    header = (
        f"{'workload':<13} {'metric':<22} {'a median':>12} {'b median':>12} "
        f"{'worse by':>9} {'bound':>6} {'a spread':>9} {'b spread':>9}  verdict"
    )
    print(header)
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            va = collect(a, workload, "end_to_end", metric["name"])
            vb = collect(b, workload, "end_to_end", metric["name"])
            if not va or not vb:
                continue
            worse, word = verdict(va, vb, metric["better"], metric["bound"])
            bad += word in ("regressed", "unresolved")
            print(
                f"{workload:<13} {metric['name']:<22} "
                f"{statistics.median(va):>12.6g} {statistics.median(vb):>12.6g} "
                f"{worse:>+9.3f} {metric['bound']:>6.2f} "
                f"{spread(va):>9.3f} {spread(vb):>9.3f}  {word}"
            )
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["per_layer"]:
            name = metric["name"]
            if not (name.startswith("sim_") or name in EXACT_EXTRA):
                continue
            va = collect(a, workload, "per_layer", name)
            vb = collect(b, workload, "per_layer", name)
            if not va or not vb:
                continue
            if not same_seed:
                word = "skipped (different seeds)"
            elif len(set(va + vb)) == 1:
                word = "equal"
            else:
                word = "DIFFERS"
                bad += 1
            print(f"{workload:<13} {name:<22} {va[0]:>12.6g} {vb[0]:>12.6g}  {word}")
    for workload in (w["name"] for w in spec["workloads"]):
        shares = []
        for side in (a, b):
            runs = [r[workload] for r in side["runs"] if workload in r]
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] + len(r["problems"]) for r in runs)
            shares.append(failed / attempted if attempted else 0.0)
        print(
            f"{workload:<13} {'failed_share':<22} {shares[0]:>12.6g} "
            f"{shares[1]:>12.6g} {shares[1] - shares[0]:>+9.3g}"
        )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
