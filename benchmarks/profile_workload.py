"""cProfile of one round of harness workloads, run in this process.

The harness runs every workload in a child process, so ``cProfile`` on
``run.py`` sees nothing.  ``profile_workload.py <workload> [...]`` borrows
the named workload's own set-up and pass from ``benchmarks/harness``,
profiles the passes of one round and writes the top 20 functions by self
time to ``results/<workload>_profile.txt`` (CI uploads ``codec_bulk``,
``kv_stream``, ``pool_churn``, ``serve_fp16`` and ``serve_cold`` — the
one-library bulk planner next to the step-batched codec path, where the
next decision about the codec's per-call floor starts — with the bench
reports).  Workloads run at smoke size, except
those in ``FULL_SIZE``: cheap enough to profile at the size the harness
measures (``pool_churn``, about 6 s under cProfile), where a cost that
grows with the pool shows at its real share — a smoke round caches 30
chains, a full one 623.
"""

import argparse
import cProfile
import io
import pstats
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "harness")]

from workloads import WORKLOADS  # noqa: E402

#: Workloads profiled at full size instead of smoke size.
FULL_SIZE = frozenset({"pool_churn"})


def profile(name: str) -> None:
    workload = WORKLOADS[name]
    smoke = name not in FULL_SIZE
    state = workload.setup(0, 0, smoke=smoke)
    profiler = cProfile.Profile()
    results = [
        profiler.runcall(workload.run_pass, state)
        for _ in range(workload.passes_per_round)
    ]
    table = io.StringIO()
    pstats.Stats(profiler, stream=table).sort_stats("tottime").print_stats(20)
    report = (
        f"{name} {'smoke' if smoke else 'full'} round under cProfile: "
        f"{len(results)} pass(es), "
        f"{sum(r.units for r in results)} units, "
        f"{sum(r.wall_s for r in results):.3f} s, "
        f"problems: {[p for r in results for p in r.problems]}\n"
        f"{table.getvalue()}"
    )
    out = ROOT / "results" / f"{name}_profile.txt"
    out.parent.mkdir(exist_ok=True)
    out.write_text(report, encoding="utf-8")
    print(report)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", nargs="+", choices=list(WORKLOADS))
    for workload_name in parser.parse_args().workload:
        profile(workload_name)
