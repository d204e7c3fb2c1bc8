"""cProfile of one ``kv_stream`` pass, run in this process.

The harness runs every workload in a child process, so ``cProfile`` on
``run.py`` sees nothing.  This script borrows the harness's own set-up and
pass at smoke size and writes the top 20 functions by self time to
``results/kv_stream_profile.txt`` (uploaded by CI with the bench reports).
"""

import cProfile
import io
import pstats
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "harness")]

from workloads import kv_stream_pass, kv_stream_setup  # noqa: E402


def main() -> None:
    state = kv_stream_setup(0, 0, smoke=True)
    profiler = cProfile.Profile()
    result = profiler.runcall(kv_stream_pass, state)
    table = io.StringIO()
    pstats.Stats(profiler, stream=table).sort_stats("tottime").print_stats(20)
    report = (
        f"kv_stream smoke pass under cProfile: {result.units} tokens, "
        f"{result.wall_s:.3f} s, problems: {result.problems}\n{table.getvalue()}"
    )
    out = ROOT / "results" / "kv_stream_profile.txt"
    out.parent.mkdir(exist_ok=True)
    out.write_text(report, encoding="utf-8")
    print(report)


if __name__ == "__main__":
    main()
