"""Live-tree mutation matrix: what the analyzer kills vs what the tests kill.

``MUTANTS`` is one table of named one-site textual edits against the
*live* ``src/repro/{serve,core,obs}`` sources.  Each row names the fault
class it plants and the rule IDs the analyzer must report for it (``()``
rows are faults no rule claims: they measure the test suite alone).  An
``old`` string that no longer occurs exactly once is a *stale* mutant and
fails the run, so refactors keep the table honest.

* analyzer column — in-process: the tree is parsed once, only the
  mutated file is re-parsed (``tests/test_analysis.py`` runs this column
  as a tier-1 test and asserts it equals ``rules`` row by row);
* tests column (``--tests``) — each mutant is applied to a temp copy and
  ``pytest -x tests`` runs there with the analyzer's own tests excluded;
  the first failing test id (or ``survived``) and its seconds are kept.

``python tests/mutants.py --tests`` writes ``results/mutation_matrix.json``
and prints the rule x mutant table CHANGES.md carries.  A rule earns its
place with a *unique kill*: flagged here while the tests column survives.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import queue
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.runner import (  # noqa: E402
    ModuleInfo,
    analyze_module,
    parse_module,
    parse_paths,
    run_project_rules,
)
from repro.obs.timing import WallTimer  # noqa: E402

TREES = ("src", "tests", "benchmarks")
SERVE = "src/repro/serve/"
CORE = "src/repro/core/"


@dataclass(frozen=True)
class Mutant:
    name: str
    fault: str
    #: Exactly the rule IDs the analyzer reports for this mutant, sorted.
    rules: tuple[str, ...]
    path: str
    old: str
    #: Replacement text; ``{old}`` stands for the text it replaces.
    new: str


MUTANTS: tuple[Mutant, ...] = (
    # -- page / byte lifecycle (the ROADMAP's "drop a release()") --------
    Mutant(
        "finish-drop-release", "drop-release", (), SERVE + "engine.py",
        "        request.kv.release()\n", "        pass\n",
    ),
    Mutant(
        "finish-double-release", "double-release", (), SERVE + "engine.py",
        "        request.kv.release()\n", "{old}{old}",
    ),
    # Both prompt paths commit through one call in ``_run_chunk``; each
    # row drops it on one path only (unchunked prefill / chunked prefill).
    Mutant(
        "prefill-drop-commit-chunk", "drop-release", (), SERVE + "engine.py",
        "        request.kv.commit_chunk()\n        request.prefill_pos",
        "        if self.prefill_chunk_tokens is not None:\n"
        "            request.kv.commit_chunk()\n        request.prefill_pos",
    ),
    Mutant(
        "chunk-drop-commit-chunk", "drop-release", (), SERVE + "engine.py",
        "        request.kv.commit_chunk()\n        request.prefill_pos",
        "        if self.prefill_chunk_tokens is None:\n"
        "            request.kv.commit_chunk()\n        request.prefill_pos",
    ),
    Mutant(
        "swapin-drop-swap-private-in", "drop-release", (), SERVE + "storage.py",
        "        self.pool.swap_private_in(\n"
        "            self._unpaged_nbytes, self._unpaged_fp16_nbytes\n        )\n",
        "",
    ),
    Mutant(
        "pageify-drop-free-private", "drop-release", (), SERVE + "storage.py",
        "        self.pool.free_private(nbytes, fp16_nbytes)\n        # Promotion",
        "        # Promotion",
    ),
    # -- acquire -> hand-off (LIF001's ground) ----------------------------
    Mutant(
        "prompt-page-drop-append", "drop-handoff", ("LIF001",), SERVE + "storage.py",
        "        self.pages.append(page)\n\n    # ---",
        "\n    # ---",
    ),
    Mutant(
        "pageify-drop-append", "drop-handoff", ("LIF001",), SERVE + "storage.py",
        "        self.pages.append(page)\n        self._last_chain = chain\n",
        "        self._last_chain = chain\n",
    ),
    Mutant(
        "attach-append-after-segments", "late-handoff", ("LIF001",), SERVE + "storage.py",
        "            self.pages.append(pinned)\n"
        "            for layer in range(self.backend.num_layers):\n"
        "                k_seg, v_seg = pinned.payload[layer]\n"
        "                self._append_segment(layer, k_seg, v_seg)\n",
        "            for layer in range(self.backend.num_layers):\n"
        "                k_seg, v_seg = pinned.payload[layer]\n"
        "                self._append_segment(layer, k_seg, v_seg)\n"
        "            self.pages.append(pinned)\n",
    ),
    Mutant(
        # The PR-5 shape: a shed-family raise between acquire and hand-off.
        "pageify-raise-before-handoff", "late-handoff", ("LIF001",),
        SERVE + "storage.py",
        "        self.pages.append(page)\n        self._last_chain = chain\n",
        "        if self.pool.bytes_resident > self.pool.byte_budget:\n"
        "            from .pool import BudgetExceededError\n\n"
        '            raise BudgetExceededError("promotion overran the budget")\n'
        "{old}",
    ),
    Mutant(
        # Not a fault: a pure assignment between acquire and hand-off cannot
        # leave the block -- LIF001 must stay silent.
        "pageify-assign-before-handoff", "benign", (), SERVE + "storage.py",
        "        self.pages.append(page)\n        self._last_chain = chain\n",
        "        self._last_chain = chain\n        self.pages.append(page)\n",
    ),
    # -- _bump discipline ------------------------------------------------
    Mutant(
        "acquire-bypass-bump", "bypass-bump", ("INV001", "INV001"), SERVE + "pool.py",
        "self._bump(page.nbytes, page.fp16_nbytes)\n"
        '        self.stats["pages_allocated"]',
        "self.bytes_resident += page.nbytes\n"
        "        self.fp16_bytes_resident += page.fp16_nbytes\n"
        '        self.stats["pages_allocated"]',
    ),
    Mutant(
        "free-private-bypass-bump", "bypass-bump", ("INV001", "INV001"),
        SERVE + "pool.py",
        "        self._bump(-nbytes, -fp16_nbytes)\n",
        "        self.bytes_resident -= nbytes\n"
        "        self.fp16_bytes_resident -= fp16_nbytes\n",
    ),
    # -- exception hygiene -----------------------------------------------
    Mutant(
        "replay-swallow-shed", "swallow-shed", ("INV003",), SERVE + "workload.py",
        '            counts["shed"] += 1\n        except Budget',
        "            pass\n        except Budget",
    ),
    Mutant(
        "replay-swallow-budget-error", "swallow-budget-error", ("INV003",),
        SERVE + "workload.py",
        '            counts["rejected"] += 1\n        else:',
        "            pass\n        else:",
    ),
    Mutant(
        "policy-bare-except", "bare-except", ("INV002",), SERVE + "scheduler.py",
        "        except KeyError:\n            raise KeyError(",
        "        except:\n            raise KeyError(",
    ),
    Mutant(
        "serve-bare-except", "bare-except", ("INV002",), SERVE + "frontend.py",
        "        except BaseException:\n", "        except:\n",
    ),
    Mutant(
        "policy-mutable-default", "mutable-default", ("INV004",),
        SERVE + "scheduler.py",
        "def make_policy(policy) ->", "def make_policy(policy, _seen=[]) ->",
    ),
    Mutant(
        "engine-mutable-default", "mutable-default", ("INV004",), SERVE + "engine.py",
        "        calib=None,", "        calib=[],",
    ),
    # -- asyncio: atomicity, dropped coroutines, blocking calls ----------
    Mutant(
        "pump-await-in-rmw", "await-in-rmw", ("AWA001",), SERVE + "frontend.py",
        "                self.steps += 1\n",
        "                steps = self.steps\n"
        "                await asyncio.sleep(0)\n"
        "                self.steps = steps + 1\n",
    ),
    Mutant(
        "pump-tokens-await-in-rmw", "await-in-rmw", ("AWA001",), SERVE + "frontend.py",
        "                self.tokens_processed += step_tokens\n",
        "                done = self.tokens_processed\n"
        "                await asyncio.sleep(0)\n"
        "                self.tokens_processed = done + step_tokens\n",
    ),
    Mutant(
        "pump-augassign-await", "await-in-rmw", ("AWA002",), SERVE + "frontend.py",
        "self.steps += 1\n", "self.steps += await asyncio.sleep(0, 1)\n",
    ),
    Mutant(
        "pump-tokens-augassign-await", "await-in-rmw", ("AWA002",),
        SERVE + "frontend.py",
        "self.tokens_processed += step_tokens\n",
        "self.tokens_processed += await asyncio.sleep(0, step_tokens)\n",
    ),
    Mutant(
        "replay-unawaited-sleep", "unawaited-coroutine", ("ASY002",),
        SERVE + "workload.py",
        "TraceRequest) -> None:\n        await frontend.sleep_until(",
        "TraceRequest) -> None:\n        frontend.sleep_until(",
    ),
    Mutant(
        "frontend-unawaited-sleep", "unawaited-coroutine", ("ASY002",),
        SERVE + "frontend.py",
        "        await self.sleep_until(self.clock()", "        self.sleep_until(self.clock()",
    ),
    Mutant(
        # Not a fault: ``time.sleep`` is the imported module's function, not
        # the front-end's ``async def sleep`` -- ASY002 must stay silent.
        "frontend-module-sleep", "benign", (), SERVE + "frontend.py",
        "import heapq\n", "{old}import time\n\ntime.sleep(0)\n",
    ),
    Mutant(
        "sleep-until-blocking-open", "blocking-in-async", ("ASY001",),
        SERVE + "frontend.py",
        "        if wake_s <= self.clock():\n",
        '        open("/dev/null").close()\n{old}',
    ),
    Mutant(
        "session-blocking-open", "blocking-in-async", ("ASY001",), SERVE + "session.py",
        "        ready = trace.start_s\n", '        open("/dev/null").close()\n{old}',
    ),
    # -- determinism: clocks, RNGs, environment --------------------------
    Mutant(
        "pool-wall-clock", "wall-clock", ("DET001",), SERVE + "pool.py",
        "from repro.obs import MetricsRegistry, NullRecorder, wall_clock\n",
        "from time import monotonic as wall_clock\n\n"
        "from repro.obs import MetricsRegistry, NullRecorder\n",
    ),
    Mutant(
        "engine-wall-clock", "wall-clock", ("DET001",), SERVE + "engine.py",
        "from repro.obs import MetricsRegistry, NullRecorder, wall_clock\n",
        "from time import monotonic as wall_clock\n\n"
        "from repro.obs import MetricsRegistry, NullRecorder\n",
    ),
    Mutant(
        "retry-jitter-global-rng", "unseed-rng", ("DET002",), SERVE + "workload.py",
        "jitter_u = rng.uniform(", "jitter_u = np.random.uniform(",
    ),
    Mutant(
        "sessions-global-rng", "unseed-rng", ("DET002",), SERVE + "workload.py",
        "np.sort(\n        rng.uniform(", "np.sort(\n        np.random.uniform(",
    ),
    Mutant(
        "trace-unseeded-rng", "unseed-rng", ("SEE002",), SERVE + "workload.py",
        "default_rng(seed)\n    times = ", "default_rng()\n    times = ",
    ),
    Mutant(
        "codebooks-unseeded-rng", "unseed-rng", ("SEE002",), CORE + "patterns.py",
        "default_rng(seed)\n    H = ", "default_rng()\n    H = ",
    ),
    Mutant(
        "policy-env-read", "env-read", ("DET003",), SERVE + "scheduler.py",
        "    if isinstance(policy, SchedulerPolicy):\n",
        '    import os\n\n    policy = os.environ.get("ECCO_POLICY", policy)\n{old}',
    ),
    Mutant(
        "coalesce-env-read", "env-read", ("DET003",), CORE + "kv.py",
        '        segments = self._segments["keys"]\n        idx, covered',
        "        from os import getenv\n\n"
        '        from_token = int(getenv("ECCO_COALESCE_FROM", from_token))\n{old}',
    ),
    # -- layering --------------------------------------------------------
    Mutant(
        "core-imports-obs", "upward-import", ("LAY001",), CORE + "kv.py",
        "import numpy as np\n",
        "{old}\nfrom repro.obs.timing import WallTimer  # noqa: F401\n",
    ),
    Mutant(
        "core-local-imports-serve", "upward-import", ("LAY001",), CORE + "kv.py",
        '        segments = self._segments["keys"]\n        idx, covered',
        "        from repro.serve.clock import VirtualClock  # noqa: F401\n\n{old}",
    ),
    # -- numerics --------------------------------------------------------
    Mutant(
        "queue-wait-hash-order-sum", "unordered-sum", ("NUM001",),
        "src/repro/obs/report.py",
        "total_s=sum(queue_waits),",
        "total_s=sum(w for _, w in set(enumerate(queue_waits))),",
    ),
    Mutant(
        "generated-hash-order-sum", "unordered-sum", ("NUM001",), SERVE + "metrics.py",
        "len(r.generated) for r in requests)", "len(r.generated) for r in set(requests))",
    ),
    # -- step-batched codec calls (no rule claims these) ------------------
    Mutant(
        # Hand request r the segment pair of request R-1-r.
        "step-scatter-misroute", "misroute-slice", (), SERVE + "engine.py",
        "k_parts[r], v_parts[r]", "k_parts[-1 - r], v_parts[-1 - r]",
    ),
    # -- decoded-cache coherence (no rule claims these) ------------------
    Mutant(
        "coalesce-skip-truncate-cache", "skip-truncate-cache", (), CORE + "kv.py",
        "self._truncate_cache(side, from_token)", "pass",
    ),
    Mutant(
        "invalidate-skip-truncate-cache", "skip-truncate-cache", (), CORE + "kv.py",
        "self._truncate_cache(side, limit)", "pass",
    ),
)


def mutate(mutant: Mutant) -> str:
    """The mutated file text; a stale or ambiguous ``old`` is an error."""
    text = (REPO_ROOT / mutant.path).read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise LookupError(
            f"stale mutant {mutant.name!r}: its 'old' text occurs "
            f"{text.count(mutant.old)} times in {mutant.path}, expected 1"
        )
    return text.replace(mutant.old, mutant.new.replace("{old}", mutant.old))


def parse_tree() -> list[ModuleInfo]:
    modules, errors = parse_paths(TREES, REPO_ROOT)
    assert not errors, errors
    return modules


def analyzer_column(mutant: Mutant, modules: list[ModuleInfo]) -> tuple[str, ...]:
    """Rule IDs the analyzer reports with ``mutant`` applied (the
    unmutated tree is clean, so every finding is the mutant's)."""
    mutated = parse_module(mutate(mutant), mutant.path)
    if not isinstance(mutated, ModuleInfo):
        return (mutated.rule,)
    swapped = [mutated if m.relpath == mutant.path else m for m in modules]
    findings = analyze_module(mutated) + run_project_rules(swapped)
    return tuple(sorted(f.rule for f in findings))


def tests_column(mutant: Mutant | None, copy: Path) -> tuple[str, float]:
    """First failing test id of ``pytest -x tests`` (or ``survived``)
    with ``mutant`` applied inside ``copy``, and the seconds it took."""
    if mutant is not None:
        (copy / mutant.path).write_text(mutate(mutant), encoding="utf-8")
    try:
        with WallTimer() as timer:
            proc = subprocess.run(
                [
                    sys.executable, "-m", "pytest", "-x", "-q", "tests",
                    "--ignore-glob=tests/test_analysis*.py",
                    "-p", "no:cacheprovider",
                ],
                cwd=copy, capture_output=True, text=True, timeout=900,
            )
    finally:
        if mutant is not None:
            shutil.copy(REPO_ROOT / mutant.path, copy / mutant.path)
    if proc.returncode == 0:
        return "survived", timer.elapsed_s
    for line in proc.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split()[1], timer.elapsed_s
    return f"pytest exit {proc.returncode}", timer.elapsed_s


def tests_columns() -> Iterator[tuple[str, float]]:
    """:func:`tests_column` of every mutant, in table order.  Each run is
    one single-threaded pytest, so one runs per core, each in a temp copy
    of its own; the unmutated tree must be green first."""
    workers = os.cpu_count() or 1
    copies: queue.SimpleQueue[Path] = queue.SimpleQueue()

    def tested(mutant: Mutant | None) -> tuple[str, float]:
        copy = copies.get()
        try:
            return tests_column(mutant, copy)
        finally:
            copies.put(copy)

    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(workers) as pool:
        for worker in range(workers):
            for tree in TREES:
                shutil.copytree(
                    REPO_ROOT / tree, Path(tmp, str(worker), tree),
                    ignore=shutil.ignore_patterns("__pycache__"),
                )
            shutil.copy(REPO_ROOT / "pyproject.toml", Path(tmp, str(worker)))
            copies.put(Path(tmp, str(worker)))
        clean, seconds = tested(None)
        assert clean == "survived", f"the unmutated tree fails {clean}"
        print(f"unmutated tree: tests green in {seconds:.1f} s", file=sys.stderr)
        yield from pool.map(tested, MUTANTS)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tests", action="store_true",
        help="also run the tests column (minutes: a survivor costs a full run)",
    )
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "results" / "mutation_matrix.json"
    )
    args = parser.parse_args(argv)

    modules = parse_tree()
    rows: list[dict[str, object]] = []
    wrong = 0
    results = tests_columns() if args.tests else itertools.repeat(None)
    print("| mutant | fault class | analyzer | first failing test | s |")
    print("|---|---|---|---|---|")
    for mutant, result in zip(MUTANTS, results):
        reported = analyzer_column(mutant, modules)
        wrong += reported != mutant.rules
        row: dict[str, object] = {
            "name": mutant.name, "fault": mutant.fault, "path": mutant.path,
            "expected": sorted(set(mutant.rules)), "rules": sorted(set(reported)),
        }
        if result is not None:
            row["test"], row["seconds"] = result[0], round(result[1], 1)
        rows.append(row)
        print(
            f"| {mutant.name} | {mutant.fault} | {' '.join(row['rules']) or '-'} "
            f"| {row.get('test', 'not run')} | {row.get('seconds', '')} |",
            flush=True,
        )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"version": 1, "mutants": rows}, indent=2) + "\n")
    if wrong:
        print(f"{wrong} mutants did not get their expected rules", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
