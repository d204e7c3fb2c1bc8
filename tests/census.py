"""Coverage census: which workloads execute which function of ``src/repro``.

``python tests/census.py`` (no arguments, stdlib only, imported by
nothing, about ten minutes) runs four legs with a function-call
collector switched on and writes ``results/coverage_census.json``: for
every ``def`` under ``src/repro``, the legs that executed it.

* ``tests``    — ``pytest tests``
* ``benches``  — ``pytest --benchmark-disable benchmarks``
* ``harness``  — ``benchmarks/harness/run.py --workload all --seed 0
  --traced --smoke``
* ``examples`` — every ``examples/*.py``

Run it before a deletion PR: a function no leg executes is dead or
safety code, one that only ``tests`` executes has to argue for itself,
and one that only a paper-figure bench executes stays (those benches are
the reproduction).

The collector is a throw-away ``sitecustomize.py`` in a temp directory
put first on ``PYTHONPATH``, so every interpreter a leg starts — pytest,
the harness parent and each of its per-workload children — installs
``sys.setprofile`` at start-up and dumps the code objects it saw at exit.
Three traps, each hit while sizing PR 24:

* pytest-benchmark calls ``sys.setprofile(None)`` around every timed
  call, so whatever runs inside ``benchmark(...)`` is invisible: the
  ``benches`` leg passes ``--benchmark-disable`` (one plain call each).
* ``results/cache/`` makes four paper benches (table 1, 2, 4, fig. 5)
  replay ``load_cached`` JSON and execute none of the evaluation code:
  the ``benches`` leg moves the directory aside and puts it back.
* the harness measures in child processes; they are covered only
  because ``run.py::_child_env`` keeps an inherited ``PYTHONPATH``
  behind its own ``src/`` entry.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"
CACHE = REPO_ROOT / "results" / "cache"
PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
LEGS = {
    "tests": [[*PYTEST, "tests"]],
    "benches": [[*PYTEST, "--benchmark-disable", "benchmarks"]],
    "harness": [[
        sys.executable, "benchmarks/harness/run.py", "--workload", "all",
        "--seed", "0", "--traced", "--smoke",
    ]],
    "examples": [
        [sys.executable, str(path)]
        for path in sorted((REPO_ROOT / "examples").glob("*.py"))
    ],
}

#: Written as ``sitecustomize.py``; ``{src}`` / ``{dump}`` are filled in.
COLLECTOR = '''\
import atexit, json, os, sys, threading

_seen = set()

def _profile(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)

def _dump():
    sys.setprofile(None)
    rows = sorted(
        (code.co_filename, code.co_firstlineno)
        for code in _seen
        if code.co_filename.startswith({src!r})
    )
    with open(os.path.join({dump!r}, "%d.json" % os.getpid()), "w") as handle:
        json.dump(rows, handle)

atexit.register(_dump)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''


def functions() -> dict[tuple[str, int], str]:
    """``(file, first line) -> path:line name`` of every ``def`` under
    ``src/repro``; a decorated function's code object starts at its
    first decorator, so that is the line keyed on."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min(d.lineno for d in [node, *node.decorator_list])
                found[(str(path), first)] = (
                    f"{path.relative_to(SRC.parent)}:{node.lineno} {node.name}"
                )
    return found


def run_leg(name: str, site: Path) -> set:
    """Run one leg's commands under the collector; returns the
    ``(file, first line)`` pairs any of its processes executed."""
    dump = site / name
    dump.mkdir()
    (site / "sitecustomize.py").write_text(
        COLLECTOR.format(src=str(SRC), dump=str(dump)), encoding="utf-8"
    )
    inherited = os.environ.get("PYTHONPATH")
    path = [str(site), str(SRC.parent), *([inherited] if inherited else [])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    for command in LEGS[name]:
        print(f"[{name}] {' '.join(command)}", file=sys.stderr, flush=True)
        subprocess.run(
            command, cwd=REPO_ROOT, env=env, check=True,
            stdout=subprocess.DEVNULL,
        )
    executed: set = set()
    for part in dump.glob("*.json"):
        executed.update(map(tuple, json.loads(part.read_text())))
    return executed


def main() -> int:
    hit = {}
    aside = CACHE.with_name("cache.census-aside")
    with tempfile.TemporaryDirectory() as tmp:
        for name in LEGS:
            moved = name == "benches" and CACHE.exists()
            if moved:
                CACHE.rename(aside)
            try:
                hit[name] = run_leg(name, Path(tmp))
            finally:
                if moved:
                    # The cold run wrote a fresh cache; keep the old one.
                    shutil.rmtree(CACHE, ignore_errors=True)
                    aside.rename(CACHE)
    rows = {
        label: [name for name in LEGS if key in hit[name]]
        for key, label in functions().items()
    }
    out = REPO_ROOT / "results" / "coverage_census.json"
    out.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
    outside = [r for label, r in rows.items() if "/analysis/" not in label]
    print(
        f"{len(outside)} functions outside analysis/: "
        f"{sum(not r for r in outside)} executed by nothing, "
        f"{sum(r == ['tests'] for r in outside)} by tests alone -> {out}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
