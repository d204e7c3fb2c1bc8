"""Tier-0 tests for ``repro.analysis``.

Fixture snippets exercise a true positive *and* a near-miss negative for
every per-module rule, plus the suppression machinery and the CLI; the
meta-tests at the bottom run the real analyzer over the live tree — it
must be clean, and every mutant of ``tests/mutants.py`` must light
exactly the rule its row names — so the tier-1 suite itself enforces the
architecture contract and the analyzer's right to gate it.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import mutants
import pytest

from repro.analysis import Severity, analyze_paths, analyze_source, iter_rules
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.runner import parse_module, run_project_rules

REPO_ROOT = Path(__file__).resolve().parents[1]

#: A path that puts fixtures inside the shipped package (most rules).
SRC = "src/repro/core/_fixture.py"


def rules_of(findings):
    return sorted(f.rule for f in findings)


def check(source: str, relpath: str = SRC):
    return analyze_source(textwrap.dedent(source), relpath)


# ----------------------------------------------------------------------
# LAY — layering matrix.
# ----------------------------------------------------------------------
class TestLayering:
    def test_core_importing_serve_is_flagged(self):
        findings = check("from repro.serve.pool import PagedKVPool\n")
        assert rules_of(findings) == ["LAY001"]
        assert "layer 'core'" in findings[0].message

    def test_llm_importing_serve_is_flagged(self):
        findings = check(
            "import repro.serve\n", "src/repro/llm/_fixture.py"
        )
        assert rules_of(findings) == ["LAY001"]

    def test_relative_import_crossing_layers_is_flagged(self):
        # quant reaching into llm via a relative climb.
        findings = check(
            "from ..llm import model\n", "src/repro/quant/_fixture.py"
        )
        assert rules_of(findings) == ["LAY001"]

    def test_relative_escape_of_the_package_is_flagged(self):
        findings = check(
            "from ...outside import thing\n", "src/repro/core/_fixture.py"
        )
        assert rules_of(findings) == ["LAY001"]
        assert "climbs out" in findings[0].message

    def test_declared_dependencies_pass(self):
        findings = check(
            """
            from repro.core import EccoConfig
            from repro.quant import uniform_quantize
            from .config import ProxySpec
            """,
            "src/repro/llm/_fixture.py",
        )
        assert findings == []

    def test_function_local_import_is_still_a_dependency(self):
        findings = check(
            """
            def lazy():
                from repro.llm import ProxyModel
                return ProxyModel
            """,
            "src/repro/core/_fixture.py",
        )
        assert rules_of(findings) == ["LAY001"]

    def test_undeclared_module_is_flagged(self):
        findings = check("import repro.mystery_layer\n")
        assert rules_of(findings) == ["LAY001"]
        assert "no declared layer" in findings[0].message

    def test_outside_the_package_no_layer_rules(self):
        findings = check(
            "from repro.serve.pool import PagedKVPool\n",
            "tests/_fixture.py",
        )
        assert findings == []


# ----------------------------------------------------------------------
# DET — determinism.
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_wall_clock_call_is_flagged(self):
        findings = check("import time\nnow = time.time()\n")
        assert rules_of(findings) == ["DET001"]

    def test_wall_clock_reference_without_call_is_flagged(self):
        # The actual bug shipped in pool.py: a default argument.
        findings = check(
            """
            import time
            def f(clock=time.monotonic):
                return clock()
            """
        )
        assert rules_of(findings) == ["DET001"]

    def test_datetime_now_is_flagged(self):
        findings = check(
            "import datetime\nstamp = datetime.datetime.now()\n"
        )
        assert rules_of(findings) == ["DET001"]

    def test_from_import_of_wall_clock_is_flagged(self):
        findings = check("from time import perf_counter\n")
        assert rules_of(findings) == ["DET001"]

    def test_timing_module_is_the_allowlist(self):
        findings = check(
            "import time\n\ndef wall_clock():\n    return time.perf_counter()\n",
            "src/repro/obs/timing.py",
        )
        assert findings == []

    def test_benchmarks_must_also_use_the_helper(self):
        findings = check(
            "import time\nstart = time.perf_counter()\n",
            "benchmarks/bench_fixture.py",
        )
        assert rules_of(findings) == ["DET001"]

    def test_time_sleep_is_not_wall_clock(self):
        findings = check("import time\ntime.sleep(0.0)\n")
        assert findings == []

    def test_legacy_np_random_is_flagged(self):
        findings = check(
            "import numpy as np\nx = np.random.rand(4)\n"
        )
        assert rules_of(findings) == ["DET002"]

    def test_np_random_seed_is_flagged(self):
        findings = check("import numpy as np\nnp.random.seed(0)\n")
        assert rules_of(findings) == ["DET002"]

    def test_default_rng_and_generator_annotations_pass(self):
        findings = check(
            """
            import numpy as np
            def f(rng: np.random.Generator):
                return rng.normal()
            rng = np.random.default_rng(7)
            """
        )
        assert findings == []

    def test_stdlib_global_random_is_flagged(self):
        findings = check("import random\nrandom.seed(1)\n")
        assert rules_of(findings) == ["DET002"]

    def test_explicit_random_instance_passes(self):
        findings = check(
            "import random\nrng = random.Random(7)\nrng.shuffle([1])\n"
        )
        assert findings == []

    def test_environ_read_in_repro_is_flagged(self):
        findings = check("import os\nv = os.environ.get('X')\n")
        assert rules_of(findings) == ["DET003"]

    def test_getenv_in_repro_is_flagged(self):
        findings = check("import os\nv = os.getenv('X')\n")
        assert rules_of(findings) == ["DET003"]

    def test_environ_outside_repro_passes(self):
        findings = check(
            "import os\nv = os.environ.get('X')\n", "tests/_fixture.py"
        )
        assert findings == []


# ----------------------------------------------------------------------
# ASY — async safety.
# ----------------------------------------------------------------------
class TestAsyncSafety:
    def test_time_sleep_in_async_def_is_flagged(self):
        findings = check(
            """
            import time
            async def pump():
                time.sleep(0.1)
            """
        )
        assert rules_of(findings) == ["ASY001"]

    def test_sync_open_in_async_def_is_flagged(self):
        findings = check(
            """
            async def dump(path):
                with open(path) as fh:
                    return fh.read()
            """
        )
        assert rules_of(findings) == ["ASY001"]

    def test_path_io_in_async_def_is_flagged(self):
        findings = check(
            """
            async def dump(path):
                return path.read_text()
            """
        )
        assert rules_of(findings) == ["ASY001"]

    def test_awaited_asyncio_sleep_passes(self):
        findings = check(
            """
            import asyncio
            async def pump():
                await asyncio.sleep(0)
            """
        )
        assert findings == []

    def test_nested_sync_def_is_not_the_coroutines_problem(self):
        findings = check(
            """
            import time
            async def outer():
                def helper():
                    time.sleep(0.1)
                return helper
            """
        )
        assert findings == []

    def test_unawaited_coroutine_call_is_flagged(self):
        findings = check(
            """
            async def job():
                return 1
            async def caller():
                job()
            """
        )
        assert rules_of(findings) == ["ASY002"]

    def test_unawaited_method_coroutine_is_flagged(self):
        findings = check(
            """
            class Engine:
                async def pump(self):
                    return 1
            def driver(engine):
                engine.pump()
            """
        )
        assert rules_of(findings) == ["ASY002"]

    def test_unawaited_coroutine_of_another_module_is_flagged(self):
        # The live shape: workload.py drops frontend.sleep_until(...).
        frontend = parse_module(
            "class Frontend:\n    async def sleep_until(self, t):\n        pass\n",
            "src/repro/serve/_frontend.py",
        )
        client = parse_module(
            "def client(frontend):\n    frontend.sleep_until(1.0)\n",
            "src/repro/serve/_client.py",
        )
        findings = run_project_rules([frontend, client])
        assert rules_of(findings) == ["ASY002"]
        assert findings[0].path == "src/repro/serve/_client.py"

    def test_module_function_sharing_a_coroutines_name_passes(self):
        # ``time.sleep`` is the imported module's function, not Frontend.sleep.
        findings = check(
            """
            import time
            class Frontend:
                async def sleep(self, duration_s):
                    pass
            def settle():
                time.sleep(0)
            """
        )
        assert findings == []

    def test_awaited_and_scheduled_calls_pass(self):
        findings = check(
            """
            import asyncio
            async def job():
                return 1
            async def caller():
                await job()
                task = asyncio.create_task(job())
                await task
            """
        )
        assert findings == []


# ----------------------------------------------------------------------
# INV — invariant discipline.
# ----------------------------------------------------------------------
class TestInvariants:
    POOL = """
        class Pool:
            def __init__(self):
                self.bytes_resident = 0
                self.peak = 0
            def _bump(self, n):
                self.bytes_resident += n
                self.peak = max(self.peak, self.bytes_resident)
            def alloc(self, n):
                {body}
    """

    def test_direct_counter_mutation_is_flagged(self):
        findings = check(
            textwrap.dedent(self.POOL).format(body="self.bytes_resident += n")
        )
        assert rules_of(findings) == ["INV001"]
        assert "_bump" in findings[0].message

    def test_mutation_via_bump_passes(self):
        findings = check(
            textwrap.dedent(self.POOL).format(body="self._bump(n)")
        )
        assert findings == []

    def test_classes_without_bump_are_unconstrained(self):
        findings = check(
            """
            class Counter:
                def __init__(self):
                    self.bytes_resident = 0
                def add(self, n):
                    self.bytes_resident += n
            """
        )
        assert findings == []

    def test_bare_except_is_flagged(self):
        findings = check(
            """
            try:
                risky()
            except:
                pass
            """,
            "benchmarks/_fixture.py",
        )
        assert rules_of(findings) == ["INV002"]

    def test_typed_except_passes(self):
        findings = check(
            """
            try:
                risky()
            except ValueError:
                pass
            """,
            "benchmarks/_fixture.py",
        )
        assert findings == []

    def test_swallowed_shed_error_is_flagged(self):
        findings = check(
            """
            try:
                submit()
            except BudgetExceededError:
                pass
            """,
            "tests/_fixture.py",
        )
        assert rules_of(findings) == ["INV003"]

    def test_shed_error_with_counter_bump_passes(self):
        findings = check(
            """
            counts = {}
            try:
                submit()
            except RequestShedError:
                counts["shed"] += 1
            """,
            "tests/_fixture.py",
        )
        assert findings == []

    def test_shed_error_reraised_passes(self):
        findings = check(
            """
            try:
                submit()
            except BudgetExceededError:
                raise
            """,
            "tests/_fixture.py",
        )
        assert findings == []

    def test_mutable_default_in_repro_is_flagged(self):
        findings = check("def f(items=[]):\n    return items\n")
        assert rules_of(findings) == ["INV004"]

    def test_mutable_default_call_is_flagged(self):
        findings = check("def f(items=dict()):\n    return items\n")
        assert rules_of(findings) == ["INV004"]

    def test_none_default_passes(self):
        findings = check("def f(items=None):\n    return items or []\n")
        assert findings == []


# ----------------------------------------------------------------------
# NUM — numeric hygiene.
# ----------------------------------------------------------------------
class TestNumerics:
    def test_sum_over_dict_values_is_flagged(self):
        findings = check("total = sum(weights.values())\n")
        assert rules_of(findings) == ["NUM001"]
        assert findings[0].severity is Severity.ERROR

    def test_sum_over_set_is_flagged(self):
        findings = check("total = sum(set(samples))\n")
        assert rules_of(findings) == ["NUM001"]

    def test_genexp_over_values_is_flagged(self):
        findings = check(
            "total = sum(v * 2 for v in weights.values())\n"
        )
        assert rules_of(findings) == ["NUM001"]

    def test_sorted_sum_passes(self):
        findings = check("total = sum(sorted(weights.values()))\n")
        assert findings == []

    def test_outside_numeric_paths_not_flagged(self):
        findings = check(
            "total = sum(weights.values())\n", "src/repro/serve/engine.py"
        )
        assert findings == []


# ----------------------------------------------------------------------
# Suppressions.
# ----------------------------------------------------------------------
class TestSuppression:
    def test_rule_scoped_suppression(self):
        findings = check(
            "import time\n"
            "now = time.time()  # repro: ignore[DET001] -- fixture\n"
        )
        assert findings == []

    def test_wrong_rule_id_does_not_suppress(self):
        findings = check(
            "import time\nnow = time.time()  # repro: ignore[DET002] -- fixture\n"
        )
        assert rules_of(findings) == ["DET001"]

    def test_bare_ignore_suppresses_everything_on_the_line(self):
        findings = check(
            "import time\nnow = time.time()  # repro: ignore\n",
            "tests/_fixture.py",
        )
        assert findings == []

    def test_suppression_is_line_scoped(self):
        findings = check(
            """
            import time
            a = time.time()  # repro: ignore[DET001]
            b = time.time()
            """,
            "benchmarks/_fixture.py",
        )
        assert rules_of(findings) == ["DET001"]

    def test_multi_rule_suppression(self):
        findings = check(
            "import os, time\n"
            "x = (time.time(), os.environ)"
            "  # repro: ignore[DET001, DET003] -- fixture\n"
        )
        assert findings == []

    def test_suppressions_inside_repro_need_a_reason(self):
        # What the baseline file used to guarantee: a waiver in the
        # shipped package says why.  Fixtures elsewhere may stay bare.
        bare = "import time\nnow = time.time()  # repro: ignore[DET001]\n"
        assert rules_of(check(bare)) == ["DET001"]
        assert check(bare, "tests/_fixture.py") == []


# ----------------------------------------------------------------------
# CLI.
# ----------------------------------------------------------------------
class TestCLI:
    def test_cli_exit_codes_and_json_output(self, tmp_path, capsys):
        fixture = tmp_path / "src" / "repro" / "core" / "x.py"
        fixture.parent.mkdir(parents=True)
        fixture.write_text("import time\nnow = time.time()\n")
        out_file = tmp_path / "findings.json"
        rc = analysis_main(
            ["src", "--root", str(tmp_path), "--format", "json", "--output", str(out_file)]
        )
        assert rc == 1
        doc = json.loads(out_file.read_text())
        assert doc["summary"]["errors"] == 1
        assert doc["findings"][0]["rule"] == "DET001"
        printed = json.loads(capsys.readouterr().out)
        assert printed == doc

        # Fixing the finding turns the same invocation green.
        fixture.write_text("x = 1\n")
        assert analysis_main(["src", "--root", str(tmp_path)]) == 0

    def test_missing_path_is_a_usage_error(self, tmp_path, capsys):
        rc = analysis_main(["nonexistent", "--root", str(tmp_path)])
        assert rc == 2


# ----------------------------------------------------------------------
# The analyzer itself + the live tree.
# ----------------------------------------------------------------------
class TestMeta:
    def test_every_rule_family_is_registered(self):
        from repro.analysis import iter_project_rules

        ids = {rule.rule_id for rule in iter_rules()}
        ids |= {rule.rule_id for rule in iter_project_rules()}
        for family in ("LAY", "DET", "ASY", "INV", "NUM", "LIF", "AWA", "SEE"):
            assert any(i.startswith(family) for i in ids), family

    def test_syntax_error_is_a_finding_not_a_crash(self):
        findings = check("def broken(:\n", "tests/_fixture.py")
        assert rules_of(findings) == ["PARSE"]

    def test_live_tree_is_clean_modulo_baseline(self):
        """The architecture contract, enforced by the tier-1 suite.

        There is no baseline file any more: every finding must be fixed
        or inline-suppressed with a reason.
        """
        findings = analyze_paths(["src", "tests", "benchmarks"], REPO_ROOT)
        assert not findings, "new findings:\n" + "\n".join(
            f.format() for f in findings
        )

    def test_cli_against_live_tree_exits_zero(self):
        rc = analysis_main(
            ["src", "tests", "benchmarks", "--root", str(REPO_ROOT)]
        )
        assert rc == 0


class TestMutants:
    """The analyzer column of the live-tree mutation matrix: each planted
    fault lights exactly the rules its row names (none, for the faults
    only the test suite kills).  A stale mutant fails here too."""

    @pytest.fixture(scope="class")
    def modules(self):
        return mutants.parse_tree()

    @pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
    def test_analyzer_column(self, mutant, modules):
        assert mutants.analyzer_column(mutant, modules) == mutant.rules
