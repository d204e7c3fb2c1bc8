"""Tier-0 tests for the analyzer's project rules and their engine.

Covers the CFG builder, the call graph and its summaries (kept for
LIF001), and LIF001, AWA001/002 and SEE002 with a true positive *and* a
near-miss negative each.  Planted-fault checks live in
``tests/mutants.py``, against the live tree rather than a fixture.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

from repro.analysis import Severity, analyze_source
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.callgraph import CallGraph
from repro.analysis.cfg import (
    ENTRY,
    EXIT,
    RAISE_EXIT,
    build_cfg,
)
from repro.analysis.project import build_project
from repro.analysis.runner import ModuleInfo, parse_module

REPO_ROOT = Path(__file__).resolve().parents[1]

SRC = "src/repro/core/_fixture.py"
SERVE = "src/repro/serve/_fixture.py"


def rules_of(findings):
    return sorted(f.rule for f in findings)


def check(source: str, relpath: str = SRC):
    return analyze_source(textwrap.dedent(source), relpath)


def _cfg_of(source: str):
    tree = ast.parse(textwrap.dedent(source))
    fn = next(
        n
        for n in ast.walk(tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    )
    return build_cfg(fn, build_project([]).catches)


def _project_of(source: str, relpath: str = SRC):
    module = parse_module(textwrap.dedent(source), relpath)
    assert isinstance(module, ModuleInfo), "fixture failed to parse"
    return build_project([module])


# ----------------------------------------------------------------------
# CFG construction.
# ----------------------------------------------------------------------
class TestCFG:
    def test_straight_line_reaches_exit(self):
        cfg = _cfg_of(
            """
            def f(x):
                a = x + 1
                return a
            """
        )
        kinds = {(e.src, e.dst, e.kind) for n in cfg.nodes for e in n.succs}
        # return statement routes straight to EXIT.
        assert any(dst == EXIT and kind == "return" for _, dst, kind in kinds)

    def test_if_has_true_and_false_edges(self):
        cfg = _cfg_of(
            """
            def f(x):
                if x:
                    a = 1
                else:
                    a = 2
                return a
            """
        )
        kinds = {e.kind for n in cfg.nodes for e in n.succs}
        assert {"true", "false"} <= kinds

    def test_while_has_back_edge(self):
        cfg = _cfg_of(
            """
            def f(n):
                while n:
                    n -= 1
                return n
            """
        )
        kinds = {e.kind for n in cfg.nodes for e in n.succs}
        assert "back" in kinds

    def test_bare_raise_routes_to_raise_exit(self):
        cfg = _cfg_of(
            """
            def f():
                raise ValueError("boom")
            """
        )
        assert any(
            e.dst == RAISE_EXIT and e.kind == "raise"
            for n in cfg.nodes
            for e in n.succs
        )

    def test_caught_raise_routes_to_handler_not_raise_exit(self):
        cfg = _cfg_of(
            """
            def f():
                try:
                    raise ValueError("boom")
                except ValueError:
                    return 0
            """
        )
        raise_edges = [
            e
            for n in cfg.nodes
            for e in n.succs
            if isinstance(n.stmt, ast.Raise)
        ]
        assert raise_edges and all(e.dst != RAISE_EXIT for e in raise_edges)

    def test_finally_intercepts_early_return(self):
        cfg = _cfg_of(
            """
            def f(fh):
                try:
                    return 1
                finally:
                    fh.close()
            """
        )
        # The return must NOT bypass the finally body: some edge of kind
        # "finally" exists, and EXIT is still reachable.
        kinds = {e.kind for n in cfg.nodes for e in n.succs}
        assert "finally" in kinds
        assert any(e.dst == EXIT for n in cfg.nodes for e in n.succs)

    def test_entry_is_connected(self):
        cfg = _cfg_of("def f():\n    pass\n")
        assert cfg.nodes[ENTRY].succs


# ----------------------------------------------------------------------
# Call graph + summaries (exercised through the project index).
# ----------------------------------------------------------------------
class TestCallGraph:
    def test_raises_summary_is_transitive(self):
        project = _project_of(
            """
            class BudgetExceededError(ValueError):
                pass

            def inner():
                raise BudgetExceededError("x")

            def middle():
                inner()

            def outer():
                middle()
            """
        )
        graph = CallGraph(project)
        outer = next(
            f for f in project.iter_functions() if f.name == "outer"
        )
        assert "BudgetExceededError" in graph.raises_summary(
            outer, frozenset({"BudgetExceededError"})
        )

    def test_locally_caught_raise_does_not_escape(self):
        project = _project_of(
            """
            class BudgetExceededError(ValueError):
                pass

            def inner():
                raise BudgetExceededError("x")

            def safe():
                try:
                    inner()
                except ValueError:
                    return None
            """
        )
        graph = CallGraph(project)
        safe = next(f for f in project.iter_functions() if f.name == "safe")
        assert not graph.raises_summary(
            safe, frozenset({"BudgetExceededError"})
        )

    def test_closes_params_sees_transitive_release(self):
        project = _project_of(
            """
            class Engine:
                def _dispose(self, handle):
                    handle.release()

                def _finish(self, kv):
                    self._dispose(kv)
            """
        )
        graph = CallGraph(project)
        finish = next(
            f for f in project.iter_functions() if f.name == "_finish"
        )
        assert "kv" in graph.closes_params(finish, frozenset({"release"}))


# ----------------------------------------------------------------------
# LIF001 — locally acquired resources are released or handed off.
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_leak_via_escaping_exception_is_flagged(self):
        # The PR-5 shape: BudgetExceededError raised between acquire and
        # release, with no try/finally.
        findings = check(
            """
            class BudgetExceededError(ValueError):
                pass

            class Engine:
                def check(self, n):
                    if n > 4:
                        raise BudgetExceededError("over budget")

                def run(self, backend, prompt):
                    kv = backend.create_request(prompt)
                    self.check(len(prompt))
                    kv.release()
            """
        )
        assert rules_of(findings) == ["LIF001"]
        assert "exception" in findings[0].message

    def test_try_finally_guard_passes(self):
        findings = check(
            """
            class BudgetExceededError(ValueError):
                pass

            class Engine:
                def check(self, n):
                    if n > 4:
                        raise BudgetExceededError("over budget")

                def run(self, backend, prompt):
                    kv = backend.create_request(prompt)
                    try:
                        self.check(len(prompt))
                    finally:
                        kv.release()
            """
        )
        assert findings == []

    def test_early_return_leak_is_flagged(self):
        findings = check(
            """
            class Engine:
                def run(self, backend, prompt):
                    kv = backend.create_request(prompt)
                    if not prompt:
                        return None
                    kv.release()
                    return kv
            """
        )
        assert rules_of(findings) == ["LIF001"]

    def test_handoff_to_releasing_method_passes(self):
        findings = check(
            """
            class Engine:
                def _finish(self, kv):
                    kv.release()

                def run(self, backend, prompt):
                    kv = backend.create_request(prompt)
                    self._finish(kv)
            """
        )
        assert findings == []

    def test_escape_via_attribute_store_passes(self):
        # Storing the resource on another object transfers ownership —
        # exactly what the live engine does with request.kv.
        findings = check(
            """
            class Engine:
                def admit(self, backend, request):
                    request.kv = backend.create_request(request.prompt)
            """
        )
        assert findings == []


# ----------------------------------------------------------------------
# AWA — async atomicity.
# ----------------------------------------------------------------------
class TestAtomicity:
    def test_stale_write_across_await_is_flagged(self):
        findings = check(
            """
            class Frontend:
                async def pump(self):
                    depth = self.queue_depth
                    await self.drain_one()
                    self.queue_depth = depth - 1
            """,
            SERVE,
        )
        assert rules_of(findings) == ["AWA001"]
        assert "queue_depth" in findings[0].message

    def test_reread_after_await_passes(self):
        findings = check(
            """
            class Frontend:
                async def pump(self):
                    depth = self.queue_depth
                    await self.drain_one()
                    depth = self.queue_depth
                    self.queue_depth = depth - 1
            """,
            SERVE,
        )
        assert findings == []

    def test_write_before_any_await_passes(self):
        findings = check(
            """
            class Frontend:
                async def pump(self):
                    depth = self.queue_depth
                    self.queue_depth = depth - 1
                    await self.drain_one()
            """,
            SERVE,
        )
        assert findings == []

    def test_taint_survives_derived_locals(self):
        findings = check(
            """
            class Frontend:
                async def pump(self):
                    depth = self.queue_depth
                    await self.drain_one()
                    adjusted = depth - 1
                    self.queue_depth = adjusted
            """,
            SERVE,
        )
        assert rules_of(findings) == ["AWA001"]

    def test_augassign_with_await_rhs_is_flagged(self):
        findings = check(
            """
            class Frontend:
                async def pump(self):
                    self.tokens += await self.step()
            """,
            SERVE,
        )
        assert rules_of(findings) == ["AWA002"]

    def test_await_into_local_then_apply_passes(self):
        findings = check(
            """
            class Frontend:
                async def pump(self):
                    produced = await self.step()
                    self.tokens += produced
            """,
            SERVE,
        )
        assert findings == []


# ----------------------------------------------------------------------
# SEE002 — seeds reach every RNG construction inside repro.*.
# ----------------------------------------------------------------------
class TestSeeds:
    def test_seed_threaded_from_parameter_passes(self):
        findings = check(
            """
            import numpy as np

            def jitter(scale, seed):
                rng = np.random.default_rng(seed)
                return rng.normal() * scale

            def submit_trace(trace):
                return [jitter(t, i) for i, t in enumerate(trace)]
            """,
            SERVE,
        )
        assert findings == []

    def test_default_rng_none_is_still_unseeded(self):
        findings = check(
            """
            import numpy as np

            def submit(trace):
                rng = np.random.default_rng(None)
                return rng.normal()
            """,
            SERVE,
        )
        assert rules_of(findings) == ["SEE002"]

    def test_unseeded_rng_off_serving_path_is_flagged(self):
        findings = check(
            """
            import numpy as np

            def helper():
                return np.random.default_rng().normal()
            """
        )
        assert rules_of(findings) == ["SEE002"]
        assert findings[0].severity is Severity.ERROR

    def test_import_time_rng_in_serve_module_is_error(self):
        findings = check(
            """
            import numpy as np

            _RNG = np.random.default_rng()
            """,
            SERVE,
        )
        assert rules_of(findings) == ["SEE002"]

    def test_tests_and_benchmarks_are_out_of_scope(self):
        findings = check(
            """
            import numpy as np

            def helper():
                return np.random.default_rng().normal()
            """,
            "tests/_fixture.py",
        )
        assert findings == []


class TestCLI:
    def test_list_rules_includes_project_rules(self, capsys):
        assert analysis_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("ASY002", "AWA001", "AWA002", "LIF001", "SEE002"):
            assert rule_id in out
        for gone in ("LIF002", "LIF003", "SEE001"):
            assert gone not in out
