"""Tier-0 tests for the analyzer's flow-sensitive rules.

Covers LIF001 (straight-line acquire -> hand-off), AWA001/002 (a
structured forward walk over ``async def`` bodies) and SEE002 with a
true positive *and* a near-miss negative each.  Planted-fault checks
live in ``tests/mutants.py``, against the live tree rather than a
fixture.
"""

from __future__ import annotations

import textwrap

from repro.analysis import Severity, analyze_source
from repro.analysis.__main__ import main as analysis_main

SRC = "src/repro/core/_fixture.py"
SERVE = "src/repro/serve/_fixture.py"


def rules_of(findings):
    return sorted(f.rule for f in findings)


def check(source: str, relpath: str = SRC):
    return analyze_source(textwrap.dedent(source), relpath)


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

    def test_late_handoff_behind_a_loop_is_flagged(self):
        # The attach-append-after-segments mutant: the pin is recorded
        # only after a loop whose calls may raise.
        findings = check(
            """
            class RequestKV:
                def attach(self, page, refuse_build):
                    pinned, shared = self.pool.acquire(page.chain, refuse_build)
                    for layer in range(self.num_layers):
                        self._append_segment(layer, pinned.payload[layer])
                    self.pages.append(pinned)
            """
        )
        assert rules_of(findings) == ["LIF001"]


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

    def test_async_with_between_read_and_write_is_flagged(self):
        findings = check(
            """
            class Frontend:
                async def pump(self):
                    depth = self.queue_depth
                    async with self.gate:
                        pass
                    self.queue_depth = depth - 1
            """,
            SERVE,
        )
        assert rules_of(findings) == ["AWA001"]

    def test_async_for_between_read_and_write_is_flagged(self):
        findings = check(
            """
            class Frontend:
                async def pump(self):
                    depth = self.queue_depth
                    async for _ in self.stream():
                        pass
                    self.queue_depth = depth - 1
            """,
            SERVE,
        )
        assert rules_of(findings) == ["AWA001"]

    def test_write_in_handler_after_raising_await_is_flagged(self):
        # The await suspended before it raised: the handler's write is
        # as stale as one after a completed await.
        findings = check(
            """
            class Frontend:
                async def pump(self):
                    depth = self.queue_depth
                    try:
                        await self.drain_one()
                    except ValueError:
                        self.queue_depth = depth - 1
            """,
            SERVE,
        )
        assert rules_of(findings) == ["AWA001"]

    def test_loop_carried_staleness_is_flagged(self):
        # Read at the loop bottom, await, write at the top of the *next*
        # iteration: only a walk that repeats the body sees it.
        findings = check(
            """
            class Frontend:
                async def pump(self):
                    depth = 0
                    while self.running:
                        self.queue_depth = depth - 1
                        depth = self.queue_depth
                        await self.drain_one()
            """,
            SERVE,
        )
        assert rules_of(findings) == ["AWA001"]

    def test_reread_in_only_one_branch_is_still_flagged(self):
        findings = check(
            """
            class Frontend:
                async def pump(self, fresh):
                    depth = self.queue_depth
                    await self.drain_one()
                    if fresh:
                        depth = self.queue_depth
                    self.queue_depth = depth - 1
            """,
            SERVE,
        )
        assert rules_of(findings) == ["AWA001"]

    def test_reread_in_both_branches_passes(self):
        findings = check(
            """
            class Frontend:
                async def pump(self, fresh):
                    depth = self.queue_depth
                    await self.drain_one()
                    if fresh:
                        depth = self.queue_depth
                    else:
                        depth = self.queue_depth + 1
                    self.queue_depth = depth - 1
            """,
            SERVE,
        )
        assert findings == []

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
