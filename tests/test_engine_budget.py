"""Regression tests for the engine budget/admission fixes.

Four latent bugs are pinned here: (1) the byte budget is enforced even
when a single running request is left (and the pool makes any overrun
visible in ``snapshot()``), (2) fresh-prefill admission asks for the
same decode headroom the swapped path does, so an admission is never
immediately preempted for lack of it, (3) rejected or caller-named
submissions do not burn auto-generated request IDs and duplicate IDs
are rejected, and (4) a swapped request that cannot currently re-admit
no longer head-of-line blocks every fresh prefill — bypass is bounded
and counted.
"""

import numpy as np
import pytest

from repro.llm import ProxyModel, calibrate, get_proxy_spec
from repro.serve import PagedKVPool, RequestState, ServingEngine


@pytest.fixture(scope="module")
def tiny_engine_parts():
    spec = get_proxy_spec("proxy-small")
    model = ProxyModel(spec, seed=1)
    rng = np.random.default_rng(0)
    calib = calibrate(model, rng.integers(0, spec.vocab_size, size=(8, 33)))
    return spec, model, calib


def _per_token(model, calib) -> int:
    return ServingEngine(
        model, calib, byte_budget=10**9
    ).backend.per_token_nbytes


# ----------------------------------------------------------------------
# 1. The budget is a hard invariant.
# ----------------------------------------------------------------------

def test_budget_never_exceeded_on_a_pressured_trace(tiny_engine_parts):
    """Acceptance: ``pool.bytes_resident <= byte_budget`` after *every*
    engine step on a trace that drives the single-running-request
    growth case the old ``len(running) > 1`` gate skipped.

    The trace mixes one long decoder with chunk-ingested long prompts,
    so the pool repeatedly reaches the state that used to overrun: one
    request decoding while other resident bytes (mid-prefill partials,
    cache) crowd the budget.  The new capacity pass preempts or stalls
    instead; the pool-side counter proves no allocation ever overran.
    """
    spec, model, calib = tiny_engine_parts
    pt = _per_token(model, calib)
    engine = ServingEngine(
        model,
        calib,
        byte_budget=56 * pt,
        page_tokens=8,
        max_batch_size=6,
        watermark=0.05,
        prefill_chunk_tokens=8,
        step_token_budget=24,
    )
    rng = np.random.default_rng(17)
    for plen, new in ((16, 30), (24, 12), (32, 8), (16, 16), (8, 24)):
        engine.submit(
            rng.integers(0, spec.vocab_size, size=plen), max_new_tokens=new
        )
    steps = 0
    while engine.scheduler.has_work:
        engine.step()
        steps += 1
        assert engine.pool.bytes_resident <= engine.pool.byte_budget
        assert steps < 2_000
    report = engine.report(0.0)
    assert report["finished"] == 5
    assert report["pool"]["budget_overruns"] == 0
    # The trace actually created pressure: requests were displaced or
    # chunks stalled while the budget held.
    assert report["preemptions"] + report["prefill_stalls"] > 0


def test_solo_request_growth_fails_loudly_not_silently(tiny_engine_parts):
    """A lone running request whose next-step growth cannot fit must
    raise, not push ``bytes_resident`` past the budget.  (Simulated by
    shrinking the budget under a mid-decode request — the shape any
    accounting-drift bug would take.)"""
    spec, model, calib = tiny_engine_parts
    engine = ServingEngine(
        model, calib, byte_budget=50_000, page_tokens=8, max_batch_size=4
    )
    rng = np.random.default_rng(3)
    engine.submit(
        rng.integers(0, spec.vocab_size, size=16), max_new_tokens=20
    )
    engine.step()
    engine.pool.byte_budget = engine.pool.bytes_resident  # no headroom left
    with pytest.raises(RuntimeError, match="decode growth"):
        for _ in range(50):
            engine.step()
    assert engine.pool.bytes_resident <= engine.pool.byte_budget


def test_pool_overruns_are_visible_in_snapshot():
    """Direct pool misuse is counted, not absorbed: the snapshot shows
    how many allocations overran and by how much, and ``check_budget``
    turns the state into a loud error."""
    pool = PagedKVPool(byte_budget=1_000, page_tokens=4)
    pool.reserve_private(800, 800)
    snap = pool.snapshot()
    assert snap["budget_overruns"] == 0
    pool.check_budget()  # within budget: no error
    pool.reserve_private(400, 400)
    snap = pool.snapshot()
    assert snap["budget_overruns"] == 1
    assert snap["max_overrun_bytes"] == 200
    with pytest.raises(RuntimeError, match="over budget"):
        pool.check_budget()


# ----------------------------------------------------------------------
# 2. Admission headroom symmetry.
# ----------------------------------------------------------------------

def test_fresh_admission_reserves_decode_headroom(tiny_engine_parts):
    """The old fresh path asked for ``prompt_len`` tokens of headroom
    while the swapped path asked for its bytes *plus one decode token*;
    a prompt that exactly filled the headroom was admitted and then
    immediately preempted.  Unified, the same prompt waits instead —
    and is never preempted once admitted."""
    spec, model, calib = tiny_engine_parts
    pt = _per_token(model, calib)
    engine = ServingEngine(
        model,
        calib,
        byte_budget=40 * pt,
        page_tokens=8,
        max_batch_size=4,
        watermark=0.0,
    )
    rng = np.random.default_rng(6)
    a = engine.submit(
        rng.integers(0, spec.vocab_size, size=16), max_new_tokens=20
    )
    engine.step()
    headroom = engine.scheduler.admission_headroom(engine.pool)
    plen = headroom // pt
    assert plen * pt <= headroom < (plen + 1) * pt  # the asymmetry window
    b = engine.submit(
        rng.integers(0, spec.vocab_size, size=plen), max_new_tokens=4
    )
    engine.step()
    # Old formula: admitted with zero decode headroom.  New: deferred.
    assert b.state == RequestState.WAITING
    report = engine.run()
    assert report["finished"] == 2
    assert a.state == b.state == RequestState.FINISHED
    assert b.metrics.preemptions == 0


# ----------------------------------------------------------------------
# 3. Request-ID hygiene.
# ----------------------------------------------------------------------

def test_rejected_and_named_submissions_do_not_burn_ids(tiny_engine_parts):
    spec, model, calib = tiny_engine_parts
    engine = ServingEngine(
        model, calib, storage="ecco", byte_budget=30_000, page_tokens=8
    )
    prompt = np.arange(8) % spec.vocab_size
    first = engine.submit(prompt, max_new_tokens=2)
    assert first.request_id == "req-0"
    with pytest.raises(ValueError, match="pool budget"):
        engine.submit(prompt, max_new_tokens=10_000)
    second = engine.submit(prompt, max_new_tokens=2)
    assert second.request_id == "req-1"  # the rejection burned nothing
    named = engine.submit(prompt, max_new_tokens=2, request_id="mine")
    assert named.request_id == "mine"
    third = engine.submit(prompt, max_new_tokens=2)
    assert third.request_id == "req-2"  # the named one burned nothing
    # A caller squatting on the auto namespace is skipped, not collided.
    engine.submit(prompt, max_new_tokens=2, request_id="req-3")
    fourth = engine.submit(prompt, max_new_tokens=2)
    assert fourth.request_id == "req-4"
    assert engine.run()["finished"] == 6


# ----------------------------------------------------------------------
# 4. Bounded head-of-line bypass.
# ----------------------------------------------------------------------

def _hol_run(spec, model, calib, pt):
    """A + B contend until B is preempted and cannot re-admit; C (small)
    then arrives.  Returns (report, c_served_while_b_swapped)."""
    engine = ServingEngine(
        model,
        calib,
        byte_budget=48 * pt,
        page_tokens=8,
        max_batch_size=4,
        watermark=0.0,
    )
    rng = np.random.default_rng(5)
    engine.submit(rng.integers(0, spec.vocab_size, size=16), max_new_tokens=30)
    b = engine.submit(
        rng.integers(0, spec.vocab_size, size=16), max_new_tokens=20
    )
    c = None
    c_while_b_swapped = False
    for _ in range(400):
        if not engine.scheduler.has_work:
            break
        engine.step()
        if c is None and b.state == RequestState.SWAPPED:
            c = engine.submit(
                rng.integers(0, spec.vocab_size, size=8), max_new_tokens=2
            )
        if (
            c is not None
            and b.state == RequestState.SWAPPED
            and c.state in (RequestState.RUNNING, RequestState.FINISHED)
        ):
            c_while_b_swapped = True
    return engine.report(0.0), c_while_b_swapped


def test_hol_bypass_admits_small_requests_past_a_stuck_swap(
    tiny_engine_parts,
):
    spec, model, calib = tiny_engine_parts
    pt = _per_token(model, calib)
    report, c_while_b_swapped = _hol_run(spec, model, calib, pt)
    assert report["finished"] == 3
    assert report["preemptions"] >= 1
    assert report["hol_blocked_steps"] > 0   # the condition occurred...
    assert report["hol_bypasses"] >= 1       # ...and was bypassed
    assert c_while_b_swapped                 # C ran while B waited
    assert report["pool"]["budget_overruns"] == 0


def test_hol_blocking_not_counted_without_fresh_work(tiny_engine_parts):
    """A stuck swapped head with an *empty* waiting queue blocks nobody;
    the drain phase must not inflate ``hol_blocked_steps``."""
    spec, model, calib = tiny_engine_parts
    pt = _per_token(model, calib)
    engine = ServingEngine(
        model,
        calib,
        byte_budget=48 * pt,
        page_tokens=8,
        max_batch_size=4,
        watermark=0.0,
    )
    rng = np.random.default_rng(5)
    engine.submit(rng.integers(0, spec.vocab_size, size=16), max_new_tokens=30)
    engine.submit(rng.integers(0, spec.vocab_size, size=16), max_new_tokens=20)
    report = engine.run()  # B gets preempted and waits, but nobody queues
    assert report["finished"] == 2
    assert report["preemptions"] >= 1
    assert report["hol_blocked_steps"] == 0
    assert report["hol_bypasses"] == 0


def test_step_token_budget_needs_chunked_prefill(tiny_engine_parts):
    """The per-step token budget paces prefill *chunks*; without
    ``prefill_chunk_tokens`` there is nothing for it to pace."""
    _spec, model, calib = tiny_engine_parts
    with pytest.raises(ValueError, match="prefill_chunk_tokens"):
        ServingEngine(model, calib, byte_budget=80_000, step_token_budget=24)
