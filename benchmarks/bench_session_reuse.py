"""Multi-turn sessions: cross-turn compressed-KV reuse vs cold starts.

The dominant production scenario — chat, where turn N+1's prompt is
turn N's full history plus new user text — replayed on a virtual clock
against the same engine twice: once with prefix reuse (warm turns
attach every stored page, including the promoted conversation tail, and
forward only the new suffix) and once reuse-disabled (every turn
re-prefills its whole history, the pre-fix behaviour).  The engine
charges its own clock (synchronous StepCostModel charging), so each
turn's TTFT contains its own prefill cost: warm turns must come out
measurably below the cold baseline's follow-up turns, with zero budget
overruns, and every session's decoded KV must be bit-exact against a
single-stream reference fed the recorded raw K/V of all its turns.

Writes ``results/session_reuse.json``.
"""

import pytest

from _report import check_baseline, write_report
from repro.serve import (
    ServingEngine,
    StepCostModel,
    VirtualClock,
    generate_sessions,
    replay_sessions,
    summarize_turns,
)

BYTE_BUDGET = 500_000
PAGE_TOKENS = 8
MAX_BATCH = 8
SESSION_SEED = 17
NUM_SESSIONS = 6


def _traces(spec):
    return generate_sessions(
        seed=SESSION_SEED,
        num_sessions=NUM_SESSIONS,
        vocab_size=spec.vocab_size,
        page_tokens=PAGE_TOKENS,
        turns_mean=4.0,
        max_turns=6,
        # Disjoint session histories: the raw-KV audit rebuilds each
        # session from its own recorded raws, so turn 1 must start cold
        # (a shared system page would attach bytes first encoded — and
        # recorded — by a *different* session).  Cross-session sharing
        # of a common system prompt is covered by the tier-0 tests.
        # The token-level trie could still salvage an accidental short
        # shared head across sessions, but the pool's cost-aware split
        # floor (``split_min_tokens``, 4) rejects it: with a
        # 64-token vocab a 4-token cross-session collision has
        # probability ~64^-3 per pair — effectively never.
        system_pages=0,
        first_turn_mean=20.0,
        turn_mean=12.0,
        think_mean_s=0.5,
        output_mean=10.0,
    )


@pytest.fixture(scope="module")
def session_runs(proxy_small, calib_small):
    """The same session workload, reuse on vs reuse off."""
    model = proxy_small.model
    traces = _traces(proxy_small.spec)
    runs = {}
    for mode, reuse in (("reuse", True), ("cold", False)):
        clock = VirtualClock()
        engine = ServingEngine(
            model,
            calib_small,
            storage="ecco",
            byte_budget=BYTE_BUDGET,
            page_tokens=PAGE_TOKENS,
            max_batch_size=MAX_BATCH,
            watermark=0.1,
            prefix_reuse=reuse,
            step_cost=StepCostModel(),
            record_reference=reuse,
            clock=clock,
        )
        replay = replay_sessions(engine, traces, clock)
        turns = [t for s in replay["sessions"] for t in s.turn_reports()]
        runs[mode] = {
            "engine": engine,
            "replay": replay,
            "report": engine.report(clock()),
            "turns": summarize_turns(turns),
        }
    runs["traces"] = traces
    return runs


def test_warm_turns_cut_ttft_vs_cold_start(session_runs):
    """Acceptance: turn-2+ TTFT drops measurably once the prefix cache
    serves the conversation history, at zero budget overruns."""
    reuse = session_runs["reuse"]
    cold = session_runs["cold"]
    total_turns = sum(t.num_turns for t in session_runs["traces"])
    for run in (reuse, cold):
        assert run["replay"]["turns_submitted"] == total_turns
        assert run["replay"]["turns_rejected"] == 0
        assert run["report"]["finished"] == total_turns
        assert run["report"]["pool"]["budget_overruns"] == 0

    warm = reuse["turns"]
    baseline = cold["turns"]
    assert warm["warm_turns"] >= total_turns - NUM_SESSIONS
    assert baseline["warm_turns"] == 0
    # Follow-up turns: warm TTFT well under the cold baseline's.
    assert warm["ttft_s_mean_warm"] < 0.5 * baseline["ttft_s_mean_cold"]
    # And most prompt tokens never re-encode.
    assert warm["reuse_fraction"] > 0.5
    assert warm["prompt_tokens_reencoded"] < baseline["prompt_tokens"] // 2

    pool = reuse["report"]["pool"]
    data = {
        "workload": {
            "sessions": NUM_SESSIONS,
            "turns": total_turns,
            "byte_budget": BYTE_BUDGET,
            "page_tokens": PAGE_TOKENS,
            "seed": SESSION_SEED,
        },
        "reuse": {
            "turns": warm,
            "report": reuse["report"],
            "simulated_s": reuse["replay"]["simulated_s"],
        },
        "cold": {
            "turns": baseline,
            "report": cold["report"],
            "simulated_s": cold["replay"]["simulated_s"],
        },
    }
    write_report(
        "session_reuse",
        [
            f"workload: {NUM_SESSIONS} sessions, {total_turns} turns, "
            f"budget {BYTE_BUDGET / 1024:.0f} KiB",
            f"warm turns:        {warm['warm_turns']}/{warm['turns']} "
            f"(reuse fraction {warm['reuse_fraction']:.2f})",
            f"TTFT mean:         warm {warm['ttft_s_mean_warm'] * 1e3:.1f} ms"
            f"  vs cold baseline "
            f"{baseline['ttft_s_mean_cold'] * 1e3:.1f} ms "
            f"({baseline['ttft_s_mean_cold'] / warm['ttft_s_mean_warm']:.1f}x)",
            f"prompt tokens:     {warm['prompt_tokens']} total, "
            f"{warm['prefix_tokens_reused']} reused, "
            f"{warm['prompt_tokens_reencoded']} re-encoded "
            f"(cold baseline re-encodes {baseline['prompt_tokens']})",
            f"pages hit:         {warm['prefix_pages_hit']}",
            f"shared savings:    {pool['shared_bytes_saved']} B compressed, "
            f"{pool['shared_fp16_bytes_saved']} B fp16-equivalent",
            f"simulated drain:   reuse "
            f"{reuse['replay']['simulated_s']:.2f}s  cold "
            f"{cold['replay']['simulated_s']:.2f}s",
            f"budget overruns:   0 (hard invariant)",
        ],
        data,
    )
    # Reuse counters and virtual-clock TTFTs: deterministic.
    check_baseline(
        "session_reuse",
        data,
        [
            ("reuse.turns.reuse_fraction", "higher"),
            ("reuse.turns.prefix_tokens_reused", "higher"),
            ("reuse.turns.prompt_tokens_reencoded", "lower"),
            ("reuse.turns.ttft_s_mean_warm", "lower"),
            ("reuse.report.pool.budget_overruns", "lower"),
        ],
    )


def test_session_kv_bit_exact_vs_single_stream_reference(session_runs):
    """Acceptance: every turn's decoded KV is bit-exact — its forwarded
    suffix against a single-stream run of its own raw (pre-quantization)
    K/V, its attached history against the turn that encoded it — so
    attach, tail promotion and warm suffix ingestion change no decoded
    bit."""
    assert session_runs["reuse"]["engine"].audit_kv() == []


def test_no_unreachable_cache_and_clean_drain(session_runs):
    """After draining, the pool holds only reachable cached history and
    the accounting is clean in both directions."""
    for mode in ("reuse", "cold"):
        engine = session_runs[mode]["engine"]
        assert engine.pool.bytes_active == 0
        assert engine.pool.private_bytes == 0
        assert engine.pool.bytes_swapped == 0
        assert engine.pool.unreachable_cached_pages() == []
        engine.pool.check_budget()
