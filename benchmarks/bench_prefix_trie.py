"""Divergent-prefix serving: token-level trie vs cold start.

The workload a page-granular prefix cache cannot touch: groups of
prompts that share most — but not all — of their first page (here 28 of
a 32-token page, the scaled-down version of the paper's 120-of-128
scenario).  Whole-page matching shares nothing here, so its numbers are
exactly a cold start's (``prefix_reuse=False``, the baseline arm): every
member re-encodes everything.  The trie matches token-level, splits the
cached page at the divergence point (a bit-exact block slice, no
re-encode) and every follower attaches the shared 28-token head.

Group members arrive in waves (the engine drains between waves) so each
group's leader page is demoted into the prefix cache before the
followers look it up.  Both engines charge a synchronous StepCostModel
on a virtual clock, so follower TTFTs are deterministic and contain
their own prefill cost: the trie's followers forward 12 tokens where a
cold start forwards 40.

Acceptance (ISSUE 6): the trie reports ``prefix_tokens_reused > 0`` where
the cold arm reports 0, cuts re-encoded (forwarded) prompt tokens at
least 2x, and every follower's decoded KV is bit-exact against a
reuse-aware reference built from the recorded raw K/V of whichever
request actually encoded each span.

Writes ``results/prefix_trie.json``.
"""

import numpy as np
import pytest

from _report import check_baseline, write_report
from repro.serve import ServingEngine, StepCostModel, VirtualClock

BYTE_BUDGET = 2_000_000
PAGE_TOKENS = 32
SHARED_TOKENS = 28   # shared head: diverges *inside* the first page
PROMPT_TOKENS = 40
MAX_NEW = 6
GROUPS = 4
MEMBERS = 5          # per group: 1 leader + 4 followers
SEED = 99


def _prompts(spec):
    rng = np.random.default_rng(SEED)
    groups = []
    for _ in range(GROUPS):
        shared = rng.integers(0, spec.vocab_size, size=SHARED_TOKENS)
        members = []
        for m in range(MEMBERS):
            # Pin the first post-divergence token to the member index so
            # members provably diverge at exactly SHARED_TOKENS — the
            # bit-exactness audit relies on every attach stopping there.
            suffix = rng.integers(
                0, spec.vocab_size, size=PROMPT_TOKENS - SHARED_TOKENS
            )
            suffix[0] = m
            members.append(np.concatenate([shared, suffix]))
        groups.append(members)
    return groups


def _run(model, calib, groups, prefix_reuse, record):
    clock = VirtualClock()
    engine = ServingEngine(
        model,
        calib,
        storage="ecco",
        byte_budget=BYTE_BUDGET,
        page_tokens=PAGE_TOKENS,
        max_batch_size=GROUPS,
        prefix_reuse=prefix_reuse,
        step_cost=StepCostModel(),
        record_reference=record,
        clock=clock,
    )
    requests = [[] for _ in groups]
    # Waves: one member per group per wave, draining in between, so a
    # wave's pages are demoted into the prefix cache before the next
    # wave's lookups (a pinned page cannot be split).
    for wave in range(MEMBERS):
        for g, prompts in enumerate(groups):
            requests[g].append(engine.submit(prompts[wave], MAX_NEW))
        while engine.has_work:
            engine.step()
    return engine, requests, clock


@pytest.fixture(scope="module")
def trie_runs(proxy_small, calib_small):
    groups = _prompts(proxy_small.spec)
    trie = _run(proxy_small.model, calib_small, groups, True, record=True)
    cold = _run(proxy_small.model, calib_small, groups, False, record=False)
    return {"groups": groups, "trie": trie, "cold": cold}


def _followers(requests):
    return [r for group in requests for r in group[1:]]


def _every_follower_warm(followers):
    return all(
        r.metrics.cached_tokens == SHARED_TOKENS for r in followers
    )


def _ttft_mean(requests):
    return float(np.mean([r.metrics.ttft_s for r in requests]))


def test_trie_reuses_where_cold_start_cannot(trie_runs):
    """Acceptance: reuse > 0 vs 0, and ≥ 2x fewer re-encoded tokens."""
    trie_engine, trie_requests, trie_clock = trie_runs["trie"]
    cold_engine, cold_requests, cold_clock = trie_runs["cold"]
    trie_report = trie_engine.report(trie_clock())
    cold_report = cold_engine.report(cold_clock())
    assert trie_report["pool"]["budget_overruns"] == 0
    assert cold_report["pool"]["budget_overruns"] == 0
    assert trie_engine.pool.unreachable_cached_pages() == []
    assert trie_engine.pool.leaf_index_violations() == []

    # The headline: without token-level matching nothing is shared.
    assert cold_report["prefix_tokens_reused"] == 0
    followers = _followers(trie_requests)
    assert trie_report["prefix_tokens_reused"] >= SHARED_TOKENS * len(
        followers
    )
    # One split per group (wave 2); later waves full-match the head.
    assert trie_report["pool"]["pages_split"] == GROUPS
    assert trie_report["prefix_partial_attaches"] == GROUPS
    assert _every_follower_warm(followers)

    # ≥ 2x fewer prompt tokens through the model.
    ratio = (
        cold_report["prefill_forwarded_tokens"]
        / trie_report["prefill_forwarded_tokens"]
    )
    assert ratio >= 2.0

    # Deterministic TTFT: followers prefill 12 tokens instead of 40.
    ttft_trie = _ttft_mean(followers)
    ttft_cold = _ttft_mean(_followers(cold_requests))
    assert ttft_trie < ttft_cold

    data = {
        "workload": {
            "groups": GROUPS,
            "members": MEMBERS,
            "prompt_tokens": PROMPT_TOKENS,
            "shared_tokens": SHARED_TOKENS,
            "page_tokens": PAGE_TOKENS,
            "byte_budget": BYTE_BUDGET,
            "seed": SEED,
        },
        "trie": {
            "prefix_tokens_reused": trie_report["prefix_tokens_reused"],
            "split_tokens_salvaged": trie_report["split_tokens_salvaged"],
            "prefix_partial_attaches": trie_report[
                "prefix_partial_attaches"
            ],
            "prefill_forwarded_tokens": trie_report[
                "prefill_forwarded_tokens"
            ],
            "ttft_s_mean_follower": ttft_trie,
            "pool": trie_report["pool"],
        },
        "cold": {
            "prefix_tokens_reused": cold_report["prefix_tokens_reused"],
            "prefill_forwarded_tokens": cold_report[
                "prefill_forwarded_tokens"
            ],
            "ttft_s_mean_follower": ttft_cold,
        },
        "forwarded_tokens_ratio": ratio,
        "ttft_follower_speedup": ttft_cold / ttft_trie,
    }
    write_report(
        "prefix_trie",
        [
            f"workload: {GROUPS} groups x {MEMBERS} members, "
            f"{SHARED_TOKENS}/{PAGE_TOKENS} tokens shared inside page 1",
            f"prefix tokens reused:  trie "
            f"{trie_report['prefix_tokens_reused']}  cold "
            f"{cold_report['prefix_tokens_reused']}",
            f"pages split:           {trie_report['pool']['pages_split']} "
            f"({trie_report['split_tokens_salvaged']} tokens salvaged)",
            f"forwarded tokens:      trie "
            f"{trie_report['prefill_forwarded_tokens']}  cold "
            f"{cold_report['prefill_forwarded_tokens']}  ({ratio:.2f}x cut)",
            f"follower TTFT:         trie {ttft_trie * 1e3:.2f} ms  "
            f"cold {ttft_cold * 1e3:.2f} ms "
            f"({ttft_cold / ttft_trie:.2f}x)",
            f"lookup outcomes:       "
            f"{trie_report['pool']['prefix_full_hits']} full, "
            f"{trie_report['pool']['prefix_partial_hits']} partial, "
            f"{trie_report['pool']['prefix_misses']} miss",
            f"matched-length hist:   "
            f"{trie_report['pool']['matched_prefix_hist']}",
            "budget overruns:       0 (hard invariant)",
        ],
        data,
    )
    # Reuse counters and the virtual-clock follower TTFT: deterministic.
    check_baseline(
        "prefix_trie",
        data,
        [
            ("trie.prefix_tokens_reused", "higher"),
            ("trie.split_tokens_salvaged", "higher"),
            ("forwarded_tokens_ratio", "higher"),
            ("ttft_follower_speedup", "higher"),
            ("trie.pool.budget_overruns", "lower"),
        ],
    )


def test_follower_kv_bit_exact_vs_reuse_aware_reference(trie_runs):
    """Acceptance: each follower attached the shared head, and its
    decoded KV equals a single-stream run of whichever request encoded
    each span — the group leader for that head, the follower itself for
    its forwarded suffix and decode tokens."""
    engine, requests, _clock = trie_runs["trie"]
    for group in requests:
        for follower in group[1:]:
            assert follower.metrics.cached_tokens == SHARED_TOKENS
    assert engine.audit_kv() == []
