"""The repo benchmark: one command, six workloads, named metrics.

Two ways to call it, one implementation::

    # the benchmark contract (what BENCHMARK.json's ``command`` runs)
    python3 benchmarks/harness/run.py --workload serve_cold --seed 3 \
        --seconds 12 --trace 0

    # a full report: every workload, host + simulated + per-layer numbers
    python3 benchmarks/harness/run.py --workload all --seed 0 \
        --out results/harness/run.json --traced [--repeat 3] [--smoke]

Each workload runs in a child process of its own with BLAS pinned to
one thread, after one throwaway ``import repro.serve`` so ``setup_s``
reads warm file caches.  The child measures (``--trace 0``: untraced
timed passes for ``--seconds``; ``--trace 1``: one untraced pass, the
rate ladder, one traced pass; ``--traced``: both), checks outputs, and
prints one JSON object; this parent prints every metric by name with
its unit and direction, then one JSON line last, and exits non-zero if
any check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HARNESS_DIR = Path(__file__).resolve().parent
REPO_ROOT = HARNESS_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"
WORKLOAD_TIMEOUT_S = 170
#: Fewest set-up rounds a run makes, so ``setup_s`` is a median of three.
MIN_ROUNDS = 3

ZERO = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "units": 0}
#: Deterministic per-pass outputs (simulated, byte, quality): they must
#: repeat bit-identically, traced or not.
EXACT_METRICS = (
    "sim_ttft_p95_s", "sim_itl_p95_s", "sim_slo_attainment",
    "sim_tokens_per_s", "kv_bytes_per_token", "roundtrip_nmse",
)


def load_spec() -> dict:
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# The child: measure one workload.
# ----------------------------------------------------------------------

def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def measure(workload, seed: int, seconds: float, smoke: bool, wall_clock):
    """Rounds of set-up + passes until ``seconds`` are used up."""
    began = wall_clock()
    setups, results = [], []
    rounds = 0
    while True:
        start = wall_clock()
        state = workload.setup(seed, rounds, smoke)
        setups.append(wall_clock() - start)
        for _ in range(workload.passes_per_round):
            results.append(workload.run_pass(state))
        rounds += 1
        elapsed = wall_clock() - began
        # Smoke runs one round; a real run makes at least MIN_ROUNDS and
        # stops once another round of average length would overrun.
        if smoke or (
            rounds >= MIN_ROUNDS and elapsed + elapsed / rounds > seconds
        ):
            break
    return setups, results


def end_to_end(workload, import_s, setups, results) -> dict:
    """The bounded host-time metrics: medians over untraced passes."""
    scaled = [
        r.wall_s * workload.nominal_units / r.units for r in results
    ]
    return {
        "setup_s": import_s + statistics.median(setups),
        "pass_wall_s": statistics.median(scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def host_extras(results) -> dict:
    """Unbounded numbers of the untraced passes: the step percentiles,
    and the host numbers only some workloads have."""
    steps = [s for r in results for s in r.steps]
    out = {
        "step_wall_ms_p50": _percentile(steps, 50) * 1e3,
        "step_wall_ms_p95": _percentile(steps, 95) * 1e3,
        "encode_mb_per_s": 0.0,
        "decode_mb_per_s": 0.0,
        "harness.raw_pass_wall_s": statistics.median(
            r.wall_s for r in results
        ),
        "serve.frontend.pump_self_s": 0.0,
    }
    coded = [r for r in results if r.encode_s > 0]
    if coded:
        out["encode_mb_per_s"] = statistics.median(
            r.kv_fp16_bytes / 1e6 / r.encode_s for r in coded
        )
        out["decode_mb_per_s"] = statistics.median(
            r.kv_fp16_bytes / 1e6 / r.decode_s for r in coded
        )
    if "frontend" in results[0].facts:
        out["serve.frontend.pump_self_s"] = statistics.median(
            r.wall_s - sum(r.steps) for r in results
        )
    return out


def derive_layers(traced, tracer, overhead) -> dict:
    """Per-layer metrics of the traced pass (times are self times of the
    spans unless the name says otherwise; counts are exact)."""
    summary = tracer.summary()

    def entry(span):
        return summary.get(span, ZERO)

    def calls(*spans):
        return sum(entry(s)["calls"] for s in spans)

    def self_s(*spans):
        return sum(entry(s)["self_s"] for s in spans)

    def total_s(*spans):
        return sum(entry(s)["total_s"] for s in spans)

    def units(span):
        return entry(span)["units"]

    def ratio(numerator, denominator, scale=1.0):
        return numerator * scale / denominator if denominator else 0.0

    def mean_us(*spans):
        return ratio(total_s(*spans), calls(*spans), 1e6)

    facts = traced.facts
    report = facts.get("report", {})
    pool = report.get("pool", {})
    frontend = facts.get("frontend", {})
    phases = facts.get("phases", {})
    turns = facts.get("turns", {})
    counters = tracer.counters
    steps = calls("serve.engine.step")
    forwarded = report.get("prefill_forwarded_tokens", 0)
    reused = report.get("prefix_tokens_reused", 0)
    lookups = (
        pool.get("prefix_full_hits", 0)
        + pool.get("prefix_partial_hits", 0)
        + pool.get("prefix_misses", 0)
    )

    out = {
        "core.patterns.calibrate_s": facts.get("calibrate_s", 0.0),
        "core.patterns.select_minmax_us_per_group": ratio(
            self_s("core.patterns.select_patterns_minmax"),
            units("core.patterns.select_patterns_minmax"), 1e6),
        "core.codec.plan_encoding_us_per_group": ratio(
            self_s("core.codec.plan_encoding"),
            units("core.codec.plan_encoding"), 1e6),
        "core.codec.reconstruct_us_per_group": ratio(
            self_s("core.codec.reconstruct"),
            units("core.codec.reconstruct"), 1e6),
        "core.codec.groups_encoded": units("core.codec.plan_encoding"),
        "core.codec.groups_decoded": units("core.codec.reconstruct"),
        "core.codec.clipped_symbols": counters["clipped_symbols"],
        "core.codec.padded_outliers": counters["padded_outliers"],
        "core.codec.bits_per_value": ratio(
            counters["compressed_nbytes"] * 8, counters["compressed_values"]),
        "core.blocks.pack_us_per_block": ratio(
            self_s("core.blocks.pack_blocks"),
            units("core.blocks.pack_blocks"), 1e6),
        "core.blocks.unpack_us_per_block": ratio(
            self_s("core.blocks.unpack_blocks"),
            units("core.blocks.unpack_blocks"), 1e6),
        "core.blocks.blocks_packed": units("core.blocks.pack_blocks"),
        "core.blocks.blocks_unpacked": units("core.blocks.unpack_blocks"),
        "core.kv.append_us_per_token": mean_us("core.kv.append"),
        "core.kv.read_us_per_token_ctx256": facts.get("read_s_ctx256", 0.0)
        * 1e6,
        "core.kv.read_us_per_token_ctx2048": facts.get("read_s_ctx2048", 0.0)
        * 1e6,
        "core.kv.encode_calls": calls("core.kv.encode_tokens"),
        "core.kv.decode_calls": calls(
            "core.kv.decode_all", "core.kv.decode_tokens"),
        "core.kv.groups_per_encode_call": ratio(
            units("core.kv.encode_tokens"), calls("core.kv.encode_tokens")),
        "core.kv.decoded_per_appended": ratio(
            facts.get("decoded_tokens", 0), facts.get("appended_tokens", 0)),
        "core.kv.split_us": mean_us("core.kv.split_token_segment"),
        "core.kv.merge_us": mean_us("core.kv.merge_token_segments"),
        "hardware.functional.decode_us_per_block": ratio(
            facts.get("hw_decode_s", 0.0), facts.get("hw_blocks", 0), 1e6),
        "hardware.pipelines.decomp_latency_cycles": facts["decomp_cycles"],
        "hardware.pipelines.comp_latency_cycles": facts["comp_cycles"],
        "llm.decode.decode_step_self_ms": ratio(
            self_s("llm.decode.decode_step"),
            calls("llm.decode.decode_step"), 1e3),
        "llm.decode.prefill_self_us_per_token": ratio(
            self_s("llm.decode.prefill_chunk", "llm.model.forward"),
            forwarded, 1e6),
        "llm.decode.calls": calls("llm.decode.decode_step"),
        "serve.storage.ingest_self_us_per_token": ratio(
            self_s("serve.storage.encode_prompt_side",
                   "serve.storage.ingest_chunk"), forwarded, 1e6),
        "serve.storage.append_self_us_per_token": ratio(
            self_s("serve.storage.append_token_layer"),
            report.get("decode_tokens", 0), 1e6),
        "serve.storage.read_self_us_per_call": ratio(
            self_s("serve.storage.read"), calls("serve.storage.read"), 1e6),
        "serve.storage.commit_self_us_per_page": ratio(
            self_s("serve.storage.commit_prompt", "serve.storage.commit_chunk",
                   "serve.storage.commit_token", "serve.storage.release"),
            pool.get("pages_allocated", 0) + pool.get("pages_shared", 0), 1e6),
        "serve.storage.attach_us_per_call": mean_us(
            "serve.storage.attach_cached_prefix"),
        "serve.storage.swap_us_per_page": ratio(
            total_s("serve.storage.swap_out", "serve.storage.swap_in"),
            calls("serve.pool.swap_out"), 1e6),
        "serve.storage.reencoded_share": ratio(forwarded, forwarded + reused),
        "serve.pool.acquire_us": mean_us("serve.pool.acquire"),
        "serve.pool.release_us": mean_us("serve.pool.release"),
        "serve.pool.lookup_us": mean_us("serve.pool.lookup_prefix"),
        "serve.pool.evict_us_per_page": ratio(
            total_s("serve.pool.evict_page"),
            pool.get("pages_evicted", 0), 1e6),
        "serve.pool.split_us": mean_us("serve.pool.split_page"),
        "serve.pool.swap_us": mean_us(
            "serve.pool.swap_out", "serve.pool.swap_in",
            "serve.pool.swap_private_out", "serve.pool.swap_private_in"),
        "serve.pool.check_budget_us": mean_us("serve.pool.check_budget"),
        "serve.pool.pages_allocated": pool.get("pages_allocated", 0),
        "serve.pool.pages_evicted": pool.get("pages_evicted", 0),
        "serve.pool.pages_split": pool.get("pages_split", 0),
        "serve.pool.prefix_hit_share": ratio(
            lookups - pool.get("prefix_misses", 0), lookups),
        "serve.pool.swap_bytes": pool.get("swap_out_bytes", 0)
        + pool.get("swap_in_bytes", 0),
        "serve.pool.budget_overruns": pool.get("budget_overruns", 0),
        "serve.trie.match_us_1k": facts.get("match_s", {}).get("1k", 0.0) * 1e6,
        "serve.trie.match_us_10k": facts.get("match_s", {}).get("10k", 0.0)
        * 1e6,
        "serve.trie.insert_us": mean_us("serve.trie.insert"),
        "serve.trie.remove_us": mean_us("serve.trie.remove"),
        "serve.trie.nodes": facts.get("trie_nodes", 0),
        "serve.scheduler.select_us": mean_us("serve.scheduler.peek_waiting"),
        "serve.scheduler.pick_victim_us": mean_us(
            "serve.scheduler.pick_victim"),
        "serve.scheduler.preemptions": report.get("preemptions", 0),
        "serve.scheduler.shed": report.get("shed_requests", 0),
        "serve.scheduler.mean_batch": report.get("mean_batch_occupancy", 0.0),
        "serve.scheduler.sim_queue_wait_p95_s": _percentile(
            tracer.queue_waits, 95),
        "serve.engine.step_self_ms": ratio(
            self_s("serve.engine.step"), steps, 1e3),
        "serve.engine.step_us_per_active_request": ratio(
            total_s("serve.engine.step"), report.get("decode_tokens", 0), 1e6),
        "serve.engine.steps": steps,
        "serve.engine.report_ms": total_s("serve.engine.report") * 1e3,
        "serve.frontend.submit_us": mean_us("serve.frontend.submit"),
        "serve.frontend.sim_submit_lag_p95_s": _percentile(
            tracer.submit_lags, 95),
        "serve.frontend.shed": frontend.get("shed_queue_full", 0)
        + frontend.get("shed_slo", 0),
        "serve.session.submit_turn_us": mean_us("serve.session.submit_turn"),
        "serve.session.warm_turn_share": ratio(
            turns.get("warm_turns", 0), turns.get("turns", 0)),
        "obs.trace_overhead_share": overhead,
        "obs.spans_recorded": len(tracer.rows),
    }
    for phase in ("evict", "admit", "prefill", "preempt", "decode"):
        out[f"serve.engine.{phase}_ms_per_step"] = ratio(
            phases.get(phase, 0.0), steps, 1e3)
    for label, prefixes in (
        ("core", ("core.",)),
        ("llm", ("llm.",)),
        ("serve", ("serve.",)),
        ("pool_trie", ("serve.pool.", "serve.trie.")),
    ):
        layer_s = sum(
            e["self_s"] for span, e in summary.items()
            if span.startswith(prefixes)
        )
        out[f"obs.self_share.{label}"] = ratio(layer_s, traced.wall_s)
    return out


def _check_exact(label, reference: dict, other: dict, problems: list) -> None:
    for key, value in reference.items():
        if other.get(key) != value:
            problems.append(
                f"{key} differs {label}: {value!r} vs {other.get(key)!r}"
            )


def child_main(args) -> int:
    sys.path.insert(0, str(SRC_DIR))
    from repro.obs.timing import wall_clock

    process_start = wall_clock()
    import workloads  # noqa: F401  (numpy + repro.serve: the import cost)

    import_s = wall_clock() - process_start
    print(json.dumps(run_workload(
        args.workload, args.seed, args.seconds, args.mode, args.smoke,
        args.spans_dir, import_s,
    )))
    return 0


def run_workload(
    name, seed, seconds, mode, smoke=False, spans_dir=None, import_s=0.0
) -> dict:
    """Measure one workload in this process; ``mode`` is ``e2e``
    (untraced timed passes), ``layers`` (one untraced round, the rate
    ladder, one traced pass) or ``full`` (both)."""
    from repro.obs.timing import wall_clock

    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    problems: list = []
    out = {
        "workload": name,
        "seed": seed,
        "mode": mode,
        "end_to_end": {},
        "per_layer": {},
    }
    if mode in ("e2e", "full"):
        setups, results = measure(workload, seed, seconds, smoke, wall_clock)
        out["end_to_end"] = end_to_end(workload, import_s, setups, results)
        out["passes"] = len(results)
        out["step_samples"] = sum(len(r.steps) for r in results)
        if not workload.varies_by_round:
            for result in results[1:]:
                _check_exact(
                    "across passes", results[0].exact, result.exact, problems
                )
    else:
        state = workload.setup(seed, 0, smoke)
        results = [
            workload.run_pass(state) for _ in range(workload.passes_per_round)
        ]
    if mode in ("layers", "full"):
        results.append(
            traced_pass(workload, seed, smoke, results, spans_dir, out, problems)
        )
        out["per_layer"]["harness.import_s"] = import_s
    for result in results:
        problems.extend(result.problems)
    out["attempted"] = sum(r.attempted for r in results)
    out["failed"] = sum(r.failed for r in results)
    out["problems"] = problems
    if out["per_layer"]:
        out["per_layer"]["failed_share"] = (
            out["failed"] + len(problems)
        ) / out["attempted"]
    return out


def traced_pass(workload, seed, smoke, untraced, spans_dir, out, problems):
    """The rate ladder and one traced pass over the reference inputs;
    fills ``out["per_layer"]`` and returns the traced pass's result."""
    from repro.hardware import compressor_4x_pipeline, decompressor_4x_pipeline
    from repro.obs.timing import wall_clock

    from spans import Tracer
    from workloads import serve_ladder

    base = untraced[0]
    ladder = {"sim_max_rate_rps": 0.0, "sim_ladder_brackets": 0.0}
    if "rung" in base.facts:
        ladder = serve_ladder(workload.name, seed, smoke, base.facts["rung"])
        out["rungs"] = ladder.pop("rungs")
    state = workload.setup(seed, 0, smoke, traced=True)
    tracer = Tracer(wall_clock, sim_clock=state.get("clock"))
    traced = workload.run_pass(state, tracer)
    _check_exact("traced vs untraced", base.exact, traced.exact, problems)
    traced.facts["decomp_cycles"] = decompressor_4x_pipeline().latency_cycles
    traced.facts["comp_cycles"] = compressor_4x_pipeline().latency_cycles
    untraced_per_unit = statistics.median(r.wall_s / r.units for r in untraced)
    layers = derive_layers(
        traced, tracer, traced.wall_s / traced.units / untraced_per_unit - 1.0
    )
    layers.update(host_extras(untraced))
    layers.update(ladder)
    for key in EXACT_METRICS:
        layers[key] = base.exact.get(key, 0.0)
    out["per_layer"] = layers
    if spans_dir:
        recorder = state.get("recorder")
        phases = [] if recorder is None else [
            {"name": f"serve.engine.phase.{e.name}", "start": e.ts,
             "end": e.ts + e.dur, "parent": None, "request": None, "units": 0}
            for e in recorder.events
            if e.kind == "span" and e.cat == "phase"
        ]
        tracer.write_jsonl(
            Path(spans_dir) / f"{workload.name}.spans.jsonl", phases
        )
    return traced


# ----------------------------------------------------------------------
# The parent: spawn children, print, write.
# ----------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        f"{SRC_DIR}{os.pathsep}{inherited}" if inherited else str(SRC_DIR)
    )
    return env


def run_child(name: str, args, mode: str, env: dict) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
        "--spans-dir", args.spans_dir,
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, text=True,
        timeout=WORKLOAD_TIMEOUT_S, check=False,
    )
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(
            f"workload {name} exited with code {done.returncode} and no result"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def print_table(result: dict, spec: dict) -> None:
    arrows = {"lower": "lower is better", "higher": "higher is better"}
    print(f"== {result['workload']} (seed {result['seed']}) ==")
    for section in ("end_to_end", "per_layer"):
        values = result[section]
        for metric in spec[section]:
            if metric["name"] in values:
                print(
                    f"  {metric['name']:<44} {values[metric['name']]:>14.6g} "
                    f"{metric['unit']:<8} {arrows[metric['better']]}"
                )
    for problem in result["problems"]:
        print(f"  FAILED CHECK: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", default=None)
    parser.add_argument("--spans-dir", default=str(
        REPO_ROOT / "results" / "harness"))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--mode", default="e2e", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC_DIR / "repro").is_dir() or not (
        REPO_ROOT / "BENCHMARK.json"
    ).is_file():
        print(
            f"error: {REPO_ROOT} is not a checkout of the repo (no src/repro "
            f"or BENCHMARK.json); nothing to measure",
            file=sys.stderr,
        )
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.child:
        return child_main(args)

    known = [w["name"] for w in spec["workloads"]]
    names = known if args.workload == "all" else [args.workload]
    for name in names:
        if name not in known:
            parser.error(f"unknown workload {name!r}; known: {known}")
    mode = "full" if args.traced else ("layers" if args.trace == 1 else "e2e")

    env = _child_env()
    subprocess.run(
        [sys.executable, "-c", "import repro.serve"],
        env=env, check=True, timeout=WORKLOAD_TIMEOUT_S,
    )
    runs = []
    for _ in range(args.repeat):
        run = {}
        for name in names:
            run[name] = run_child(name, args, mode, env)
            print_table(run[name], spec)
        runs.append(run)

    results = [r for run in runs for r in run.values()]
    correct = not any(r["problems"] for r in results)
    if args.out:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(
                {"seed": args.seed, "seconds": args.seconds,
                 "smoke": args.smoke, "machine": _machine(), "runs": runs},
                handle, indent=1, sort_keys=True,
            )
            handle.write("\n")

    # The contract's result line: the metrics of the one section asked
    # for, of the last workload run.
    last = results[-1]
    section = "per_layer" if mode == "layers" else "end_to_end"
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            m["name"]: {"value": last[section][m["name"]], "unit": m["unit"]}
            for m in spec[section]
        },
    }))
    return 0 if correct else 1


def _machine() -> dict:
    import platform

    return {
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


if __name__ == "__main__":
    sys.exit(main())
