"""Smoke tests of the benchmark harness (``--smoke`` sizes, in-process).

Collected by tier-1.  They hold the benchmark to its declaration:
every workload and metric ``BENCHMARK.json`` names is emitted once,
finite, under a well-formed name; the seed really reaches the input
generators; the tracer's self-time arithmetic and patch/unpatch are
sound; ``compare.py`` calls a noisy row ``unresolved``.
"""

import json
import math
import re

import pytest

# pytest puts this directory on sys.path (rootdir import mode), the same
# way running ``run.py`` as a script does.
import compare
import run
import spans
from workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


def test_benchmark_json_meets_the_contract(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert spec["paths"] == ["benchmarks/harness"]
    assert spec["command"][-1].startswith(spec["paths"][0])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [w["name"] for w in spec["workloads"]]
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    metrics = spec["end_to_end"] + spec["per_layer"]
    for metric in metrics:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_declared_workloads_are_the_implemented_ones(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_declared_metric_is_emitted_once_and_finite(spec, name, tmp_path):
    result = run.run_workload(
        name, seed=0, seconds=1.0, mode="full", smoke=True,
        spans_dir=str(tmp_path),
    )
    assert result["problems"] == []
    assert result["attempted"] >= 1 and result["failed"] == 0
    for section in ("end_to_end", "per_layer"):
        declared = [m["name"] for m in spec[section]]
        assert sorted(result[section]) == sorted(declared)
        for metric in declared:
            value = result[section][metric]
            assert isinstance(value, (int, float)) and math.isfinite(value)
    assert all(value > 0 for value in result["end_to_end"].values())
    rows = [
        json.loads(line)
        for line in (tmp_path / f"{name}.spans.jsonl").read_text().splitlines()
    ]
    assert len(rows) >= result["per_layer"]["obs.spans_recorded"] > 0
    assert {"name", "start", "end", "parent", "request"} <= set(rows[0])


def test_seed_reaches_the_generators_and_replays_exactly():
    def simulated(seed):
        layers = run.run_workload(
            "serve_fp16", seed=seed, seconds=1.0, mode="layers", smoke=True
        )["per_layer"]
        return {k: v for k, v in layers.items() if k.startswith("sim_")}

    first = simulated(3)
    assert first == simulated(3)
    assert first != simulated(4)


def test_tracer_self_time_and_restore():
    import repro.core.codec as codec_module
    import repro.core.kv as kv_module

    original = codec_module.plan_encoding
    ticks = iter(range(100))
    tracer = spans.Tracer(lambda: float(next(ticks)))
    outer = tracer._wrap("layer.outer", lambda: inner(), None)
    inner = tracer._wrap("layer.inner", lambda: None, None)
    outer()
    summary = tracer.summary()
    # Clock reads: outer start 0, inner 1..2, outer end 3.
    assert summary["layer.outer"]["total_s"] == 3.0
    assert summary["layer.outer"]["self_s"] == 2.0
    assert summary["layer.inner"]["self_s"] == 1.0
    assert tracer.rows[1][spans.PARENT] == 0

    with tracer:
        # The defining module and a module that imported the name.
        assert codec_module.plan_encoding is not original
        assert kv_module.plan_encoding is codec_module.plan_encoding
    assert codec_module.plan_encoding is original
    assert kv_module.plan_encoding is original


def test_compare_calls_noise_unresolved_not_unchanged():
    steady = [1.00, 1.01, 0.99]
    assert compare.verdict(steady, [1.02, 1.03, 1.01], "lower", 0.10)[1] == "unchanged"
    assert compare.verdict(steady, [1.30, 1.31, 1.29], "lower", 0.10)[1] == "regressed"
    assert compare.verdict(steady, [0.80, 0.81, 0.79], "lower", 0.10)[1] == "improved"
    assert compare.verdict(steady, [0.80, 1.00, 1.40], "lower", 0.10)[1] == "unresolved"
    assert compare.verdict(steady, [1.30, 1.31, 1.29], "higher", 0.10)[1] == "improved"
