"""The benchmark result cache must reject stale-schema entries.

A cache entry written before a codec change would silently serve numbers
the current code cannot reproduce; the schema stamp turns that into a
recompute.  (``_report`` resolves through the ``benchmarks`` pythonpath
entry, same as the bench suite.)

Also the baseline gate the smoke benches run on their own reports
(``check_baseline``), against a ``tmp_path`` results directory.
"""

import json

import pytest

import _report
from _report import (
    CACHE_SCHEMA_VERSION,
    check_baseline,
    load_cached,
    results_dir,
    store_cached,
)


@pytest.fixture
def cache_tag(tmp_path_factory):
    tag = "test_report_cache_entry"
    yield tag
    path = results_dir() / "cache" / f"{tag}.json"
    if path.exists():
        path.unlink()


def test_store_load_roundtrip(cache_tag):
    store_cached(cache_tag, {"value": 41})
    assert load_cached(cache_tag) == {"value": 41}
    blob = json.loads((results_dir() / "cache" / f"{cache_tag}.json").read_text())
    assert blob["schema"] == CACHE_SCHEMA_VERSION


def test_missing_entry_is_none(cache_tag):
    assert load_cached(cache_tag) is None


def test_legacy_unstamped_entry_is_stale(cache_tag):
    path = results_dir() / "cache" / f"{cache_tag}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"value": 41}))  # pre-schema format
    assert load_cached(cache_tag) is None


def test_wrong_schema_version_is_stale(cache_tag):
    path = results_dir() / "cache" / f"{cache_tag}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"schema": CACHE_SCHEMA_VERSION + 1, "data": {"value": 41}})
    )
    assert load_cached(cache_tag) is None


def test_corrupt_entry_is_stale(cache_tag):
    path = results_dir() / "cache" / f"{cache_tag}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("{not json")
    assert load_cached(cache_tag) is None


GATES = [
    ("run.ttft_s_p95", "lower"),
    ("run.finished", "higher"),
    ("run.pool.budget_overruns", "lower"),
    ("tokens_per_s", "higher", 0.90),
]


def _numbers(ttft=0.2, finished=40, overruns=0, tokens_per_s=1000.0):
    return {
        "run": {
            "ttft_s_p95": ttft,
            "finished": finished,
            "pool": {"budget_overruns": overruns},
        },
        "tokens_per_s": tokens_per_s,
    }


@pytest.fixture
def snapshot(tmp_path, monkeypatch):
    """A results dir holding ``baseline/bench.json`` = ``_numbers()``."""
    monkeypatch.setattr(_report, "results_dir", lambda: tmp_path)
    path = tmp_path / "baseline" / "bench.json"
    path.parent.mkdir()
    path.write_text(json.dumps(_numbers()))
    return path


def test_gate_passes_inside_the_threshold_and_on_improvements(snapshot):
    check_baseline("bench", _numbers(), GATES)
    # 20 % worse on both directed rows: inside the 25 % default.
    check_baseline("bench", _numbers(ttft=0.24, finished=32), GATES)
    # Improvements never fail, however large.
    check_baseline(
        "bench", _numbers(ttft=0.01, finished=400, tokens_per_s=1e6), GATES
    )
    # The wall-clock row's own 0.90 limit: a 5x slowdown is not a collapse.
    check_baseline("bench", _numbers(tokens_per_s=200.0), GATES)


def test_gate_names_every_regressed_row(snapshot):
    with pytest.raises(AssertionError) as excinfo:
        check_baseline(
            "bench", _numbers(ttft=0.3, finished=20, tokens_per_s=50.0), GATES
        )
    message = str(excinfo.value)
    assert "run.ttft_s_p95: 0.2 -> 0.3 (+50.0% regression" in message
    assert "run.finished: 40 -> 20" in message
    assert "tokens_per_s: 1000 -> 50" in message
    assert "budget_overruns" not in message
    assert str(snapshot) in message


def test_zero_baseline_regresses_only_by_leaving_zero(snapshot):
    check_baseline("bench", _numbers(overruns=0), GATES)
    with pytest.raises(AssertionError, match="budget_overruns: 0 -> 2"):
        check_baseline("bench", _numbers(overruns=2), GATES)


def test_a_gated_key_missing_on_either_side_fails(snapshot):
    current = _numbers()
    del current["run"]["ttft_s_p95"]
    with pytest.raises(AssertionError, match="run.ttft_s_p95: missing"):
        check_baseline("bench", current, GATES)
    stale = _numbers()
    del stale["run"]["pool"]
    snapshot.write_text(json.dumps(stale))
    with pytest.raises(AssertionError, match="budget_overruns: missing"):
        check_baseline("bench", _numbers(), GATES)


def test_a_non_numeric_gated_value_fails(snapshot):
    with pytest.raises(AssertionError, match="run.finished: missing or not"):
        check_baseline("bench", _numbers(finished="40"), GATES)
    with pytest.raises(AssertionError, match="run.ttft_s_p95: 0.2 -> nan"):
        check_baseline("bench", _numbers(ttft=float("nan")), GATES)


def test_a_missing_or_unreadable_snapshot_fails(snapshot):
    with pytest.raises(AssertionError, match="no readable baseline"):
        check_baseline("other_bench", _numbers(), GATES)
    snapshot.write_text("{not json")
    with pytest.raises(AssertionError, match="no readable baseline"):
        check_baseline("bench", _numbers(), GATES)
