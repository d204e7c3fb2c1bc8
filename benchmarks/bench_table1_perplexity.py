"""Table 1: perplexity of quantized proxy models (the WikiText-2 stand-in).

Paper shape (per model): under W4A16, Ecco is at or below AWQ and clearly
below Olive; under W4A8KV4, Ecco beats RTN, AWQ and QoQ, with QuaRot the
closest competitor.  Absolute perplexities differ (trained numpy proxies on a
synthetic corpus); the deltas over FP16 and the method ordering are the
reproduced quantities.
"""

import pytest

from _report import load_cached, store_cached, write_report
from repro.llm import apply_named_scheme, calibrate, get_trained_model, perplexity

MODELS = ["proxy-small", "proxy-medium", "proxy-large"]
W4A16 = ["gptq-r-w4", "olive-w4", "awq-w4", "ecco-w4"]
W4A8KV4 = ["rtn-w4a8kv4", "awq-w4a8kv4", "quarot-w4a8kv4", "qoq-w4a8kv4", "ecco-w4a8kv4"]


def _evaluate_model(name: str) -> dict[str, float]:
    trained = get_trained_model(name)
    held = trained.generator.token_stream(6144, seed=31337)
    tokens = trained.generator.batches(16 * 65 + 65, 16, 64, seed=777)[0]
    calib = calibrate(trained.model, tokens)

    results = {"fp16": perplexity(trained.model, held, seq_len=64, batch=16)}
    for scheme in W4A16 + W4A8KV4:
        qm = apply_named_scheme(trained.model, scheme, calib)
        results[scheme] = perplexity(
            trained.model, held, seq_len=64, batch=16, **qm.hooks()
        )
    return results


@pytest.fixture(scope="module")
def table1():
    cached = load_cached("table1_perplexity_v7")
    if cached is not None:
        return cached
    data = {name: _evaluate_model(name) for name in MODELS}
    store_cached("table1_perplexity_v7", data)
    return data


def test_table1_perplexity(benchmark, table1):
    """Regenerate Table 1 and verify the method ordering per configuration."""
    data = benchmark.pedantic(lambda: table1, rounds=1, iterations=1)

    schemes = ["fp16"] + W4A16 + W4A8KV4
    lines = [f"{'scheme':<16}" + "".join(f"{m.split('-')[1]:>12}" for m in MODELS)]
    for scheme in schemes:
        row = f"{scheme:<16}" + "".join(f"{data[m][scheme]:>12.4f}" for m in MODELS)
        lines.append(row)
    lines.append("")
    lines.append("deltas over fp16:")
    for scheme in schemes[1:]:
        row = f"{scheme:<16}" + "".join(
            f"{data[m][scheme] - data[m]['fp16']:>+12.4f}" for m in MODELS
        )
        lines.append(row)
    lines.append("paper shape: W4A16 ecco <= awq < olive; W4A8KV4 ecco < rtn/awq/qoq")
    write_report("table1_perplexity", lines, data)

    for model in MODELS:
        row = data[model]
        fp16 = row["fp16"]
        # All quantized configurations degrade (or match) FP16.
        for scheme in W4A16 + W4A8KV4:
            assert row[scheme] >= fp16 - 0.02, (model, scheme)
        # W4A16: Ecco at or below AWQ, and below Olive.
        assert row["ecco-w4"] <= row["awq-w4"] + 0.003, model
        assert row["ecco-w4"] < row["olive-w4"], model
        # W4A8KV4: Ecco beats RTN, AWQ and QoQ.
        assert row["ecco-w4a8kv4"] < row["rtn-w4a8kv4"], model
        assert row["ecco-w4a8kv4"] < row["awq-w4a8kv4"], model
        assert row["ecco-w4a8kv4"] < row["qoq-w4a8kv4"], model


def test_table1_w4a8kv4_harder_than_w4a16(benchmark, table1):
    """The aggressive configuration costs more perplexity, as in the paper."""
    data = benchmark.pedantic(lambda: table1, rounds=1, iterations=1)
    for model in MODELS:
        row = data[model]
        assert row["ecco-w4a8kv4"] >= row["ecco-w4"] - 1e-6
