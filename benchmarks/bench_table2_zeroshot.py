"""Table 2: zero-shot accuracy on five synthetic commonsense-task stand-ins.

Paper shape (LLaMA2-13B): Ecco W4A8KV4 stays within ~0.3 points of FP16 on
average and above QuaRot(W4A4) and QoQ(W4A8KV4); it wins on most tasks.
Our tasks are agreement / selection / counting / copy / sorting items scored
by length-normalized continuation likelihood (the lm-eval-harness protocol).
"""

import numpy as np
import pytest

from _report import load_cached, store_cached, write_report
from repro.llm import (
    TASK_NAMES,
    apply_named_scheme,
    calibrate,
    multiple_choice_accuracy,
)

SCHEMES = ["fp16", "quarot-w4a8kv4", "atom-w4a4", "qoq-w4a8kv4", "ecco-w4a8kv4"]
ITEMS_PER_TASK = 60


@pytest.fixture(scope="module")
def table2(proxy_medium, calib_medium):
    cached = load_cached("table2_zeroshot_v7")
    if cached is not None and all(scheme in cached for scheme in SCHEMES):
        return cached

    model = proxy_medium.model
    items = {
        task: proxy_medium.generator.task_items(task, ITEMS_PER_TASK, seed=4242)
        for task in TASK_NAMES
    }
    data = {}
    for scheme in SCHEMES:
        qm = apply_named_scheme(model, scheme, calib_medium)
        data[scheme] = {
            task: multiple_choice_accuracy(model, items[task], **qm.hooks())
            for task in TASK_NAMES
        }
    store_cached("table2_zeroshot_v7", data)
    return data


def test_table2_zeroshot(benchmark, table2):
    """Regenerate Table 2 and verify Ecco's accuracy retention."""
    data = benchmark.pedantic(lambda: table2, rounds=1, iterations=1)

    lines = [f"{'scheme':<16}" + "".join(f"{t:>11}" for t in TASK_NAMES) + f"{'avg':>9}"]
    averages = {}
    for scheme in SCHEMES:
        row = data[scheme]
        avg = float(np.mean([row[t] for t in TASK_NAMES]))
        averages[scheme] = avg
        lines.append(
            f"{scheme:<16}"
            + "".join(f"{row[t] * 100:>10.1f}%" for t in TASK_NAMES)
            + f"{avg * 100:>8.1f}%"
        )
    lines.append("paper shape: ecco within ~0.5pt of fp16 average, above qoq/quarot")
    write_report("table2_zeroshot", lines, data)

    # The FP16 model actually learned the tasks (far above the 50% floor).
    assert averages["fp16"] > 0.7
    # Ecco stays close to FP16 on average (paper: within ~0.3 points).
    assert averages["ecco-w4a8kv4"] >= averages["fp16"] - 0.05
    # Ecco at or above QoQ (paper: 71.49 vs 70.83 average).
    assert averages["ecco-w4a8kv4"] >= averages["qoq-w4a8kv4"] - 0.01
    # Atom's aggressive W4A4 is the weakest row (paper: 63.51 average).
    assert averages["atom-w4a4"] <= averages["ecco-w4a8kv4"] + 0.01


def test_table2_tasks_learnable(benchmark, table2):
    """Every individual task is above chance for the FP16 model."""
    data = benchmark.pedantic(lambda: table2, rounds=1, iterations=1)
    for task in TASK_NAMES:
        assert data["fp16"][task] > 0.5, task
