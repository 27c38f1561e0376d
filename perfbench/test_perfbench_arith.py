"""Unit tests for the benchmark's own arithmetic and its metric table.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from benchstats import (
    covered_length,
    due_latencies,
    knee_rate,
    percentile,
    samples_beyond,
    self_time,
    tail_percentile,
    timing_summary,
    trial_tail,
)
from common import END_TO_END, oracle_topk
from layers import PER_LAYER, frontend_overhead, per_layer_metrics
from tracing import Tracer, layer_table

HERE = Path(__file__).resolve().parent


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    assert percentile([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        percentile([], 50)


def test_tail_percentile_needs_ten_samples_beyond():
    assert samples_beyond(1000, 99.0) == 10
    assert samples_beyond(999, 99.0) == 9
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(999) == 95.0
    assert tail_percentile(10_000) == 99.9
    assert tail_percentile(9_999) == 99.0
    assert tail_percentile(200) == 95.0
    assert tail_percentile(20) == 50.0
    assert tail_percentile(19) is None
    summary = timing_summary(list(range(1000)))
    assert summary == {"n": 1000, "p50": 499.5, "tail_p": 99.0, "tail": 989}


def test_self_time_subtracts_the_union_of_children():
    # children overlap each other and one sticks out past the parent
    children = [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]
    assert covered_length(children, 0.0, 10.0) == 6.0
    assert self_time(0.0, 10.0, children) == 4.0
    assert self_time(0.0, 10.0, []) == 10.0
    assert self_time(0.0, 1.0, [(0.0, 1.0), (0.25, 0.5)]) == 0.0


def test_layer_table_reports_busy_and_self_time():
    clock = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0]).__next__
    tracer = Tracer(clock=clock)

    def inner():
        return None

    def outer():
        tracer.call("inner", inner, (), {})
        tracer.call("inner", inner, (), {})

    tracer.call("outer", outer, (), {}, request_id="r1")
    table = layer_table(tracer.spans)
    assert table["outer"]["busy_s"] == 10.0
    assert table["outer"]["self_s"] == 10.0 - 2.0 - 2.0
    assert table["inner"]["count"] == 2 and table["inner"]["self_s"] == 4.0
    # children inherit the request id of the span that caused them
    assert {span[5] for span in tracer.spans} == {"r1"}


def test_open_loop_latency_is_timed_from_due():
    # request 1 was written 30 ms late (generator stall) and answered 10 ms
    # after writing: its latency is 40 ms, not 10 ms
    due = [0.000, 0.010, 0.020]
    done = [0.005, 0.050, None]
    latencies = due_latencies(due, done)
    assert latencies[0] == pytest.approx(0.005)
    assert latencies[1] == pytest.approx(0.040)
    assert latencies[2] == math.inf
    with pytest.raises(ValueError):
        due_latencies([0.0], [])


def test_trial_tail_flags_errors_and_backlog():
    ok = [0.001] * 990 + [0.020] * 10
    assert trial_tail(ok, failed=0, backlog=0, max_backlog=10) == (0.001, True)
    assert trial_tail(ok, failed=1, backlog=0, max_backlog=10) == (0.001, True)  # 0.1% allowed
    assert trial_tail(ok, failed=2, backlog=0, max_backlog=10) == (0.001, False)
    assert trial_tail(ok, failed=0, backlog=11, max_backlog=10) == (0.001, False)
    # a failed request counts as missing the limit
    shed = [0.001] * 980 + [math.inf] * 20
    assert trial_tail(shed, failed=0, backlog=0, max_backlog=10)[0] == math.inf


def _rounds(*tails, ok=True):
    return [(tail, ok) for tail in tails]


def test_knee_rate_interpolates_between_rungs():
    rungs = [(1000.0, _rounds(0.010)), (2000.0, _rounds(0.020)), (4000.0, _rounds(0.080))]
    share = math.log(0.05 / 0.02) / math.log(0.08 / 0.02)
    assert knee_rate(rungs, 0.05) == pytest.approx(2000.0 * 2.0 ** share)
    # the median over rounds decides; a round that failed its criteria misses
    rungs = [(1000.0, [(0.010, True), (0.010, False), (0.010, True)]),
             (2000.0, [(0.020, True), (0.090, True), (0.095, True)])]
    assert 1000.0 < knee_rate(rungs, 0.05) < 2000.0
    rungs = [(1000.0, _rounds(0.010)), (2000.0, [(0.020, False), (0.020, False), (0.02, True)])]
    assert knee_rate(rungs, 0.05) == 1000.0
    # every rung passes: the top rung; none passes: zero
    assert knee_rate([(1000.0, _rounds(0.01)), (2000.0, _rounds(0.02))], 0.05) == 2000.0
    assert knee_rate([(1000.0, _rounds(0.06)), (2000.0, _rounds(0.07))], 0.05) == 0.0
    # the highest passing rung is the base, even above a noisy miss
    rungs = [(1000.0, _rounds(0.01)), (2000.0, _rounds(0.06)), (4000.0, _rounds(0.02)),
             (8000.0, _rounds(0.2))]
    assert 4000.0 < knee_rate(rungs, 0.05) < 8000.0
    # next rung never answered, or not run at all: no interpolation toward it
    assert knee_rate([(1000.0, _rounds(0.01)), (2000.0, _rounds(math.inf))], 0.05) == 1000.0
    assert knee_rate([(1000.0, _rounds(0.01)), (2000.0, [])], 0.05) == 1000.0


def test_oracle_topk_matches_a_full_stable_argsort():
    rng = np.random.default_rng(0)
    scores = rng.integers(0, 5, size=(20, 300)).astype(np.float64)  # many ties
    for k in (1, 10, 300, 500):
        full = np.argsort(-scores, axis=1, kind="stable")[:, :k]
        assert np.array_equal(oracle_topk(scores, k), full)


def test_frontend_overhead_matches_identical_lines_fifo():
    client = [("a", 0.0, 0.010), ("b", 0.001, 0.012), ("a", 0.002, 0.030)]
    server = [
        (0, "batcher.submit_to_resolve", 1.000, 1.006, None, "r0", {"line": "a"}),
        (1, "batcher.submit_to_resolve", 1.001, 1.008, None, "r1", {"line": "b"}),
        (2, "batcher.submit_to_resolve", 1.002, 1.022, None, "r2", {"line": "a"}),
    ]
    overhead = frontend_overhead(client, server)
    assert overhead == pytest.approx([0.004, 0.004, 0.008])


def test_per_layer_metrics_reports_every_metric():
    spans = [
        (0, "handler.call", 0.0, 0.004, None, "b0", {"rows": 2}),
        (1, "models.encode_syndrome", 0.001, 0.002, 0, "b0", {"rows": 2, "padded": 64}),
        (2, "batcher.queue_wait", -0.005, 0.0, None, "r0", None),
        (3, "batcher.queue_wait", -0.003, 0.0, None, "r1", None),
    ]
    metrics = per_layer_metrics(spans, overhead_pct=1.5)
    assert set(metrics) == {name for name, _, _ in PER_LAYER}
    assert metrics["models.pad_ratio"] == 2 / 64
    assert metrics["batcher.batch_size"] == 2
    assert metrics["handler.self_ms"] == pytest.approx(3.0)
    assert metrics["batcher.queue_wait_ms_p99"] == pytest.approx(5.0)
    assert metrics["trace.overhead_pct"] == 1.5
    assert metrics["batch.decode_us"] == 0.0  # not on this path


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    from run import WORKLOADS

    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOADS
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch-h20k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
