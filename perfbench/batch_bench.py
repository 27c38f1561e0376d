"""``batch-h20k``: ``repro.batch.runner.run_batch_file`` against a 20,000-herb SMGCN.

The model is built on a synthetic 20,000-herb corpus, registered from here as
an extra ``repro.experiments.datasets.PROFILES`` entry, and saved as a
checkpoint with untrained weights (scoring cost does not depend on weight
values).  Each set-up loads that checkpoint and warms the engine.  The
measured run streams a seeded JSONL file to a real output file in windows of
64 records — full 64-row scoring chunks, so no padding — which fsyncs the
output and advances the checkpoint sidecar after every window.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path
from typing import List, Tuple

import numpy as np

from benchstats import median, percentile, tail_percentile
from common import SETUP_REPEATS, Context, Outcome, oracle_topk
from runmeta import peak_rss_mb

PROFILE = "h20k"
NUM_HERBS = 20_000
WINDOW = 64
K = 10
#: Records per ``--seconds``: a 2-core box scores 350-400 records/s, so the
#: batch takes a little under ``--seconds`` there.
RECORDS_PER_SECOND = 320


def _register_profile(seed: int) -> None:
    from repro.data.synthetic import SyntheticTCMConfig
    from repro.experiments import datasets

    base = datasets.get_profile("default")
    datasets.PROFILES[PROFILE] = dataclasses.replace(
        base,
        name=PROFILE,
        corpus_config=SyntheticTCMConfig(
            num_symptoms=360, num_herbs=NUM_HERBS, num_syndromes=200,
            num_prescriptions=3000, herbs_per_syndrome=100, seed=seed,
        ),
        split_seed=seed,
        embedding_dim=64,
        layer_dims=(128, 256),
        symptom_threshold=5,
        herb_threshold=40,
    )
    datasets.experiment_corpus.cache_clear()
    datasets.experiment_split.cache_clear()


def _prepare(ctx: Context, records: int) -> Tuple[Path, Path, List[tuple]]:
    """Checkpoint with untrained weights plus the seeded input file; returns the sets."""
    from repro.experiments.datasets import experiment_split
    from repro.experiments.runners import build_registered_model
    from repro.io.checkpoint import save_checkpoint

    _register_profile(ctx.seed)
    train, _ = experiment_split(PROFILE)
    model = build_registered_model("SMGCN", scale=PROFILE, seed=ctx.seed)
    checkpoint = ctx.workdir / "h20k.npz"
    save_checkpoint(model, checkpoint, train, name="SMGCN", scale=PROFILE)
    pool = train.symptom_sets()
    rng = np.random.default_rng(ctx.seed)
    picks = rng.integers(len(pool), size=records)
    sets = [tuple(pool[i]) for i in picks]
    vocab = train.symptom_vocab
    path = ctx.workdir / "input.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for index, ids in enumerate(sets):
            tokens = [vocab.token_of(s) for s in ids]
            handle.write(json.dumps({"id": index, "symptoms": tokens, "k": K}) + "\n")
    return checkpoint, path, sets


def _setup(checkpoint: Path):
    from repro.api import Pipeline
    from repro.io.catalog import ModelCatalog

    start = time.perf_counter()
    pipeline = Pipeline.load(checkpoint)
    pipeline.engine  # noqa: B018 — warm the propagation before the first window
    catalog = ModelCatalog.for_pipeline(pipeline)
    return time.perf_counter() - start, pipeline, catalog


def _score_file(catalog, source: Path, output: Path) -> Tuple[float, List[float], object]:
    """Run the batch; returns elapsed seconds, per-window seconds and the stats."""
    from repro.batch.runner import run_batch_file

    marks: List[float] = []
    start = time.perf_counter()
    stats = run_batch_file(catalog, source, output, window=WINDOW, default_k=K,
                           progress=lambda _stats: marks.append(time.perf_counter()))
    elapsed = time.perf_counter() - start
    windows = [b - a for a, b in zip([start] + marks[:-1], marks)]
    return elapsed, windows, stats


def _check(pipeline, sets: List[tuple], output: Path, outcome: Outcome) -> None:
    """Every output line against a stable argsort over ``model.score_sets``."""
    lines = output.read_text(encoding="utf-8").splitlines()
    if len(lines) != len(sets):
        outcome.correct = False
        outcome.errors.append(f"{len(lines)} output lines for {len(sets)} records")
        return
    vocab = pipeline.herb_vocab
    wrong = 0
    chunk = 512
    for start in range(0, len(sets), chunk):
        block = sets[start:start + chunk]
        scores = pipeline.model.score_sets(block)
        top = oracle_topk(scores, K)
        for row in range(len(block)):
            got = json.loads(lines[start + row])
            ids = [int(h) for h in top[row]]
            want = {"id": start + row, "model": "SMGCN", "herbs": [vocab.token_of(h) for h in ids],
                    "herb_ids": ids, "scores": [float(scores[row, h]) for h in ids]}
            if got != want:
                wrong += 1
                if wrong == 1:
                    outcome.errors.append(f"record {start + row}: got {got}, expected {want}")
    if wrong:
        outcome.correct = False
        outcome.errors.append(f"{wrong} of {len(sets)} records differ from the oracle")
    outcome.failed += wrong


def run(ctx: Context) -> Outcome:
    # the traced run scores the file twice (untraced, then traced): half as long
    share = 0.5 if ctx.trace else 1.0
    records = WINDOW * max(2, round(ctx.seconds * share * RECORDS_PER_SECOND / WINDOW))
    checkpoint, source, sets = _prepare(ctx, records)
    if ctx.trace:
        return _run_traced(ctx, checkpoint, source, sets)
    setups = []
    for _ in range(SETUP_REPEATS):
        seconds, pipeline, catalog = _setup(checkpoint)
        setups.append(seconds)
    output = ctx.workdir / "output.jsonl"
    elapsed, windows, stats = _score_file(catalog, source, output)
    rss = peak_rss_mb()
    outcome = Outcome(metrics={}, attempted=stats.records, failed=stats.errors, correct=True)
    _check(pipeline, sets, output, outcome)
    pipeline.close()
    window_ms = [w * 1e3 for w in windows]
    tail_p = tail_percentile(len(window_ms))
    outcome.metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        "throughput_per_s": stats.records / elapsed,
        "lat_p50_ms": percentile(window_ms, 50.0),
    }
    outcome.details.update({
        "setup_s": setups, "records": stats.records, "windows": len(windows),
        "checkpoints": stats.checkpoints,
        "workload_metrics": {"records_per_s": stats.records / elapsed,
                          "window_tail_ms": percentile(window_ms, tail_p) if tail_p else None,
                          "window_tail_percentile": tail_p},
    })
    outcome.report.append(
        f"batch: {stats.records} records in {len(windows)} windows of {WINDOW}, {elapsed:.2f}s, "
        f"{stats.records / elapsed:.1f} rec/s, {stats.checkpoints} checkpoints, {stats.errors} error lines")
    return outcome


def _run_traced(ctx: Context, checkpoint: Path, source: Path, sets) -> Outcome:
    """Untraced then traced pass over the same file; per-layer metrics from the traced one."""
    from layers import install_batch, per_layer_metrics
    from tracing import Tracer, format_layer_table, layer_table

    _, pipeline, catalog = _setup(checkpoint)
    outcome = Outcome(metrics={}, attempted=0, failed=0, correct=True)
    rates = {}
    tracer = Tracer()
    for traced in (False, True):
        output = ctx.workdir / f"output-{int(traced)}.jsonl"
        if traced:
            install_batch(tracer)
        try:
            elapsed, _, stats = _score_file(catalog, source, output)
        finally:
            tracer.restore()
        rates[traced] = stats.records / elapsed
        outcome.attempted += stats.records
        outcome.failed += stats.errors
        _check(pipeline, sets, output, outcome)
    pipeline.close()
    overhead = (rates[False] / rates[True] - 1.0) * 100.0
    outcome.details["records_per_s"] = {"untraced": rates[False], "traced": rates[True]}
    outcome.metrics = per_layer_metrics(tracer.spans, overhead_pct=overhead)
    table = layer_table(tracer.spans)
    outcome.report.extend(format_layer_table(table))
    outcome.details["layers"] = table
    tracer.dump(str(ctx.spans_path))
    outcome.report.append(f"tracing overhead: records_per_s untraced={rates[False]:.1f} "
                          f"traced={rates[True]:.1f} ({overhead:+.1f}% time)")
    return outcome
