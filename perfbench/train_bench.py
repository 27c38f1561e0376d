"""``train-paper``: ``Trainer.fit`` of SMGCN at paper scale, then ``Evaluator.evaluate``.

The corpus is ``SyntheticTCMConfig.paper_scale()`` (360 symptoms, 753 herbs,
26,360 prescriptions) seeded from the run.  Each set-up builds the model and
its graphs (SMGCN default config: dimension 64, layers (128, 256)).  One
warm-up epoch on a first model precedes the timed fit of a second, identically
seeded model with the multilabel loss at batch 512; the timed fit's first
epoch must reproduce the warm-up epoch's loss bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import time
from typing import List

import numpy as np

from benchstats import median, percentile, tail_percentile
from common import SETUP_REPEATS, Context, Outcome
from runmeta import peak_rss_mb

TEST_FRACTION = 0.13
BATCH_SIZE = 512
#: Timed epochs per ``--seconds`` (3.4-4.5 s per epoch on a 2-core box).
EPOCHS_PER_SECOND = 0.15


class StepClock:
    """Timestamps each request the trainer makes for its next mini-batch.

    The gaps between successive requests are whole training steps (sampling,
    forward, backward, optimizer step); one ``perf_counter`` call per step.
    """

    def __init__(self) -> None:
        self.marks: List[float] = []
        self.epoch_starts: List[int] = []

    def install(self, tracer) -> None:
        from repro.training import trainer

        iterate = trainer.batch_iterator
        clock = self

        def batch_iterator(*args, **kwargs):
            clock.epoch_starts.append(len(clock.marks))
            clock.marks.append(time.perf_counter())
            for batch in iterate(*args, **kwargs):
                yield batch
                clock.marks.append(time.perf_counter())

        tracer.patch(trainer, "batch_iterator", batch_iterator)

    def steps(self) -> List[float]:
        """Step durations in seconds, within epochs only."""
        bounds = self.epoch_starts + [len(self.marks)]
        out = []
        for lo, hi in zip(bounds, bounds[1:]):
            out.extend(b - a for a, b in zip(self.marks[lo:hi - 1], self.marks[lo + 1:hi]))
        return out


def _corpus(seed: int):
    from repro.data.synthetic import SyntheticTCMConfig, generate_corpus

    corpus = generate_corpus(SyntheticTCMConfig.paper_scale(seed=seed))
    return corpus.dataset.train_test_split(test_fraction=TEST_FRACTION,
                                           rng=np.random.default_rng(seed))


def _build(train, seed: int):
    from repro.models.smgcn import SMGCN, SMGCNConfig

    start = time.perf_counter()
    model = SMGCN.from_dataset(train, SMGCNConfig(seed=seed))
    return time.perf_counter() - start, model


def _config(seed: int, epochs: int, profile: bool = False):
    from repro.training.config import TrainerConfig

    return TrainerConfig(epochs=epochs, batch_size=BATCH_SIZE, loss="multilabel",
                         seed=seed, profile=profile)


def _digest(losses: List[float]) -> str:
    return hashlib.sha256(b"".join(struct.pack("<d", x) for x in losses)).hexdigest()


def _check_losses(ctx: Context, warm: List[float], losses: List[float], outcome: Outcome) -> str:
    """Finite losses; the first epoch repeats the warm-up bitwise; the digest repeats across runs."""
    digest = _digest(losses)
    if not all(math.isfinite(x) for x in losses + warm):
        outcome.correct = False
        outcome.errors.append(f"non-finite epoch loss: {losses}")
    if struct.pack("<d", warm[0]) != struct.pack("<d", losses[0]):
        outcome.correct = False
        outcome.errors.append(f"first epoch loss {losses[0]!r} differs from the warm-up's {warm[0]!r}")
    store = ctx.root / ".perfbench" / "digests" / f"train-paper-seed{ctx.seed}-epochs{len(losses)}.json"
    if store.exists():
        previous = json.loads(store.read_text())["digest"]
        if previous != digest:
            outcome.correct = False
            outcome.errors.append(f"loss digest {digest} differs from an earlier run's {previous}")
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps({"digest": digest, "losses": losses}))
    return digest


def run(ctx: Context) -> Outcome:
    from repro.evaluation.evaluator import Evaluator
    from repro.training.trainer import Trainer
    from tracing import Tracer

    train, test = _corpus(ctx.seed)
    epochs = max(2, round(ctx.seconds * EPOCHS_PER_SECOND))
    if ctx.trace:
        return _run_traced(ctx, train, test)
    setups = []
    for index in range(SETUP_REPEATS):
        seconds, model = _build(train, ctx.seed)
        setups.append(seconds)
        if index == 0:
            warm_model = model
    warm = Trainer(_config(ctx.seed, 1)).fit(warm_model, train).epoch_losses
    del warm_model
    clock = StepClock()
    hooks = Tracer()
    clock.install(hooks)
    try:
        start = time.perf_counter()
        history = Trainer(_config(ctx.seed, epochs)).fit(model, train)
        fit_s = time.perf_counter() - start
    finally:
        hooks.restore()
    start = time.perf_counter()
    result = Evaluator(test, ks=(5, 10, 20)).evaluate(model)
    eval_s = time.perf_counter() - start
    rss = peak_rss_mb()
    steps_ms = [s * 1e3 for s in clock.steps()]
    outcome = Outcome(metrics={}, attempted=len(steps_ms), failed=0, correct=True)
    digest = _check_losses(ctx, warm, history.epoch_losses, outcome)
    tail_p = tail_percentile(len(steps_ms))
    outcome.metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        "throughput_per_s": len(train) * epochs / fit_s,
        "lat_p50_ms": percentile(steps_ms, 50.0),
    }
    outcome.details.update({
        "setup_s": setups, "epochs": epochs, "steps": len(steps_ms), "loss_digest": digest,
        "epoch_losses": history.epoch_losses,
        "workload_metrics": {"epoch_s": fit_s / epochs, "eval_s": eval_s,
                          "p_at_5": result.metrics["p@5"],
                          "step_tail_ms": percentile(steps_ms, tail_p) if tail_p else None,
                          "step_tail_percentile": tail_p},
    })
    outcome.report.append(
        f"train: {len(train)} prescriptions x {epochs} epochs in {fit_s:.2f}s "
        f"(epoch_s={fit_s / epochs:.3f}), eval_s={eval_s:.3f}, p@5={result.metrics['p@5']:.6f}, "
        f"losses={['%.6f' % x for x in history.epoch_losses]}")
    return outcome


def _run_traced(ctx: Context, train, test) -> Outcome:
    """Two untraced epochs, then two traced epochs of an identical model; eval traced.

    Tracing overhead compares the second epoch of each fit (the first one
    also pays the process's warm-up).
    """
    from layers import install_training, per_layer_metrics
    from repro.evaluation.evaluator import Evaluator
    from repro.training.trainer import Trainer
    from tracing import Tracer, format_layer_table, layer_table

    outcome = Outcome(metrics={}, attempted=0, failed=0, correct=True)
    epochs = 2
    _, model = _build(train, ctx.seed)
    clock = StepClock()
    hooks = Tracer()
    clock.install(hooks)
    try:
        untraced = Trainer(_config(ctx.seed, epochs)).fit(model, train)
        untraced_epoch = time.perf_counter() - clock.marks[clock.epoch_starts[1]]
    finally:
        hooks.restore()
    del model
    _, model = _build(train, ctx.seed)
    tracer = Tracer()
    registry = install_training(tracer)
    try:
        start = tracer.clock()
        history = Trainer(_config(ctx.seed, epochs, profile=True)).fit(model, train)
        fit_window = (start, tracer.clock())
        Evaluator(test, ks=(5, 10, 20)).evaluate(model)
    finally:
        tracer.restore()
    sampling = sorted(span[2] for span in tracer.spans
                      if span[1] == "train.sampling" and start <= span[2] <= fit_window[1])
    traced_epoch = fit_window[1] - sampling[history.epoch_profiles[0].num_batches]
    if untraced.epoch_losses != history.epoch_losses:
        outcome.correct = False
        outcome.errors.append("traced training changed the epoch losses")
    overhead = (traced_epoch / untraced_epoch - 1.0) * 100.0
    outcome.details["second_epoch_s"] = {"untraced": untraced_epoch, "traced": traced_epoch}
    outcome.attempted = sum(p.num_batches for p in history.epoch_profiles)
    outcome.metrics = per_layer_metrics(tracer.spans, epochs=epochs,
                                        fit_window=fit_window, pool_misses=registry.misses(),
                                        overhead_pct=overhead)
    table = layer_table(tracer.spans)
    outcome.report.extend(format_layer_table(table))
    outcome.details["layers"] = table
    tracer.dump(str(ctx.spans_path))
    phases = {}
    for profile in history.epoch_profiles:
        for phase, seconds in profile.phase_seconds.items():
            phases[phase] = phases.get(phase, 0.0) + seconds / epochs
    outcome.details["profiler_phase_s"] = phases
    outcome.report.append("cross-check per epoch (spans / TrainProfiler): " + ", ".join(
        f"{phase}={outcome.metrics[f'train.{phase}_s']:.3f}s/{phases.get(phase, 0.0):.3f}s"
        for phase in ("forward", "backward", "step")))
    outcome.report.append(f"tracing overhead: second epoch untraced={untraced_epoch:.3f}s "
                          f"traced={traced_epoch:.3f}s ({overhead:+.1f}%)")
    return outcome
