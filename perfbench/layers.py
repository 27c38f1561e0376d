"""Which program callables the traced run wraps, and the per-layer metrics from their spans.

Each ``install_*`` function patches public callables of one ``repro`` layer
with :class:`tracing.Tracer` wrappers; :func:`per_layer_metrics` turns the
recorded spans into the named metrics listed in ``BENCHMARK.json``.  Every
traced run reports every metric: a layer that is not on a workload's path
reports zero calls and zero time, which is the measured value.
"""

from __future__ import annotations

import collections
import itertools
import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple

from benchstats import percentile
from tracing import Span, Tracer, layer_table

#: (name, unit, better) for every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("frontend.overhead_ms_p50", "ms", "lower"),
    ("frontend.overhead_ms_p99", "ms", "lower"),
    ("batcher.queue_wait_ms_p50", "ms", "lower"),
    ("batcher.queue_wait_ms_p99", "ms", "lower"),
    ("batcher.batch_size", "count", "higher"),
    ("handler.self_ms", "ms", "lower"),
    ("api.parse_us", "us", "lower"),
    ("engine.recommend_batch_ms", "ms", "lower"),
    ("engine.rows_per_call", "count", "higher"),
    ("models.encode_syndrome_ms", "ms", "lower"),
    ("models.pad_ratio", "ratio", "higher"),
    ("models.score_tiles_ms", "ms", "lower"),
    ("models.score_tiles_mb", "MB", "lower"),
    ("evaluation.topk_ms", "ms", "lower"),
    ("evaluation.topk_cells", "count", "higher"),
    ("batch.decode_us", "us", "lower"),
    ("batch.encode_us", "us", "lower"),
    ("batch.durable_write_ms", "ms", "lower"),
    ("train.sampling_s", "s", "lower"),
    ("train.forward_s", "s", "lower"),
    ("train.backward_s", "s", "lower"),
    ("train.step_s", "s", "lower"),
    ("nn.pool_misses", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


# ----------------------------------------------------------------------
# Installing wrappers
# ----------------------------------------------------------------------
def _rows(args, kwargs, result) -> dict:
    return {"rows": len(args[1])}


def _syndrome(args, kwargs, result) -> dict:
    return {"rows": len(args[1]), "padded": int(result.shape[0])}


def _tiles(args, kwargs, result) -> dict:
    syndrome, herbs = args[0], args[1]
    rows, dim = syndrome.shape
    width = herbs.shape[0]
    # float64 syndrome and herb matrix read once, score matrix written once
    return {"bytes": 8 * (rows * dim + width * dim + rows * width)}


def _topk(args, kwargs, result) -> dict:
    scores = args[0]
    return {"cells": int(scores.shape[0] * scores.shape[1])}


def install_inference(tracer: Tracer) -> None:
    """Engine, syndrome encoder, tile scoring, canonical top-k and token parsing."""
    from repro import api
    from repro.evaluation import metrics
    from repro.inference.engine import InferenceEngine
    from repro.models import base

    engine_fn = InferenceEngine.__dict__["recommend_batch"]
    tracer.patch(InferenceEngine, "recommend_batch",
                 tracer.wrap("engine.recommend_batch", engine_fn, describe=_rows))
    encode_fn = base.GraphHerbRecommender.__dict__["encode_syndrome"]
    tracer.patch(base.GraphHerbRecommender, "encode_syndrome",
                 tracer.wrap("models.encode_syndrome", encode_fn, describe=_syndrome))
    tiles = base.score_herb_tiles
    tracer.patch_everywhere(tiles, tracer.wrap("models.score_tiles", tiles, describe=_tiles))
    topk = metrics.top_k_indices
    tracer.patch_everywhere(topk, tracer.wrap("evaluation.topk", topk, describe=_topk))
    parse = api.parse_symptom_tokens
    tracer.patch_everywhere(parse, tracer.wrap("api.parse", parse))


def install_serving(tracer: Tracer) -> None:
    """Batcher submit → resolve, batcher queue wait and the handler call."""
    from repro.serving.batcher import MicroBatcher
    from repro.serving.handler import RecommendationHandler

    install_inference(tracer)
    submitted: "collections.deque[Tuple[str, float]]" = collections.deque()
    request_ids = itertools.count()
    batch_ids = itertools.count()
    lock = threading.Lock()
    submit_fn = MicroBatcher.__dict__["submit"]
    handler_fn = RecommendationHandler.__dict__["__call__"]

    def submit(self, payload):
        start = tracer.clock()
        future = submit_fn(self, payload)
        rid = f"r{next(request_ids)}"
        with lock:
            submitted.append((rid, start))

        def resolved(_future, rid=rid, start=start, line=payload):
            tracer.record("batcher.submit_to_resolve", start, tracer.clock(), rid, {"line": line})

        future.add_done_callback(resolved)
        return future

    def handle(self, lines):
        start = tracer.clock()
        with lock:
            members = [submitted.popleft() for _ in range(min(len(lines), len(submitted)))]
        batch = f"b{next(batch_ids)}"
        for rid, submit_start in members:
            tracer.record("batcher.queue_wait", submit_start, start, rid)
        tracer.event("batch", [batch, [rid for rid, _ in members]])
        return tracer.call("handler.call", handler_fn, (self, lines), {}, request_id=batch,
                           describe=lambda a, k, r: {"rows": len(a[1])})

    tracer.patch(MicroBatcher, "submit", submit)
    tracer.patch(RecommendationHandler, "__call__", handle)


def install_batch(tracer: Tracer) -> None:
    """Record decode/encode and the per-window durable write of ``repro.batch``."""
    from repro.batch import runner

    install_inference(tracer)
    for attr, name in (
        ("decode_record", "batch.decode"),
        ("encode_result", "batch.encode"),
        ("_write_durably", "batch.durable_write"),
        ("_advance_checkpoint", "batch.checkpoint"),
        ("score_lines", "batch.score_lines"),
    ):
        tracer.patch(runner, attr, tracer.wrap(name, getattr(runner, attr)))


class PoolRegistry:
    """Remembers every gradient buffer pool the trainer creates."""

    def __init__(self) -> None:
        self.pools: List[Any] = []

    def misses(self) -> int:
        return sum(pool.misses for pool in self.pools)


def install_training(tracer: Tracer) -> PoolRegistry:
    """Sampling, forward (model + loss), backward, optimizer step and the buffer pool."""
    from repro.models.base import GraphHerbRecommender
    from repro.models.smgcn import SMGCN
    from repro.nn import optim, tensor
    from repro.training import trainer

    install_inference(tracer)
    registry = PoolRegistry()
    pool_cls = trainer.GradientBufferPool

    class RecordedPool(pool_cls):  # type: ignore[misc, valid-type]
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            registry.pools.append(self)

    tracer.patch(trainer, "GradientBufferPool", RecordedPool)
    iterate = trainer.batch_iterator

    def batch_iterator(*args, **kwargs):
        batches = iterate(*args, **kwargs)
        while True:
            start = tracer.clock()
            try:
                batch = next(batches)
            except StopIteration:
                return
            tracer.record("train.sampling", start, tracer.clock())
            yield batch

    tracer.patch(trainer, "batch_iterator", batch_iterator)
    tracer.patch(trainer, "weighted_multilabel_mse",
                 tracer.wrap("train.loss", trainer.weighted_multilabel_mse))
    tracer.patch(GraphHerbRecommender, "forward",
                 tracer.wrap("train.forward", GraphHerbRecommender.__dict__["forward"]))
    tracer.patch(SMGCN, "encode", tracer.wrap("models.encode", SMGCN.__dict__["encode"]))
    tracer.patch(SMGCN, "induce_syndrome",
                 tracer.wrap("models.induce_syndrome", SMGCN.__dict__["induce_syndrome"]))
    tracer.patch(tensor.Tensor, "backward",
                 tracer.wrap("train.backward", tensor.Tensor.__dict__["backward"]))
    tracer.patch(optim.Adam, "step", tracer.wrap("train.step", optim.Adam.__dict__["step"]))
    return registry


# ----------------------------------------------------------------------
# Metrics from spans
# ----------------------------------------------------------------------
def _by_name(spans: Iterable[Span]) -> Dict[str, List[Span]]:
    grouped: Dict[str, List[Span]] = collections.defaultdict(list)
    for span in spans:
        grouped[span[1]].append(span)
    return grouped


def _mean_ms(spans: List[Span], scale: float = 1e3) -> float:
    if not spans:
        return 0.0
    return sum(end - start for _, _, start, end, _, _, _ in spans) / len(spans) * scale


def _attr_mean(spans: List[Span], key: str) -> float:
    values = [span[6][key] for span in spans if span[6] and key in span[6]]
    return sum(values) / len(values) if values else 0.0


def frontend_overhead(
    client: List[Tuple[str, float, float]], server: List[Span]
) -> List[float]:
    """Client latency minus server submit→resolve time, per request, in seconds.

    ``client`` holds ``(line, sent, received)`` in send order; ``server`` the
    ``batcher.submit_to_resolve`` spans.  Requests are matched first-in
    first-out per request line, so identical lines pair in the order sent.
    """
    queues: Dict[str, "collections.deque[float]"] = collections.defaultdict(collections.deque)
    for _, _, start, end, _, _, attrs in sorted(server, key=lambda span: span[2]):
        queues[attrs["line"]].append(end - start)
    overhead = []
    for line, sent, received in client:
        queue = queues.get(line)
        if queue:
            overhead.append((received - sent) - queue.popleft())
    return overhead


def per_layer_metrics(
    spans: List[Span],
    *,
    client: Optional[List[Tuple[str, float, float]]] = None,
    epochs: int = 0,
    fit_window: Optional[Tuple[float, float]] = None,
    pool_misses: int = 0,
    overhead_pct: float = 0.0,
) -> Dict[str, float]:
    """Every metric of :data:`PER_LAYER` from one traced run's spans."""
    grouped = _by_name(spans)
    table = layer_table(spans) if spans else {}
    out: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}

    overhead = frontend_overhead(client or [], grouped["batcher.submit_to_resolve"])
    if overhead:
        out["frontend.overhead_ms_p50"] = percentile(overhead, 50.0) * 1e3
        out["frontend.overhead_ms_p99"] = percentile(overhead, 99.0) * 1e3
    waits = [end - start for _, _, start, end, _, _, _ in grouped["batcher.queue_wait"]]
    if waits:
        out["batcher.queue_wait_ms_p50"] = percentile(waits, 50.0) * 1e3
        out["batcher.queue_wait_ms_p99"] = percentile(waits, 99.0) * 1e3
    out["batcher.batch_size"] = _attr_mean(grouped["handler.call"], "rows")
    if "handler.call" in table:
        out["handler.self_ms"] = table["handler.call"]["self_s"] / table["handler.call"]["count"] * 1e3
    out["api.parse_us"] = _mean_ms(grouped["api.parse"], 1e6)
    out["engine.recommend_batch_ms"] = _mean_ms(grouped["engine.recommend_batch"])
    out["engine.rows_per_call"] = _attr_mean(grouped["engine.recommend_batch"], "rows")
    out["models.encode_syndrome_ms"] = _mean_ms(grouped["models.encode_syndrome"])
    padded = sum(span[6]["padded"] for span in grouped["models.encode_syndrome"])
    if padded:
        real = sum(span[6]["rows"] for span in grouped["models.encode_syndrome"])
        out["models.pad_ratio"] = real / padded
    out["models.score_tiles_ms"] = _mean_ms(grouped["models.score_tiles"])
    out["models.score_tiles_mb"] = _attr_mean(grouped["models.score_tiles"], "bytes") / 1e6
    out["evaluation.topk_ms"] = _mean_ms(grouped["evaluation.topk"])
    out["evaluation.topk_cells"] = _attr_mean(grouped["evaluation.topk"], "cells")
    out["batch.decode_us"] = _mean_ms(grouped["batch.decode"], 1e6)
    out["batch.encode_us"] = _mean_ms(grouped["batch.encode"], 1e6)
    windows = len(grouped["batch.durable_write"])
    if windows:
        durable = grouped["batch.durable_write"] + grouped["batch.checkpoint"]
        out["batch.durable_write_ms"] = sum(s[3] - s[2] for s in durable) / windows * 1e3
    if epochs and fit_window is not None:
        lo, hi = fit_window
        for metric, names in (
            ("train.sampling_s", ("train.sampling",)),
            ("train.forward_s", ("train.forward", "train.loss")),
            ("train.backward_s", ("train.backward",)),
            ("train.step_s", ("train.step",)),
        ):
            busy = sum(
                span[3] - span[2]
                for name in names
                for span in grouped[name]
                if lo <= span[2] <= hi and span[4] is None
            )
            out[metric] = busy / epochs
    out["nn.pool_misses"] = float(pool_misses)
    out["trace.overhead_pct"] = overhead_pct
    return out
