"""Benchmark — micro-batched serving vs sequential single-request serving.

Single-request serving answers every line with its own scoring call (a batch
of one), so the per-call overhead — pooling-matrix build, fixed-block padding,
MLP and herb matmul launch — is paid once per request.  The
:class:`~repro.serving.MicroBatcher` drains concurrent clients through one
pooling matmul per flush, amortising that overhead across the whole batch.

Both paths run the identical :class:`~repro.serving.RecommendationHandler`
stack, so the measured ratio isolates request aggregation; responses are
asserted bit-identical.  The concurrent side models ``--port`` traffic:
``NUM_CLIENTS`` client threads each submit a burst of queued requests and
then gather their futures.

Runs standalone too (CI smoke): ``python benchmarks/bench_serving.py``.
"""

import threading
import time

from repro.api import Pipeline
from repro.experiments.datasets import get_profile
from repro.serving import MicroBatcher, RecommendationHandler, ServerStats

NUM_CLIENTS = 8
NUM_REQUESTS = {"smoke": 512, "default": 1024}
MAX_BATCH = 64
K = 10
#: Best-of-N timing to keep the assertion stable on noisy CI machines.
TIMING_REPEATS = 3


def _build(scale):
    # Serve the full synthetic corpus regardless of ``scale`` (the toy smoke
    # graphs make scoring ~free); the scale only sizes the request replay.
    pipeline = Pipeline(
        "SMGCN",
        scale="default",
        trainer_config=get_profile("default").trainer_config(epochs=0),
    ).fit()
    base_sets = pipeline._train_split().symptom_sets()
    lines = [" ".join(str(i) for i in s) for s in base_sets]
    repeats = -(-NUM_REQUESTS[scale] // len(lines))
    return pipeline, (lines * repeats)[: NUM_REQUESTS[scale]]


def _best_of(func, repeats=TIMING_REPEATS):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - start)
    return best, result


def _sequential(handler, lines):
    """Single-request serving: one handler call (batch of one) per line."""
    return [handler([line])[0] for line in lines]


def _concurrent(handler, lines, stats):
    """NUM_CLIENTS threads submit bursts through one shared MicroBatcher."""
    responses = [None] * len(lines)

    def run():
        with MicroBatcher(handler, max_batch_size=MAX_BATCH, stats=stats) as batcher:
            shards = [
                list(enumerate(lines))[client::NUM_CLIENTS] for client in range(NUM_CLIENTS)
            ]

            def client(shard):
                futures = [(index, batcher.submit(line)) for index, line in shard]
                for index, future in futures:
                    responses[index] = future.result()

            threads = [threading.Thread(target=client, args=(shard,)) for shard in shards]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        return responses

    return run


def measure(scale="smoke"):
    """Time both paths; returns a dict with timings, speedup and agreement."""
    pipeline, lines = _build(scale)
    handler = RecommendationHandler(pipeline, k=K)
    pipeline.engine  # warm the propagation outside the timed region
    _sequential(handler, lines[:MAX_BATCH])  # warm BLAS/pooling buffers

    sequential_seconds, sequential_responses = _best_of(lambda: _sequential(handler, lines))
    stats = ServerStats()
    concurrent_seconds, concurrent_responses = _best_of(_concurrent(handler, lines, stats))

    return {
        "scale": scale,
        "num_requests": len(lines),
        "num_clients": NUM_CLIENTS,
        "sequential_seconds": sequential_seconds,
        "concurrent_seconds": concurrent_seconds,
        "speedup": sequential_seconds / concurrent_seconds,
        "sequential_rps": len(lines) / sequential_seconds,
        "concurrent_rps": len(lines) / concurrent_seconds,
        "mean_batch_size": stats.mean_batch_size,
        "identical": concurrent_responses == sequential_responses,
    }


def _report(stats):
    return (
        f"scale={stats['scale']} requests={stats['num_requests']} "
        f"clients={stats['num_clients']} max_batch={MAX_BATCH}\n"
        f"sequential (batch of 1):  {stats['sequential_seconds']:.3f}s "
        f"({stats['sequential_rps']:.0f} req/s)\n"
        f"micro-batched:            {stats['concurrent_seconds']:.3f}s "
        f"({stats['concurrent_rps']:.0f} req/s, mean batch {stats['mean_batch_size']:.1f})\n"
        f"speedup: {stats['speedup']:.1f}x   responses identical: {stats['identical']}"
    )


def test_serving_throughput(benchmark, bench_scale):
    from _bench_utils import record_report, run_once

    stats = run_once(benchmark, lambda: measure(bench_scale))
    record_report("Serving throughput — micro-batched vs single-request", _report(stats))
    assert stats["identical"], "micro-batched responses must match sequential serving"
    assert stats["speedup"] >= 3.0, f"expected >= 3x speedup, got {stats['speedup']:.1f}x"


if __name__ == "__main__":
    import sys

    stats = measure("smoke")
    print(_report(stats))
    # Correctness is a hard failure; the wall-clock ratio only warns here so a
    # noisy shared CI runner cannot fail an unrelated PR (the pytest harness
    # above still asserts the 3x floor).
    if not stats["identical"]:
        raise SystemExit("micro-batched responses diverged from sequential serving")
    if stats["speedup"] < 3.0:
        print(
            f"warning: speedup {stats['speedup']:.1f}x below the 3x target "
            "(noisy machine?)",
            file=sys.stderr,
        )
