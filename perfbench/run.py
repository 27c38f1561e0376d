"""The repository benchmark: one seeded workload per run, checked against its own oracle.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-default --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` wraps each layer's public callables and reports per-layer
metrics plus the tracing overhead.  ``--workload all`` runs every workload
in turn.  Human-readable lines go first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Each
result, with its run metadata, is also written to
``.perfbench/results/<workload>-seed<N>-trace<T>.json``.  The exit code is
non-zero when an answer differs from the oracle or a check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve-default", "batch-h20k", "train-paper")


def _load(workload: str):
    if workload == "serve-default":
        import serve_bench as module
    elif workload == "batch-h20k":
        import batch_bench as module
    else:
        import train_bench as module
    return module.run


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from common import END_TO_END, Context
    from layers import PER_LAYER
    from runmeta import run_metadata

    workdir = ROOT / ".perfbench" / f"run-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ctx = Context(root=ROOT, workdir=workdir, seed=seed, seconds=seconds, trace=trace,
                  workload=workload)
    ctx.spans_path.parent.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    try:
        outcome = _load(workload)(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    spec = PER_LAYER if trace else END_TO_END
    metrics = {}
    for name, unit, _ in spec:
        value = outcome.metrics.get(name)
        if value is None or not math.isfinite(value):
            outcome.errors.append(f"metric {name} was not measured")
            continue
        metrics[name] = {"value": value, "unit": unit}
    for line in outcome.report:
        print(line)
    for name, entry in metrics.items():
        print(f"{workload:<14} {name:<28} {entry['value']:>14.6g} {entry['unit']}")
    for error in outcome.errors:
        print(f"error: {error}", file=sys.stderr, flush=True)
    result = {
        "correct": bool(outcome.correct),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    record = dict(result, errors=outcome.errors, details=outcome.details,
                  wall_s=time.perf_counter() - started,
                  meta=run_metadata(ROOT, seed, workload, {"seconds": seconds, "trace": trace}))
    out_dir = ROOT / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, default=str))
    result["ok"] = not outcome.errors and outcome.correct
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    # a terminated run still unwinds, so server subprocesses are stopped and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_one(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    ok = all(result.pop("ok") for result in results)
    final = results[0]
    if len(results) > 1:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{name}/{metric}": entry for name, r in zip(names, results)
                        for metric, entry in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
