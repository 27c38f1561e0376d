"""Command-line interface for the reproduction.

Examples::

    python -m repro list
    python -m repro models
    python -m repro run table4 --scale smoke
    python -m repro all --scale smoke
    python -m repro train --model SMGCN --scale smoke --checkpoint smgcn.npz
    python -m repro predict --checkpoint smgcn.npz --symptoms "symptom_003 symptom_014" --k 5
    echo "symptom_003 symptom_014" | python -m repro serve --checkpoint smgcn.npz

``list`` prints the registered experiments, ``models`` the model registry,
``run`` executes one experiment and prints (or writes) its table/series, and
``all`` runs the full suite.

``train`` fits one registered model and writes a single-file checkpoint
bundle.  ``predict`` and ``serve`` answer top-k herb queries; given
``--checkpoint`` they load the trained weights from disk in milliseconds
instead of retraining, otherwise they train first on the chosen scale.
``serve`` keeps the model resident and micro-batches requests — stdin lines
by default (response N answers input line N, including ``error:`` lines), or
TCP connections with ``--port`` — through one pooling matmul per flush,
reporting stats on shutdown.  A flush starts whenever the scorer is free and
takes up to ``--max-batch`` queued requests, so a lone request never waits
on a timer.  TCP traffic runs on a single-threaded event loop with explicit
admission control (``--max-connections``/``--max-pending``/``--client-quota``/
``--idle-timeout``), shedding overload with fast ``error: overloaded``
lines instead of unbounded queueing.  Repeating
``--model NAME=checkpoint.npz`` serves a catalog of models side by side
(requests route with a ``model=NAME`` prefix); ``--watch`` hot-reloads an
entry when its checkpoint file changes, the ``reload``/``models`` control
lines do the same on demand, and ``--canary NAME=PATH`` shadows a fraction
of an entry's traffic onto a candidate build — all with zero downtime.

Both ``predict`` and ``serve`` take ``--shards``/``--backend``/``--workers``
to split the herb-embedding matrix into column shards scored through a
pluggable compute backend: serial ``numpy``, a ``threads`` pool, a
``processes`` pool (weights in shared memory), or ``remote`` shard workers
(``--worker-addr host:port``, one per running ``repro shard-worker``);
answers are bit-identical whatever the placement — see docs/SERVING.md.
``--retrieval approx`` (with ``--candidate-factor``/``--num-lists``/
``--nprobe``) swaps the exhaustive top-k scan for the two-stage
int8-first-pass + exact-re-rank tier: sub-linear in vocabulary size,
returned scores still bit-exact, per-request fallback to exact when the
candidate pool cannot certify ``k`` results.

``shard-worker`` runs one such worker: a model-free scoring server that
receives weight snapshots and shard tasks over TCP.

``batch`` is the offline counterpart of ``serve``: it streams JSON-lines
prescription records (``{"id": ..., "symptoms": [...], "k": N, "model":
NAME}``) from files or stdin through the same catalog/engine stack, emitting
one JSON result line per record in input order — bounded memory
(``--window``), per-record error isolation (``{"id": ..., "error": ...}``
lines, never an aborted run), a durable checkpoint sidecar per output file
so ``--resume`` after a crash re-scores nothing already fsynced and emits
byte-identical output, and a per-file work queue (``--jobs``) fanning
multi-file corpora across the shared backend fleet.  See docs/BATCH.md.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from .experiments import EXPERIMENTS, run_experiment
from .io.checkpoint import CheckpointError

__all__ = ["build_parser", "main"]

_SCALES = ("smoke", "default")


_EPILOG = """\
examples:
  repro list                               # registered experiments
  repro models                             # model zoo: name, config, params
  repro run table4 --scale smoke           # reproduce one paper table
  repro train --model SMGCN --scale smoke --checkpoint smgcn.npz --evaluate
  repro predict --checkpoint smgcn.npz --symptoms "symptom_003 17" --k 5
  echo "symptom_003 17" | repro serve --checkpoint smgcn.npz --k 10
  repro serve --checkpoint smgcn.npz --port 7654 --max-batch 64
  repro serve --checkpoint smgcn.npz --port 7654 --max-connections 2000 \\
      --max-pending 256 --client-quota 16 --idle-timeout 60   # admission
  repro serve --checkpoint smgcn.npz --shards 4 --backend processes --workers 4
  repro serve --checkpoint smgcn.npz --retrieval approx --candidate-factor 4
  repro serve --checkpoint smgcn.npz --retrieval approx --num-lists 64 --nprobe 8
  repro shard-worker --port 7801      # one model-free scoring worker
  repro serve --checkpoint smgcn.npz --shards 4 --backend remote \\
      --worker-addr 127.0.0.1:7801 --worker-addr 127.0.0.1:7802
  repro serve --model smgcn=a.npz --model hlegcn=b.npz --port 7654 --watch
  repro models --json                      # machine-readable registry
  repro batch corpus.jsonl --checkpoint smgcn.npz --output scored.jsonl
  repro batch corpus.jsonl --output scored.jsonl --resume   # after a crash
  cat corpus.jsonl | repro batch --checkpoint smgcn.npz > scored.jsonl
  repro batch a.jsonl b.jsonl --checkpoint smgcn.npz --output-dir scored/ \\
      --jobs 2 --shards 2 --backend processes --workers 2

`train --checkpoint` persists trained weights so predict/serve start in
milliseconds; `--shards`/`--backend` split herb scoring into column shards
on a pluggable compute backend — in-process (numpy/threads), a process
pool (processes), or remote shard-worker servers (remote) — with
bit-identical answers whatever the placement.
See docs/ARCHITECTURE.md and docs/SERVING.md for the full picture.
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the tables and figures of the SMGCN paper (ICDE 2020).",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the registered experiments")

    models_parser = subparsers.add_parser("models", help="list the model registry")
    models_parser.add_argument(
        "--scale",
        default="default",
        choices=_SCALES,
        help="scale used to count parameters (default: default)",
    )
    models_parser.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output: name, config class, description and "
        "the scale's default config for every registered model",
    )

    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", choices=sorted(EXPERIMENTS), help="experiment id")
    run_parser.add_argument("--scale", default="smoke", choices=_SCALES)
    run_parser.add_argument("--output", default=None, help="write the report to this file")

    all_parser = subparsers.add_parser("all", help="run every experiment")
    all_parser.add_argument("--scale", default="smoke", choices=_SCALES)
    all_parser.add_argument("--output", default=None, help="write the combined report to this file")

    train_parser = subparsers.add_parser(
        "train", help="train one registered model and save a checkpoint"
    )
    train_parser.add_argument("--model", default="SMGCN", help="registered model name")
    train_parser.add_argument("--scale", default="smoke", choices=_SCALES)
    train_parser.add_argument(
        "--checkpoint", required=True, help="write the trained model to this .npz bundle"
    )
    train_parser.add_argument(
        "--epochs", type=int, default=None, help="override the profile's training epochs"
    )
    train_parser.add_argument("--seed", type=int, default=0, help="model initialisation seed")
    train_parser.add_argument(
        "--paper-params",
        action="store_true",
        help="use the paper's Table III lr/lambda for this model instead of the profile's",
    )
    train_parser.add_argument(
        "--evaluate", action="store_true", help="print test-split metrics after training"
    )
    train_parser.add_argument(
        "--verbose", action="store_true", help="print one loss/timing line per epoch"
    )
    train_parser.add_argument(
        "--profile",
        action="store_true",
        help="record per-epoch phase timings and print the breakdown after training",
    )

    predict_parser = subparsers.add_parser(
        "predict", help="print top-k herbs for one symptom set"
    )
    _add_serving_arguments(predict_parser)
    predict_parser.add_argument(
        "--symptoms",
        required=True,
        help="whitespace-separated symptom tokens (or integer ids) to score",
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="micro-batched serving: stdin lines by default, TCP with --port",
    )
    _add_serving_arguments(serve_parser, multi_model=True)
    serve_parser.add_argument(
        "--watch",
        action="store_true",
        help="poll every served checkpoint file and hot-reload an entry when "
        "its bytes change (zero-downtime rollout)",
    )
    serve_parser.add_argument(
        "--watch-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="polling interval for --watch (default: 1.0)",
    )
    serve_parser.add_argument(
        "--canary",
        default=None,
        metavar="NAME=PATH",
        help="mirror a fraction of NAME's traffic to the candidate checkpoint "
        "at PATH, reporting score/latency deltas without affecting responses",
    )
    serve_parser.add_argument(
        "--canary-fraction",
        type=float,
        default=0.1,
        help="fraction of the entry's traffic the canary shadows (default: 0.1)",
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=None,
        help="serve the line protocol over TCP on this port (0 picks a free "
        "one) instead of stdin; stop with SIGINT/SIGTERM",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address for --port (default: 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--max-connections",
        type=int,
        default=None,
        metavar="N",
        help="with --port: admit at most N concurrent connections; past "
        "it a new client is answered 'error: overloaded' and closed "
        "(default: 1024)",
    )
    serve_parser.add_argument(
        "--max-pending",
        type=int,
        default=None,
        metavar="N",
        help="with --port: at most N scoring requests in flight "
        "server-wide; excess requests shed with a fast 'error: overloaded' "
        "instead of queueing (default: 1024)",
    )
    serve_parser.add_argument(
        "--client-quota",
        type=int,
        default=None,
        metavar="N",
        help="with --port: one connection may pipeline at most N "
        "unanswered requests before shedding (default: 32)",
    )
    serve_parser.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="with --port: close a connection with no outstanding work "
        "after this long without a read (0 disables; default: 300)",
    )
    serve_parser.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="most queued requests one flush takes; a flush starts whenever "
        "the scorer is free (default: 64)",
    )
    serve_parser.add_argument(
        "--max-wait-ms",
        type=float,
        default=5.0,
        help="deprecated, has no effect: batches no longer wait on a timer",
    )

    batch_parser = subparsers.add_parser(
        "batch",
        help="bulk offline scoring: stream JSONL prescription records "
        "(files or stdin) through the model with checkpointed resume",
    )
    batch_parser.add_argument(
        "inputs",
        nargs="*",
        metavar="FILE",
        help="JSONL input files, one record per line ('-' or no files: "
        "read stdin)",
    )
    _add_serving_arguments(batch_parser, multi_model=True)
    batch_parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write result lines to this file (default: stdout; a file "
        "enables the checkpoint sidecar and --resume)",
    )
    batch_parser.add_argument(
        "--output-dir",
        default=None,
        metavar="DIR",
        help="with multiple input files: write one result file per input "
        "(same basename) plus its checkpoint sidecar into this directory",
    )
    batch_parser.add_argument(
        "--window",
        type=int,
        default=1024,
        help="records scored, written and checkpointed per step — the "
        "memory bound; output bytes do not depend on it (default: 1024)",
    )
    batch_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="concurrent input files drained from the per-file work queue "
        "(they share one engine/backend fleet; default: 1)",
    )
    batch_parser.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted run from its checkpoint sidecar: "
        "truncate each output to the durable watermark and re-score only "
        "the rest — the final output is byte-identical to an uninterrupted "
        "run; a completed run is a no-op",
    )

    worker_parser = subparsers.add_parser(
        "shard-worker",
        help="run one model-free shard-scoring worker (the server side of "
        "--backend remote)",
    )
    worker_parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port to serve shard tasks on (0 picks a free one; default: 0)",
    )
    worker_parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: 127.0.0.1 — use 0.0.0.0 to accept "
        "tasks from other machines)",
    )
    return parser


def _add_serving_arguments(parser: argparse.ArgumentParser, multi_model: bool = False) -> None:
    parser.add_argument(
        "--scale",
        default=None,
        choices=_SCALES,
        help="corpus scale (default: the checkpoint's scale, or smoke)",
    )
    if multi_model:
        parser.add_argument(
            "--model",
            action="append",
            default=None,
            metavar="NAME[=PATH]",
            help="either one registered model name (as for predict), or — "
            "repeatable — NAME=checkpoint.npz catalog entries to serve "
            "side by side with per-request model=NAME routing; the first "
            "entry answers unrouted requests",
        )
    else:
        parser.add_argument(
            "--model",
            default=None,
            help="registered model name (default: SMGCN; with --checkpoint it must "
            "match the checkpointed model)",
        )
    parser.add_argument(
        "--checkpoint",
        default=None,
        help="load trained weights from this bundle instead of retraining",
    )
    parser.add_argument("--k", type=int, default=10, help="number of herbs to recommend")
    parser.add_argument(
        "--epochs", type=int, default=None, help="override the profile's training epochs"
    )
    parser.add_argument("--seed", type=int, default=None, help="model initialisation seed")
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="split the herb embeddings into this many column shards for "
        "scoring/top-k; answers stay bit-identical (default: 1)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        help="compute backend for shard scoring: 'numpy' (serial BLAS, the "
        "default), 'threads' (thread pool), 'processes' (process pool over "
        "shared memory), 'remote' (shard-worker servers via --worker-addr), "
        "or any registered backend name",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count for --backend threads/processes (default: the "
        "schedulable CPU count)",
    )
    parser.add_argument(
        "--worker-addr",
        action="append",
        default=None,
        metavar="HOST:PORT",
        help="address of a running `repro shard-worker` (repeat once per "
        "worker; requires --backend remote)",
    )
    parser.add_argument(
        "--retrieval",
        default="exact",
        choices=("exact", "approx"),
        help="top-k retrieval mode: 'exact' scans every herb per request "
        "(default, the bit-exact oracle); 'approx' runs an int8-quantized "
        "first pass keeping candidate_factor*k survivors and re-scores them "
        "with the exact fixed-tile arithmetic, falling back to exact per "
        "request whenever the pool cannot certify k results",
    )
    parser.add_argument(
        "--candidate-factor",
        type=int,
        default=4,
        help="survivor-pool multiplier for --retrieval approx: the first "
        "pass keeps candidate-factor*k herbs per request (default: 4)",
    )
    parser.add_argument(
        "--num-lists",
        type=int,
        default=0,
        help="IVF coarse-partition size for --retrieval approx: k-means the "
        "herb embeddings into this many lists so each query scans only the "
        "--nprobe closest ones (default: 0 = full int8 scan)",
    )
    parser.add_argument(
        "--nprobe",
        type=int,
        default=1,
        help="how many IVF lists to probe per request with --num-lists "
        "(default: 1; clamped to the number of lists)",
    )


def _render(result) -> str:
    return result.to_text() if hasattr(result, "to_text") else str(result)


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        print(text)
    else:
        Path(output).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {output}")


def _parse_symptoms(raw: str, vocab):
    """Map whitespace-separated tokens (or integer ids) to symptom ids."""
    from .api import parse_symptom_tokens

    return parse_symptom_tokens(raw, vocab)


def _trainer_config(scale: str, epochs: Optional[int]):
    if epochs is None:
        return None
    from .experiments.datasets import get_profile

    return get_profile(scale).trainer_config(epochs=epochs)


def _build_pipeline(args):
    """Train a fresh pipeline for predict/serve invocations without --checkpoint."""
    from .api import Pipeline

    scale = args.scale or "smoke"
    return Pipeline(
        args.model or "SMGCN",
        scale=scale,
        seed=args.seed if args.seed is not None else 0,
        trainer_config=_trainer_config(scale, args.epochs),
        num_shards=args.shards,
        backend=args.backend,
        num_workers=args.workers,
        worker_addrs=args.worker_addr,
        retrieval=args.retrieval,
        candidate_factor=args.candidate_factor,
        num_lists=args.num_lists,
        nprobe=args.nprobe,
    ).fit()


def _format_recommendation(recommendation, herb_vocab) -> str:
    lines = []
    for rank, (herb_id, score) in enumerate(
        zip(recommendation.herb_ids, recommendation.scores), start=1
    ):
        lines.append(f"{rank:>3}. {herb_vocab.token_of(herb_id):<20} id={herb_id:<5} score={score:+.4f}")
    return "\n".join(lines)


def _check_k(args) -> Optional[int]:
    if args.k <= 0:
        print("error: --k must be a positive integer", file=sys.stderr)
        return 2
    return _check_sharding(args)


def _check_sharding(args) -> Optional[int]:
    """Validate --shards/--backend/--workers/--worker-addr before paying for model setup."""
    from .inference.backends import available_backends
    from .inference.distributed import parse_worker_addr

    if args.shards <= 0:
        print("error: --shards must be a positive integer", file=sys.stderr)
        return 2
    if args.workers is not None and args.workers <= 0:
        print("error: --workers must be a positive integer", file=sys.stderr)
        return 2
    if args.backend is not None and args.backend not in available_backends():
        print(
            f"error: unknown backend {args.backend!r}; "
            f"available: {', '.join(available_backends())}",
            file=sys.stderr,
        )
        return 2
    if args.backend == "remote" and not args.worker_addr:
        print(
            "error: --backend remote needs at least one --worker-addr "
            "(start workers with `repro shard-worker`)",
            file=sys.stderr,
        )
        return 2
    if args.worker_addr and args.backend != "remote":
        print("error: --worker-addr requires --backend remote", file=sys.stderr)
        return 2
    if args.worker_addr and args.workers is not None:
        print("error: --workers conflicts with --worker-addr (one worker per address)", file=sys.stderr)
        return 2
    for addr in args.worker_addr or []:
        try:
            parse_worker_addr(addr)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    return _check_retrieval(args)


def _check_retrieval(args) -> Optional[int]:
    """Validate --retrieval/--candidate-factor/--num-lists/--nprobe up front."""
    if args.candidate_factor < 1:
        print("error: --candidate-factor must be >= 1", file=sys.stderr)
        return 2
    if args.num_lists < 0:
        print("error: --num-lists must be >= 0", file=sys.stderr)
        return 2
    if args.nprobe < 1:
        print("error: --nprobe must be >= 1", file=sys.stderr)
        return 2
    if args.retrieval == "exact" and (
        args.candidate_factor != 4 or args.num_lists != 0 or args.nprobe != 1
    ):
        print(
            "error: --candidate-factor/--num-lists/--nprobe only take effect "
            "with --retrieval approx",
            file=sys.stderr,
        )
        return 2
    return None


def _run_models(args) -> int:
    from .experiments.datasets import experiment_split, get_profile
    from .models import MODEL_REGISTRY
    from .nn import Module

    profile = get_profile(args.scale)
    if args.json:
        import dataclasses
        import json

        records = []
        for entry in MODEL_REGISTRY.entries():
            config = entry.default_config(profile)
            records.append(
                {
                    "name": entry.name,
                    "config_class": entry.config_class.__name__,
                    "description": entry.description,
                    "default_config": (
                        dataclasses.asdict(config)
                        if dataclasses.is_dataclass(config)
                        else dict(vars(config))
                    ),
                }
            )
        # default=str: config values must never make the listing unprintable
        print(json.dumps(records, indent=2, default=str))
        return 0
    train, _ = experiment_split(args.scale)
    print(f"{'name':<18} {'config':<16} {'params':>10}  description")
    for entry in MODEL_REGISTRY.entries():
        model = entry.build(train, entry.default_config(profile))
        params = f"{model.num_parameters():,}" if isinstance(model, Module) else "n/a"
        print(f"{entry.name:<18} {entry.config_class.__name__:<16} {params:>10}  {entry.description}")
    return 0


def _print_profile_report(history) -> None:
    """Per-epoch phase timings plus a summed breakdown (``train --profile``)."""
    from .training.profiler import PHASES

    print("phase profile:")
    for profile in history.epoch_profiles:
        print(f"  {profile.summary_line()}")
    totals = {}
    for profile in history.epoch_profiles:
        for phase, seconds in profile.phase_seconds.items():
            totals[phase] = totals.get(phase, 0.0) + seconds
    overall = history.total_training_seconds()
    if overall > 0:
        breakdown = " ".join(
            f"{phase}={totals[phase] / overall:.0%}" for phase in PHASES if totals.get(phase)
        )
        print(f"  total {overall * 1e3:.1f}ms: {breakdown}")
    last = history.epoch_profiles[-1]
    if last.pool_counters:
        hits = last.pool_counters.get("hits", 0)
        acquires = last.pool_counters.get("acquires", 0)
        rate = hits / acquires if acquires else 0.0
        print(f"  gradient pool: {acquires} acquires, {rate:.0%} reuse")


def _run_train(args) -> int:
    from .api import Pipeline
    from .training import paper_trainer_config

    if args.epochs is not None and args.epochs < 0:
        print("error: --epochs must be non-negative", file=sys.stderr)
        return 2
    # fail fast on an unwritable target before paying for training
    target = Path(args.checkpoint)
    try:
        if target.parent and not target.parent.exists():
            target.parent.mkdir(parents=True, exist_ok=True)
        existed = target.exists()
        with open(target, "ab"):
            pass
        if not existed:
            target.unlink()
    except OSError as error:
        print(f"error: cannot write checkpoint {args.checkpoint}: {error}", file=sys.stderr)
        return 2
    trainer_config = None
    if args.paper_params:
        from .experiments.datasets import get_profile

        # paper lr/lambda, but keep the scale's epochs / batch schedule
        profile_config = get_profile(args.scale).trainer_config()
        overrides = {
            "epochs": profile_config.epochs if args.epochs is None else args.epochs,
            "batch_size": profile_config.batch_size,
        }
        try:
            trainer_config = paper_trainer_config(args.model, **overrides)
        except KeyError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    else:
        trainer_config = _trainer_config(args.scale, args.epochs)
    if trainer_config is not None:
        trainer_config.verbose = trainer_config.verbose or args.verbose
        trainer_config.profile = trainer_config.profile or args.profile
    try:
        pipeline = Pipeline(
            args.model, scale=args.scale, seed=args.seed, trainer_config=trainer_config
        )
    except KeyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        pipeline.fit()
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start
    try:
        path = pipeline.save(args.checkpoint)
    except (OSError, CheckpointError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if pipeline.history is not None:
        print(
            f"trained {args.model} ({args.scale}) for {pipeline.history.num_epochs} epochs "
            f"in {elapsed:.1f}s (final loss {pipeline.history.final_loss:.4f})"
        )
    else:
        print(f"fitted {args.model} ({args.scale}) in {elapsed:.1f}s")
    if args.profile and pipeline.history is not None and pipeline.history.epoch_profiles:
        _print_profile_report(pipeline.history)
    print(f"wrote {path}")
    if args.evaluate:
        result = pipeline.evaluate()
        metrics = ", ".join(f"{key}={value:.4f}" for key, value in result.metrics.items())
        print(metrics)
    return 0


def _run_predict(args) -> int:
    error = _check_k(args)
    if error is not None:
        return error
    try:
        pipeline = _load_or_none(args)
        # validate the symptom set before paying for training
        symptom_ids = _parse_symptoms(args.symptoms, _serving_vocab(args, pipeline))
        if pipeline is None:
            pipeline = _build_pipeline(args)
        try:
            recommendation = pipeline.recommend(symptom_ids, k=args.k)
        finally:
            pipeline.close()  # release backend workers / shared memory
    except (ValueError, KeyError, OSError, CheckpointError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(f"symptoms: {' '.join(pipeline.symptom_vocab.decode(symptom_ids))}")
    print(_format_recommendation(recommendation, pipeline.herb_vocab))
    return 0


def _load_or_none(args):
    """Load the checkpoint pipeline eagerly so its scale drives vocab parsing.

    Training-only flags are refused rather than silently ignored: the
    checkpoint fixes the model, seed and epochs, so a conflicting request
    would otherwise serve something different from what the user asked for.
    """
    if not args.checkpoint:
        return None
    if args.epochs is not None or args.seed is not None:
        raise ValueError("--epochs/--seed only apply when training; drop them with --checkpoint")
    from .api import Pipeline

    pipeline = Pipeline.load(
        args.checkpoint,
        scale=args.scale,
        num_shards=args.shards,
        backend=args.backend,
        num_workers=args.workers,
        worker_addrs=args.worker_addr,
        retrieval=args.retrieval,
        candidate_factor=args.candidate_factor,
        num_lists=args.num_lists,
        nprobe=args.nprobe,
    )
    if args.model is not None and args.model != pipeline.model_name:
        raise ValueError(
            f"checkpoint {args.checkpoint} holds {pipeline.model_name!r}, not {args.model!r}"
        )
    return pipeline


def _serving_vocab(args, pipeline):
    if pipeline is not None:
        return pipeline.symptom_vocab
    from .experiments.datasets import experiment_split

    train, _ = experiment_split(args.scale or "smoke")
    return train.symptom_vocab


def _parse_model_specs(models):
    """Split serve's ``--model`` values into one plain name and NAME=path specs."""
    plain = None
    specs = []
    for value in models or []:
        if "=" in value:
            name, _, path = value.partition("=")
            if not name or not path:
                raise ValueError(f"--model {value!r}: expected NAME=checkpoint.npz")
            if any(name == seen for seen, _ in specs):
                raise ValueError(f"--model names a duplicate entry {name!r}")
            specs.append((name, path))
        elif plain is not None:
            raise ValueError(
                "--model accepts one plain model name; use NAME=checkpoint.npz "
                "entries to serve several models"
            )
        else:
            plain = value
    if plain is not None and specs:
        raise ValueError(
            "--model cannot mix a plain model name with NAME=checkpoint.npz entries"
        )
    return plain, specs


def _build_catalog(args, model_specs):
    """A warmed :class:`~repro.io.catalog.ModelCatalog` for the serve command."""
    from .api import Pipeline
    from .io.catalog import ModelCatalog
    from .models.base import GraphHerbRecommender

    def warm(pipeline) -> None:
        if isinstance(pipeline.model, GraphHerbRecommender):
            pipeline.engine  # noqa: B018 — warm the propagation before traffic

    catalog = ModelCatalog()
    if not model_specs:
        pipeline = _load_or_none(args)
        if pipeline is None:
            pipeline = _build_pipeline(args)
        warm(pipeline)
        catalog.add(pipeline.model_name, pipeline, checkpoint_path=args.checkpoint)
        return catalog
    for name, path in model_specs:
        pipeline = Pipeline.load(
            path,
            scale=args.scale,
            num_shards=args.shards,
            backend=args.backend,
            num_workers=args.workers,
            worker_addrs=args.worker_addr,
            retrieval=args.retrieval,
            candidate_factor=args.candidate_factor,
            num_lists=args.num_lists,
            nprobe=args.nprobe,
        )
        warm(pipeline)
        catalog.add(name, pipeline, checkpoint_path=path)
    return catalog


def _run_serve(args) -> int:
    error = _check_k(args)
    if error is not None:
        return error
    if args.max_batch <= 0:
        print("error: --max-batch must be a positive integer", file=sys.stderr)
        return 2
    if args.max_wait_ms < 0:
        print("error: --max-wait-ms must be non-negative", file=sys.stderr)
        return 2
    if args.watch_interval <= 0:
        print("error: --watch-interval must be positive", file=sys.stderr)
        return 2
    error = _check_admission(args)
    if error is not None:
        return error
    if not 0.0 < args.canary_fraction <= 1.0:
        print("error: --canary-fraction must lie in (0, 1]", file=sys.stderr)
        return 2
    try:
        plain_model, model_specs = _parse_model_specs(args.model)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if model_specs and args.checkpoint:
        print(
            "error: --checkpoint conflicts with --model NAME=checkpoint.npz entries",
            file=sys.stderr,
        )
        return 2
    canary_spec = None
    if args.canary is not None:
        name, separator, path = args.canary.partition("=")
        if not separator or not name or not path:
            print("error: --canary expects NAME=checkpoint.npz", file=sys.stderr)
            return 2
        canary_spec = (name, path)
    # fail fast on every checkpoint path — one clear line, before any corpus
    # is built, socket bound or worker pool spawned
    from .io.checkpoint import validate_checkpoint_path

    try:
        for paths in (
            [path for _, path in model_specs],
            [canary_spec[1]] if canary_spec else [],
            [args.checkpoint] if args.checkpoint else [],
        ):
            for path in paths:
                validate_checkpoint_path(path)
    except CheckpointError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    from .io.catalog import CatalogError, CheckpointWatcher

    args.model = plain_model  # _load_or_none/_build_pipeline take one plain name
    try:
        catalog = _build_catalog(args, model_specs)
        if canary_spec is not None:
            catalog.set_canary(
                canary_spec[0], canary_spec[1], fraction=args.canary_fraction
            )
    except (ValueError, KeyError, OSError, CheckpointError, CatalogError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    from .serving import (
        CatalogControl,
        MicroBatcher,
        RecommendationHandler,
        ServerStats,
        serve_lines,
    )

    stats = ServerStats()

    def backend_info():
        # resolve per call so the topology follows the default entry's
        # *current* generation across hot reloads
        engine = catalog.entry().pipeline._engine
        return engine.backend_status() if engine is not None else {}

    stats.set_backend_info(backend_info)
    handler = RecommendationHandler(catalog, k=args.k, stats=stats)
    batcher = MicroBatcher(handler, max_batch_size=args.max_batch, stats=stats)
    watcher = None
    if args.watch:
        watch_targets = dict(model_specs)
        if args.checkpoint:
            watch_targets[catalog.default_name] = args.checkpoint
        if not watch_targets:
            print(
                "error: --watch needs checkpoint-backed entries "
                "(--checkpoint or --model NAME=checkpoint.npz)",
                file=sys.stderr,
            )
            batcher.close(drain=False)
            stats.set_backend_info(None)
            catalog.close()
            return 2
        watcher = CheckpointWatcher(catalog, interval_s=args.watch_interval)
        for name, path in watch_targets.items():
            watcher.watch(name, path)
        watcher.start()
    control = CatalogControl(catalog, watcher=watcher)
    served = ", ".join(catalog.names())
    source = args.checkpoint if args.checkpoint else (
        "checkpoint catalog" if model_specs else "trained in-process"
    )
    try:
        if args.port is not None:
            _serve_socket(args, catalog, batcher, stats, source, control)
        else:
            print(
                f"ready: {served} ({source}); one symptom set per line "
                "(model=NAME routes), blank line or EOF quits",
                file=sys.stderr,
            )
            try:
                serve_lines(sys.stdin, lambda line: print(line, flush=True), batcher)
            except KeyboardInterrupt:
                pass  # Ctrl-C: stop reading, still report stats below
    except OSError as err:  # e.g. --port already in use / privileged
        print(f"error: {err}", file=sys.stderr)
        if watcher is not None:
            watcher.stop()
        batcher.close(drain=False)
        stats.set_backend_info(None)
        catalog.close()
        return 2
    if watcher is not None:
        watcher.stop()
    batcher.close()
    # report before closing: the topology probe must not reconnect to (or
    # wait on) workers the close below is about to release
    print(stats.to_text(), file=sys.stderr)
    stats.set_backend_info(None)
    catalog.close()  # release backend workers / shared memory / sockets
    return 0


def _run_batch(args) -> int:
    error = _check_k(args)
    if error is not None:
        return error
    if args.window <= 0:
        print("error: --window must be a positive integer", file=sys.stderr)
        return 2
    if args.jobs <= 0:
        print("error: --jobs must be a positive integer", file=sys.stderr)
        return 2
    inputs = list(args.inputs) or ["-"]
    use_stdin = any(path == "-" for path in inputs)
    if use_stdin and len(inputs) > 1:
        print("error: stdin ('-') cannot combine with file inputs", file=sys.stderr)
        return 2
    if args.output is not None and args.output_dir is not None:
        print("error: --output conflicts with --output-dir", file=sys.stderr)
        return 2
    if len(inputs) > 1 and args.output_dir is None:
        print(
            "error: multiple input files need --output-dir (one result file "
            "per input)",
            file=sys.stderr,
        )
        return 2
    if use_stdin and args.output_dir is not None:
        print("error: --output-dir needs file inputs, not stdin", file=sys.stderr)
        return 2
    if use_stdin and args.jobs != 1:
        print("error: --jobs needs file inputs, not stdin", file=sys.stderr)
        return 2
    to_stdout = args.output_dir is None and (args.output is None or args.output == "-")
    if args.resume and (use_stdin or to_stdout):
        print(
            "error: --resume needs file inputs and a file --output (or "
            "--output-dir) — stdin/stdout streams have no durable watermark",
            file=sys.stderr,
        )
        return 2
    if not use_stdin:
        for path in inputs:
            if not Path(path).is_file():
                print(f"error: input {path} is not a readable file", file=sys.stderr)
                return 2
    try:
        tasks = _batch_tasks(args, inputs, use_stdin)
        plain_model, model_specs = _parse_model_specs(args.model)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if model_specs and args.checkpoint:
        print(
            "error: --checkpoint conflicts with --model NAME=checkpoint.npz entries",
            file=sys.stderr,
        )
        return 2
    from .io.checkpoint import validate_checkpoint_path

    try:
        for path in [path for _, path in model_specs] + (
            [args.checkpoint] if args.checkpoint else []
        ):
            validate_checkpoint_path(path)
    except CheckpointError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    args.model = plain_model  # _load_or_none/_build_pipeline take one plain name
    try:
        catalog = _build_catalog(args, model_specs)
    except (ValueError, KeyError, OSError, CheckpointError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        return _drive_batch(args, catalog, tasks)
    finally:
        catalog.close()  # release backend workers / shared memory / sockets


def _batch_tasks(args, inputs, use_stdin):
    """The ``(input, output)`` pairs a batch invocation streams."""
    if use_stdin:
        output = None if args.output in (None, "-") else args.output
        return [(None, output)]
    if args.output_dir is None:
        output = None if args.output in (None, "-") else args.output
        if output is not None and Path(output).resolve() == Path(inputs[0]).resolve():
            raise ValueError(f"--output {output} would overwrite the input")
        return [(inputs[0], output)]
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seen = {}
    tasks = []
    for path in inputs:
        name = Path(path).name
        if name in seen:
            raise ValueError(
                f"inputs {seen[name]} and {path} share the basename {name!r}; "
                "--output-dir needs distinct basenames"
            )
        seen[name] = path
        target = out_dir / name
        if target.resolve() == Path(path).resolve():
            raise ValueError(
                f"--output-dir {args.output_dir} would overwrite the input {path}"
            )
        tasks.append((path, target))
    return tasks


def _drive_batch(args, catalog, tasks) -> int:
    """Run the prepared tasks and report stats; 0 ok, 1 on any file failure."""
    import threading

    from .batch.runner import BatchError, BatchStats, run_batch_file, run_batch_files

    progress_lock = threading.Lock()
    last_report = [time.monotonic()]

    def progress(stats) -> None:
        with progress_lock:
            now = time.monotonic()
            if now - last_report[0] < 5.0:
                return
            last_report[0] = now
        print(
            f"progress: {stats.records} records, {stats.records_per_s:.1f} rec/s",
            file=sys.stderr,
            flush=True,
        )

    if len(tasks) == 1 and (tasks[0][0] is None or tasks[0][1] is None):
        # stdin and/or stdout endpoints — single stream, no work queue
        input_path, output_path = tasks[0]
        try:
            stats = run_batch_file(
                catalog,
                input_path,
                output_path,
                window=args.window,
                default_k=args.k,
                resume=args.resume,
                progress=progress,
            )
        except BatchError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        print(stats.to_text(), file=sys.stderr)
        return 0
    results = run_batch_files(
        catalog,
        tasks,
        jobs=args.jobs,
        window=args.window,
        default_k=args.k,
        resume=args.resume,
        progress=progress,
    )
    total = BatchStats()
    failed = False
    for result in results:
        if result.failed:
            failed = True
            print(f"error: {result.input_path}: {result.error}", file=sys.stderr)
        else:
            total.merge(result.stats)
            if len(results) > 1:
                print(
                    f"{result.input_path} -> {result.output_path}: "
                    f"{result.stats.to_text()}",
                    file=sys.stderr,
                )
    print(total.to_text(), file=sys.stderr)
    return 1 if failed else 0


def _check_admission(args) -> Optional[int]:
    """Validate the TCP front-end's admission knobs before any setup."""
    knobs = (
        ("--max-connections", args.max_connections),
        ("--max-pending", args.max_pending),
        ("--client-quota", args.client_quota),
    )
    explicit = [name for name, value in knobs if value is not None]
    if args.idle_timeout is not None:
        explicit.append("--idle-timeout")
    if explicit and args.port is None:
        print(
            f"error: {'/'.join(explicit)} only take effect with --port",
            file=sys.stderr,
        )
        return 2
    for name, value in knobs:
        if value is not None and value <= 0:
            print(f"error: {name} must be a positive integer", file=sys.stderr)
            return 2
    if args.idle_timeout is not None and args.idle_timeout < 0:
        print("error: --idle-timeout must be non-negative (0 disables)", file=sys.stderr)
        return 2
    return None


def _wait_for_shutdown_signal() -> None:
    """Block until SIGINT/SIGTERM (or KeyboardInterrupt under a test runner)."""
    import signal
    import threading

    shutdown = threading.Event()
    previous = {}
    try:
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(signum, lambda *_: shutdown.set())
    except ValueError:
        pass  # not the main thread (e.g. under a test runner) — rely on KeyboardInterrupt
    try:
        while not shutdown.is_set():
            shutdown.wait(0.5)
    except KeyboardInterrupt:
        pass
    finally:
        for signum, old_handler in previous.items():
            signal.signal(signum, old_handler)


def _serve_socket(args, catalog, batcher, stats, source, control) -> None:
    """Run the TCP front-end until SIGINT/SIGTERM requests a shutdown."""
    from .serving import AdmissionController, AsyncSocketServer

    admission = AdmissionController(
        max_connections=args.max_connections if args.max_connections is not None else 1024,
        max_pending=args.max_pending if args.max_pending is not None else 1024,
        client_quota=args.client_quota if args.client_quota is not None else 32,
        idle_timeout_s=args.idle_timeout if args.idle_timeout is not None else 300.0,
    )
    server = AsyncSocketServer(
        batcher,
        stats=stats,
        host=args.host,
        port=args.port,
        control=control.handle,
        admission=admission,
    ).start()
    host, port = server.address
    print(
        f"listening on {host}:{port} ({', '.join(catalog.names())}; {source}); "
        "one symptom set per line (model=NAME routes), 'stats'/'models'/'reload' "
        "control lines, SIGINT/SIGTERM to stop",
        file=sys.stderr,
        flush=True,
    )
    try:
        _wait_for_shutdown_signal()
    finally:
        server.stop()


def _run_shard_worker(args) -> int:
    """Run one model-free shard-scoring worker until SIGINT/SIGTERM."""
    from .inference.distributed import ShardWorkerServer

    try:
        server = ShardWorkerServer(host=args.host, port=args.port).start()
    except OSError as err:  # e.g. --port already in use / privileged
        print(f"error: {err}", file=sys.stderr)
        return 2
    host, port = server.address
    print(
        f"shard-worker listening on {host}:{port}; weights arrive as snapshots, "
        "'stats' for counters, SIGINT/SIGTERM to stop",
        file=sys.stderr,
        flush=True,
    )
    try:
        _wait_for_shutdown_signal()
    finally:
        server.stop()
    print(server.stats.to_text(), file=sys.stderr)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for experiment_id, spec in EXPERIMENTS.items():
            print(f"{experiment_id:<8} {spec.title} [{spec.paper_section}] — {spec.expected_shape}")
        return 0
    if args.command == "models":
        return _run_models(args)
    if args.command == "run":
        result = run_experiment(args.experiment, scale=args.scale)
        _emit(_render(result), args.output)
        return 0
    if args.command == "all":
        sections = []
        for experiment_id, spec in EXPERIMENTS.items():
            start = time.perf_counter()
            result = run_experiment(experiment_id, scale=args.scale)
            elapsed = time.perf_counter() - start
            print(f"finished {experiment_id} in {elapsed:.1f}s", file=sys.stderr)
            sections.append(f"[{experiment_id}] {spec.title}\n{_render(result)}")
        _emit("\n\n".join(sections), args.output)
        return 0
    if args.command == "train":
        return _run_train(args)
    if args.command == "predict":
        return _run_predict(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "batch":
        return _run_batch(args)
    if args.command == "shard-worker":
        return _run_shard_worker(args)
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
