"""``serve-default``: the real ``repro serve`` socket server, driven open-loop.

A ``default``-profile SMGCN is trained and checkpointed first (input
generation, not timed).  Each set-up starts ``python -m repro serve`` on that
checkpoint and is timed from process start to its ``listening`` line.  One
generator thread with two pipelined connections then sends symptom sets
drawn from the train split: rounds of three fixed-rate open-loop phases and
one closed-loop saturation phase, then a ladder of offered rates for the
highest rate that meets the latency limit (``max_rps``).
"""

from __future__ import annotations

import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from benchstats import knee_rate, median, percentile, timing_summary, trial_tail
from common import SETUP_REPEATS, Context, Outcome, oracle_topk
from openloop import PhaseResult, poisson_schedule, query_stats, run_phase, run_saturation
from runmeta import peak_rss_mb

#: Fixed offered rates (requests/s) of the three latency phases.
RATES = {"low": 200.0, "mid": 2000.0, "high": 4000.0}
#: The fixed phases run interleaved, one of each per round, so each phase
#: samples the host's load across the whole run rather than one stretch of it.
ROUNDS = 10
#: Share of ``--seconds`` each fixed phase runs per round: one ``high`` round
#: holds >= 1000 requests, enough for its own p99 (>= 10 samples beyond).
PHASE_SHARE = {"low": 0.025, "mid": 0.0125, "high": 0.015}
#: Rounds of ``low`` and ``high`` per server in the traced run (untraced, then traced).
TRACE_ROUNDS = 4
#: Each round ends with a closed-loop phase at saturation of this share of
#: ``--seconds``: every connection keeps this many requests in flight, so the
#: batcher always has full batches.  Its rate of correct answers per 50 ms
#: window, median over every window of every round, is ``throughput_per_s``.
SATURATION_SHARE = 0.015
SATURATION_INFLIGHT = 128
#: Upper bound on the saturation rate, only to size the pre-drawn request list.
SATURATION_CAP_RPS = 40_000
#: ``max_rps`` ladder: offered rates, rounds over the ladder and the share of
#: ``--seconds`` one rung runs per round (>= 1000 requests at the lowest
#: rate, for a p99).  A round stops climbing after :data:`STOP_AFTER`
#: consecutive rungs miss the limit; rounds after the first start
#: :data:`KNEE_MARGIN` rungs below the first round's highest pass.
LADDER = tuple(round(4000.0 * 1.15 ** step) for step in range(10))
LADDER_ROUNDS = 3
RUNG_SHARE = 0.02
STOP_AFTER = 2
KNEE_MARGIN = 2
#: Shortest phase, so short ``--seconds`` runs still fill a saturation window or two.
MIN_PHASE_S = 0.2
#: ``max_rps`` limit on the p99 due-time latency (a failed request misses it).
LATENCY_LIMIT_S = 0.050
TRAIN_EPOCHS = 20
K = 10
#: The server's admission limits are raised so two connections can carry many
#: users' traffic: the default per-connection quota (32 in flight) would
#: otherwise shed requests and cap the measured capacity at the quota.
SERVER_ARGS = [
    "--max-batch", "64", "--max-wait-ms", "5", "--k", str(K),
    "--client-quota", "8192", "--max-pending", "8192", "--max-connections", "64",
]
LISTENING = re.compile(r"listening on ([\d.]+):(\d+)")


class Server:
    """One ``repro serve`` subprocess; ``ready_s`` is its start-to-listening time."""

    def __init__(self, ctx: Context, checkpoint: Path, spans: Optional[Path] = None) -> None:
        if spans is None:
            cmd = [sys.executable, "-m", "repro", "serve"]
        else:
            cmd = [sys.executable, str(ctx.root / "perfbench" / "serve_launcher.py"), str(spans), "serve"]
        cmd += ["--checkpoint", str(checkpoint), "--port", "0"] + SERVER_ARGS
        self._ready = threading.Event()
        self._stderr: List[str] = []
        self.address: Optional[Tuple[str, int]] = None
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=str(ctx.root), env=ctx.python_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        if not self._ready.wait(120.0) or self.address is None:
            self.stop()
            raise RuntimeError("server did not start:\n" + "".join(self._stderr[-20:]))
        self.ready_s = self._ready_at - started

    def _read(self) -> None:
        assert self.proc.stderr is not None
        for line in self.proc.stderr:
            self._stderr.append(line)
            match = LISTENING.search(line)
            if match and not self._ready.is_set():
                self._ready_at = time.perf_counter()
                self.address = (match.group(1), int(match.group(2)))
                self._ready.set()
        self._ready.set()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(30.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(10.0)
        self._reader.join(10.0)
        return self.proc.returncode


def _prepare(ctx: Context):
    """Train and checkpoint the model; build the request pool and its oracle answers."""
    from repro.api import Pipeline
    from repro.experiments.datasets import experiment_split, get_profile

    profile = get_profile("default")
    checkpoint = ctx.workdir / "serve-default.npz"
    trainer = profile.trainer_config(epochs=TRAIN_EPOCHS, seed=ctx.seed)
    Pipeline("SMGCN", scale="default", seed=ctx.seed, trainer_config=trainer).fit().save(checkpoint)
    loaded = Pipeline.load(checkpoint)
    train, _ = experiment_split("default")
    sets = sorted({tuple(sorted(set(s))) for s in train.symptom_sets()})
    lines = [" ".join(loaded.symptom_vocab.token_of(s) for s in ids).encode() for ids in sets]
    scores = loaded.model.score_sets(sets)
    top = oracle_topk(scores, K)
    vocab = loaded.herb_vocab
    expected = [" ".join(vocab.token_of(int(h)) for h in row).encode() for row in top]
    return checkpoint, lines, expected


def _length(ctx: Context, share: float) -> float:
    """A phase's length: its share of ``--seconds``, at least :data:`MIN_PHASE_S`."""
    return max(share * ctx.seconds, MIN_PHASE_S)


def _counted(server: Server, run) -> Tuple[object, Dict[str, float]]:
    """Run one phase between two ``stats`` queries; returns its result and the counter deltas."""
    before = query_stats(server.address)
    result = run()
    after = query_stats(server.address)
    delta = {key: after.get(key, 0.0) - before.get(key, 0.0)
             for key in ("requests", "errors", "batches", "rejected_overload", "rejected_quota")}
    return result, delta


def _phase(server: Server, lines, expected, rate: float, duration: float, rng,
           keep: bool = False) -> Tuple[PhaseResult, Dict[str, float]]:
    """One open-loop phase at ``rate`` on a seeded Poisson schedule."""
    due = poisson_schedule(rate, duration, rng)
    choice = rng.integers(len(lines), size=len(due))
    return _counted(server, lambda: run_phase(server.address, lines, expected, choice, due,
                                              duration, keep_exchanges=keep))


def _saturate(server: Server, lines, expected, duration: float, rng):
    """One closed-loop phase at saturation; returns (result, window rates), deltas."""
    choice = rng.integers(len(lines), size=int(duration * SATURATION_CAP_RPS) + 2 * SATURATION_INFLIGHT)
    return _counted(server, lambda: run_saturation(server.address, lines, expected, choice, duration,
                                                   inflight=SATURATION_INFLIGHT))


def _phase_line(name: str, result: PhaseResult, delta: Dict[str, float]) -> str:
    lat = [x * 1e3 for x in result.latencies_s]
    late = [x * 1e3 for x in result.lateness_s] or [float("nan")]
    batch = delta["requests"] / delta["batches"] if delta["batches"] else 0.0
    return (f"phase {name:<9} offered={result.rate:8.1f}/s sent={result.attempted} ok={result.succeeded} "
            f"failed={result.failed} shed={result.shed} wrong={result.wrong} "
            f"p50={percentile(lat, 50):.3f}ms p99={percentile(lat, 99):.3f}ms "
            f"late_p50={percentile(late, 50):.3f}ms late_p99={percentile(late, 99):.3f}ms "
            f"backlog={result.backlog} mean_batch={batch:.2f} valid={result.valid}")


def run(ctx: Context) -> Outcome:
    checkpoint, lines, expected = _prepare(ctx)
    rng = np.random.default_rng(ctx.seed)
    if ctx.trace:
        return _run_traced(ctx, checkpoint, lines, expected, rng)
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        server = Server(ctx, checkpoint)
        setups.append(server.ready_s)
        server.stop()
    server = Server(ctx, checkpoint)
    setups.append(server.ready_s)
    outcome = Outcome(metrics={}, attempted=0, failed=0, correct=True)
    phases: Dict[str, List[PhaseResult]] = {name: [] for name in RATES}
    saturation: List[float] = []
    rungs: Dict[float, List[Tuple[float, bool]]] = {rate: [] for rate in LADDER}
    try:
        for round_index in range(ROUNDS):
            for name, rate in RATES.items():
                result, delta = _phase(server, lines, expected, rate,
                                       _length(ctx, PHASE_SHARE[name]), rng)
                _account(outcome, f"{name}.{round_index}", result, delta)
                if result.valid:
                    phases[name].append(result)  # a late generator's phase is not reported
            (result, rates), delta = _saturate(server, lines, expected,
                                               _length(ctx, SATURATION_SHARE), rng)
            _account(outcome, f"saturate.{round_index}", result, delta)
            saturation.extend(rates)
        rss = server.peak_rss_mb()
        knee = 0
        for round_index in range(LADDER_ROUNDS):
            # the first round climbs from the bottom; later ones start just
            # below the highest rung it passed, where the knee is
            first = 0 if round_index == 0 else max(0, knee - KNEE_MARGIN)
            misses = 0
            for index in range(first, len(LADDER)):
                rate = LADDER[index]
                result, delta = _phase(server, lines, expected, rate, _length(ctx, RUNG_SHARE), rng)
                _account(outcome, f"rung{rate:.0f}.{round_index}", result, delta)
                tail, ok = trial_tail(result.latencies_s, result.failed + result.shed + result.wrong,
                                      result.backlog, max_backlog=int(rate * LATENCY_LIMIT_S))
                ok = ok and result.valid
                rungs[rate].append((tail, ok))
                if ok and tail <= LATENCY_LIMIT_S:
                    misses = 0
                    if round_index == 0:
                        knee = index
                else:
                    misses += 1
                    if misses >= STOP_AFTER:
                        break
    finally:
        code = server.stop()
    if code != 0:
        outcome.errors.append(f"server exited with code {code}")
    max_rps = knee_rate(list(rungs.items()), LATENCY_LIMIT_S)
    for name, results in phases.items():
        if not results:
            raise RuntimeError(f"every {name} phase was invalid: the generator fell behind")
    pooled = {name: [x * 1e3 for r in results for x in r.latencies_s]
              for name, results in phases.items()}
    high_tails = [percentile(r.latencies_s, 99.0) * 1e3 for r in phases["high"]]
    outcome.metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        "throughput_per_s": median(saturation),
        "lat_p50_ms": percentile(pooled["low"], 50.0),
    }
    named: Dict[str, object] = {"max_rps": max_rps, "saturation_windows": len(saturation),
                                "lat_p99_ms.high_round_median": median(high_tails)}
    for name, ms in pooled.items():
        summary = timing_summary(ms)
        named[f"lat_p50_ms.{name}"] = summary["p50"]
        named[f"lat_p99_ms.{name}"] = percentile(ms, 99.0)
        named[f"samples.{name}"] = summary["n"]
        named[f"valid_rounds.{name}"] = len(phases[name])
        named[f"tail_percentile.{name}"] = summary.get("tail_p")
    outcome.details.update({
        "setup_s": setups,
        "workload_metrics": named,
        "lat_tail_ms.high_per_round": high_tails,
        "max_rps_ladder_p99_ms": {f"{rate:.0f}": [(t * 1e3, ok) for t, ok in tails]
                                  for rate, tails in rungs.items()},
    })
    outcome.report.append("max_rps ladder (p99 ms per round, * = failed criteria): " + "; ".join(
        f"{rate:.0f}: " + " ".join(f"{tail * 1e3:.1f}{'' if ok else '*'}" for tail, ok in tails)
        for rate, tails in rungs.items() if tails))
    outcome.report.append(f"max_rps = {max_rps:.1f}/s at p99 <= {LATENCY_LIMIT_S * 1e3:.0f} ms")
    return outcome


def _account(outcome: Outcome, name: str, result: PhaseResult, delta: Dict[str, float]) -> None:
    outcome.attempted += result.attempted
    outcome.failed += result.failed + result.shed + result.wrong
    outcome.report.append(_phase_line(name, result, delta))
    phases = outcome.details.setdefault("phases", {})
    phases[name] = {
        "offered_rps": result.rate, "sent": result.attempted, "succeeded": result.succeeded,
        "failed": result.failed, "shed": result.shed, "wrong": result.wrong,
        "backlog": result.backlog, "valid": result.valid,
        "lateness_ms_p50": percentile(result.lateness_s, 50) * 1e3 if result.lateness_s else None,
        "lateness_ms_p99": percentile(result.lateness_s, 99) * 1e3 if result.lateness_s else None,
        "server": delta,
    }
    if result.wrong:
        outcome.correct = False
        line, want, got = result.first_wrong
        outcome.errors.append(f"{name}: {result.wrong} answers differ from the oracle; "
                              f"first: {line!r} -> {got!r}, expected {want!r}")
    answered_errors = int(delta["errors"])
    if int(delta["requests"]) != result.succeeded + result.wrong + answered_errors:
        outcome.correct = False
        outcome.errors.append(
            f"{name}: server counted {delta['requests']:.0f} requests; client saw "
            f"{result.succeeded + result.wrong} answers plus {answered_errors} error answers")
    if int(delta["rejected_overload"] + delta["rejected_quota"]) != result.shed:
        outcome.correct = False
        outcome.errors.append(f"{name}: server shed {delta['rejected_overload'] + delta['rejected_quota']:.0f}, "
                              f"client saw {result.shed} overloaded answers")


def _run_traced(ctx: Context, checkpoint: Path, lines, expected, rng) -> Outcome:
    """Untraced then traced server on the same schedule; per-layer metrics from the traced one."""
    from layers import per_layer_metrics
    from tracing import format_layer_table, layer_table, load_spans

    outcome = Outcome(metrics={}, attempted=0, failed=0, correct=True)
    p50 = {}
    client: List[Tuple[str, float, float]] = []
    counted = {"requests": 0.0, "batches": 0.0}
    spans_path = ctx.spans_path
    for traced in (False, True):
        server = Server(ctx, checkpoint, spans=spans_path if traced else None)
        schedule = np.random.default_rng(ctx.seed + 1)
        low_ms: List[float] = []
        try:
            for round_index in range(TRACE_ROUNDS):
                for name in ("low", "high"):
                    result, delta = _phase(server, lines, expected, RATES[name],
                                           _length(ctx, PHASE_SHARE[name]), schedule, keep=traced)
                    _account(outcome, f"{name}.{round_index}{'.traced' if traced else ''}", result, delta)
                    if name == "low":
                        low_ms.extend(x * 1e3 for x in result.latencies_s)
                    if traced:
                        client.extend(result.exchanges)
                        for key in counted:
                            counted[key] += delta[key]
        finally:
            code = server.stop()
        if code != 0:
            outcome.errors.append(f"server exited with code {code}")
        p50[traced] = percentile(low_ms, 50.0)
    spans, _ = load_spans(str(spans_path))
    overhead = (p50[True] - p50[False]) / p50[False] * 100.0
    outcome.metrics = per_layer_metrics(spans, client=client, overhead_pct=overhead)
    table = layer_table(spans)
    outcome.report.extend(format_layer_table(table))
    stats_batch = counted["requests"] / counted["batches"] if counted["batches"] else 0.0
    outcome.report.append(f"cross-check batcher.batch_size: spans={outcome.metrics['batcher.batch_size']:.2f} "
                          f"stats mean_batch={stats_batch:.2f}")
    outcome.report.append(f"tracing overhead: lat_p50_ms.low untraced={p50[False]:.3f} "
                          f"traced={p50[True]:.3f} ({overhead:+.1f}%)")
    outcome.details.update({"spans": len(spans), "layers": table, "stats_mean_batch": stats_batch,
                            "lat_p50_ms.low": {"untraced": p50[False], "traced": p50[True]}})
    return outcome
