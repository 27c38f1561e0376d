"""The benchmark's own arithmetic: percentiles, self time, open-loop latency, the rate knee.

Everything here is pure (no I/O, no clock) so ``test_perfbench_arith.py`` can
pin it down exactly.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

#: Percentiles a timing may be reported at, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10
#: ``max_rps``: the largest share of a trial's requests that may fail.
MAX_FAILED_SHARE = 0.001


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``p``% at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must lie in (0, 100], got {p}")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``p`` percentile."""
    return n - max(1, math.ceil(p / 100.0 * n - 1e-9))


def tail_percentile(n: int) -> Optional[float]:
    """The highest candidate percentile with at least :data:`MIN_BEYOND` samples beyond it."""
    for p in TAIL_CANDIDATES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def median(values: Sequence[float]) -> float:
    """The middle value (mean of the two middle values for an even count)."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def timing_summary(values: Sequence[float]) -> dict:
    """Median plus the highest percentile with >= 10 samples beyond it, with the count."""
    n = len(values)
    summary = {"n": n, "p50": median(values) if n else float("nan")}
    tail = tail_percentile(n)
    if tail is not None:
        summary["tail_p"] = tail
        summary["tail"] = percentile(values, tail)
    return summary


def covered_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals`` (clipped to it)."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for start, end in intervals if end > lo and start < hi
    )
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for start, end in clipped:
        if end <= start:
            continue
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float, children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part of its interval its child spans cover."""
    return (end - start) - covered_length(children, start, end)


def due_latencies(
    due: Sequence[float], done: Sequence[Optional[float]]
) -> List[float]:
    """Open-loop latency per request, timed from when it was *due* to be sent.

    ``done`` holds each request's completion time, ``None`` for one that never
    completed; those become ``inf`` so they miss every latency limit.
    """
    if len(due) != len(done):
        raise ValueError("due and done must have one entry per request")
    return [math.inf if end is None else end - start for start, end in zip(due, done)]


def trial_tail(
    latencies_s: Sequence[float], failed: int, backlog: int, max_backlog: int
) -> Tuple[float, bool]:
    """One ``max_rps`` trial: its tail latency and whether its other criteria held.

    ``latencies_s`` holds one due-time latency per attempted request, failed
    or shed ones as ``inf`` (so they miss any limit).  The tail is the p99;
    the criteria fail when more than :data:`MAX_FAILED_SHARE` of attempts
    failed or the backlog left when sending stopped exceeds ``max_backlog``
    (a growing queue).
    """
    if not latencies_s:
        return math.inf, False
    ok = failed <= MAX_FAILED_SHARE * len(latencies_s) and backlog <= max_backlog
    return percentile(latencies_s, 99.0), ok


def knee_rate(
    rungs: Sequence[Tuple[float, Sequence[Tuple[float, bool]]]], limit: float
) -> float:
    """Highest offered rate whose median tail latency meets ``limit``, interpolated.

    ``rungs`` holds ``(offered_rate, [(tail_latency, ok), ...])`` with one
    pair per round that ran the rung; ``ok`` is false when the round failed
    its other criteria (errors, growing backlog, generator behind), which
    counts as missing the limit.  The base is the highest rung whose median
    over its rounds meets the limit; the answer moves from there toward the
    next rung by where ``limit`` falls between the two rungs' median tail
    latencies on a log scale.  Returns 0.0 when no rung meets the limit.
    """
    ladder = []
    for rate, rounds in sorted(rungs):
        judged = [tail if ok else math.inf for tail, ok in rounds]
        raw = [tail for tail, _ in rounds]
        ladder.append((rate, median(judged) if judged else math.inf,
                       median(raw) if raw else math.inf))
    passing = [index for index, (_, judged, _) in enumerate(ladder) if judged <= limit]
    if not passing:
        return 0.0
    base = passing[-1]
    rate, value, _ = ladder[base]
    if base + 1 == len(ladder):
        return rate
    next_rate, _, next_raw = ladder[base + 1]
    if not math.isfinite(next_raw) or next_raw <= limit or value <= 0:
        return rate
    share = (math.log(limit) - math.log(value)) / (math.log(next_raw) - math.log(value))
    return rate * (next_rate / rate) ** share
