"""Open-loop load generator for the line protocol: one thread, a few pipelined connections.

Requests are due on a seeded Poisson schedule and are written when due,
whether or not earlier ones were answered; each is timed from when it was
*due*, so a stall is charged to every request that waited behind it.  How
late the generator itself ran (written minus due) is reported separately so
a phase where the generator fell behind can be marked invalid.
"""

from __future__ import annotations

import collections
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from benchstats import due_latencies, percentile

OVERLOADED = b"error: overloaded"
#: A phase is valid only if the generator's median lateness stays below this.
MAX_LATENESS_P50_S = 0.001
#: ... and its 99th percentile lateness stays below this.
MAX_LATENESS_P99_S = 0.050
#: Within this long of the next due time the generator stops blocking in epoll ...
SPIN_WINDOW_S = 0.0015
#: ... and naps at most this long between socket polls instead.
NAP_S = 0.0002
#: Connections the generator spreads its requests over.
CONNECTIONS = 2
#: How long a phase waits for its last answers once sending has stopped.
DRAIN_TIMEOUT_S = 5.0
#: Width of the windows the saturation phase counts answers in.
WINDOW_S = 0.05


def poisson_schedule(rate: float, duration_s: float, rng: np.random.Generator) -> np.ndarray:
    """Due offsets (seconds from the phase start) of a Poisson arrival process."""
    expected = int(rate * duration_s * 1.2) + 16
    gaps = rng.exponential(1.0 / rate, size=expected)
    due = np.cumsum(gaps)
    while due[-1] < duration_s:  # rare: draw more arrivals
        more = np.cumsum(rng.exponential(1.0 / rate, size=expected)) + due[-1]
        due = np.concatenate([due, more])
    return due[due < duration_s]


@dataclass
class PhaseResult:
    rate: float
    duration_s: float
    attempted: int
    succeeded: int
    failed: int  #: answered with an error other than shedding, or never answered
    shed: int  #: answered ``error: overloaded``
    wrong: int  #: answered with a herb list that differs from the oracle
    latencies_s: List[float]  #: due-time latency per attempt; inf if not succeeded
    lateness_s: List[float]  #: written minus due, per attempt written
    backlog: int  #: requests unanswered when the last one was written
    #: ``(line, written, answered)`` per succeeded request, in send order
    exchanges: List[Tuple[str, float, float]] = field(default_factory=list, repr=False)
    first_wrong: Optional[Tuple[str, str, str]] = None

    @property
    def valid(self) -> bool:
        if not self.lateness_s:
            return False
        return (percentile(self.lateness_s, 50.0) <= MAX_LATENESS_P50_S
                and percentile(self.lateness_s, 99.0) <= MAX_LATENESS_P99_S)


def run_phase(
    address: Tuple[str, int],
    lines: Sequence[bytes],
    expected: Sequence[bytes],
    choice: np.ndarray,
    due: np.ndarray,
    duration_s: float,
    keep_exchanges: bool = False,
) -> PhaseResult:
    """Send ``lines[choice[i]]`` at ``due[i]`` and check each answer against ``expected``."""
    n = len(due)
    socks = []
    selector = selectors.DefaultSelector()
    for index in range(CONNECTIONS):
        sock = socket.create_connection(address)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        selector.register(sock, selectors.EVENT_READ, index)
        socks.append(sock)
    payloads = [lines[c] + b"\n" for c in choice]
    outbuf = [bytearray() for _ in socks]
    # (cumulative end byte, request) per connection, for requests not yet fully written
    unsent: List["collections.deque[Tuple[int, int]]"] = [collections.deque() for _ in socks]
    queued_bytes = [0] * len(socks)
    written_bytes = [0] * len(socks)
    waiting: List["collections.deque[int]"] = [collections.deque() for _ in socks]
    rbuf = [b""] * len(socks)
    written = [0.0] * n
    done: List[Optional[float]] = [None] * n
    answer: List[Optional[bytes]] = [None] * n
    backlog = -1
    answered = 0
    clock = time.perf_counter
    start = clock() + 0.010
    due_abs = due + start
    deadline = start + duration_s + DRAIN_TIMEOUT_S
    i = 0
    try:
        while True:
            now = clock()
            while i < n and due_abs[i] <= now:
                conn = i % len(socks)
                outbuf[conn] += payloads[i]
                queued_bytes[conn] += len(payloads[i])
                unsent[conn].append((queued_bytes[conn], i))
                waiting[conn].append(i)
                i += 1
            pending_write = False
            for conn, sock in enumerate(socks):
                if not outbuf[conn]:
                    continue
                try:
                    sent = sock.send(outbuf[conn])
                except BlockingIOError:
                    sent = 0
                if sent:
                    del outbuf[conn][:sent]
                    written_bytes[conn] += sent
                    stamp = clock()
                    queue = unsent[conn]
                    while queue and queue[0][0] <= written_bytes[conn]:
                        written[queue.popleft()[1]] = stamp
                pending_write = pending_write or bool(outbuf[conn])
            if i >= n and backlog < 0 and not pending_write:
                backlog = i - answered
            if i >= n and answered >= n:
                break
            now = clock()
            if now > deadline:
                break
            # epoll rounds its timeout up to whole milliseconds, so wait on the
            # sockets only until shortly before the next due time, then nap in
            # short slices (polling the sockets in between) to send on time
            timeout = due_abs[i] - now if i < n else 0.01
            if pending_write or timeout < SPIN_WINDOW_S:
                timeout = 0.0
            elif i < n:
                timeout -= SPIN_WINDOW_S
            events = selector.select(timeout)
            if not events and i < n and not pending_write:
                nap = due_abs[i] - clock()
                if 0.0 < nap < SPIN_WINDOW_S:
                    time.sleep(min(nap, NAP_S))
            for key, _ in events:
                conn = key.data
                try:
                    data = socks[conn].recv(1 << 18)
                except BlockingIOError:
                    continue
                stamp = clock()
                if not data:
                    selector.unregister(socks[conn])
                    continue
                parts = (rbuf[conn] + data).split(b"\n")
                rbuf[conn] = parts.pop()
                for line in parts:
                    request = waiting[conn].popleft()
                    done[request] = stamp
                    answer[request] = line
                    answered += 1
    finally:
        selector.close()
        for sock in socks:
            sock.close()
    tally = _classify(lines, expected, choice, answer, done, written if keep_exchanges else None)
    return PhaseResult(
        rate=float(n / duration_s) if duration_s else 0.0,
        duration_s=duration_s,
        attempted=n,
        latencies_s=due_latencies(list(due_abs), tally.pop("ok_done")),
        lateness_s=[written[r] - due_abs[r] for r in range(n) if written[r]],
        backlog=backlog if backlog >= 0 else i - answered,
        **tally,
    )


def _classify(lines, expected, choice, answer, done, written) -> dict:
    """Sort answers into succeeded / failed / shed / wrong against the oracle."""
    succeeded = failed = shed = wrong = 0
    first_wrong = None
    exchanges: List[Tuple[str, float, float]] = []
    ok_done: List[Optional[float]] = []
    for request, line in enumerate(answer):
        expect = expected[choice[request]]
        if line == expect:
            succeeded += 1
            ok_done.append(done[request])
            if written is not None:
                exchanges.append((lines[choice[request]].decode(), written[request], done[request]))
            continue
        ok_done.append(None)
        if line is not None and line.startswith(OVERLOADED):
            shed += 1
        elif line is None or line.startswith(b"error"):
            failed += 1
        else:
            wrong += 1
            if first_wrong is None:
                first_wrong = (lines[choice[request]].decode(), expect.decode(), line.decode())
    return {"succeeded": succeeded, "failed": failed, "shed": shed, "wrong": wrong,
            "first_wrong": first_wrong, "exchanges": exchanges, "ok_done": ok_done}


def run_saturation(
    address: Tuple[str, int],
    lines: Sequence[bytes],
    expected: Sequence[bytes],
    choice: np.ndarray,
    duration_s: float,
    inflight: int,
) -> Tuple[PhaseResult, List[float]]:
    """Closed loop at saturation: keep ``inflight`` requests outstanding per connection.

    Each answer is replaced by a new request on the same connection until
    ``duration_s`` has passed.  Returns the phase result (latency timed from
    writing) and the rate of correct answers (per second) in each
    :data:`WINDOW_S` window of the run after the first, which pays for priming.
    """
    n = len(choice)
    socks = []
    selector = selectors.DefaultSelector()
    for index in range(CONNECTIONS):
        sock = socket.create_connection(address, timeout=DRAIN_TIMEOUT_S)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        selector.register(sock, selectors.EVENT_READ, index)
        socks.append(sock)
    waiting: List["collections.deque[int]"] = [collections.deque() for _ in socks]
    rbuf = [b""] * len(socks)
    written = [0.0] * n
    done: List[Optional[float]] = [None] * n
    answer: List[Optional[bytes]] = [None] * n
    clock = time.perf_counter
    sent = 0

    def send(conn: int, count: int) -> None:
        nonlocal sent
        count = min(count, n - sent)
        if count <= 0:
            return
        batch = range(sent, sent + count)
        socks[conn].sendall(b"".join(lines[choice[r]] + b"\n" for r in batch))
        stamp = clock()
        for request in batch:
            written[request] = stamp
            waiting[conn].append(request)
        sent += count

    start = clock()
    stop = start + duration_s
    try:
        for conn in range(len(socks)):
            send(conn, inflight)
        while any(waiting) and clock() < stop + DRAIN_TIMEOUT_S:
            for key, _ in selector.select(0.05):
                conn = key.data
                data = socks[conn].recv(1 << 18)
                stamp = clock()
                if not data:
                    selector.unregister(socks[conn])
                    continue
                parts = (rbuf[conn] + data).split(b"\n")
                rbuf[conn] = parts.pop()
                for line in parts:
                    request = waiting[conn].popleft()
                    done[request] = stamp
                    answer[request] = line
                if stamp < stop:
                    send(conn, len(parts))
    finally:
        selector.close()
        for sock in socks:
            sock.close()
    tally = _classify(lines, expected, choice[:sent], answer[:sent], done, None)
    ok_done = tally.pop("ok_done")
    windows = [0] * max(1, int(duration_s / WINDOW_S))
    for stamp in ok_done:
        if stamp is not None and start <= stamp < start + len(windows) * WINDOW_S:
            windows[int((stamp - start) / WINDOW_S)] += 1
    result = PhaseResult(
        rate=sent / duration_s,
        duration_s=duration_s,
        attempted=sent,
        latencies_s=due_latencies(written[:sent], ok_done),
        lateness_s=[0.0] * sent,
        backlog=0,
        **tally,
    )
    return result, [count / WINDOW_S for count in windows[1:]]


def query_stats(address: Tuple[str, int], timeout_s: float = 5.0) -> Dict[str, float]:
    """The server's ``stats`` control line, parsed into numeric ``key=value`` pairs."""
    with socket.create_connection(address, timeout=timeout_s) as sock:
        sock.sendall(b"stats\n")
        data = b""
        while not data.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    values: Dict[str, float] = {}
    for token in data.decode().split():
        key, sep, raw = token.partition("=")
        if not sep:
            continue
        try:
            values[key] = float(raw)
        except ValueError:
            continue
    return values
