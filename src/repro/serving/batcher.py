"""Micro-batching request aggregator — many producers, one scoring call.

:class:`MicroBatcher` queues requests submitted from any number of threads and
flushes them through a single handler call.  The flush rule is
work-conserving: whenever the scorer is free and at least one request is
queued, the next flush takes up to ``max_batch_size`` of them.  Requests that
arrive during a flush form the next batch, so batches fill under load and
shrink to one request when the server is idle — no timer ever holds a
request back.  Submitters get a :class:`concurrent.futures.Future` that
resolves to their request's result.

Two drive modes:

* **threaded** (production, the default): a daemon worker thread owns the
  flush loop and sleeps only while the queue is empty;
* **manual** (``start=False``): no thread is created and nothing flushes until
  :meth:`poll` is called, which flushes everything pending — deterministic
  for tests, no sleeps anywhere.  The injected ``clock`` only timestamps
  requests for the latency stats.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, List, Optional, Sequence

from .stats import ServerStats

__all__ = ["MicroBatcher"]


@dataclass
class _Pending:
    payload: Any
    future: Future = field(repr=False)
    enqueued_at: float = 0.0


class MicroBatcher:
    """Aggregate concurrent requests into batches for one handler call.

    ``handler`` receives the list of batch payloads and must return one
    result per payload (in order); each result resolves its request's future.
    If the handler raises, every future in that batch fails with the same
    exception and ``stats`` counts each of its requests as an error —
    per-request error isolation is the handler's contract (see
    :class:`~repro.serving.handler.RecommendationHandler`), the batcher's is
    that a failing batch can never kill the worker or hang a submitter.
    """

    def __init__(
        self,
        handler: Callable[[List[Any]], Sequence[Any]],
        max_batch_size: int = 64,
        clock: Callable[[], float] = time.monotonic,
        stats: Optional[ServerStats] = None,
        start: bool = True,
    ) -> None:
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        self._handler = handler
        self.max_batch_size = max_batch_size
        self._clock = clock
        self._stats = stats
        self._pending: Deque[_Pending] = deque()
        #: the batch currently inside a handler call — tracked so a
        #: non-draining close can fail its futures if the flush is stuck.
        self._inflight: List[_Pending] = []
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._closed = False
        self._thread: Optional[threading.Thread] = None
        if start:
            self.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "MicroBatcher":
        """Launch the worker thread (threaded mode)."""
        with self._wakeup:
            if self._closed:
                raise RuntimeError("MicroBatcher is closed")
            if self._thread is not None:
                raise RuntimeError("MicroBatcher is already running")
            self._thread = threading.Thread(
                target=self._run, name="micro-batcher", daemon=True
            )
        self._thread.start()
        return self

    @property
    def is_running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting requests; by default flush what is still queued.

        With ``drain=False`` queued futures fail with ``RuntimeError``
        instead — including, after the worker join times out, the batch
        stuck inside a blocked handler call, so no waiter can hang forever
        on a flush that will never return (the non-draining join is bounded
        by default for the same reason).  Idempotent; in threaded mode joins
        the worker.
        """
        rejected: List[_Pending] = []
        with self._wakeup:
            self._closed = True
            if not drain:
                rejected = list(self._pending)
                self._pending.clear()
            self._wakeup.notify_all()
        self._fail(rejected, "MicroBatcher closed before flush")
        if self._thread is not None:
            if timeout is None and not drain:
                # drain=False means "stop now, abandon queued work" — waiting
                # unboundedly on a wedged handler would contradict that
                timeout = 5.0
            self._thread.join(timeout)
            if not drain:
                with self._lock:
                    stuck = list(self._inflight)
                self._fail(stuck, "MicroBatcher closed during a blocked flush")
        elif drain:
            self.poll()  # manual mode: flush what is still queued

    @staticmethod
    def _fail(requests: List[_Pending], reason: str) -> None:
        for request in requests:
            try:
                request.future.set_exception(RuntimeError(reason))
            except InvalidStateError:
                pass  # the flush resolved it first — the waiter got an answer

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Producers
    # ------------------------------------------------------------------
    def submit(self, payload: Any) -> Future:
        """Queue one request; the returned future resolves to its result."""
        future: Future = Future()
        with self._wakeup:
            if self._closed:
                raise RuntimeError("MicroBatcher is closed")
            self._pending.append(_Pending(payload, future, self._clock()))
            self._wakeup.notify_all()
        return future

    def pending_count(self) -> int:
        with self._lock:
            return len(self._pending)

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------
    def poll(self) -> int:
        """Flush every pending request in the calling thread.

        Manual-mode drive for deterministic tests: pending requests go out in
        chunks of at most ``max_batch_size``, oldest first.  Returns how many
        requests flushed.
        """
        flushed = 0
        while True:
            with self._lock:
                if not self._pending:
                    return flushed
                batch = self._take_batch_locked()
            self._flush(batch)
            flushed += len(batch)

    def _take_batch_locked(self) -> List[_Pending]:
        batch = [
            self._pending.popleft()
            for _ in range(min(self.max_batch_size, len(self._pending)))
        ]
        self._inflight = batch
        return batch

    def _flush(self, batch: List[_Pending]) -> None:
        payloads = [request.payload for request in batch]
        failure: Optional[BaseException] = None
        try:
            results = list(self._handler(payloads))
            if len(results) != len(batch):
                raise RuntimeError(
                    f"batch handler returned {len(results)} results for {len(batch)} requests"
                )
        except BaseException as error:  # noqa: BLE001 — a batch must never kill the worker
            failure = error
        finally:
            with self._lock:
                self._inflight = []
        # count before resolving: a future's done-callback may put the answer
        # (or its error line) on the wire, and the counters must already agree
        now = self._clock()
        if self._stats is not None:
            self._stats.record_batch(len(batch))
            for request in batch:
                self._stats.record_request(now - request.enqueued_at)
                if failure is not None:
                    self._stats.record_error()
        for index, request in enumerate(batch):
            try:
                if failure is None:
                    request.future.set_result(results[index])
                else:
                    request.future.set_exception(failure)
            except InvalidStateError:
                pass  # a non-draining close failed this future while we scored

    # ------------------------------------------------------------------
    # Worker loop (threaded mode)
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._wakeup:
                while not self._pending:
                    if self._closed:
                        return
                    self._wakeup.wait()
                batch = self._take_batch_locked()
            self._flush(batch)
