"""Deterministic MicroBatcher tests: injected fake clock, manual drive, no sleeps.

The batcher is constructed with ``start=False`` so nothing runs in the
background; nothing flushes until ``poll()`` is called, and the clock the
test advances explicitly only feeds the latency stats.  A final class
exercises the threaded worker for real (futures and ``Event`` gates
synchronise, still no ``sleep`` calls in the tests).
"""

import threading

import pytest

from repro.serving import MicroBatcher, ServerStats


class FakeClock:
    """A manually-advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class RecordingHandler:
    """Echo handler that remembers every batch it was flushed."""

    def __init__(self) -> None:
        self.batches = []

    def __call__(self, payloads):
        self.batches.append(list(payloads))
        return [f"answer:{payload}" for payload in payloads]


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def handler():
    return RecordingHandler()


def manual_batcher(handler, clock, **kwargs):
    kwargs.setdefault("max_batch_size", 3)
    return MicroBatcher(handler, clock=clock, start=False, **kwargs)


class TestSizeTrigger:
    def test_flushes_when_batch_fills(self, handler, clock):
        batcher = manual_batcher(handler, clock)
        futures = [batcher.submit(f"r{i}") for i in range(3)]
        assert batcher.poll() == 3
        assert handler.batches == [["r0", "r1", "r2"]]
        assert [f.result(timeout=0) for f in futures] == ["answer:r0", "answer:r1", "answer:r2"]

    def test_oversized_burst_splits_into_max_size_batches(self, handler, clock):
        # the clock never moves: flushing the 7 % 3 tail must not wait on time
        batcher = manual_batcher(handler, clock, max_batch_size=3)
        futures = [batcher.submit(f"r{i}") for i in range(7)]
        assert batcher.poll() == 7
        assert [len(batch) for batch in handler.batches] == [3, 3, 1]
        assert [f.result(timeout=0) for f in futures] == [f"answer:r{i}" for i in range(7)]
        assert batcher.pending_count() == 0


class TestWorkConservingFlush:
    """A free scorer flushes whatever is queued — no timer holds a request back."""

    def test_partial_batch_flushes_with_the_oldest_request(self, handler, clock):
        batcher = manual_batcher(handler, clock)
        batcher.submit("old")
        clock.advance(0.09)
        batcher.submit("new")
        assert batcher.poll() == 2, "a partial batch flushes together with the oldest request"
        assert handler.batches == [["old", "new"]]

    def test_lone_request_flushes_on_poll(self, handler, clock):
        batcher = manual_batcher(handler, clock)
        batcher.submit("r0")
        assert batcher.poll() == 1
        assert handler.batches == [["r0"]]

    def test_requests_arriving_during_a_flush_form_one_next_batch(self):
        entered = threading.Event()
        release = threading.Event()
        batches = []

        def gated(payloads):
            batches.append(list(payloads))
            if len(batches) == 1:
                entered.set()
                assert release.wait(timeout=30), "the test never released the handler"
            return [f"answer:{payload}" for payload in payloads]

        with MicroBatcher(gated, max_batch_size=8) as batcher:
            first = batcher.submit("first")
            assert entered.wait(timeout=10), "the worker never flushed the lone request"
            queued = [batcher.submit(f"q{i}") for i in range(5)]
            release.set()
            assert first.result(timeout=10) == "answer:first"
            assert [f.result(timeout=10) for f in queued] == [f"answer:q{i}" for i in range(5)]
        assert batches == [["first"], ["q0", "q1", "q2", "q3", "q4"]]

    def test_threaded_lone_request_resolves_with_frozen_clock(self, handler, clock):
        # a deadline timer measured against this clock would never fire
        with MicroBatcher(handler, max_batch_size=64, clock=clock) as batcher:
            assert batcher.submit("lone").result(timeout=5) == "answer:lone"
        assert handler.batches == [["lone"]]


class TestErrorHandling:
    def test_handler_exception_fails_batch_without_killing_batcher(self, clock):
        calls = {"n": 0}

        def flaky(payloads):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("scoring exploded")
            return list(payloads)

        batcher = MicroBatcher(flaky, max_batch_size=2, clock=clock, start=False)
        poisoned = [batcher.submit("a"), batcher.submit("b")]
        batcher.poll()
        for future in poisoned:
            with pytest.raises(RuntimeError, match="scoring exploded"):
                future.result(timeout=0)
        healthy = [batcher.submit("c"), batcher.submit("d")]
        batcher.poll()
        assert [f.result(timeout=0) for f in healthy] == ["c", "d"]

    def test_failed_batch_counts_every_request_before_its_future_fails(self, clock):
        """Counters must match the wire: a front-end answers ``error: ...`` from
        the future's done-callback, so by then the batch is already counted."""
        stats = ServerStats()

        def exploding(payloads):
            raise RuntimeError("scoring exploded")

        batcher = MicroBatcher(
            exploding, max_batch_size=3, clock=clock, stats=stats, start=False
        )
        seen = []
        futures = [batcher.submit(f"r{i}") for i in range(3)]
        for future in futures:
            future.add_done_callback(lambda f: seen.append((stats.requests, stats.errors)))
        assert batcher.poll() == 3
        assert seen == [(3, 3)] * 3
        assert stats.batches == 1
        for future in futures:
            with pytest.raises(RuntimeError, match="scoring exploded"):
                future.result(timeout=0)

    def test_wrong_result_count_is_an_error(self, clock):
        batcher = MicroBatcher(lambda payloads: ["only one"], max_batch_size=2, clock=clock, start=False)
        future = batcher.submit("a")
        batcher.submit("b")
        batcher.poll()
        with pytest.raises(RuntimeError, match="2 requests"):
            future.result(timeout=0)


class TestShutdown:
    def test_close_drains_pending_queue(self, handler, clock):
        batcher = manual_batcher(handler, clock)
        futures = [batcher.submit("r0"), batcher.submit("r1")]
        batcher.close()  # never polled — close drains anyway
        assert handler.batches == [["r0", "r1"]]
        assert [f.result(timeout=0) for f in futures] == ["answer:r0", "answer:r1"]

    def test_close_without_drain_fails_pending_futures(self, handler, clock):
        batcher = manual_batcher(handler, clock)
        future = batcher.submit("r0")
        batcher.close(drain=False)
        with pytest.raises(RuntimeError, match="closed"):
            future.result(timeout=0)
        assert handler.batches == []

    def test_submit_after_close_rejected(self, handler, clock):
        batcher = manual_batcher(handler, clock)
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit("late")

    def test_close_is_idempotent(self, handler, clock):
        batcher = manual_batcher(handler, clock)
        batcher.close()
        batcher.close()


class TestValidationAndStats:
    def test_rejects_bad_parameters(self, handler, clock):
        with pytest.raises(ValueError):
            MicroBatcher(handler, max_batch_size=0, start=False)

    def test_records_batches_and_latencies(self, handler, clock):
        stats = ServerStats()
        batcher = manual_batcher(handler, clock, max_batch_size=2, stats=stats)
        batcher.submit("r0")
        clock.advance(0.05)
        batcher.submit("r1")
        clock.advance(0.05)  # r0 waited 100ms, r1 50ms
        batcher.poll()
        assert stats.requests == 2
        assert stats.batches == 1
        assert stats.mean_batch_size == 2.0
        assert stats.latency_ms(100) == pytest.approx(100.0)
        assert stats.latency_ms(0) == pytest.approx(50.0)

    def test_stats_empty_snapshot(self):
        stats = ServerStats()
        assert stats.latency_ms(95) == 0.0
        assert stats.mean_batch_size == 0.0
        assert stats.to_line().startswith("requests=0 ")
        assert "requests" in stats.to_text()


class TestThreadedMode:
    """The worker thread path: real clock, futures synchronise (no sleeps)."""

    def test_concurrent_producers_all_answered(self, handler):
        with MicroBatcher(handler, max_batch_size=8) as batcher:
            results = {}

            def producer(name):
                results[name] = batcher.submit(name).result(timeout=10)

            threads = [
                threading.Thread(target=producer, args=(f"p{i}",)) for i in range(16)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
        assert results == {f"p{i}": f"answer:p{i}" for i in range(16)}
        assert sum(len(batch) for batch in handler.batches) == 16

    def test_start_twice_rejected(self, handler):
        batcher = MicroBatcher(handler)
        try:
            with pytest.raises(RuntimeError, match="already running"):
                batcher.start()
        finally:
            batcher.close()

    def test_threaded_close_drains(self, handler):
        batcher = MicroBatcher(handler, max_batch_size=100)
        future = batcher.submit("queued")
        batcher.close()
        assert future.result(timeout=0) == "answer:queued"

    def test_close_without_drain_fails_batch_stuck_in_blocked_flush(self):
        """Regression: shutdown must not hang waiters behind a wedged handler.

        A handler that blocks forever used to make ``close(drain=False)``
        leave the in-flight batch's futures unresolved — any thread waiting
        on ``future.result()`` (a socket client, serve_lines) hung forever.
        Now the join is bounded and the stuck batch fails with a clear
        ``RuntimeError``; queued-but-untaken payloads fail immediately.
        """
        entered = threading.Event()
        release = threading.Event()

        def wedged(batch):
            entered.set()
            assert release.wait(timeout=30), "test teardown never released the handler"
            return [f"late:{payload}" for payload in batch]

        batcher = MicroBatcher(wedged, max_batch_size=1)
        stuck = batcher.submit("a")
        assert entered.wait(timeout=10), "the worker never picked up the first payload"
        queued = [batcher.submit("b"), batcher.submit("c")]
        try:
            batcher.close(drain=False, timeout=0.2)
            for future in queued:
                with pytest.raises(RuntimeError, match="closed before flush"):
                    future.result(timeout=5)
            with pytest.raises(RuntimeError, match="blocked flush"):
                stuck.result(timeout=5)
        finally:
            release.set()  # let the wedged worker thread finish and exit

    def test_flush_completing_after_forced_close_is_harmless(self):
        """The racing set_result on an already-failed future must not raise."""
        entered = threading.Event()
        release = threading.Event()

        def slow(batch):
            entered.set()
            release.wait(timeout=30)
            return [f"answer:{payload}" for payload in batch]

        batcher = MicroBatcher(slow, max_batch_size=1)
        stuck = batcher.submit("a")
        assert entered.wait(timeout=10)
        batcher.close(drain=False, timeout=0.1)
        with pytest.raises(RuntimeError, match="blocked flush"):
            stuck.result(timeout=5)
        release.set()
        # the worker resolves the batch late; InvalidStateError is swallowed
        # and the thread exits cleanly
        batcher._thread.join(10)
        assert not batcher._thread.is_alive()
