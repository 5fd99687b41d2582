"""ServingCore contract: the shared request lifecycle under a fake executor.

Both servers are thin layers over :class:`ServingCore`; these tests pin its
outcomes without an engine or a worker process.  Every case checks the
counters, the span statuses and that ``drain()`` returns True, i.e. the
pending accounting returned to zero.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.serve import DeadlineExceeded, ServerClosed, ServerOverloaded
from repro.serve.frontend.core import ExecutorLost, Lane, ServingCore

SHAPE = (2, 3, 3)


def double(lane, stacked, requests):
    """A fake local executor: logits are the first two inputs, doubled."""
    return stacked.reshape(len(stacked), -1)[:, :2] * 2.0, None


class FakeCore(ServingCore):
    """The core over one lane, ``m``, with an injectable executor."""

    def __init__(self, execute=double, **overrides):
        settings = dict(
            max_batch_size=8,
            max_delay_ms=0.0,
            max_queue_depth=16,
            latency_window=64,
            on_batch=None,
            trace=True,
            span_capacity=64,
        )
        settings.update(overrides)
        super().__init__("server", execute=execute, **settings)
        self.lane = Lane(self, "m")

    def lanes(self):
        return [self.lane]

    def submit(self, inputs, block=True, deadline_s=None, priority=0):
        request = self._make_request(inputs, deadline_s, priority, None)
        self._admit(self.lane, request, block, None)
        return request.future

    def counters(self):
        return self.lane.metrics.counters()

    def statuses(self):
        return sorted(span["status"] for span in self.spans.spans())


def sample(value=1.0, shape=SHAPE):
    return np.full(shape, value, dtype=np.float32)


class TestOutcomes:
    def test_completed_requests_get_their_rows(self):
        core = FakeCore()
        futures = [core.submit(sample(v)) for v in (1.0, 2.0)]
        with core:
            results = [f.result(timeout=10) for f in futures]
            assert core.drain(timeout=10)
        np.testing.assert_array_equal(results[0], [2.0, 2.0])
        np.testing.assert_array_equal(results[1], [4.0, 4.0])
        assert core.counters()["completed"] == 2
        assert core.statuses() == ["completed", "completed"]
        # A local executor's call is all execute: no wire stage.
        assert all("wire" not in s["stages_ms"] for s in core.spans.spans())

    def test_cancelled_before_run(self):
        core = FakeCore()
        cancelled = core.submit(sample())
        kept = core.submit(sample(3.0))
        assert cancelled.cancel()
        with core:
            np.testing.assert_array_equal(kept.result(timeout=10), [6.0, 6.0])
            assert core.drain(timeout=10)
        counters = core.counters()
        assert counters["cancelled"] == 1
        assert counters["completed"] == 1
        assert core.statuses() == ["completed"]  # a cancelled request leaves no span

    def test_expired_in_queue(self):
        calls = []

        def counting(lane, stacked, requests):
            calls.append(len(requests))
            return double(lane, stacked, requests)

        core = FakeCore(execute=counting)
        doomed = core.submit(sample(), deadline_s=0.01)
        time.sleep(0.05)
        with core:
            with pytest.raises(DeadlineExceeded, match="missed its deadline"):
                doomed.result(timeout=10)
            assert core.drain(timeout=10)
        assert calls == []  # never occupied a batch slot
        assert core.counters()["expired"] == 1
        assert core.statuses() == ["expired"]
        assert core.events.counts() == {"request_expired": 1}

    def test_expired_mid_flight(self):
        def slow(lane, stacked, requests):
            time.sleep(0.1)
            return double(lane, stacked, requests)

        core = FakeCore(execute=slow)
        with core:
            doomed = core.submit(sample(), deadline_s=0.05)
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=10)
            assert core.drain(timeout=10)
        counters = core.counters()
        assert counters["expired"] == 1
        assert counters["completed"] == 0
        assert counters["batches"] == 1  # it was served; the answer came too late
        assert core.statuses() == ["expired"]

    def test_executor_failing_one_shape_group_fails_only_that_group(self):
        bad_shape = (2, 4, 4)

        def picky(lane, stacked, requests):
            if stacked.shape[1:] == bad_shape:
                raise RuntimeError("this shape does not compile")
            return double(lane, stacked, requests)

        core = FakeCore(execute=picky)
        good = [core.submit(sample(1.0)), core.submit(sample(2.0))]
        bad = core.submit(sample(shape=bad_shape))
        with core:
            with pytest.raises(RuntimeError, match="does not compile"):
                bad.result(timeout=10)
            for future in good:
                assert future.result(timeout=10).shape == (2,)
            assert core.drain(timeout=10)
        counters = core.counters()
        assert counters["failed"] == 1
        assert counters["completed"] == 2
        assert core.statuses() == ["completed", "completed", "failed"]

    def test_priority_shed(self):
        core = FakeCore(max_queue_depth=2)
        low = [core.submit(sample(), block=False, priority=0) for _ in range(2)]
        with pytest.raises(ServerOverloaded, match="no queued request"):
            core.submit(sample(), block=False, priority=0)
        high = core.submit(sample(5.0), block=False, priority=1)
        # The youngest low-priority request made room.
        with pytest.raises(ServerOverloaded, match="was shed"):
            low[1].result(timeout=0)
        with core:
            np.testing.assert_array_equal(high.result(timeout=10), [10.0, 10.0])
            low[0].result(timeout=10)
            assert core.drain(timeout=10)
        counters = core.counters()
        assert counters["shed"] == 1
        assert counters["rejected"] == 1
        assert counters["completed"] == 2
        assert core.statuses() == ["completed", "completed", "shed"]
        assert core.events.counts() == {"request_shed": 1}

    def test_lost_executor_fails_every_unserved_group(self):
        def lost(lane, stacked, requests):
            raise ExecutorLost("backend gone")

        core = FakeCore(execute=lost)
        futures = [core.submit(sample()), core.submit(sample(shape=(2, 4, 4)))]
        with core:
            for future in futures:
                with pytest.raises(ExecutorLost):
                    future.result(timeout=10)
            assert core.drain(timeout=10)
        assert core.counters()["failed"] == 2
        assert core.statuses() == ["failed", "failed"]


class TestLifecycle:
    def test_request_ids_come_from_one_counter(self):
        core = FakeCore()
        with core:
            for _ in range(5):
                core.submit(sample()).result(timeout=10)
            assert core.drain(timeout=10)
        assert sorted(s["request_id"] for s in core.spans.spans()) == [1, 2, 3, 4, 5]

    def test_concurrent_submitters_get_unique_ids_and_drain_to_zero(self):
        core = FakeCore(max_queue_depth=1024, span_capacity=1024)
        threads, per_thread = 8, 50
        futures = []
        lock = threading.Lock()

        def client():
            mine = [core.submit(sample()) for _ in range(per_thread)]
            with lock:
                futures.extend(mine)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with core:
                workers = [threading.Thread(target=client) for _ in range(threads)]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=30)
                    assert not worker.is_alive()
                for future in futures:
                    future.result(timeout=30)
                assert core.drain(timeout=30)
                assert core.lane.pending == 0
        finally:
            sys.setswitchinterval(switch)
        ids = [span["request_id"] for span in core.spans.spans()]
        assert sorted(ids) == list(range(1, threads * per_thread + 1))
        assert core.counters()["completed"] == threads * per_thread

    def test_remote_executor_splits_wire_from_execute(self):
        def remote(lane, stacked, requests):
            time.sleep(0.02)
            return double(lane, stacked, requests)[0], 0.005

        core = FakeCore(execute=remote)
        with core:
            core.submit(sample()).result(timeout=10)
            assert core.drain(timeout=10)
        (span,) = core.spans.spans()
        stages = span["stages_ms"]
        assert stages["execute"] == pytest.approx(5.0)
        assert stages["wire"] >= 10.0
        assert abs(span["total_ms"] - span["e2e_ms"]) <= 0.10 * span["e2e_ms"]

    def test_stop_without_drain_fails_queued_requests(self):
        core = FakeCore()
        queued = core.submit(sample())
        core.stop(drain=False)
        with pytest.raises(ServerClosed, match="stopped before this request"):
            queued.result(timeout=0)
        assert core.counters()["failed"] == 1
        assert core.drain(timeout=1)
