"""Unit tests for the admission queue (no HE involved: opaque payloads)."""

import asyncio

import pytest

from repro.serve.batcher import BatchScheduler, WorkItem
from repro.serve.metrics import MetricsRegistry


def _item(tenant="default", payload=None, deadline=None):
    return WorkItem(
        kernel="gx", tenant=tenant, payload=payload, deadline=deadline
    )


class _Recorder:
    """A runner that records every dispatch, in order."""

    def __init__(self, result=None, delay=0.0):
        self.dispatches = []
        self.result = result
        self.delay = delay

    async def __call__(self, kernel, payloads):
        self.dispatches.append(list(payloads))
        if self.delay:
            await asyncio.sleep(self.delay)
        if self.result is not None:
            return self.result(kernel, payloads)
        return [f"out:{payload}" for payload in payloads]


def test_items_dispatch_one_per_call_in_order():
    async def scenario():
        recorder = _Recorder(delay=0.002)
        scheduler = BatchScheduler(recorder)
        results = await asyncio.gather(
            *(scheduler.submit(_item(payload=i)) for i in range(3))
        )
        return recorder.dispatches, results

    dispatches, results = asyncio.run(scenario())
    assert dispatches == [[0], [1], [2]]
    assert results == ["out:0", "out:1", "out:2"]


def test_fair_share_across_tenants():
    async def scenario():
        recorder = _Recorder(delay=0.005)
        scheduler = BatchScheduler(recorder)
        # tenant A floods: a0 and a1 fill the lane at once; six more A's
        # and one each from B and C pile up behind them
        submissions = [
            scheduler.submit(_item(tenant="a", payload=f"a{i}"))
            for i in range(8)
        ]
        submissions.append(scheduler.submit(_item(tenant="b", payload="b0")))
        submissions.append(scheduler.submit(_item(tenant="c", payload="c0")))
        await asyncio.gather(*submissions)
        return [payloads[0] for payloads in recorder.dispatches]

    order = asyncio.run(scenario())
    # round-robin drain of the backlog: the flooding tenant cannot keep
    # B and C behind its whole backlog
    assert order[:5] == ["a0", "a1", "a2", "b0", "c0"]
    assert sorted(order) == sorted([f"a{i}" for i in range(8)] + ["b0", "c0"])


def test_runner_exception_reaches_every_waiter():
    async def scenario():
        calls = []

        async def explode(kernel, payloads):
            calls.append(payloads[0])
            raise RuntimeError("backend down")

        scheduler = BatchScheduler(explode)
        results = await asyncio.gather(
            scheduler.submit(_item(payload=0)),
            scheduler.submit(_item(payload=1)),
            return_exceptions=True,
        )
        return results, calls

    results, calls = asyncio.run(scenario())
    assert all(isinstance(r, RuntimeError) for r in results)
    assert all("backend down" in str(r) for r in results)
    assert calls == [0, 1]  # a failed dispatch does not stall the queue


def test_result_count_mismatch_is_an_error():
    async def scenario():
        recorder = _Recorder(result=lambda kernel, payloads: ["a", "b"])
        scheduler = BatchScheduler(recorder)
        return await asyncio.gather(
            scheduler.submit(_item(payload=0)), return_exceptions=True
        )

    [result] = asyncio.run(scenario())
    assert isinstance(result, RuntimeError)
    assert "2 results for 1 item" in str(result)


def test_drain_flushes_pending_work():
    async def scenario():
        recorder = _Recorder(delay=0.005)
        scheduler = BatchScheduler(recorder)
        pending = [
            asyncio.ensure_future(scheduler.submit(_item(payload=i)))
            for i in range(3)
        ]
        await asyncio.sleep(0)  # let submissions enqueue
        assert scheduler.depth() == 1  # two in flight, one queued
        await scheduler.drain()
        assert all(task.done() for task in pending)
        results = await asyncio.gather(*pending)
        return recorder.dispatches, results, scheduler.depth()

    dispatches, results, depth = asyncio.run(scenario())
    assert dispatches == [[0], [1], [2]]
    assert results == ["out:0", "out:1", "out:2"]
    assert depth == 0


def test_metrics_track_queue_peak():
    async def scenario():
        metrics = MetricsRegistry()
        scheduler = BatchScheduler(_Recorder(delay=0.002), metrics=metrics)
        await asyncio.gather(
            *(scheduler.submit(_item(payload=i)) for i in range(4))
        )
        return metrics

    metrics = asyncio.run(scenario())
    # two items go straight to the lane; the other two wait behind them
    assert metrics.overall.queue_peak == 2
    assert metrics.per_kernel["gx"].queue_peak == 2
    assert metrics.queue_depth["gx"] == 0


# -- failure handling: admission, deadlines, dispatch containment ------------


def test_backlog_bound_rejects_typed_overloaded():
    from repro.serve.errors import Overloaded

    async def scenario():
        recorder = _Recorder(delay=0.01)
        scheduler = BatchScheduler(recorder, max_backlog=2)
        first = [
            asyncio.ensure_future(scheduler.submit(_item(payload=i)))
            for i in range(4)
        ]
        await asyncio.sleep(0)  # two in flight, two queued: backlog full
        with pytest.raises(Overloaded) as info:
            await scheduler.submit(_item(payload=99))
        assert info.value.retryable
        await scheduler.drain()
        return await asyncio.gather(*first), recorder.dispatches

    results, dispatches = asyncio.run(scenario())
    # the rejected item never occupied a slot; the admitted ones ran
    assert results == ["out:0", "out:1", "out:2", "out:3"]
    assert dispatches == [[0], [1], [2], [3]]


def test_backlog_validation():
    with pytest.raises(ValueError, match="max_backlog"):
        BatchScheduler(_Recorder(), max_backlog=0)


def test_expired_deadline_rejected_before_enqueue():
    from repro.serve.errors import Deadline, DeadlineExceeded

    async def scenario():
        recorder = _Recorder()
        scheduler = BatchScheduler(recorder)
        with pytest.raises(DeadlineExceeded):
            await scheduler.submit(
                _item(payload=0, deadline=Deadline.after(-1.0))
            )
        return recorder.dispatches, scheduler.depth()

    dispatches, depth = asyncio.run(scenario())
    assert dispatches == []  # nothing was ever queued
    assert depth == 0


def test_deadline_races_the_queue_without_corrupting_the_batch():
    from repro.serve.errors import Deadline, DeadlineExceeded

    async def scenario():
        recorder = _Recorder(delay=0.05)
        scheduler = BatchScheduler(recorder)
        # the impatient item is in flight when its deadline passes: its
        # waiter gets the typed error, the dispatch itself runs to the end
        # and the patient item behind it still gets its result
        impatient = asyncio.ensure_future(
            scheduler.submit(
                _item(payload=0, deadline=Deadline.after(0.01))
            )
        )
        patient = asyncio.ensure_future(scheduler.submit(_item(payload=1)))
        done = await asyncio.gather(
            impatient, patient, return_exceptions=True
        )
        await scheduler.drain()
        return done, recorder.dispatches

    (timed_out, result), dispatches = asyncio.run(scenario())
    assert isinstance(timed_out, DeadlineExceeded)
    assert result == "out:1"
    assert dispatches == [[0], [1]]


def test_expired_items_dropped_before_dispatch():
    from repro.serve.errors import Deadline, DeadlineExceeded

    async def scenario():
        recorder = _Recorder(delay=0.03)
        scheduler = BatchScheduler(recorder)
        busy = [
            asyncio.ensure_future(scheduler.submit(_item(payload=f"busy{i}")))
            for i in range(BatchScheduler.LANE_DEPTH)
        ]
        doomed = asyncio.ensure_future(
            scheduler.submit(
                _item(payload="dead", deadline=Deadline.after(0.005))
            )
        )
        alive = asyncio.ensure_future(scheduler.submit(_item(payload="ok")))
        done = await asyncio.gather(
            *busy, doomed, alive, return_exceptions=True
        )
        return done, recorder.dispatches

    (*first, dead, ok), dispatches = asyncio.run(scenario())
    assert first == ["out:busy0", "out:busy1"]
    assert isinstance(dead, DeadlineExceeded)
    assert ok == "out:ok"
    # the expired item never reached the runner
    assert dispatches == [["busy0"], ["busy1"], ["ok"]]


def test_dispatch_path_failure_releases_the_group():
    """A dispatch that fails to *start* hands its item the error and
    leaves the lane free for the next item."""

    class _ExplodingMetrics(MetricsRegistry):
        def __init__(self):
            super().__init__()
            self.calls = 0

        def depth(self, kernel, depth):
            self.calls += 1
            if self.calls == 2:  # the gauge taken as item 0 dispatches
                raise RuntimeError("metrics backend down")
            super().depth(kernel, depth)

    async def scenario():
        recorder = _Recorder()
        scheduler = BatchScheduler(recorder, metrics=_ExplodingMetrics())
        first = await asyncio.gather(
            scheduler.submit(_item(payload=0)), return_exceptions=True
        )
        second = await scheduler.submit(_item(payload=1))
        return first, second, recorder.dispatches, scheduler._inflight

    [failed], second, dispatches, inflight = asyncio.run(scenario())
    assert isinstance(failed, RuntimeError)
    assert second == "out:1"
    assert dispatches == [[1]]
    assert inflight == set()
