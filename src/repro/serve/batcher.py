"""The admission queue: one queue, fair-share across tenants.

Every ``run`` request becomes one :class:`WorkItem`.  The queue hands
items to an async ``run_batch`` callable one per call, as a one-element
payload list, with at most :attr:`BatchScheduler.LANE_DEPTH` calls in
flight — the execution tier is one serial accelerator lane, so more
concurrent dispatches would only queue downstream.  Holding the backlog
here instead is what gives the fairness policy a backlog to be fair
*about*: items are drained **fair-share**, one per tenant, round-robin,
so a tenant flooding the queue cannot starve a light tenant.

The queue is deliberately ignorant of HE: it moves opaque payloads,
which makes it directly unit-testable.

Failure handling (this is the layer where hangs would be born, so it is
the layer that prevents them):

* **Admission control** — ``max_backlog`` bounds the pending items;
  beyond it, :meth:`submit` fails fast with a typed
  :class:`~repro.serve.errors.Overloaded` instead of letting one slow
  tenant's backlog grow without bound.
* **Deadlines** — a :class:`WorkItem` may carry a
  :class:`~repro.serve.errors.Deadline`.  An item already expired is
  refused at enqueue; the submitting waiter races the deadline
  (``wait_for`` around a ``shield``, so abandoning the wait never
  cancels the dispatch), and an item that expired while queued is
  failed typed *before* dispatch, so a dead request never occupies the
  lane.
* **Dispatch-path containment** — if starting a dispatch itself fails,
  the popped item gets the exception and the lane is released for the
  next one; nothing waits on a wedged queue.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Sequence

from repro.serve.errors import Deadline, DeadlineExceeded, Overloaded
from repro.serve.metrics import MetricsRegistry

# an async callable: (kernel, payloads) -> one result per payload; the
# queue always passes exactly one payload
BatchRunner = Callable[[str, list], Awaitable[Sequence[Any]]]


def _retrieve(future: asyncio.Future) -> None:
    """Mark an abandoned future's eventual exception as retrieved."""
    if not future.cancelled():
        future.exception()


@dataclass
class WorkItem:
    """One queued request, opaque payload plus scheduling bookkeeping."""

    kernel: str
    tenant: str
    payload: Any
    deadline: Deadline | None = None
    future: asyncio.Future = field(default_factory=asyncio.Future)


class BatchScheduler:
    """One admission queue feeding one serial execution lane."""

    #: dispatches in flight at once: one executing on the lane and one
    #: staged behind it, so the lane never idles while the event loop
    #: turns a finished request around
    LANE_DEPTH = 2

    def __init__(
        self,
        run_batch: BatchRunner,
        *,
        max_backlog: int | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        if max_backlog is not None and max_backlog < 1:
            raise ValueError("max_backlog must be >= 1 (or None)")
        self.run_batch = run_batch
        self.max_backlog = max_backlog
        self.metrics = metrics
        # tenant -> its pending items; a tenant served moves to the back,
        # so dict order is the round-robin rotation
        self._tenants: dict[str, deque[WorkItem]] = {}
        self._size = 0
        self._inflight: set[asyncio.Task] = set()

    # -- submission --------------------------------------------------------

    async def submit(self, item: WorkItem) -> Any:
        """Queue one item and await its result.

        Must be called on the event loop.  Raises :class:`Overloaded`
        when the backlog bound is hit and :class:`DeadlineExceeded` when
        the item's deadline elapses before its result lands.
        """
        if self.max_backlog is not None and self._size >= self.max_backlog:
            raise Overloaded(
                f"scheduler backlog full ({self.max_backlog} pending); "
                "retry with backoff"
            )
        if item.deadline is not None and item.deadline.expired:
            raise DeadlineExceeded(
                f"deadline expired before {item.kernel!r} was enqueued"
            )
        queue = self._tenants.get(item.tenant)
        if queue is None:
            queue = self._tenants[item.tenant] = deque()
        queue.append(item)
        self._size += 1
        self._gauge(item.kernel)
        self._pump()
        if item.deadline is None:
            return await item.future
        # race the future against the deadline without ever cancelling
        # it: the dispatch that owns it must run to completion
        try:
            return await asyncio.wait_for(
                asyncio.shield(item.future), item.deadline.remaining()
            )
        except asyncio.TimeoutError:
            item.future.add_done_callback(_retrieve)
            raise DeadlineExceeded(
                f"deadline exceeded waiting for {item.kernel!r}"
            ) from None

    def depth(self) -> int:
        """Pending items (queued, not yet dispatched)."""
        return self._size

    # -- dispatch ----------------------------------------------------------

    def _pop(self) -> WorkItem | None:
        """The next item: one per tenant, round-robin."""
        if not self._tenants:
            return None
        tenant = next(iter(self._tenants))
        queue = self._tenants.pop(tenant)
        item = queue.popleft()
        if queue:
            self._tenants[tenant] = queue  # back of the rotation
        self._size -= 1
        return item

    def _pump(self) -> None:
        """Dispatch live items while the lane has room."""
        while len(self._inflight) < self.LANE_DEPTH:
            item = self._pop()
            if item is None:
                return
            if item.deadline is not None and item.deadline.expired:
                # its waiter has already timed out; _retrieve keeps the
                # abandoned future quiet
                if not item.future.done():
                    item.future.add_done_callback(_retrieve)
                    item.future.set_exception(DeadlineExceeded(
                        f"deadline expired while {item.kernel!r} was queued"
                    ))
                continue
            try:
                self._gauge(item.kernel)
                self._inflight.add(
                    asyncio.get_running_loop().create_task(
                        self._dispatch(item)
                    )
                )
            except Exception as error:  # noqa: BLE001 - contained, not raised
                # dispatch never started: hand the failure to the waiter
                # instead of leaving it pending, and keep the lane free
                if not item.future.done():
                    item.future.set_exception(error)

    async def _dispatch(self, item: WorkItem) -> None:
        try:
            results = await self.run_batch(item.kernel, [item.payload])
            if len(results) != 1:
                raise RuntimeError(
                    f"runner returned {len(results)} results for 1 item"
                )
            if not item.future.done():
                item.future.set_result(results[0])
        except Exception as error:  # noqa: BLE001 - forwarded to the caller
            if not item.future.done():
                item.future.set_exception(error)
        finally:
            self._inflight.discard(asyncio.current_task())
            self._pump()

    def _gauge(self, kernel: str) -> None:
        if self.metrics is not None:
            pending = sum(
                1
                for queue in self._tenants.values()
                for item in queue
                if item.kernel == kernel
            )
            self.metrics.depth(kernel, pending)

    # -- shutdown ----------------------------------------------------------

    async def drain(self) -> None:
        """Wait until every queued and in-flight item has finished."""
        while self._inflight:
            await asyncio.gather(*self._inflight, return_exceptions=True)
