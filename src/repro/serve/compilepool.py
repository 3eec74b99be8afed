"""The compile tier: synthesis off the event loop, cache shared on disk.

Compilation (CEGIS synthesis) is CPU-bound and can take seconds to
minutes — far too long to run on the serving event loop.  The pool
pushes it out:

* ``workers > 0`` — a ``ProcessPoolExecutor`` whose workers each open
  their own :class:`~repro.api.Porcupine` session *on the same on-disk
  cache directory*.  The content-addressed cache's atomic writes make N
  concurrent workers safe; a worker's result lands on disk and the
  serving session reloads it from there (a guaranteed cache hit), so
  program objects never cross the process boundary.
* ``workers == 0`` — compile inline on a thread of the default
  executor (tests, and deployments that always run pre-warmed).

Either way, concurrent requests for the same kernel are deduplicated:
one in-flight compile per kernel, everyone else awaits it.  Boot-time
``precompile`` pushes the configured hot kernels through the same path
so the first real request never pays synthesis.

Crash recovery
--------------

A killed worker (OOM reaper, operator SIGKILL, a segfault in a native
extension) breaks the whole ``ProcessPoolExecutor`` — every in-flight
and future submission raises ``BrokenProcessPool``.  The pool tier
turns that into graceful degradation instead of a wedged server:

1. the affected compile fails with a typed retryable
   :class:`~repro.serve.errors.WorkerCrashed` (the client's retry
   policy re-issues it; the crash is *reported*, never hidden),
2. the pool is respawned (counted in ``pool_restarts``), up to
   ``max_restarts`` times, and
3. past the cap the process pool is abandoned for good and compiles run
   **in-process** on a worker thread — slower and on the serving
   process's core budget, but correct (``degraded_compiles`` counts
   them, so operators can see the tier is limping).

Deadlines short-circuit waiting (the synthesis itself keeps running and
lands in the shared cache for the retry), and a
:class:`~repro.serve.faults.FaultInjector` can arm per-kernel faults at
the ``compile:<kernel>`` site — shipped into the worker process, so an
armed ``("kill",)`` takes down a *real* worker and exercises the real
``BrokenProcessPool`` path.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import Iterable

from repro.api import CompiledKernel, Porcupine
from repro.serve.errors import Deadline, DeadlineExceeded, WorkerCrashed
from repro.serve.faults import FaultInjector, apply_fault
from repro.serve.metrics import MetricsRegistry


def _compile_in_worker(
    cache_dir: str,
    kernel: str,
    seed: int | None,
    synthesis_defaults: dict,
    fault: tuple | None = None,
) -> tuple[str, bool]:
    """Run one compile in a worker process against the shared disk cache.

    Returns ``(cache_key, cache_hit)``; the compiled entry itself stays
    on disk, where the parent (and every sibling worker) can load it.
    ``fault`` is an injected chaos action applied *inside the worker*
    (a ``("kill",)`` fault SIGKILLs this very process mid-compile).
    """
    apply_fault(fault)
    session = Porcupine(
        cache_dir=cache_dir,
        seed=seed,
        synthesis_defaults=synthesis_defaults,
    )
    compiled = session.compile(kernel)
    return compiled.cache_key, compiled.cache_hit


def _retrieve_task(task: "asyncio.Task") -> None:
    """Mark an abandoned compile task's eventual exception retrieved."""
    if not task.cancelled():
        task.exception()


class CompilePool:
    """Deduplicated async compilation over a process pool (or inline)."""

    def __init__(
        self,
        session: Porcupine,
        workers: int = 0,
        metrics: MetricsRegistry | None = None,
        max_restarts: int = 3,
        faults: FaultInjector | None = None,
    ):
        if workers > 0 and session.cache.path is None:
            raise ValueError(
                "compile workers need an on-disk cache to share; "
                "construct the session with cache_dir=..."
            )
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        self.session = session
        self.workers = workers
        self.metrics = metrics
        self.max_restarts = max_restarts
        self.faults = faults
        self.restarts = 0  # pool respawns performed so far
        self.degraded = False  # pool abandoned; compiling in-process
        self._pool = (
            ProcessPoolExecutor(max_workers=workers) if workers > 0 else None
        )
        self._inflight: dict[str, asyncio.Task] = {}

    async def compile(
        self,
        kernel: str,
        record: bool = True,
        deadline: Deadline | None = None,
    ) -> CompiledKernel:
        """Compile ``kernel`` (deduplicated, cached, off the event loop).

        ``record=False`` keeps the compile out of the hit/miss counters —
        boot-time warming is not request traffic.  A ``deadline`` bounds
        only the *wait*: an abandoned synthesis keeps running and lands
        in the shared cache, so the caller's retry is a cache hit.
        """
        task = self._inflight.get(kernel)
        if task is None:
            task = asyncio.get_running_loop().create_task(
                self._compile(kernel, record)
            )
            self._inflight[kernel] = task
            task.add_done_callback(
                lambda _done, name=kernel: self._inflight.pop(name, None)
            )
        shielded = asyncio.shield(task)
        if deadline is None:
            return await shielded
        try:
            return await asyncio.wait_for(shielded, deadline.remaining())
        except asyncio.TimeoutError:
            task.add_done_callback(_retrieve_task)
            raise DeadlineExceeded(
                f"deadline exceeded while compiling {kernel!r} "
                "(synthesis continues; a retry will hit the cache)"
            ) from None

    async def _compile(self, kernel: str, record: bool) -> CompiledKernel:
        loop = asyncio.get_running_loop()
        fault = (
            self.faults.take(f"compile:{kernel}")
            if self.faults is not None
            else None
        )
        hit = None
        pool = self._pool
        if pool is not None:
            try:
                _key, hit = await loop.run_in_executor(
                    pool,
                    _compile_in_worker,
                    str(self.session.cache.path),
                    kernel,
                    self.session.seed,
                    self.session.synthesis_defaults,
                    fault,
                )
            except BrokenProcessPool:
                self._on_worker_crash(pool)
                if self.degraded:
                    detail = (
                        f"restart budget ({self.max_restarts}) exhausted; "
                        "degraded to in-process compiles"
                    )
                else:
                    detail = (
                        f"pool respawned ({self.restarts}/"
                        f"{self.max_restarts} restarts used)"
                    )
                raise WorkerCrashed(
                    f"compile worker for {kernel!r} died; {detail}"
                ) from None
            fault = None  # consumed inside the worker
        elif self.degraded and record and self.metrics is not None:
            self.metrics.bump("degraded_compiles", kernel)
        if fault is not None:
            # no worker process to host the fault: apply it on the
            # compile thread (sleep/raise faults for the inline path)
            await loop.run_in_executor(None, apply_fault, fault)
        # load into the serving session; after a worker compile this is a
        # disk hit (the worker's atomic write is already visible)
        compiled = await loop.run_in_executor(
            None, partial(self.session.compile, kernel)
        )
        if hit is None:
            hit = compiled.cache_hit
        if record and self.metrics is not None:
            self.metrics.bump(
                "compile_hits" if hit else "compile_misses", kernel
            )
        return compiled

    def _on_worker_crash(self, pool: ProcessPoolExecutor) -> None:
        """Respawn the broken pool, or degrade past the restart budget.

        A single worker kill breaks every in-flight submission, so N
        concurrent compiles all land here for the *same* crash; only the
        first (for whom ``pool`` is still current) acts.
        """
        if pool is not self._pool:
            return
        self._pool = None
        pool.shutdown(wait=False, cancel_futures=True)
        if self.restarts < self.max_restarts:
            self.restarts += 1
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
            if self.metrics is not None:
                self.metrics.bump("pool_restarts")
        else:
            self.degraded = True

    async def precompile(
        self, kernels: Iterable[str]
    ) -> dict[str, CompiledKernel]:
        """Warm every named kernel concurrently (boot-time hot set)."""
        names = list(kernels)
        results = await asyncio.gather(
            *(self.compile(name, record=False) for name in names)
        )
        return dict(zip(names, results))

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
