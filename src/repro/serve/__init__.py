"""Porcupine Serve: a long-lived, multi-tenant HE compile-and-run service.

The rest of the repository compiles and runs kernels one CLI invocation
or one session call at a time.  This package ties the existing pieces —
:class:`~repro.api.Porcupine` sessions, the content-addressed on-disk
compile cache, and :class:`~repro.runtime.executor.HEExecutor` — into a
serving process shaped like production HE infrastructure (EVA/HEIR's
"compile once, serve many" boundary):

* an **asyncio front-end** (:class:`PorcupineServer`) speaking
  newline-delimited JSON over TCP (:mod:`repro.serve.protocol`),
* an **admission queue** (:class:`BatchScheduler`) that bounds the
  backlog, enforces deadlines, and hands requests one per execution to
  a supervised execution lane, round-robin across tenants,
* a **process-pool compile tier** (:class:`CompilePool`) whose workers
  share one on-disk compile cache (atomic writes make that safe) and
  precompile hot registry kernels at boot, and
* **per-tenant/per-kernel bookkeeping** (:class:`MetricsRegistry`):
  queue depth, typed errors, compile hit/miss, and p50/p99 latency, all
  in the shared :class:`~repro.runtime.profiler.SchedulerStats` shape.

Every request is one encrypted execution — one ciphertext per input,
one pass of the tape — so a served result is bit-identical to a direct
``session.execute`` of the same request; the tests in ``tests/serve``
pin that byte equality.

Start a server from the CLI (``porcupine serve``) or in-process::

    from repro.serve import PorcupineServer, ServeClient

    server = PorcupineServer(backend="interpreter", precompile=("gx",))
    host, port = await server.start()          # inside asyncio
    ...
    client = ServeClient(host, port)           # blocking, any thread
    reply = client.run("gx", tenant="alice")
"""

from repro.serve.batcher import BatchScheduler, WorkItem
from repro.serve.client import AsyncServeClient, ServeClient
from repro.serve.compilepool import CompilePool
from repro.serve.errors import (
    ConnectionLost,
    Deadline,
    DeadlineExceeded,
    ExecutorCrashed,
    Overloaded,
    RetryPolicy,
    ServeError,
    Unavailable,
    WorkerCrashed,
    error_from_response,
)
from repro.serve.faults import FaultInjector
from repro.serve.metrics import MetricsRegistry
from repro.serve.protocol import (
    MAX_LINE,
    decode_message,
    encode_message,
    error_response,
)
from repro.serve.server import PorcupineServer, ServeConfig

__all__ = [
    "AsyncServeClient",
    "BatchScheduler",
    "CompilePool",
    "ConnectionLost",
    "Deadline",
    "DeadlineExceeded",
    "ExecutorCrashed",
    "FaultInjector",
    "MAX_LINE",
    "MetricsRegistry",
    "Overloaded",
    "PorcupineServer",
    "RetryPolicy",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "Unavailable",
    "WorkItem",
    "WorkerCrashed",
    "decode_message",
    "encode_message",
    "error_from_response",
    "error_response",
]
