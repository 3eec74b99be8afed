"""The asyncio front-end: accept requests, queue, execute, respond.

One :class:`PorcupineServer` owns a compiler session, a
:class:`~repro.serve.batcher.BatchScheduler` (the admission queue), a
:class:`~repro.serve.compilepool.CompilePool`, and a
:class:`~repro.serve.metrics.MetricsRegistry`.  The event loop only ever
parses JSON and moves queue entries; all heavy work happens elsewhere —
synthesis in the compile pool's worker processes, encrypted execution on
a dedicated executor thread (one thread models the one-accelerator
deployment).

The execution path is exactly the library path: each request runs alone,
one ``HEExecutor.run`` — one ciphertext per input, one pass of the tape —
so a served response is bit-identical to a direct ``session.execute`` of
the same request.

Servers are usable without TCP for tests and embedding: ``await
server.startup()`` then ``await server.handle_request({...})`` drives
the full scheduling path in-process.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from repro.api import CompiledKernel, Porcupine
from repro.api.backends import backend_names
from repro.he.errors import NoiseBudgetExhausted
from repro.runtime.options import ExecOptions
from repro.serve.batcher import BatchScheduler, WorkItem
from repro.serve.compilepool import CompilePool
from repro.serve.errors import (
    Deadline,
    ExecutorCrashed,
    NoiseBudgetError,
    ServeError,
)
from repro.serve.faults import FaultInjector, apply_fault
from repro.serve.metrics import MetricsRegistry
from repro.serve.protocol import (
    MAX_LINE,
    ProtocolError,
    decode_inputs,
    decode_message,
    encode_message,
    error_response,
    random_inputs,
)


#: serving guards every output by default: output budgets are measured
#: anyway, so the check is free
SERVE_EXEC_OPTIONS = ExecOptions(guard="output")


@dataclass
class ServeConfig:
    """Everything ``porcupine serve`` can turn."""

    host: str = "127.0.0.1"
    port: int = 0  # 0: let the OS pick (the bound port is reported)
    backend: str = "interpreter"  # default execution backend
    params: str | None = None  # HE params preset override (toy/small/large)
    seed: int = 0  # execution-backend seed (keys); NOT per-request
    compile_workers: int = 0  # 0: inline; N: process pool on shared cache
    cache_dir: str | None = None  # on-disk compile cache (workers share it)
    precompile: tuple[str, ...] = ()  # hot kernels to compile at boot
    allow_shutdown: bool = True  # honor the remote "shutdown" op
    latency_window: int = 4096  # latency samples kept per metrics scope
    default_timeout_ms: float | None = None  # deadline for requests that
    # carry no timeout_ms of their own (None: unbounded, legacy behavior)
    max_backlog: int | None = 1024  # scheduler admission bound; beyond
    # this many pending requests new work is rejected typed OVERLOADED
    pool_max_restarts: int = 3  # compile-pool respawns before degrading
    # to in-process compiles
    exec_options: ExecOptions = SERVE_EXEC_OPTIONS  # HE noise guards,
    # admission margin, and escalation for every served request
    shadow_verify: float = 0.0  # fraction of HE requests cross-checked
    # against the interpreter backend (deterministic sampling; 0: off,
    # 1.0: every request) — a mismatch withholds the result as a typed
    # retryable NOISE_BUDGET error instead of returning wrong plaintext

    def resolve_precompile(self, session: Porcupine) -> list[str]:
        if list(self.precompile) == ["all"]:
            return session.kernels()
        return list(self.precompile)


class SupervisedExecutor:
    """The execution thread, supervised: one serial accelerator lane.

    Jobs run one at a time on a dedicated thread (the one-accelerator
    deployment model).  A job that raises is treated as having poisoned
    the thread's state — partially-mutated executor caches, a wedged
    native call — so the supervisor retires the thread, starts a fresh
    one (``executor_restarts`` counts it), and surfaces the failure as a
    typed retryable :class:`~repro.serve.errors.ExecutorCrashed`.  Jobs
    queued behind the failure run on the fresh thread; nothing waits on
    a dead lane.
    """

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        name: str = "porcupine-serve-exec",
    ):
        self.metrics = metrics
        self.name = name
        self.restarts = 0
        self._lock = threading.Lock()
        self._exec = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=name
        )

    async def run(self, fn: Callable, *args):
        """Run ``fn(*args)`` on the supervised thread."""
        with self._lock:
            exec_ = self._exec
        try:
            return await asyncio.get_running_loop().run_in_executor(
                exec_, fn, *args
            )
        except asyncio.CancelledError:
            raise
        except ServeError:
            raise  # already typed; the thread is not implicated
        except Exception as error:  # noqa: BLE001 - typed + restarted
            self._restart(exec_)
            raise ExecutorCrashed(
                f"execution thread poisoned by "
                f"{type(error).__name__}: {error}; thread restarted"
            ) from error

    def _restart(self, exec_: ThreadPoolExecutor) -> None:
        # concurrent failures race here; only the first (for whom the
        # executor is still current) performs the restart
        with self._lock:
            if exec_ is not self._exec:
                return
            self._exec = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix=self.name
            )
            self.restarts += 1
        exec_.shutdown(wait=False)
        if self.metrics is not None:
            self.metrics.bump("executor_restarts")

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            exec_ = self._exec
        exec_.shutdown(wait=wait)


class PorcupineServer:
    """Async multi-tenant compile-and-run service over one session."""

    def __init__(
        self,
        session: Porcupine | None = None,
        config: ServeConfig | None = None,
        faults: FaultInjector | None = None,
        **overrides,
    ):
        if config is None:
            config = ServeConfig(**overrides)
        elif overrides:
            raise ValueError("pass either config or keyword overrides")
        self.config = config
        if session is None:
            session = Porcupine(cache_dir=config.cache_dir)
        self.session = session
        self.faults = faults
        self.metrics = MetricsRegistry(latency_window=config.latency_window)
        self.scheduler = BatchScheduler(
            self._run_batch,
            max_backlog=config.max_backlog,
            metrics=self.metrics,
        )
        self.compile_pool = CompilePool(
            session,
            workers=config.compile_workers,
            metrics=self.metrics,
            max_restarts=config.pool_max_restarts,
            faults=faults,
        )
        self._exec = SupervisedExecutor(metrics=self.metrics)
        self._hot: dict[str, CompiledKernel] = {}
        self._shadow_acc = 0.0  # deterministic shadow-verify sampler
        self._started = False
        self._server: asyncio.AbstractServer | None = None
        self._stop_event: asyncio.Event | None = None
        self._connections: set[asyncio.Task] = set()
        self.host = config.host
        self.port: int | None = None
        self.started_at = time.perf_counter()

    # -- lifecycle ---------------------------------------------------------

    async def startup(self) -> None:
        """Boot without TCP: pools up, hot kernels precompiled and pinned."""
        if self._started:
            return
        self._started = True
        self._stop_event = asyncio.Event()
        hot = self.config.resolve_precompile(self.session)
        if hot:
            await asyncio.gather(
                *(self._ensure_compiled(name, record=False) for name in hot)
            )

    async def start(self) -> tuple[str, int]:
        """Boot and listen; returns the bound ``(host, port)``."""
        await self.startup()
        self._server = await asyncio.start_server(
            self._on_connection,
            self.config.host,
            self.config.port,
            limit=MAX_LINE,
        )
        address = self._server.sockets[0].getsockname()
        self.host, self.port = address[0], address[1]
        return self.host, self.port

    async def serve_forever(self) -> None:
        """Listen until a ``shutdown`` op (or :meth:`request_stop`)."""
        if self._server is None:
            await self.start()
        assert self._stop_event is not None
        await self._stop_event.wait()
        await self.stop()

    def request_stop(self) -> None:
        """Ask :meth:`serve_forever` to wind down (signal handlers etc.)."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain the queue, close pools."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.scheduler.drain()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(
                *list(self._connections), return_exceptions=True
            )
        self.compile_pool.shutdown()
        self._exec.shutdown(wait=True)
        self._started = False

    # -- request handling --------------------------------------------------

    async def handle_request(self, payload: dict) -> dict:
        """Serve one decoded request payload; never raises."""
        request_id = payload.get("id")
        op = payload.get("op", "run")
        handler = {
            "run": self._op_run,
            "compile": self._op_compile,
            "stats": self._op_stats,
            "ping": self._op_ping,
            "shutdown": self._op_shutdown,
        }.get(op)
        if handler is None:
            return error_response(request_id, f"unknown op {op!r}")
        try:
            return await handler(payload)
        except ProtocolError as error:
            return error_response(request_id, str(error))
        except ServeError as error:
            return error.response(request_id)
        except Exception as error:  # noqa: BLE001 - the wire eats it all
            return error_response(
                request_id,
                f"{type(error).__name__}: {error}",
                code="INTERNAL",
            )

    async def _op_run(self, payload: dict) -> dict:
        request_id = payload.get("id")
        tenant = str(payload.get("tenant", "default"))
        kernel = payload.get("kernel")
        if not isinstance(kernel, str):
            raise ProtocolError("run needs a 'kernel' name")
        if kernel not in self.session.registry:
            raise ProtocolError(
                f"unknown kernel {kernel!r}; "
                f"available: {', '.join(self.session.kernels())}"
            )
        backend = payload.get("backend") or self.config.backend
        if backend not in backend_names():
            raise ProtocolError(
                f"unknown backend {backend!r}; "
                f"available: {', '.join(backend_names())}"
            )
        spec = self.session.spec(kernel)
        if payload.get("inputs") is None:
            env = random_inputs(spec, int(payload.get("seed", 0)))
        else:
            env = decode_inputs(spec, payload.get("inputs"))
        try:
            deadline = Deadline.from_timeout_ms(
                payload.get("timeout_ms"), self.config.default_timeout_ms
            )
        except (TypeError, ValueError):
            raise ProtocolError(
                "'timeout_ms' must be a positive number"
            ) from None
        self.metrics.bump("requests", kernel, tenant)
        if int(payload.get("attempt", 1) or 1) > 1:
            self.metrics.bump("retried_requests", kernel, tenant)
        arrived = time.perf_counter()
        try:
            await self._ensure_compiled(kernel, deadline=deadline)
            item = WorkItem(
                kernel=kernel, tenant=tenant, payload=(backend, env),
                deadline=deadline,
            )
            result = await self.scheduler.submit(item)
        except ServeError as error:
            self.metrics.failure(kernel, tenant, error.code)
            raise
        except Exception:
            self.metrics.error(kernel, tenant)
            raise
        latency = time.perf_counter() - arrived
        self.metrics.response(kernel, tenant, latency)
        output = result.logical_output
        return {
            "id": request_id,
            "ok": True,
            "kernel": kernel,
            "tenant": tenant,
            "backend": result.backend,
            "output": output.tolist(),
            "shape": list(output.shape),
            "matches_reference": bool(result.matches_reference),
            "noise_budget": result.noise_budget,
            "batched": 1,  # one request per tape pass; kept for the wire
            "latency_s": round(latency, 6),
            "execute_s": round(result.wall_time, 6),
        }

    async def _op_compile(self, payload: dict) -> dict:
        kernel = payload.get("kernel")
        if not isinstance(kernel, str) or kernel not in self.session.registry:
            raise ProtocolError(f"unknown kernel {kernel!r}")
        compiled = await self._ensure_compiled(kernel)
        return {
            "id": payload.get("id"),
            "ok": True,
            "kernel": kernel,
            "instructions": compiled.program.instruction_count(),
            "rotations": compiled.program.rotation_count(),
            "cache_key": compiled.cache_key,
        }

    async def _op_stats(self, payload: dict) -> dict:
        snapshot = self.metrics.snapshot(
            reset=bool(payload.get("reset", False))
        )
        snapshot.update(
            {
                "id": payload.get("id"),
                "ok": True,
                "uptime_s": round(time.perf_counter() - self.started_at, 3),
                "hot_kernels": sorted(self._hot),
                "config": {
                    "backend": self.config.backend,
                    "compile_workers": self.config.compile_workers,
                    "default_timeout_ms": self.config.default_timeout_ms,
                    "max_backlog": self.config.max_backlog,
                    "pool_max_restarts": self.config.pool_max_restarts,
                    "noise_guard": self.config.exec_options.guard,
                    "noise_margin_bits": (
                        self.config.exec_options.noise_margin_bits
                    ),
                    "shadow_verify": self.config.shadow_verify,
                },
                "executor": self.session.executor_stats().summary(),
                "health": {
                    "pool_restarts": self.compile_pool.restarts,
                    "pool_degraded": self.compile_pool.degraded,
                    "executor_restarts": self._exec.restarts,
                },
            }
        )
        return snapshot

    async def _op_ping(self, payload: dict) -> dict:
        return {
            "id": payload.get("id"),
            "ok": True,
            "pong": True,
            "kernels": self.session.kernels(),
        }

    async def _op_shutdown(self, payload: dict) -> dict:
        if not self.config.allow_shutdown:
            raise ProtocolError("shutdown over the wire is disabled")
        return {"id": payload.get("id"), "ok": True, "stopping": True}

    # -- compilation and execution ----------------------------------------

    async def _ensure_compiled(
        self,
        kernel: str,
        record: bool = True,
        deadline: Deadline | None = None,
    ) -> CompiledKernel:
        """The request-path compile: hot map, then the compile tier."""
        compiled = self._hot.get(kernel)
        if compiled is not None:
            if record:
                self.metrics.bump("compile_hits", kernel)
            return compiled
        compiled = await self.compile_pool.compile(
            kernel, record=record, deadline=deadline
        )
        if kernel not in self._hot:
            self._hot[kernel] = compiled
            # pin the hot program's tape on the default backend so its
            # keys/constants survive executor-side cache eviction across
            # requests (HE only; pinning is optional per backend)
            engine = self._engine(self.config.backend)
            pin = getattr(engine, "pin", None)
            if pin is not None:
                spec = self.session.spec(kernel)
                await self._exec.run(pin, compiled.program, spec)
        return self._hot[kernel]

    def _engine(self, backend: str):
        """The session's backend instance for serving (seed + params)."""
        if backend == "he":
            config = self.config
            kwargs = {} if config.params is None else {"params": config.params}
            return self.session.backend(
                "he", seed=config.seed, options=config.exec_options, **kwargs
            )
        return self.session.backend(backend)

    async def _run_batch(self, kernel: str, payload: tuple):
        """Queue callback: one request on the executor thread."""
        backend, env = payload
        compiled = self._hot[kernel]
        spec = self.session.spec(kernel)
        engine = self._engine(backend)
        fault = corruption = None
        if self.faults is not None:
            fault = self.faults.take(f"execute:{kernel}")
            corruption = self.faults.take(f"runtime:{kernel}")
        if corruption is not None:
            arm = getattr(engine, "arm_tape_fault", None)
            if arm is not None:
                arm(spec, corruption)
        return await self._exec.run(
            partial(
                self._execute_batch_job,
                fault,
                compiled,
                env,
                engine,
                spec,
                kernel,
                self._sample_shadow(backend),
            )
        )

    def _sample_shadow(self, backend: str) -> bool:
        """Deterministic sampling: shadow-verify this request?"""
        fraction = self.config.shadow_verify
        if fraction <= 0 or backend == "interpreter":
            return False
        self._shadow_acc += min(1.0, fraction)
        if self._shadow_acc >= 1.0:
            self._shadow_acc -= 1.0
            return True
        return False

    def _execute_batch_job(
        self, fault, compiled, env, engine, spec, kernel, shadow
    ):
        """The executor-thread body: injected fault, then the execution.

        The request runs through :meth:`Porcupine.execute_batch` as a
        one-element list, so a traced server records one
        ``execute_batch`` span per execution.

        A :class:`~repro.he.errors.NoiseBudgetExhausted` that survives
        the engine's own escalation ladder converts to a typed retryable
        :class:`~repro.serve.errors.NoiseBudgetError` here — it is a
        caught runtime condition, not a poisoned thread, so the
        supervisor must not restart the executor lane over it.
        """
        apply_fault(fault)
        try:
            [result] = self.session.execute_batch(
                compiled, [env], backend=engine, spec=spec
            ).results
        except NoiseBudgetExhausted as error:
            self.metrics.bump("guard_trips", kernel)
            raise NoiseBudgetError(
                f"noise budget exhausted serving kernel {kernel!r}: "
                f"{error}"
            ) from error
        drain = getattr(engine, "drain_escalations", None)
        if drain is not None:
            self.metrics.bump("noise_escalations", kernel, n=drain())
        if shadow:
            self._shadow_check(kernel, compiled, env, spec, result)
        return result

    def _shadow_check(self, kernel, compiled, env, spec, result) -> None:
        """Cross-check one sampled request against the interpreter backend.

        The last line of defense against silent corruption: whatever the
        encrypted path returned must agree with the plaintext behavioral
        model on the same program and inputs.  On mismatch the result is
        withheld as a retryable ``NOISE_BUDGET`` error — the client gets
        a typed failure, never wrong plaintext.
        """
        reference = self.session.execute(
            compiled, env,
            backend=self.session.backend("interpreter"), spec=spec,
        )
        ok = np.array_equal(result.logical_output, reference.logical_output)
        self.metrics.shadow_verify(kernel, ok)
        if not ok:
            raise NoiseBudgetError(
                f"shadow verification failed for kernel {kernel!r}: "
                "encrypted output disagrees with the interpreter "
                "reference; withholding the corrupt result"
            )

    # -- TCP ---------------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # a connection task must never finish cancelled: the streams
        # machinery retrieves its result and would log the CancelledError
        # as an "exception in callback" on every shutdown
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            await self._connection_loop(reader, writer)
        except asyncio.CancelledError:
            pass  # server shutdown: close this connection quietly
        finally:
            with contextlib.suppress(Exception, asyncio.CancelledError):
                writer.close()
                await writer.wait_closed()
            if task is not None:
                self._connections.discard(task)

    async def _connection_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        pending: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    async with write_lock:
                        writer.write(
                            encode_message(
                                error_response(None, "request line too long")
                            )
                        )
                        await writer.drain()
                    break
                except (ConnectionResetError, BrokenPipeError):
                    break
                if not line:
                    break
                # each request is its own task so pipelined requests on
                # one connection queue concurrently (responses carry ids
                # and may complete out of order)
                request = asyncio.get_running_loop().create_task(
                    self._serve_line(line, writer, write_lock)
                )
                pending.add(request)
                request.add_done_callback(pending.discard)
        finally:
            if pending:
                await asyncio.gather(*list(pending), return_exceptions=True)

    async def _serve_line(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        shutdown = False
        try:
            payload = decode_message(line)
        except ProtocolError as error:
            response = error_response(None, str(error))
        else:
            response = await self.handle_request(payload)
            shutdown = (
                payload.get("op") == "shutdown"
                and bool(response.get("ok"))
            )
        with contextlib.suppress(ConnectionResetError, BrokenPipeError):
            async with write_lock:
                writer.write(encode_message(response))
                await writer.drain()
        if shutdown:
            self.request_stop()
