"""The four workloads: what each sets up, what one operation is, and how
its outputs are checked.

Every workload drives public APIs only — ``Porcupine.compile/execute``
in-process, or a ``porcupine serve`` subprocess through
:class:`~repro.serve.client.AsyncServeClient` — and sets no program knob,
so it measures the defaults.  Every output is checked against the spec's
plaintext reference (``Spec.reference_output``), never against the
compiler.  All inputs, kernel orders and arrival times come from the run
seed.

Why each workload exists is recorded in ``README.md``; in short:

- ``synth-cold``: the compiler path (solver, CEGIS, passes) from an empty
  compile cache.
- ``he-exec``: encrypted execution alone, one ciphertext at a time, on
  both real parameter presets.
- ``serve-steady``: an open loop at a moderate fixed rate, so batches are
  mostly single requests and latency shows queueing.
- ``serve-burst``: a closed loop that saturates the server, so batches
  fill and the HE layer runs stacked ciphertexts.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import os
import resource
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]

#: kernels synthesized directly; composed kernels come last in a pass so
#: their components are already in the session's compile cache
SYNTH_DIRECT = (
    "box_blur",
    "dot_product",
    "hamming",
    "linear_regression",
    "polynomial_regression",
    "gx",
    "gy",
)
SYNTH_COMPOSED = ("sobel", "harris")
#: l2 and roberts run as hand-written baselines: their phase-2 search ends
#: on the optimize timeout, so a synthesized program would depend on the
#: machine's speed
BASELINE_ONLY = ("l2", "roberts")
#: he-exec executions of each kernel per pass, by parameter preset
HE_REPEATS = {"n4096": 10, "n8192": 3}
STEADY_KERNELS = (
    "box_blur",
    "gx",
    "gy",
    "dot_product",
    "linear_regression",
    "hamming",
)
#: about a third of the server's capacity on this mix (2-core host): at
#: half, queueing amplifies the host's speed drift into run-to-run noise
STEADY_RPS = 6.0
BURST_KERNELS = ("gx", "dot_product")
BURST_IN_FLIGHT = 16
#: load comes from one process over at most two connections
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
REQUEST_TIMEOUT_S = 60.0
BOOT_TIMEOUT_S = 120.0
SMOKE_KERNEL = "box_blur"


class WrongOutput(Exception):
    """An output disagreed with the spec's plaintext reference (fatal)."""


@dataclass
class Op:
    """One completed, correct operation."""

    kernel: str
    latency_s: float
    traced: bool = False
    tape_s: float | None = None  # encrypted tape time per element
    batch: int = 1  # requests that shared the tape pass
    server_s: float | None = None  # server arrival to completion
    #: "measure", or "warmup"/"calibration" (outside every metric)
    phase: str = "measure"


@dataclass
class RunContext:
    seed: int
    out_dir: Path
    smoke: bool = False
    tracer: object | None = None  # tracing.Tracer in a traced run

    @property
    def cache_dir(self) -> Path:
        return self.out_dir / "cache"

    def rng(self, stream: int) -> np.random.Generator:
        """An independent generator per purpose, all from the run seed."""
        return np.random.default_rng([self.seed, stream])


def draw_inputs(spec, rng: np.random.Generator, shared=None) -> dict:
    """In-range logical inputs; ``shared`` fixes the plaintext operands."""
    env = {}
    for packed in spec.layout.inputs:
        if shared is not None and packed.kind == "pt":
            env[packed.name] = shared[packed.name]
        else:
            env[packed.name] = rng.integers(
                0, spec.backend_bound + 1, packed.shape, dtype=np.int64
            )
    return env


def reference(spec, env: dict) -> np.ndarray:
    return np.array(spec.reference_output(env), dtype=np.int64).reshape(
        spec.layout.output_shape
    )


def check_output(kernel: str, index: int, got, expected: np.ndarray) -> None:
    """Raise :class:`WrongOutput` naming the kernel and input index."""
    got = np.asarray(got, dtype=np.int64)
    if got.shape != expected.shape or not np.array_equal(got, expected):
        raise WrongOutput(
            f"kernel {kernel!r}, input #{index}: output {got.tolist()} "
            f"differs from the reference {expected.tolist()}"
        )


def program_costs(programs: dict) -> dict[str, float]:
    """Quill's cost model over each kernel's program (lower is better)."""
    from repro.api.registry import KernelRegistry
    from repro.quill.cost import program_cost
    from repro.quill.latency import default_latency_model

    registry = KernelRegistry.builtin()
    return {
        kernel: program_cost(
            program, default_latency_model(registry.spec(kernel).params_name)
        )
        for kernel, program in programs.items()
    }


def build_cache(cache_dir: Path, kernels) -> None:
    """Synthesize ``kernels`` into the on-disk compile cache, once.

    The compiled kernels are the benchmark's build product: the first run
    in a checkout synthesizes them, later runs (and the server) load them.
    Cold synthesis is what ``synth-cold`` measures.
    """
    from repro.api import Porcupine

    session = Porcupine(cache_dir=cache_dir)
    for kernel in kernels:
        if kernel not in BASELINE_ONLY:
            session.compile(kernel)


class Workload:
    """Set up, run operations for a time budget, report what happened."""

    name = ""
    #: one pass of an in-process schedule (a kernel listed once per
    #: operation); None where operations overlap (serving)
    mix: list[str] | None = None

    def __init__(self, ctx: RunContext):
        self.ctx = ctx
        self.ops: list[Op] = []
        self.failures: dict[str, int] = {}  # error code -> count
        self.late_s: list[float] = []  # open-loop send lateness
        self.programs: dict = {}  # kernel -> program (for the cost model)
        self.traced_wall_s = 0.0
        # counters the program reports, snapshotted by finish()
        self.executor: dict = {}
        self.scheduler: dict = {}

    def build(self) -> None:
        """One-time work per checkout, before any timed set-up."""

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` built (between set-up repetitions)."""

    def warm_up(self) -> None:
        """Untimed work between the last set-up and the measurement."""

    def measure(self, seconds: float) -> float:
        """Run operations for ``seconds``; returns the measured wall time."""
        raise NotImplementedError

    def finish(self) -> None:
        """Collect end-of-run state while set-up state is still alive."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def fail(self, code: str) -> None:
        self.failures[code] = self.failures.get(code, 0) + 1


class InProcessWorkload(Workload):
    """Operations are calls into the library in this process, one at a time.

    In a traced run every other operation runs with the tracer on, so
    traced and untraced samples of each kernel interleave and the tracing
    overhead is measured without drift between them.
    """

    def step(self, index: int, traced: bool) -> Op:
        raise NotImplementedError

    @contextlib.contextmanager
    def tracing(self, on: bool):
        tracer = self.ctx.tracer
        if tracer is None or not on:
            yield
            return
        tracer.enabled = True
        try:
            yield
        finally:
            tracer.enabled = False

    def measure(self, seconds: float) -> float:
        start = time.perf_counter()
        deadline = start + seconds
        index = 0
        while index == 0 or time.perf_counter() < deadline:
            traced = self.ctx.tracer is not None and index % 2 == 1
            self.ops.append(self.step(index, traced))
            index += 1
        return time.perf_counter() - start


class SynthCold(InProcessWorkload):
    """Cold compiles: each pass is a fresh session with an empty cache."""

    name = "synth-cold"

    def __init__(self, ctx: RunContext):
        super().__init__(ctx)
        self.kernels = (
            (SMOKE_KERNEL,) if ctx.smoke else SYNTH_DIRECT + SYNTH_COMPOSED
        )
        self.mix = list(self.kernels)

    def setup(self) -> None:
        from repro.api import Porcupine

        # warm-up: first-call imports and module-level caches of every
        # phase (dot_product and hamming run phase-2 searches and CEGIS
        # rounds)
        session = Porcupine()
        for kernel in ("box_blur", "dot_product", "hamming"):
            session.compile(kernel)
        self._passes = self._pass_stream()
        self._inputs = self.ctx.rng(3)

    def _pass_stream(self):
        from repro.api import Porcupine

        rng = self.ctx.rng(1)
        direct = [k for k in self.kernels if k in SYNTH_DIRECT]
        composed = [k for k in self.kernels if k in SYNTH_COMPOSED]
        while True:
            session = Porcupine()
            order = [direct[i] for i in rng.permutation(len(direct))]
            order += [composed[i] for i in rng.permutation(len(composed))]
            for kernel in order:
                yield kernel, session

    def step(self, index: int, traced: bool) -> Op:
        kernel, session = next(self._passes)
        # start each compile from a collected heap: a cyclic-GC pass over
        # the previous compile's garbage would otherwise land at random in
        # the short compiles
        gc.collect()
        with self.tracing(traced):
            started = time.perf_counter()
            compiled = session.compile(kernel)
            latency = time.perf_counter() - started
        # the compiled program must compute the spec (interpreter backend,
        # reference from the spec's plaintext implementation)
        spec = session.spec(kernel)
        env = draw_inputs(spec, self._inputs)
        result = session.execute(compiled, env, backend="interpreter")
        check_output(kernel, index, result.logical_output, reference(spec, env))
        self.programs[kernel] = compiled.program
        return Op(kernel, latency, traced)


class HeExec(InProcessWorkload):
    """Encrypted execution: encrypt, run the tape, decrypt, one at a time."""

    name = "he-exec"

    def __init__(self, ctx: RunContext):
        super().__init__(ctx)
        self.kernels = (
            (SMOKE_KERNEL,)
            if ctx.smoke
            else SYNTH_DIRECT + SYNTH_COMPOSED + BASELINE_ONLY
        )
        self.session = None

    def build(self) -> None:
        build_cache(self.ctx.cache_dir, self.kernels)

    def setup(self) -> None:
        from repro.api import CompiledKernel, Porcupine

        session = Porcupine(cache_dir=self.ctx.cache_dir)
        compiled = {}
        for kernel in self.kernels:
            if kernel in BASELINE_ONLY:
                compiled[kernel] = CompiledKernel(
                    name=kernel,
                    program=session.baseline(kernel),
                    seal_code="",
                    synthesis=None,
                    cache_hit=False,
                    cache_key=f"baseline:{kernel}",
                )
            else:
                compiled[kernel] = session.compile(kernel)
        # keys, Galois keys, encoded constants and tapes for every kernel
        backend = session.backend("he", seed=self.ctx.seed)
        for kernel, entry in compiled.items():
            backend.pin(entry.program, session.spec(kernel))
        self.session, self.compiled = session, compiled
        self.programs = {k: c.program for k, c in compiled.items()}
        operands = self.ctx.rng(4)
        self.shared = {
            k: draw_inputs(session.spec(k), operands) for k in self.kernels
        }
        self._inputs = self.ctx.rng(5)
        self._schedule = self._pass_stream()

    def teardown(self) -> None:
        self.session = self.compiled = None
        gc.collect()

    def _pass_stream(self):
        rng = self.ctx.rng(2)
        self.mix = []
        for kernel in self.kernels:
            preset = self.session.spec(kernel).params_name.split("-")[0]
            repeats = 1 if self.ctx.smoke else HE_REPEATS[preset]
            self.mix += [kernel] * repeats
        while True:
            for i in rng.permutation(len(self.mix)):
                yield self.mix[i]

    def step(self, index: int, traced: bool) -> Op:
        kernel = next(self._schedule)
        spec = self.session.spec(kernel)
        env = draw_inputs(spec, self._inputs, shared=self.shared[kernel])
        expected = reference(spec, env)
        with self.tracing(traced):
            started = time.perf_counter()
            result = self.session.execute(
                self.compiled[kernel], env, backend="he", seed=self.ctx.seed
            )
            latency = time.perf_counter() - started
        check_output(kernel, index, result.logical_output, expected)
        return Op(kernel, latency, traced, tape_s=result.wall_time)

    def finish(self) -> None:
        self.executor = self.session.executor_stats().summary()


def child_env() -> dict:
    """The environment for subprocesses: ``src/`` first on the path."""
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    return env


class ServeWorkload(Workload):
    """A ``porcupine serve`` subprocess driven over TCP.

    Set-up boots the server with ``--precompile`` (its kernels load from
    the on-disk cache) and ends when it prints its boot line.  In a traced
    run the server is ``traced_server.py``, which installs the same
    wrappers; the run alternates untraced and traced blocks by signalling
    it (SIGUSR1 on, SIGUSR2 off).
    """

    kernels: tuple = ()
    warm_batches: tuple = ()

    def __init__(self, ctx: RunContext):
        super().__init__(ctx)
        if ctx.smoke:
            self.kernels = (SMOKE_KERNEL,)
            self.warm_batches = (1, 2)
        self.proc: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None
        self.spans_path = ctx.out_dir / f"server-spans-{self.name}.jsonl"
        self.log_path = ctx.out_dir / f"server-{self.name}.log"
        self._rss_mb = 0.0
        self._index = 0
        specs_rng = ctx.rng(6)
        from repro.api.registry import KernelRegistry

        registry = KernelRegistry.builtin()
        self.specs = {k: registry.spec(k) for k in self.kernels}
        # server-side plaintext operands: drawn once per kernel
        self.shared = {k: draw_inputs(s, specs_rng) for k, s in self.specs.items()}
        self._inputs = ctx.rng(7)
        self._kernel_rng = ctx.rng(8)

    def build(self) -> None:
        build_cache(self.ctx.cache_dir, self.kernels)

    def _command(self) -> list[str]:
        args = [
            "serve",
            "--port", "0",
            "--precompile", ",".join(self.kernels),
            "--cache-dir", str(self.ctx.cache_dir),
        ]
        if self.ctx.tracer is not None:
            return [
                sys.executable, str(HERE / "traced_server.py"),
                "--trace-out", str(self.spans_path), *args,
            ]
        return [sys.executable, "-m", "repro", *args]

    def setup(self) -> None:
        with open(self.log_path, "a") as log:
            self.proc = subprocess.Popen(
                self._command(),
                stdout=subprocess.PIPE,
                stderr=log,
                text=True,
                env=child_env(),
                cwd=REPO,
            )
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while True:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, remaining))
            if not ready:
                self.teardown()
                raise RuntimeError(f"server did not boot in {BOOT_TIMEOUT_S}s")
            line = self.proc.stdout.readline()
            if not line:
                code = self.proc.wait()
                raise RuntimeError(
                    f"server exited with {code} during boot; see {self.log_path}"
                )
            if line.startswith("serving on "):
                host, _, port = line.split()[-1].rpartition(":")
                self.address = (host, int(port))
                return

    def teardown(self) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            if proc.poll() is None and self.address is not None:
                from repro.serve.client import ServeClient

                with contextlib.suppress(OSError):
                    with ServeClient(*self.address, timeout=30) as client:
                        client.shutdown()
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def _stats(self, reset: bool = False) -> dict:
        from repro.serve.client import ServeClient

        with ServeClient(*self.address, timeout=30) as client:
            return client.stats(reset=reset)

    def finish(self) -> None:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    self._rss_mb = int(line.split()[1]) / 1024.0
        from repro.api import Porcupine

        session = Porcupine(cache_dir=self.ctx.cache_dir)
        self.programs = {k: session.compile(k).program for k in self.kernels}

    def peak_rss_mb(self) -> float:
        return self._rss_mb

    def next_request(self) -> tuple[str, dict, np.ndarray, int]:
        kernel = self.kernels[int(self._kernel_rng.integers(len(self.kernels)))]
        return self._request_for(kernel)

    def _set_server_tracing(self, on: bool) -> None:
        if self.ctx.tracer is None:
            return
        os.kill(self.proc.pid, signal.SIGUSR1 if on else signal.SIGUSR2)
        time.sleep(0.05)  # the handler runs on the server's main thread

    def measure(self, seconds: float) -> float:
        # the server's counters cover the measurement only, not the warm-up
        start = self._stats(reset=True)["executor"]
        blocks = 4 if self.ctx.tracer is not None else 1
        wall = 0.0
        for block in range(blocks):
            traced = block % 2 == 1
            self._set_server_tracing(traced)
            elapsed = asyncio.run(self._block(seconds / blocks, traced))
            wall += elapsed
            if traced:
                self.traced_wall_s += elapsed
        stats = self._stats()
        self.scheduler = stats["scheduler"]
        self.executor = dict(stats["executor"])
        for counter in ("runs", "ntts_performed"):
            self.executor[counter] -= start[counter]
        if self.ctx.tracer is not None:
            self._set_server_tracing(False)
            asyncio.run(self._calibrate())
        return wall

    async def _connect(self):
        from repro.serve.client import AsyncServeClient

        return [
            await AsyncServeClient.connect(*self.address)
            for _ in range(CONNECTIONS)
        ]

    async def _request(self, client, traced: bool, sent: float, request,
                       phase: str = "measure") -> None:
        kernel, env, expected, index = request
        try:
            response = await asyncio.wait_for(
                client.run(kernel, inputs=env), REQUEST_TIMEOUT_S
            )
        except (ConnectionError, OSError, asyncio.TimeoutError) as error:
            self.fail(type(error).__name__)
            return
        done = time.perf_counter()
        if not response.get("ok"):
            self.fail(str(response.get("code", "ERROR")))
            return
        output = np.asarray(response["output"], dtype=np.int64).reshape(
            response["shape"]
        )
        check_output(kernel, index, output, expected)
        op = Op(
            kernel,
            done - sent,
            traced,
            tape_s=response["execute_s"],
            batch=int(response["batched"]),
            server_s=response["latency_s"],
            phase=phase,
        )
        self.ops.append(op)
        if traced and self.ctx.tracer is not None:
            self.ctx.tracer.record(
                "serve.request", sent, done,
                {"kernel": kernel, "server_s": op.server_s,
                 "execute_s": op.tape_s, "batch": op.batch},
            )

    def _request_for(self, kernel: str) -> tuple:
        spec = self.specs[kernel]
        env = draw_inputs(spec, self._inputs, shared=self.shared[kernel])
        request = (kernel, env, reference(spec, env), self._index)
        self._index += 1
        return request

    def warm_up(self) -> None:
        """Form every batch size this workload produces, once per kernel.

        The executor keeps per-batch-shape state (scratch arenas, expanded
        NTT tables) for the life of the server, so its memory depends on
        which batch sizes have formed so far.  Requests sent together on
        one pipelined connection coalesce into one batch; forming each
        size up front makes the peak memory, and the first batch of each
        size's set-up cost, independent of the traffic's random timing.
        """
        self._set_server_tracing(False)
        asyncio.run(self._warm_up())

    async def _warm_up(self) -> None:
        clients = await self._connect()
        try:
            for kernel in self.kernels:
                for size in self.warm_batches:
                    await asyncio.gather(*(
                        self._request(clients[0], False, time.perf_counter(),
                                      self._request_for(kernel), phase="warmup")
                        for _ in range(size)
                    ))
        finally:
            for client in clients:
                await client.close()

    async def _calibrate(self) -> None:
        """Sequential single requests: the unbatched tape time per kernel."""
        clients = await self._connect()
        try:
            for kernel in self.kernels:
                for _ in range(3):
                    await self._request(
                        clients[0], False, time.perf_counter(),
                        self._request_for(kernel), phase="calibration",
                    )
        finally:
            for client in clients:
                await client.close()

    async def _block(self, seconds: float, traced: bool) -> float:
        raise NotImplementedError


class ServeSteady(ServeWorkload):
    """Open loop: seeded Poisson arrivals at a fixed rate.

    Latency runs from each request's due time, so a stall also charges
    the requests scheduled behind it; ``late_s`` records how late the
    generator sent.
    """

    name = "serve-steady"
    kernels = STEADY_KERNELS
    warm_batches = (1, 2, 3)

    def __init__(self, ctx: RunContext):
        super().__init__(ctx)
        self._arrival_rng = ctx.rng(9)

    def arrivals(self, seconds: float) -> list[tuple[float, tuple]]:
        """Pre-drawn (offset, request) pairs for one block.

        A Poisson process conditioned on its count: exactly rate x seconds
        arrivals at sorted uniform times, so every seed offers the same
        load and throughput reads the server, not the draw.
        """
        count = max(1, round(STEADY_RPS * seconds))
        offsets = np.sort(self._arrival_rng.uniform(0.0, seconds, count))
        return [(float(t), self.next_request()) for t in offsets]

    async def _block(self, seconds: float, traced: bool) -> float:
        schedule = self.arrivals(seconds)
        clients = await self._connect()
        tasks = []
        try:
            start = time.perf_counter()
            for i, (offset, request) in enumerate(schedule):
                due = start + offset
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                self.late_s.append(time.perf_counter() - due)
                tasks.append(
                    asyncio.create_task(
                        self._request(clients[i % len(clients)], traced, due, request)
                    )
                )
            await asyncio.gather(*tasks)
            return time.perf_counter() - start
        finally:
            for task in tasks:
                task.cancel()
            for client in clients:
                await client.close()


class ServeBurst(ServeWorkload):
    """Closed loop: a fixed number of requests always in flight.

    ``dot_product`` requests share one weight vector (a server-side
    plaintext operand), so they coalesce into full batches like ``gx``.
    """

    name = "serve-burst"
    kernels = BURST_KERNELS
    warm_batches = tuple(range(1, 9))  # up to serve's default max_batch

    async def _block(self, seconds: float, traced: bool) -> float:
        clients = await self._connect()
        start = time.perf_counter()
        deadline = start + seconds

        async def worker(slot: int) -> None:
            client = clients[slot % len(clients)]
            while time.perf_counter() < deadline:
                request = self.next_request()
                await self._request(client, traced, time.perf_counter(), request)

        in_flight = 1 if self.ctx.smoke else BURST_IN_FLIGHT
        try:
            await asyncio.gather(*(worker(slot) for slot in range(in_flight)))
            return time.perf_counter() - start
        finally:
            for client in clients:
                await client.close()


WORKLOADS = {
    cls.name: cls for cls in (SynthCold, HeExec, ServeSteady, ServeBurst)
}
