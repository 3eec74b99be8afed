"""Instruction latency profiling and the runtime's counter profiles.

The paper derives Quill's per-instruction latencies by profiling SEAL
(section 4.2); :func:`profile_instructions` does the same against
:mod:`repro.he`.  The resulting table can be checked into
:mod:`repro.quill.latency` so that synthesis stays deterministic across
machines — only relative magnitudes matter to the cost model.

The module also declares the runtime's two counter profiles on
:mod:`repro.counters`, which derives their folds, their JSON summary
and their ``--timings`` text from the field declarations:

* :class:`SchedulerStats` — serving, per kernel, per tenant and overall:
  the ``stats`` wire op and ``porcupine serve --timings``;
* :class:`ExecutorStats` — one HE executor's NTT rows, arena bytes and
  noise guards: ``porcupine run --timings`` and the ``stats`` op.

The synthesis profile, :class:`~repro.solver.engine.SearchStats`, is
declared beside the engine (so the synthesis path never imports the HE
substrate) and re-exported here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.counters import Counters, counter, derived
from repro.solver.engine import SearchStats  # noqa: F401  (profiling surface)

if TYPE_CHECKING:  # pragma: no cover - synthesis-only imports stay light
    from repro.he.params import BFVParams

from repro.quill.ir import Opcode
from repro.quill.latency import LatencyModel


def _percentile(samples: list[float], q: float) -> float | None:
    return float(np.percentile(np.asarray(samples), q)) if samples else None


@dataclass
class SchedulerStats(Counters):
    """Serving counters, kept overall, per kernel and per tenant by
    :class:`~repro.serve.metrics.MetricsRegistry`."""

    requests: int = counter(show="always")  # accepted run requests
    responses: int = counter()  # completed (ok) responses
    errors: int = counter(show="always")
    queue_peak: int = counter("max")  # high-water pending-queue depth
    compile_hits: int = counter()
    compile_misses: int = counter()
    #: fraction of compile requests served from the shared cache
    cache_hit_rate = derived(
        lambda s: s.compile_hits / (s.compile_hits + s.compile_misses)
        if s.compile_hits + s.compile_misses else 0.0,
        digits=3, show="always", fmt="{:.0%}",
    )
    deadline_exceeded: int = counter()  # requests that ran out of budget
    overloaded: int = counter()  # requests rejected by admission control
    retried_requests: int = counter()  # client-declared retry attempts
    pool_restarts: int = counter()  # compile-pool respawns after crashes
    executor_restarts: int = counter()  # execution-thread restarts
    degraded_compiles: int = counter()  # in-process compiles (pool down)
    noise_budget_errors: int = counter()  # requests failed with NOISE_BUDGET
    guard_trips: int = counter()  # runtime noise guards that fired
    noise_escalations: int = counter()  # re-runs at a larger preset
    shadow_checks: int = counter()  # runs cross-checked by the interpreter
    shadow_mismatches: int = counter()  # shadow checks finding a wrong output
    latency_ms: list[float] = counter("samples")  # ok-response latencies
    p50_ms = derived(lambda s: _percentile(s.latency_ms, 50), digits=3,
                     show="always", fmt="{:.2f}")
    p99_ms = derived(lambda s: _percentile(s.latency_ms, 99), digits=3,
                     show="always", fmt="{:.2f}")


@dataclass
class ExecutorStats(Counters):
    """HE-executor transform/memory counters (the planner's scoreboard).

    Accumulated across every ``run`` of one
    :class:`~repro.runtime.executor.HEExecutor`.  ``ntts_performed``
    counts measured NTT row transforms (one length-``N`` butterfly pass)
    inside tape execution; ``ntts_planned``/``ntts_elided`` are the domain
    plan's predicted rows and its savings versus the lazy policy —
    executors always run their plan, so ``ntts_performed ==
    ntts_planned`` holds exactly (the property tests pin it).
    """

    runs: int = counter(show="always")  # tape executions
    ntts_performed: int = counter(show="always")
    ntts_planned: int = counter(show="always")
    ntts_elided: int = counter(show="always")
    #: high-water bytes held by the running thread's scratch arena after
    #: a run; the arena serves every executor on that thread, so this
    #: counts their buffers too
    arena_bytes: int = counter("max", show="always")
    guard_checks: int = counter(show="always")  # mid-tape noise-budget samples
    guard_trips: int = counter(show="always")  # guard checks that raised
    noise_escalations: int = counter(show="always")  # re-runs, larger preset
    #: lowest output noise budget seen, in bits
    min_output_budget: int | None = counter(
        "min", default=None, show="always", fmt="{} bits"
    )


def profile_instructions(
    params: BFVParams, repeats: int = 5, seed: int = 0
) -> LatencyModel:
    """Measure the median latency of every Quill opcode in microseconds."""
    # imported here so synthesis-only users of this module (SearchStats
    # flows into every CEGIS run) never pay for the BFV substrate
    from repro.he import BFVContext

    ctx = BFVContext(params, seed=seed)
    rng = np.random.default_rng(seed)
    n = min(64, params.row_size)
    a = ctx.encrypt_vector(rng.integers(-20, 21, n))
    b = ctx.encrypt_vector(rng.integers(-20, 21, n))
    pt = ctx.encode(rng.integers(-20, 21, n))
    # pre-generate the rotation key so key generation is not measured
    ctx.generate_galois_key(ctx.encoder.galois_element_for_rotation(1))
    # warm the plaintext lift cache the same way repeated execution would
    ctx.multiply_plain(a, pt)

    product = ctx.multiply(a, b, relinearize=False)  # 3-part relin operand
    operations = {
        Opcode.ADD_CC: lambda: ctx.add(a, b),
        Opcode.SUB_CC: lambda: ctx.sub(a, b),
        Opcode.MUL_CC: lambda: ctx.multiply(a, b),
        Opcode.ADD_CP: lambda: ctx.add_plain(a, pt),
        Opcode.SUB_CP: lambda: ctx.sub_plain(a, pt),
        Opcode.MUL_CP: lambda: ctx.multiply_plain(a, pt),
        Opcode.ROTATE: lambda: ctx.rotate_rows(a, 1),
        Opcode.RELIN: lambda: ctx.relinearize(product),
    }
    table: dict[Opcode, float] = {}
    for opcode, operation in operations.items():
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            operation()
            samples.append((time.perf_counter() - t0) * 1e6)
        table[opcode] = float(np.median(samples))
    return LatencyModel(table, name=f"profiled-{params.name}")


def format_latency_table(model: LatencyModel) -> str:
    """Render a profiled table as Python source for checking in."""
    lines = [f"# profiled on preset {model.name}", "{"]
    for opcode, latency in model.table.items():
        lines.append(f"    Opcode.{opcode.name}: {latency:_.1f},")
    lines.append("}")
    return "\n".join(lines)
