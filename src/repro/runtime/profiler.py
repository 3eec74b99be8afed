"""Instruction latency and synthesis-throughput profiling.

The paper derives Quill's per-instruction latencies by profiling SEAL
(section 4.2); this module does the same against :mod:`repro.he`.  The
resulting table can be checked into :mod:`repro.quill.latency` so that
synthesis stays deterministic across machines — only relative magnitudes
matter to the cost model.

:class:`SchedulerStats` is the serving-side profile: one metrics shape
shared by the ``porcupine serve`` admission queue, the ``stats`` wire op
and the CLI's ``--timings`` report — requests, responses, typed errors by
code, queue high-water mark, compile cache hit rate, and request-latency
percentiles.  It lives here, next to :class:`SearchStats`, so online
serving and offline reporting never drift apart in what they count.

:class:`SearchStats` is the synthesis-side profile: it aggregates the
per-run statistics of every engine :class:`~repro.solver.engine.SearchOutcome`
a CEGIS run issued (counterexample rounds, length increments, parallel
chunks) into the numbers reported by ``BENCH_synthesis.json``, the
session's per-pass timing report, and the CLI's ``--timings`` flag:
nodes/sec, per-pruning-rule skip counters (``pruned``), cross-round
reuse (``reused_values``, ``appended_columns``, ``ranks_skipped``), the
value store's shift-cache high-water mark (``shift_cache_peak``), and
the work-stealing driver's ``chunks``/``steals``/``bound_updates``.  It
lives beside :class:`~repro.solver.engine.SearchOutcome` (so the
synthesis path never imports the HE substrate) and is re-exported here
as part of the profiling surface.  All wall-clock figures come from
``time.perf_counter``; ``SearchStats.minus`` clamps every field at zero
so per-phase shares stay well-ordered under clock granularity.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.solver.engine import SearchStats  # noqa: F401  (profiling surface)

if TYPE_CHECKING:  # pragma: no cover - synthesis-only imports stay light
    from repro.he.params import BFVParams

from repro.quill.ir import Opcode
from repro.quill.latency import LatencyModel


@dataclass
class SchedulerStats:
    """Serving counters: the one serving metrics shape.

    Produced by ``repro.serve`` (per kernel, per tenant, and globally),
    returned by the ``stats`` wire op, and rendered by ``porcupine serve
    --timings`` — so a dashboard reading the wire and an operator
    reading the server's shutdown report see identical fields.
    """

    requests: int = 0  # accepted run requests
    responses: int = 0  # completed (ok) responses
    errors: int = 0
    queue_peak: int = 0  # high-water pending-queue depth
    compile_hits: int = 0
    compile_misses: int = 0
    deadline_exceeded: int = 0  # requests that ran out of budget
    overloaded: int = 0  # requests rejected by admission control
    retried_requests: int = 0  # client-declared retry attempts
    pool_restarts: int = 0  # compile-pool respawns after worker crashes
    executor_restarts: int = 0  # execution-thread supervisor restarts
    degraded_compiles: int = 0  # compiles served in-process (pool down)
    noise_budget_errors: int = 0  # requests failed with NOISE_BUDGET
    guard_trips: int = 0  # runtime noise guards that fired while serving
    noise_escalations: int = 0  # transparent re-runs at a larger preset
    shadow_checks: int = 0  # runs cross-checked against the interpreter
    shadow_mismatches: int = 0  # shadow checks that caught a wrong output
    latency_ms: list[float] = field(default_factory=list, repr=False)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of compile requests served from the shared cache."""
        total = self.compile_hits + self.compile_misses
        return self.compile_hits / total if total else 0.0

    def percentile_ms(self, q: float) -> float | None:
        """Latency percentile (``q`` in [0, 100]) over recorded samples."""
        if not self.latency_ms:
            return None
        return float(np.percentile(np.asarray(self.latency_ms), q))

    def merge(self, other: "SchedulerStats") -> "SchedulerStats":
        """Pointwise sum (per-kernel stats fold into the global row)."""
        merged = SchedulerStats(
            requests=self.requests + other.requests,
            responses=self.responses + other.responses,
            errors=self.errors + other.errors,
            queue_peak=max(self.queue_peak, other.queue_peak),
            compile_hits=self.compile_hits + other.compile_hits,
            compile_misses=self.compile_misses + other.compile_misses,
            deadline_exceeded=(
                self.deadline_exceeded + other.deadline_exceeded
            ),
            overloaded=self.overloaded + other.overloaded,
            retried_requests=(
                self.retried_requests + other.retried_requests
            ),
            pool_restarts=self.pool_restarts + other.pool_restarts,
            executor_restarts=(
                self.executor_restarts + other.executor_restarts
            ),
            degraded_compiles=(
                self.degraded_compiles + other.degraded_compiles
            ),
            noise_budget_errors=(
                self.noise_budget_errors + other.noise_budget_errors
            ),
            guard_trips=self.guard_trips + other.guard_trips,
            noise_escalations=(
                self.noise_escalations + other.noise_escalations
            ),
            shadow_checks=self.shadow_checks + other.shadow_checks,
            shadow_mismatches=(
                self.shadow_mismatches + other.shadow_mismatches
            ),
        )
        merged.latency_ms = self.latency_ms + other.latency_ms
        return merged

    def summary(self) -> dict:
        """JSON-ready snapshot (the serving bench/report schema)."""
        return {
            "requests": self.requests,
            "responses": self.responses,
            "errors": self.errors,
            "queue_peak": self.queue_peak,
            "compile_hits": self.compile_hits,
            "compile_misses": self.compile_misses,
            "cache_hit_rate": round(self.cache_hit_rate, 3),
            "deadline_exceeded": self.deadline_exceeded,
            "overloaded": self.overloaded,
            "retried_requests": self.retried_requests,
            "pool_restarts": self.pool_restarts,
            "executor_restarts": self.executor_restarts,
            "degraded_compiles": self.degraded_compiles,
            "noise_budget_errors": self.noise_budget_errors,
            "guard_trips": self.guard_trips,
            "noise_escalations": self.noise_escalations,
            "shadow_checks": self.shadow_checks,
            "shadow_mismatches": self.shadow_mismatches,
            "p50_ms": _round_or_none(self.percentile_ms(50)),
            "p99_ms": _round_or_none(self.percentile_ms(99)),
        }


@dataclass
class ExecutorStats:
    """HE-executor transform/memory counters (the planner's scoreboard).

    Accumulated across every ``run`` of one
    :class:`~repro.runtime.executor.HEExecutor`; surfaced by
    ``porcupine run --timings`` and the serve ``stats`` op next to
    :class:`SchedulerStats`.  ``ntts_performed`` counts measured NTT row
    transforms (one length-``N`` butterfly pass) inside tape execution;
    ``ntts_planned``/``ntts_elided`` are the domain plan's predicted
    rows and its savings versus the lazy policy — executors always run
    their plan, so ``ntts_performed ==
    ntts_planned`` holds exactly (the property tests pin it).  ``arena_bytes`` is the
    high-water scratch footprint of the executor's arena.
    """

    runs: int = 0  # tape executions
    ntts_performed: int = 0
    ntts_planned: int = 0
    ntts_elided: int = 0
    arena_bytes: int = 0  # high-water bytes held by scratch arenas
    guard_checks: int = 0  # mid-tape noise-budget samples taken
    guard_trips: int = 0  # guard checks (mid-tape or output) that raised
    noise_escalations: int = 0  # re-runs at the next-larger preset
    min_output_budget: int | None = None  # lowest output budget seen, bits

    def merge(self, other: "ExecutorStats") -> "ExecutorStats":
        """Pointwise fold (per-kernel executor rows into a global row)."""
        budgets = [
            b
            for b in (self.min_output_budget, other.min_output_budget)
            if b is not None
        ]
        return ExecutorStats(
            runs=self.runs + other.runs,
            ntts_performed=self.ntts_performed + other.ntts_performed,
            ntts_planned=self.ntts_planned + other.ntts_planned,
            ntts_elided=self.ntts_elided + other.ntts_elided,
            arena_bytes=max(self.arena_bytes, other.arena_bytes),
            guard_checks=self.guard_checks + other.guard_checks,
            guard_trips=self.guard_trips + other.guard_trips,
            noise_escalations=(
                self.noise_escalations + other.noise_escalations
            ),
            min_output_budget=min(budgets) if budgets else None,
        )

    def summary(self) -> dict:
        """JSON-ready snapshot (bench / stats-op / --timings schema)."""
        return {
            "runs": self.runs,
            "ntts_performed": self.ntts_performed,
            "ntts_planned": self.ntts_planned,
            "ntts_elided": self.ntts_elided,
            "arena_bytes": self.arena_bytes,
            "guard_checks": self.guard_checks,
            "guard_trips": self.guard_trips,
            "noise_escalations": self.noise_escalations,
            "min_output_budget": self.min_output_budget,
        }


def format_executor_stats(stats: ExecutorStats) -> str:
    """Render executor counters the way ``--timings`` renders timings."""
    budget = (
        "n/a"
        if stats.min_output_budget is None
        else f"{stats.min_output_budget} bits"
    )
    return (
        "executor stats:\n"
        f"  tape runs          {stats.runs}\n"
        f"  ntts performed     {stats.ntts_performed}\n"
        f"  ntts planned       {stats.ntts_planned}\n"
        f"  ntts elided        {stats.ntts_elided}\n"
        f"  arena bytes        {stats.arena_bytes}\n"
        f"  guard checks       {stats.guard_checks}\n"
        f"  guard trips        {stats.guard_trips}\n"
        f"  noise escalations  {stats.noise_escalations}\n"
        f"  min output budget  {budget}"
    )


def format_search_stats(summary: dict) -> str:
    """Render a ``SearchStats.summary()`` dict the way ``--timings``
    renders the other stat blocks (lemma-store and seed-bound counters
    included when any are non-zero)."""
    lines = [
        "search stats:",
        f"  nodes              {summary.get('nodes', 0)}",
        f"  nodes/s            {summary.get('nodes_per_sec', 0):,.0f}",
        f"  runs               {summary.get('runs', 0)}",
        f"  dedup hits         {summary.get('dedup_hits', 0)}",
    ]
    if summary.get("lemma_hits") or summary.get("lemma_misses"):
        lines.append(
            f"  lemma store        {summary.get('lemma_hits', 0)} hit(s) / "
            f"{summary.get('lemma_misses', 0)} miss(es) / "
            f"{summary.get('lemma_skips', 0)} skip(s)"
        )
    if summary.get("seed_bounds"):
        lines.append(
            f"  seeded bounds      {summary.get('seed_bounds', 0)} "
            f"({summary.get('seed_retries', 0)} unseeded retry(ies))"
        )
    return "\n".join(lines)


def _round_or_none(value: float | None, digits: int = 3) -> float | None:
    return round(value, digits) if value is not None else None


def format_scheduler_table(
    overall: SchedulerStats, per_kernel: dict[str, SchedulerStats]
) -> str:
    """Render serving stats the way ``--timings`` renders pass timings."""
    lines = [
        "scheduler stats:",
        f"  {'kernel':18s} {'reqs':>6s} {'errors':>7s} {'hit%':>6s} "
        f"{'p50ms':>9s} {'p99ms':>9s}",
    ]

    def row(name: str, stats: SchedulerStats) -> str:
        p50, p99 = stats.percentile_ms(50), stats.percentile_ms(99)
        return (
            f"  {name:18s} {stats.requests:6d} {stats.errors:7d} "
            f"{stats.cache_hit_rate * 100:5.0f}% "
            f"{p50 if p50 is not None else float('nan'):9.2f} "
            f"{p99 if p99 is not None else float('nan'):9.2f}"
        )

    for name in sorted(per_kernel):
        lines.append(row(name, per_kernel[name]))
    lines.append(row("(all)", overall))
    return "\n".join(lines)


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
