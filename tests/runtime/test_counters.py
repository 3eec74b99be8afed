"""Golden schema of the counter classes and of the ``--timings`` text.

Dashboards and the benchmark suite read these payloads, so a refactor of
the counter plumbing must leave them key-for-key and value-for-value
identical: the exact ``summary()`` dict (keys in order, values, rounding)
of a populated :class:`SchedulerStats`, :class:`ExecutorStats` and
:class:`SearchStats`, the key sets of the serve ``stats`` op and of
``CompiledKernel.summary()``, and every number that ``porcupine run``,
``synth`` and ``serve --timings`` print.  Labels and layout of the text
may change; its numbers may not.
"""

import asyncio
import re
from types import SimpleNamespace

import pytest

from repro.__main__ import _print_executor_timings, main
from repro.api import Porcupine
from repro.runtime.profiler import ExecutorStats, SchedulerStats
from repro.serve import PorcupineServer, ServeConfig
from repro.serve.metrics import MetricsRegistry
from repro.solver.engine import SearchOutcome, SearchStats

#: a number not glued to a word (skips ``p50`` in a header or ``l2``)
_NUMBER = re.compile(r"(?<![\w.])\d[\d,]*(?:\.\d+)?(?!\w)")


def _numbers(text: str) -> list[float]:
    return sorted(float(m.replace(",", "")) for m in _NUMBER.findall(text))


def _scheduler(**overrides) -> SchedulerStats:
    values = dict(
        requests=17, responses=13, errors=4, queue_peak=6,
        compile_hits=2, compile_misses=1, deadline_exceeded=5,
        overloaded=7, retried_requests=8, pool_restarts=9,
        executor_restarts=10, degraded_compiles=11,
        noise_budget_errors=12, guard_trips=14, noise_escalations=15,
        shadow_checks=16, shadow_mismatches=3,
    )
    values.update(overrides)
    stats = SchedulerStats(**values)
    stats.latency_ms = [1.25, 2.5, 3.75, 12.0]
    return stats


def _executor(**overrides) -> ExecutorStats:
    values = dict(
        runs=3, ntts_performed=216, ntts_planned=215, ntts_elided=12,
        arena_bytes=2359296, guard_checks=4, guard_trips=1,
        noise_escalations=2, min_output_budget=53,
    )
    values.update(overrides)
    return ExecutorStats(**values)


def _search() -> SearchStats:
    stats = SearchStats()
    stats.record(SearchOutcome(
        status="exhausted", nodes=1234567, candidates=2,
        seconds=0.987654321, batches=310, dedup_hits=63,
        pruned={"dedup": 63, "commutative": 7, "adjacent": 0},
        ranks_skipped=2,
        shift_cache_peak=9, bound_updates=1, steals=3, chunks=5,
    ))
    stats.record(SearchOutcome(
        status="stopped", nodes=1000, candidates=1, seconds=0.25,
        batches=20, dedup_hits=5, pruned={"cost_bound": 11},
        shift_cache_peak=4, chunks=2,
    ))
    return stats


SCHEDULER_SUMMARY = {
    "requests": 17,
    "responses": 13,
    "errors": 4,
    "queue_peak": 6,
    "compile_hits": 2,
    "compile_misses": 1,
    "cache_hit_rate": 0.667,
    "deadline_exceeded": 5,
    "overloaded": 7,
    "retried_requests": 8,
    "pool_restarts": 9,
    "executor_restarts": 10,
    "degraded_compiles": 11,
    "noise_budget_errors": 12,
    "guard_trips": 14,
    "noise_escalations": 15,
    "shadow_checks": 16,
    "shadow_mismatches": 3,
    "p50_ms": 3.125,
    "p99_ms": 11.752,
}

EXECUTOR_SUMMARY = {
    "runs": 3,
    "ntts_performed": 216,
    "ntts_planned": 215,
    "ntts_elided": 12,
    "arena_bytes": 2359296,
    "guard_checks": 4,
    "guard_trips": 1,
    "noise_escalations": 2,
    "min_output_budget": 53,
}

SEARCH_SUMMARY = {
    "runs": 2,
    "nodes": 1235567,
    "candidates": 3,
    "seconds": 1.237654,
    "nodes_per_sec": 998313.5,
    "batches": 330,
    "dedup_hits": 68,
    "pruned": {"adjacent": 0, "commutative": 7, "cost_bound": 11,
               "dedup": 63},
    "ranks_skipped": 2,
    "shift_cache_peak": 9,
    "bound_updates": 1,
    "steals": 3,
    "chunks": 7,
}


def _items(d: dict) -> list:
    """Items in order, nested dicts included (``==`` ignores order)."""
    return [
        (key, _items(value) if isinstance(value, dict) else value)
        for key, value in d.items()
    ]


# ---------------------------------------------------------------------------
# summary() dicts: keys in order, values, rounding
# ---------------------------------------------------------------------------

def test_scheduler_summary_is_golden():
    assert _items(_scheduler().summary()) == _items(SCHEDULER_SUMMARY)


def test_scheduler_summary_without_samples_or_compiles():
    summary = SchedulerStats().summary()
    assert list(summary) == list(SCHEDULER_SUMMARY)
    assert summary["cache_hit_rate"] == 0.0
    assert summary["p50_ms"] is None and summary["p99_ms"] is None


def test_executor_summary_is_golden():
    assert _items(_executor().summary()) == _items(EXECUTOR_SUMMARY)
    assert ExecutorStats().summary()["min_output_budget"] is None


def test_search_summary_is_golden():
    assert _items(_search().summary()) == _items(SEARCH_SUMMARY)


def test_search_minus_summary_is_golden():
    """``ctx.metrics["optimize"]`` is ``after.minus(before).summary()``."""
    before = SearchStats()
    before.record(SearchOutcome(
        status="exhausted", nodes=1000, candidates=1, seconds=0.25,
        pruned={"dedup": 2}, shift_cache_peak=12,
    ))
    after = _search()
    share = after.minus(before).summary()
    # sums clamp at zero, the high-water mark is the minuend's (9, not 12)
    expected = dict(
        SEARCH_SUMMARY,
        runs=1,
        nodes=1234567,
        candidates=2,
        seconds=0.987654,
        nodes_per_sec=1249999.1,
        pruned={"adjacent": 0, "commutative": 7, "cost_bound": 11,
                "dedup": 61},
    )
    assert _items(share) == _items(expected)


# ---------------------------------------------------------------------------
# wire payloads: the serve stats op and CompiledKernel.summary()
# ---------------------------------------------------------------------------

def test_stats_op_key_sets():
    session = Porcupine()
    config = ServeConfig(backend="interpreter", precompile=("gx",))

    async def body(server):
        await server.handle_request(
            {"op": "run", "kernel": "gx", "seed": 1, "tenant": "acme"}
        )
        return await server.handle_request({"op": "stats"})

    async def scenario():
        server = PorcupineServer(session, config)
        await server.startup()
        try:
            return await body(server)
        finally:
            await server.stop()

    stats = asyncio.run(scenario())
    assert set(stats) == {
        "scheduler", "kernels", "tenants", "queue_depth", "id", "ok",
        "uptime_s", "hot_kernels", "config", "executor", "health",
    }
    assert list(stats["scheduler"]) == list(SCHEDULER_SUMMARY)
    assert list(stats["kernels"]["gx"]) == list(SCHEDULER_SUMMARY)
    assert list(stats["tenants"]["acme"]) == list(SCHEDULER_SUMMARY)
    assert list(stats["executor"]) == list(EXECUTOR_SUMMARY)
    assert set(stats["health"]) == {
        "pool_restarts", "pool_degraded", "executor_restarts",
    }


def test_compiled_kernel_summary_keys():
    session = Porcupine(synthesis_defaults={"optimize_timeout": 5})
    payload = session.compile("box_blur").summary()
    assert list(payload) == [
        "kernel", "instructions", "rotations", "relins", "galois_keys",
        "relin_mode", "depth", "multiplicative_depth", "cache",
        "pass_seconds", "synthesis", "pass_metrics",
    ]
    assert list(payload["synthesis"]["profile"]) == list(SEARCH_SUMMARY)
    assert list(payload["pass_metrics"]["synthesize"]) == list(SEARCH_SUMMARY)
    assert list(payload["pass_metrics"]["optimize"]) == list(SEARCH_SUMMARY)


# ---------------------------------------------------------------------------
# --timings: every printed number
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("budget", [53, None])
def test_run_timings_numbers(capsys, budget):
    """``porcupine run --timings`` (and ``serve --timings`` on HE)."""
    stats = _executor(min_output_budget=budget)
    _print_executor_timings(SimpleNamespace(executor_stats=lambda: stats))
    expected = [3, 216, 215, 12, 2359296, 4, 1, 2]
    if budget is not None:
        expected.append(budget)
    assert _numbers(capsys.readouterr().err) == sorted(expected)


def test_synth_timings_numbers(capsys, monkeypatch, tmp_path):
    import repro.core.cegis as cegis

    real = cegis.synthesize

    def synthesize(*args, **kwargs):
        result = real(*args, **kwargs)
        result.search_stats = _search()
        return result

    monkeypatch.setattr(cegis, "synthesize", synthesize)
    checkpoint = tmp_path / "ck.json"
    assert main(
        ["synth", "dot_product", "--timings", "--checkpoint", str(checkpoint)]
    ) == 0
    err = capsys.readouterr().err
    # lines starting with "#" are the CLI's own notes (cost, checkpoint)
    report = "\n".join(
        line for line in err.splitlines() if not line.startswith("#")
    )
    # nodes, nodes/s, runs, dedup hits
    assert _numbers(report) == sorted([1235567, 998314, 2, 68])


def test_serve_timings_numbers():
    registry = MetricsRegistry()
    registry.overall = _scheduler()
    registry.per_kernel = {
        "gx": _scheduler(requests=5, errors=1),
        "l2": _scheduler(requests=2, errors=0, compile_hits=0,
                         compile_misses=0),
    }
    registry.per_kernel["l2"].latency_ms = []
    # per row: requests, errors, hit %, p50 and p99 (none without samples)
    assert _numbers(registry.format_table()) == sorted([
        17, 4, 67, 3.12, 11.75,
        5, 1, 67, 3.12, 11.75,
        2, 0, 0,
    ])
