"""Turn one run's operations and spans into the reported metrics.

End-to-end metrics come from untraced operations only.  The per-layer
ledger comes from a traced run's spans (see ``tracing.py``) plus the
counters the program already reports (compile reports, executor stats,
the serve ``stats`` op).  A layer a workload does not exercise reads 0.
"""

from __future__ import annotations

import statistics

from measures import geomean, percentile, spearman, tail_level
from tracing import DECRYPT_OPS, ENCRYPT_OPS, HE_OPS, OP_SPANS, children_of, self_time

#: (name, unit, better) of every end-to-end metric, in report order
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("latency_ms", "ms", "lower"),
    ("throughput_ops", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("program_cost", "cost", "lower"),
)

PASSES = ("synthesize", "optimize", "compose", "rewrite")
PRESETS = ("n4096", "n8192")
SCHEDULER = ("mean_occupancy", "coalesce_ratio", "queue_peak", "batches")
SERVE_ERRORS = (
    "deadline_exceeded",
    "overloaded",
    "noise_budget_errors",
    "guard_trips",
    "noise_escalations",
)


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Every per-layer metric: name -> (unit, better), in report order."""
    low, high = "lower", "higher"
    units = {f"api.passes.{p}_s": ("s", low) for p in PASSES}
    units.update({
        "api.compile.cache_hit_ratio": ("ratio", high),
        "solver.nodes": ("count", low),
        "solver.nodes_per_s": ("1/s", high),
        "solver.prune_ratio": ("ratio", high),
        "core.cegis.rounds": ("count", low),
        "symbolic.verify_s": ("s", low),
        "symbolic.verify_calls": ("count", low),
        "quill.rewrite.ops_removed": ("count", high),
        "quill.latency.rank_corr": ("ratio", high),
    })
    for phase in ("encrypt", "tape", "decrypt", "check", "tape_compile"):
        units[f"runtime.executor.{phase}_ms"] = ("ms", low)
    units["runtime.executor.ntt_rows_per_run"] = ("count", low)
    units["runtime.executor.batch_amortization"] = ("ratio", low)
    for preset in PRESETS:
        for op in HE_OPS:
            units[f"he.context.{preset}.{op}_us"] = ("us", low)
            units[f"he.context.{preset}.{op}_calls"] = ("count", low)
    for name in ("he.ntt.forward", "he.ntt.inverse", "he.rns.digits"):
        units[f"{name}_us"] = ("us", low)
        units[f"{name}_calls"] = ("count", low)
    units["he.ntt.share"] = ("ratio", low)
    for part in ("wire", "server", "queue", "execute"):
        units[f"serve.{part}_ms"] = ("ms", low)
    units["serve.batcher.mean_occupancy"] = ("count", high)
    units["serve.batcher.coalesce_ratio"] = ("ratio", high)
    units["serve.batcher.queue_peak"] = ("count", low)
    units["serve.batcher.batches"] = ("count", low)
    for field in SERVE_ERRORS:
        units[f"serve.errors.{field}"] = ("count", low)
    units.update({
        "serve.exec_busy_ratio": ("ratio", low),
        "trace.overhead_pct": ("%", low),
        "trace.unattributed_share": ("ratio", low),
        "trace.spans": ("count", low),
        "loadgen.late_ms_p99": ("ms", low),
    })
    return units


def kernel_medians(ops, key=lambda op: op.latency_s) -> dict[str, float]:
    """Per-kernel median of ``key`` over ``ops``."""
    samples: dict[str, list[float]] = {}
    for op in ops:
        value = key(op)
        if value is not None:
            samples.setdefault(op.kernel, []).append(value)
    return {k: statistics.median(v) for k, v in samples.items()}


def end_to_end(workload, setups: list[float], wall_s: float) -> dict:
    """The end-to-end metrics of an untraced run, by name."""
    from workloads import program_costs

    ops = [op for op in workload.ops if not op.traced and op.phase == "measure"]
    medians = kernel_medians(ops)
    mix = workload.mix
    if mix and all(k in medians for k in mix):
        # one operation at a time: the rate of the workload's mix at each
        # kernel's median time, so where the time budget cuts a pass of
        # multi-second compiles does not move it
        throughput = len(mix) / sum(medians[k] for k in mix)
    else:
        throughput = len(ops) / wall_s
    return {
        "setup_s": statistics.median(setups),
        "latency_ms": geomean([m * 1e3 for m in medians.values()]),
        "throughput_ops": throughput,
        "peak_rss_mb": workload.peak_rss_mb(),
        "program_cost": geomean(list(program_costs(workload.programs).values())),
    }


def details(workload, setups: list[float]) -> dict:
    """Informational numbers: sample counts, the tail, generator lateness."""
    ops = [op for op in workload.ops if not op.traced and op.phase == "measure"]
    latencies = [op.latency_s * 1e3 for op in ops]
    level = tail_level(len(latencies))
    late_p99 = percentile([s * 1e3 for s in workload.late_s], 99) if workload.late_s else None
    failed = sum(workload.failures.values())
    return {
        "samples": len(latencies),
        "fail_ratio": failed / (len(workload.ops) + failed),
        "setup_samples_s": setups,
        "p50_ms": percentile(latencies, 50) if latencies else None,
        "tail": (
            {"percentile": level, "ms": percentile(latencies, level)}
            if level is not None
            else None
        ),
        "kernel_median_ms": {
            k: v * 1e3 for k, v in sorted(kernel_medians(ops).items())
        },
        "failures": dict(workload.failures),
        "executor": workload.executor,
        "scheduler": workload.scheduler,
        "loadgen": {"late_ms_p99": late_p99},
        # an open loop that ran late measured its own stalls, not the server
        "valid": late_p99 is None or late_p99 <= 10.0,
    }


def _mean(total: float, count: float) -> float:
    return total / count if count else 0.0


def _overhead_pct(ops) -> float:
    """Traced vs untraced per-kernel medians, as a geomean percentage."""
    traced = kernel_medians([op for op in ops if op.traced])
    plain = kernel_medians([op for op in ops if not op.traced])
    ratios = [traced[k] / plain[k] for k in traced if k in plain and plain[k] > 0]
    return (geomean(ratios) - 1.0) * 100.0 if ratios else 0.0


def _batch_amortization(ops) -> float:
    """Tape time per element in coalesced batches over the unbatched time.

    Below 1 means batching amortizes tape work; 1.0 when the workload
    formed no batches of two or more.
    """
    single = kernel_medians([op for op in ops if op.batch == 1], lambda op: op.tape_s)
    batched = kernel_medians([op for op in ops if op.batch > 1], lambda op: op.tape_s)
    ratios = [batched[k] / single[k] for k in batched if single.get(k)]
    return geomean(ratios) if ratios else 1.0


def _rank_corr(workload, ops) -> float:
    """Does the Quill latency model order kernels like the measured tape?"""
    from repro.api.registry import KernelRegistry
    from repro.quill.latency import default_latency_model

    tape = kernel_medians(ops, lambda op: op.tape_s)
    kernels = sorted(k for k in tape if k in workload.programs)
    registry = KernelRegistry.builtin()
    modeled = [
        default_latency_model(registry.spec(k).params_name).program_latency(
            workload.programs[k]
        )
        for k in kernels
    ]
    return spearman(modeled, [tape[k] for k in kernels])


def _tape_ntt_s(executions, inside, spans) -> float:
    """NTT seconds spent inside tape operations (not encrypt/decrypt)."""
    by_id = {(s["process"], s["id"]): s for s in spans}
    off_tape = set(ENCRYPT_OPS) | set(DECRYPT_OPS)
    total = 0.0
    for root in executions:
        for span in inside(root):
            if not span["name"].startswith("he.ntt."):
                continue
            parent = by_id.get((span["process"], span["parent"]))
            while parent is not None and not parent["name"].startswith("he.context."):
                parent = by_id.get((parent["process"], parent["parent"]))
            if parent is not None and parent["name"].rsplit(".", 1)[-1] not in off_tape:
                total += span["end"] - span["start"]
    return total


def per_layer(workload, spans: list[dict]) -> dict:
    """The per-layer ledger of a traced run, by name."""
    values = dict.fromkeys(per_layer_metrics(), 0.0)
    children = children_of(spans)
    roots = [s for s in spans if s["parent"] is None and s["name"] in OP_SPANS]
    members: dict[tuple, list[dict]] = {}
    for span in spans:
        members.setdefault((span["process"], span["request"]), []).append(span)

    def inside(root):
        return members.get((root["process"], root["id"]), [])

    # -- compiler layers: root compiles that ran the pipeline
    compiles = [r for r in roots if r["name"] == "api.compile"]
    cold = [r for r in compiles if not r["attrs"]["cache_hit"]]
    if compiles:
        values["api.compile.cache_hit_ratio"] = 1.0 - len(cold) / len(compiles)
    if cold:
        n = len(cold)
        attrs = [r["attrs"] for r in cold]
        for p in PASSES:
            values[f"api.passes.{p}_s"] = sum(a["passes"].get(p, 0.0) for a in attrs) / n
        nodes = sum(a["nodes"] for a in attrs)
        pruned = sum(a["pruned"] for a in attrs)
        values["solver.nodes"] = nodes / n
        values["solver.nodes_per_s"] = _mean(nodes, sum(a["search_s"] for a in attrs))
        values["solver.prune_ratio"] = _mean(pruned, pruned + nodes)
        values["quill.rewrite.ops_removed"] = sum(a["ops_removed"] for a in attrs) / n
        spans_in = [s for r in cold for s in inside(r)]
        verifies = [s for s in spans_in if s["name"] == "symbolic.verify"]
        values["symbolic.verify_s"] = sum(s["end"] - s["start"] for s in verifies) / n
        values["symbolic.verify_calls"] = len(verifies) / n
        values["core.cegis.rounds"] = (
            sum(1 for s in spans_in if s["name"] == "core.cegis.counterexample") / n
        )

    # -- executor and HE layers: root executions (one element or a batch)
    executions = [r for r in roots if r["name"] != "api.compile"]
    requests = sum(r["attrs"]["batch"] for r in executions)
    phase_s = dict.fromkeys(("encrypt", "decrypt", "check"), 0.0)
    op_time: dict[str, list[float]] = {}
    for root in executions:
        for span in children.get((root["process"], root["id"]), []):
            name, duration = span["name"], span["end"] - span["start"]
            op = name.rsplit(".", 1)[-1]
            if name.startswith("runtime.check."):
                phase_s["check"] += duration
            elif name.startswith("he.context.") and op in ENCRYPT_OPS:
                phase_s["encrypt"] += duration
            elif name.startswith("he.context.") and op in DECRYPT_OPS:
                phase_s["decrypt"] += duration
        for span in inside(root):
            op_time.setdefault(span["name"], []).append(span["end"] - span["start"])
    for phase, seconds in phase_s.items():
        values[f"runtime.executor.{phase}_ms"] = _mean(seconds * 1e3, requests)
    values["runtime.executor.tape_ms"] = _mean(
        sum(r["attrs"]["tape_s"] for r in executions) * 1e3, requests
    )
    compiles_s = [s["end"] - s["start"] for s in spans if s["name"] == "runtime.executor.compile"]
    values["runtime.executor.tape_compile_ms"] = _mean(
        sum(compiles_s) * 1e3, len(workload.kernels)
    )
    stats = workload.executor
    values["runtime.executor.ntt_rows_per_run"] = _mean(
        stats.get("ntts_performed", 0), stats.get("runs", 0)
    )
    for preset in PRESETS:
        for op in HE_OPS:
            times = op_time.get(f"he.context.{preset}.{op}", [])
            values[f"he.context.{preset}.{op}_us"] = _mean(sum(times) * 1e6, len(times))
            values[f"he.context.{preset}.{op}_calls"] = _mean(len(times), requests)
    for name in ("he.ntt.forward", "he.ntt.inverse", "he.rns.digits"):
        times = op_time.get(name, [])
        values[f"{name}_us"] = _mean(sum(times) * 1e6, len(times))
        values[f"{name}_calls"] = _mean(len(times), requests)
    values["he.ntt.share"] = _mean(
        _tape_ntt_s(executions, inside, spans),
        sum(r["attrs"]["tape_s"] for r in executions),
    )

    # -- operations: model fidelity and batching, from untraced samples
    plain = [op for op in workload.ops if not op.traced]
    values["quill.latency.rank_corr"] = _rank_corr(workload, [op for op in plain if op.phase == "measure"])
    values["runtime.executor.batch_amortization"] = _batch_amortization(
        [op for op in plain if op.phase != "warmup"]
    )

    # -- serving layers: response timings, batch spans, scheduler counters
    served = [op for op in workload.ops if op.traced and op.server_s is not None]
    batches = [r["end"] - r["start"] for r in executions if r["name"] == "api.execute_batch"]
    if served and batches:
        # a request waits for its whole batch, so execute is per batch and
        # queue is the rest of the server's time (admission, linger, waiting
        # behind other batches, response encoding)
        server = statistics.median(op.server_s for op in served)
        execute = statistics.median(batches)
        values["serve.wire_ms"] = statistics.median(
            op.latency_s - op.server_s for op in served
        ) * 1e3
        values["serve.server_ms"] = server * 1e3
        values["serve.execute_ms"] = execute * 1e3
        values["serve.queue_ms"] = (server - execute) * 1e3
    scheduler = workload.scheduler
    for field in SCHEDULER:
        values[f"serve.batcher.{field}"] = float(scheduler.get(field, 0) or 0)
    for field in SERVE_ERRORS:
        values[f"serve.errors.{field}"] = float(scheduler.get(field, 0) or 0)
    values["serve.exec_busy_ratio"] = _mean(sum(batches), workload.traced_wall_s)

    # -- the trace itself
    values["trace.overhead_pct"] = _overhead_pct(
        [op for op in workload.ops if op.phase == "measure"]
    )
    measured = [r for r in roots if r["name"] != "api.compile" or not r["attrs"]["cache_hit"]]
    total = sum(r["end"] - r["start"] for r in measured)
    values["trace.unattributed_share"] = _mean(
        sum(self_time(r, children) for r in measured), total
    )
    values["trace.spans"] = float(len(spans))
    if workload.late_s:
        values["loadgen.late_ms_p99"] = percentile([s * 1e3 for s in workload.late_s], 99)
    return values
