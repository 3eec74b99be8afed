"""HE-runtime benchmark: the execution-side perf trajectory tracker.

Measures, against the retained big-integer reference path
(``slow_reference=True``, the seed implementation):

* per-opcode microbenchmark latencies (µs) of the RNS-native BFV runtime,
  single-ciphertext and batched (amortized per ciphertext),
* per-kernel NTT row counts of the tape-level domain plan versus the
  lazy policy (deterministic: the plan is an exact simulation of the
  executor, and the planned count is re-measured live),
* end-to-end ``HEExecutor.run`` wall times on the seed kernels' baseline
  programs,
* ``run_many`` batch throughput — sequential single runs versus one
  batched pass (domain plan + scratch arenas + the executor's automatic
  shard count), and
* multicore lockstep sharding: the automatic shard count against the
  ``workers=1`` single pass, on ``n4096-depth1`` in full mode (the
  evidence for the executor's shard-count rule).

Everything is recorded into ``BENCH_runtime.json`` (schema 2) at the
repository root.  Run it after touching anything in ``repro.he`` or the
executor::

    PYTHONPATH=src python benchmarks/bench_he_runtime.py          # full
    PYTHONPATH=src python benchmarks/bench_he_runtime.py --quick  # CI

``--check-floor`` compares measured per-opcode latencies against the
checked-in ceilings in ``benchmarks/runtime_floor.json`` and exits
nonzero when any opcode runs more than 5x *slower* than its floor entry —
a loose tripwire that survives noisy CI machines but catches algorithmic
regressions (mirroring the synthesis throughput floor).  Planned NTT row
counts are gated *exactly* (``toy-insecure.ntt_rows.<kernel>`` entries):
they are deterministic functions of the tape and parameters, so any
growth is a planner regression, not noise.  Refresh with
``--update-floor`` after an intentional change on a quiet machine.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
FLOOR_FILE = Path(__file__).resolve().parent / "runtime_floor.json"
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_runtime.json"

sys.path.insert(0, str(REPO_ROOT / "src"))

from harness import (  # noqa: E402
    ceiling_failure,
    load_floors,
    report_failures,
    save_floors,
)
from repro.baselines import BASELINE_BUILDERS, baseline_for  # noqa: E402
from repro.he import BFVContext  # noqa: E402
from repro.he.params import small_params, toy_params  # noqa: E402
from repro.runtime.executor import HEExecutor, shard_count  # noqa: E402
from repro.spec import get_spec  # noqa: E402

E2E_KERNELS = ("box_blur", "gx")
BATCH_SIZE = 4  # opcode microbenchmark batch width
MULTICORE_KERNEL = "box_blur"


def _best(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def bench_opcodes(params, repeats: int, batch: int) -> dict:
    """Per-opcode µs: reference vs RNS (single and batched-amortized).

    The reference path runs on its own ``slow_reference`` context with
    freshly encrypted operands, so no fast-path NTT caches leak into the
    baseline measurement.
    """
    ctx = BFVContext(params, seed=1)
    ref_ctx = BFVContext(params, seed=1, slow_reference=True)
    rng = np.random.default_rng(1)
    n = min(40, params.row_size)
    va = rng.integers(-20, 21, n)
    vb = rng.integers(-20, 21, n)
    a1, b1 = ctx.encrypt_vector(va), ctx.encrypt_vector(vb)
    ra, rb = ref_ctx.encrypt_vector(va), ref_ctx.encrypt_vector(vb)
    ab = ctx.encrypt_vector(rng.integers(-20, 21, (batch, n)))
    bb = ctx.encrypt_vector(rng.integers(-20, 21, (batch, n)))
    pt = ctx.encode(va)
    ref_pt = ref_ctx.encode(va)
    for c in (ctx, ref_ctx):
        c.generate_galois_key(c.encoder.galois_element_for_rotation(1))
    ctx.multiply_plain(a1, pt)  # warm the plaintext lift caches
    ref_ctx.multiply_plain(ra, ref_pt)

    cases = {
        "mul_ct_ct": (
            lambda c, x, y: c.multiply(x, y),
            (a1, b1),
            (ab, bb),
            (ra, rb),
        ),
        "rotate": (
            lambda c, x, _: c.rotate_rows(x, 1),
            (a1, None),
            (ab, None),
            (ra, None),
        ),
        "add_ct_ct": (
            lambda c, x, y: c.add(x, y),
            (a1, b1),
            (ab, bb),
            (ra, rb),
        ),
        "mul_ct_pt": (
            lambda c, x, _: c.multiply_plain(x, pt if c is ctx else ref_pt),
            (a1, None),
            (ab, None),
            (ra, None),
        ),
    }
    out: dict[str, dict] = {}
    for name, (op, single, batched, reference) in cases.items():
        rns_single = _best(lambda: op(ctx, *single), repeats) * 1e6
        rns_batched = _best(lambda: op(ctx, *batched), repeats) * 1e6 / batch
        ref = _best(lambda: op(ref_ctx, *reference), repeats) * 1e6
        out[name] = {
            "reference_us": round(ref, 1),
            "rns_us": round(rns_single, 1),
            "rns_batched_us_per_ct": round(rns_batched, 1),
            "speedup": round(ref / rns_single, 2) if rns_single else None,
            "speedup_batched": (
                round(ref / rns_batched, 2) if rns_batched else None
            ),
            # batched amortization vs the single-ciphertext RNS path:
            # below 1.0 means batching made the opcode *slower* per ct
            # (the cheap-opcode regression this reports on)
            "batch_amortization": (
                round(rns_single / rns_batched, 2) if rns_batched else None
            ),
        }
    return out


def _kernel_envs(spec, batch: int, seed: int = 2) -> list[dict]:
    """Batch envs in the run_many contract: ct inputs vary per element,
    server-side plaintext operands are shared across the batch."""
    rng = np.random.default_rng(seed)
    base = {p.name: rng.integers(0, 5, p.shape) for p in spec.layout.inputs}
    ct_names = set(spec.packed_env(base)[0])
    envs = [base]
    for _ in range(1, batch):
        drawn = {
            p.name: rng.integers(0, 5, p.shape) for p in spec.layout.inputs
        }
        envs.append(
            {
                name: drawn[name] if name in ct_names else base[name]
                for name in base
            }
        )
    return envs


def bench_ntt_counts(params) -> dict:
    """Per-kernel NTT row counts, domain plan vs the lazy policy.

    Counts are deterministic (the plan simulates the executor's domain
    state machine exactly); the lazy column is the plan's own count of
    the rows an unplanned replay performs.  Each planned count is
    re-measured against the live counters so a simulation drift shows
    up here before it shows up as a wrong floor entry.
    """
    out: dict[str, dict] = {}
    for kernel in sorted(BASELINE_BUILDERS):
        spec = get_spec(kernel)
        program = baseline_for(kernel)
        executor = HEExecutor(spec, params=params, seed=7)
        plan = executor.compile(program).plan
        executor.run(program, _kernel_envs(spec, 1)[0])
        out[kernel] = {
            "ntt_rows_lazy": plan.ntts_lazy,
            "ntt_rows_planned": plan.ntts_planned,
            "ntt_rows_elided": plan.ntts_elided,
            "reduction_pct": (
                round(100.0 * plan.ntts_elided / plan.ntts_lazy, 1)
                if plan.ntts_lazy
                else 0.0
            ),
            "measured_matches_plan": bool(
                executor.stats.ntts_performed == plan.ntts_planned
            ),
        }
    return out


def bench_multicore(kernel: str, params, batch: int, repeats: int) -> dict:
    """Lockstep sharding: the automatic shard count vs one pass.

    Outputs must be identical at every shard count (sharding is a pure
    partition of the batch axis).  Wall-clock gains need real cores and
    a ring large enough for the NTT kernels to run with the GIL
    released; :func:`shard_count` only shards where that holds, and
    these rows are its evidence.
    """
    spec = get_spec(kernel)
    program = baseline_for(kernel)
    envs = _kernel_envs(spec, batch)
    executor = HEExecutor(spec, params=params, seed=7)
    executor.compile(program)
    auto = shard_count(params, batch)
    rows: dict[str, dict] = {}
    baseline_outputs = None
    base_total = None
    for workers in sorted({1, auto}):
        executor.run_many(program, envs, workers=workers)  # warm arenas
        report = min(
            (
                executor.run_many(program, envs, workers=workers)
                for _ in range(repeats)
            ),
            key=lambda r: r.total_seconds,
        )
        outputs = [r.model_output for r in report.reports]
        if baseline_outputs is None:
            baseline_outputs = outputs
            base_total = report.total_seconds
        identical = all(
            np.array_equal(a, b)
            for a, b in zip(baseline_outputs, outputs)
        )
        rows[str(workers)] = {
            "total_seconds": round(report.total_seconds, 4),
            "evaluate_seconds": round(report.evaluate_seconds, 4),
            "seconds_per_run": round(report.total_seconds / batch, 4),
            "scaling_vs_workers1": (
                round(base_total / report.total_seconds, 2)
                if report.total_seconds
                else None
            ),
            "outputs_identical_to_workers1": bool(identical),
            "all_match": bool(report.all_match),
        }
    return {
        "kernel": kernel,
        "params": params.name,
        "batch_size": batch,
        "auto_shards": auto,
        "workers": rows,
    }


def bench_end_to_end(kernel: str, params, repeats: int, batch: int) -> dict:
    """End-to-end executor runs: reference vs RNS vs batched run_many.

    ``batch_vs_single_speedup`` is one batched pass (with the executor's
    automatic shard count, recorded in the row) against the same number
    of sequential single runs.
    """
    spec = get_spec(kernel)
    program = baseline_for(kernel)
    envs = _kernel_envs(spec, batch)

    fast = HEExecutor(spec, params=params, seed=7)
    slow = HEExecutor(spec, params=params, seed=7, slow_reference=True)
    # compile outside timing on both sides (keys/tape are one-time setup)
    fast.compile(program)
    slow.compile(program)

    def run_fast():
        report = fast.run(program, envs[0])
        assert report.matches_reference
        return report

    def run_slow():
        report = slow.run(program, envs[0])
        assert report.matches_reference
        return report

    def run_batch():
        report = fast.run_many(program, envs)
        assert report.all_match
        return report

    rns_s = _best(run_fast, repeats)
    ref_s = _best(run_slow, repeats)
    run_batch()  # warm the shard arenas out of the timed runs
    batch_seconds = _best(run_batch, repeats)
    sequential = rns_s * batch
    return {
        "params": fast.params.name,
        "instructions": program.instruction_count(),
        "reference_seconds": round(ref_s, 4),
        "rns_seconds": round(rns_s, 4),
        "speedup": round(ref_s / rns_s, 2) if rns_s else None,
        "batch_size": batch,
        "batch_shards": shard_count(fast.params, batch),
        "batch_total_seconds": round(batch_seconds, 4),
        "batch_seconds_per_run": round(batch_seconds / batch, 4),
        "batch_vs_single_speedup": (
            round(sequential / batch_seconds, 2) if batch_seconds else None
        ),
        "batch_vs_reference_speedup": (
            round(ref_s * batch / batch_seconds, 2) if batch_seconds else None
        ),
    }


def check_floor(
    params_name: str, opcode_results: dict, ntt_results: dict
) -> list[str]:
    """Opcodes now more than 5x slower than their checked-in latency,
    plus *exact* planned-NTT-row ceilings per kernel.

    Latency floor entries are keyed ``<params>.<opcode>`` so quick (toy)
    and full (secure preset) runs track separate baselines.  NTT entries
    are keyed ``toy-insecure.ntt_rows.<kernel>`` and checked with no
    slack: the count is a deterministic function of the tape and
    parameters, so any growth is a planner regression.
    """
    floors = load_floors(FLOOR_FILE)
    if floors is None:
        return []
    failures = []
    for name, row in opcode_results.items():
        floor_us = floors.get(f"{params_name}.{name}")
        if floor_us is None:
            continue
        failure = ceiling_failure(
            f"{params_name}.{name}",
            row["rns_us"],
            floor_us,
            slack=5.0,
            unit="us",
            detail=" (opcode latency)",
        )
        if failure:
            failures.append(failure)
    for kernel, row in ntt_results.items():
        ceiling = floors.get(f"toy-insecure.ntt_rows.{kernel}")
        if ceiling is None:
            continue
        failure = ceiling_failure(
            f"toy-insecure.ntt_rows.{kernel}",
            row["ntt_rows_planned"],
            ceiling,
            detail=" (planned NTT rows — a planner regression)",
        )
        if failure:
            failures.append(failure)
        if not row["measured_matches_plan"]:
            failures.append(
                f"toy-insecure.ntt_rows.{kernel}: measured NTT rows "
                "diverge from the plan's prediction (simulation drift)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="HE runtime benchmark -> BENCH_runtime.json"
    )
    parser.add_argument("--quick", action="store_true",
                        help="CI subset: toy parameters, fewer repeats")
    parser.add_argument("--check-floor", action="store_true",
                        help="fail if any opcode runs >5x slower than the "
                             "checked-in floor")
    parser.add_argument("--update-floor", action="store_true",
                        help="rewrite benchmarks/runtime_floor.json from "
                             "this run's measurements")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"result file (default {DEFAULT_OUTPUT})")
    parser.add_argument("--batch", type=int, default=16, metavar="N",
                        help="batch size for the end-to-end and multicore "
                             "sections (default 16)")
    args = parser.parse_args(argv)

    mode = "quick" if args.quick else "full"
    params = toy_params() if args.quick else small_params()
    repeats = 3 if args.quick else 7
    # the end-to-end section measures executor overhead (dispatch
    # amortization, planning), which the toy preset exposes; opcode
    # latencies above and the multicore section track the secure preset
    # in full mode.  Each row records the params it ran on.
    e2e_params = toy_params()

    print(f"opcode microbenchmarks on {params.name} ...", flush=True)
    opcodes = bench_opcodes(params, repeats, BATCH_SIZE)
    for name, row in opcodes.items():
        print(
            f"  {name:10s} ref {row['reference_us']:>10,.0f}us"
            f"  rns {row['rns_us']:>9,.0f}us ({row['speedup']}x)"
            f"  batched {row['rns_batched_us_per_ct']:>9,.0f}us/ct"
            f" ({row['speedup_batched']}x, "
            f"amortization {row['batch_amortization']}x)"
        )

    # the secure preset's cheap opcodes are memory-bandwidth-bound, so
    # batching is at best flat there; the dispatch-amortization story is
    # a toy-preset measurement, tracked separately in full mode
    opcodes_toy = opcodes
    if not args.quick:
        print("opcode microbenchmarks on toy-insecure ...", flush=True)
        opcodes_toy = bench_opcodes(toy_params(), repeats, BATCH_SIZE)
        for name, row in opcodes_toy.items():
            print(
                f"  {name:10s} rns {row['rns_us']:>9,.0f}us"
                f"  batched {row['rns_batched_us_per_ct']:>9,.0f}us/ct"
                f" (amortization {row['batch_amortization']}x)"
            )

    print("NTT domain planning on toy-insecure ...", flush=True)
    ntt_counts = bench_ntt_counts(toy_params())
    for kernel, row in ntt_counts.items():
        print(
            f"  {kernel:22s} lazy {row['ntt_rows_lazy']:>4d} rows ->"
            f" planned {row['ntt_rows_planned']:>4d}"
            f" (elided {row['ntt_rows_elided']}, "
            f"{row['reduction_pct']}%)"
            f"{'' if row['measured_matches_plan'] else '  DRIFT'}"
        )

    end_to_end: dict[str, dict] = {}
    for kernel in E2E_KERNELS:
        print(f"end-to-end {kernel} ...", flush=True)
        end_to_end[kernel] = bench_end_to_end(
            kernel, e2e_params, repeats, args.batch
        )
        row = end_to_end[kernel]
        print(
            f"  ref {row['reference_seconds']}s -> rns {row['rns_seconds']}s "
            f"({row['speedup']}x); batch[{row['batch_size']}] "
            f"{row['batch_seconds_per_run']}s/run "
            f"({row['batch_vs_single_speedup']}x vs sequential singles, "
            f"{row['batch_vs_reference_speedup']}x vs ref)"
        )

    print(
        f"multicore lockstep sharding ({MULTICORE_KERNEL} on "
        f"{params.name}) ...",
        flush=True,
    )
    multicore = bench_multicore(
        MULTICORE_KERNEL, params, args.batch, repeats
    )
    for workers, row in multicore["workers"].items():
        print(
            f"  workers={workers}: {row['total_seconds']}s total "
            f"({row['scaling_vs_workers1']}x vs workers=1, "
            f"identical={row['outputs_identical_to_workers1']})"
        )

    report = {
        "schema": 2,
        "mode": mode,
        "params": params.name,
        "opcodes": opcodes,
        "opcodes_toy": opcodes_toy,
        "ntt_counts": ntt_counts,
        "end_to_end": end_to_end,
        "multicore": multicore,
        "metrics": {
            **{
                f"{name}.speedup": row["speedup"]
                for name, row in opcodes.items()
            },
            **{
                f"{name}.speedup_batched": row["speedup_batched"]
                for name, row in opcodes.items()
            },
            **{
                f"{name}.batch_amortization": row["batch_amortization"]
                for name, row in opcodes.items()
            },
            **{
                f"toy.{name}.batch_amortization": row["batch_amortization"]
                for name, row in opcodes_toy.items()
            },
            **{
                f"{kernel}.ntt_rows_elided": row["ntt_rows_elided"]
                for kernel, row in ntt_counts.items()
            },
            **{
                f"{kernel}.e2e_speedup": row["speedup"]
                for kernel, row in end_to_end.items()
            },
            **{
                f"{kernel}.batch_vs_single": row["batch_vs_single_speedup"]
                for kernel, row in end_to_end.items()
            },
        },
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"written to {args.output}")

    if args.update_floor:
        updates = {
            f"{params.name}.{name}": row["rns_us"]
            for name, row in opcodes.items()
        }
        updates.update(
            (f"toy-insecure.ntt_rows.{kernel}", row["ntt_rows_planned"])
            for kernel, row in ntt_counts.items()
        )
        save_floors(FLOOR_FILE, updates, merge=True)

    if args.check_floor:
        return report_failures(check_floor(params.name, opcodes, ntt_counts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
