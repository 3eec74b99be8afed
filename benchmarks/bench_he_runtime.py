"""HE-runtime benchmark: the execution-side perf trajectory tracker.

Measures, against the retained big-integer reference path
(``slow_reference=True``, the seed implementation):

* per-opcode microbenchmark latencies (µs) of the RNS-native BFV runtime,
* per-kernel NTT row counts of the tape-level domain plan versus the
  lazy policy (deterministic: the plan is an exact simulation of the
  executor, and the planned count is re-measured live),
* end-to-end ``HEExecutor.run`` wall times on the seed kernels' baseline
  programs, and
* the batched NTT itself: per-row forward/inverse µs of ``BatchNTT``
  (the four-step float64 matrix transform) against the radix-2
  per-prime ``NTTContext`` reference, at n4096 and n8192, on one ring
  element, the key-switch digit stack and the tensor stack (always
  measured, ``--quick`` included).

Everything is recorded into ``BENCH_runtime.json`` (schema 3) at the
repository root.  Run it after touching anything in ``repro.he`` or the
executor::

    PYTHONPATH=src python benchmarks/bench_he_runtime.py          # full
    PYTHONPATH=src python benchmarks/bench_he_runtime.py --quick  # CI

``--check-floor`` compares measured per-opcode (and per-row NTT)
latencies against the
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
from repro.he.arena import ScratchArena, execution_scope  # noqa: E402
from repro.he.params import (  # noqa: E402
    large_params,
    small_params,
    toy_params,
)
from repro.runtime.executor import HEExecutor  # noqa: E402
from repro.spec import get_spec  # noqa: E402

E2E_KERNELS = ("box_blur", "gx")


def _best(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def bench_opcodes(params, repeats: int) -> dict:
    """Per-opcode µs: reference vs RNS.

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
            (ra, rb),
        ),
        "rotate": (
            lambda c, x, _: c.rotate_rows(x, 1),
            (a1, None),
            (ra, None),
        ),
        "add_ct_ct": (
            lambda c, x, y: c.add(x, y),
            (a1, b1),
            (ra, rb),
        ),
        "mul_ct_pt": (
            lambda c, x, _: c.multiply_plain(x, pt if c is ctx else ref_pt),
            (a1, None),
            (ra, None),
        ),
    }
    out: dict[str, dict] = {}
    for name, (op, single, reference) in cases.items():
        rns = _best(lambda: op(ctx, *single), repeats) * 1e6
        ref = _best(lambda: op(ref_ctx, *reference), repeats) * 1e6
        out[name] = {
            "reference_us": round(ref, 1),
            "rns_us": round(rns, 1),
            "speedup": round(ref / rns, 2) if rns else None,
        }
    return out


def bench_ntt(repeats: int) -> dict:
    """Per-row µs of ``BatchNTT`` vs the per-prime radix-2 reference.

    Three stacks per secure preset, shaped as the runtime transforms
    them: one ring element ``(k, n)``, the key-switch digit stack
    ``(digits, k, n)``, and the tensor stack ``(4, k_ext, n)`` in the
    extension basis.  The batched transform runs inside an execution
    scope, as on the executor's tape, so its workspaces come from a
    warm scratch arena.
    """
    out: dict[str, dict] = {}
    for params in (small_params(), large_params()):
        ctx = BFVContext(params, seed=1)
        rng = np.random.default_rng(1)
        stacks = {
            "ring": (ctx.ring, ()),
            "keyswitch_digits": (ctx.ring, (ctx._digit_count,)),
            "tensor": (ctx._ext_ring, (4,)),
        }
        rows_out: dict[str, dict] = {}
        for name, (ring, lead) in stacks.items():
            col = ring._primes_col
            x = rng.integers(0, 1 << 62, lead + (len(col), ring.n)) % col
            rows = x.size // ring.n

            def per_row(fn) -> float:
                return round(_best(fn, repeats) * 1e6 / rows, 1)

            def reference(direction: str) -> None:
                for j, ntt in enumerate(ring.ntts):
                    getattr(ntt, direction)(x[..., j, :])

            with execution_scope(ScratchArena()):
                fwd = per_row(
                    lambda: ring.batch_ntt.forward(x, assume_reduced=True)
                )
                inv = per_row(
                    lambda: ring.batch_ntt.inverse(x, assume_reduced=True)
                )
            ref_fwd = per_row(lambda: reference("forward"))
            ref_inv = per_row(lambda: reference("inverse"))
            rows_out[name] = {
                "shape": list(x.shape),
                "forward_us_per_row": fwd,
                "inverse_us_per_row": inv,
                "reference_forward_us_per_row": ref_fwd,
                "reference_inverse_us_per_row": ref_inv,
                "forward_speedup": round(ref_fwd / fwd, 2),
                "inverse_speedup": round(ref_inv / inv, 2),
            }
        out[params.name] = rows_out
    return out


def _kernel_env(spec, seed: int = 2) -> dict:
    """One in-range environment for ``spec``."""
    rng = np.random.default_rng(seed)
    return {p.name: rng.integers(0, 5, p.shape) for p in spec.layout.inputs}


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
        executor.run(program, _kernel_env(spec))
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


def bench_end_to_end(kernel: str, params, repeats: int) -> dict:
    """End-to-end executor runs: reference vs RNS."""
    spec = get_spec(kernel)
    program = baseline_for(kernel)
    env = _kernel_env(spec)

    fast = HEExecutor(spec, params=params, seed=7)
    slow = HEExecutor(spec, params=params, seed=7, slow_reference=True)
    # compile outside timing on both sides (keys/tape are one-time setup)
    fast.compile(program)
    slow.compile(program)

    def run_fast():
        report = fast.run(program, env)
        assert report.matches_reference
        return report

    def run_slow():
        report = slow.run(program, env)
        assert report.matches_reference
        return report

    rns_s = _best(run_fast, repeats)
    ref_s = _best(run_slow, repeats)
    return {
        "params": fast.params.name,
        "instructions": program.instruction_count(),
        "reference_seconds": round(ref_s, 4),
        "rns_seconds": round(rns_s, 4),
        "speedup": round(ref_s / rns_s, 2) if rns_s else None,
    }


def check_floor(
    params_name: str,
    opcode_results: dict,
    ntt_results: dict,
    transforms: dict,
) -> list[str]:
    """Opcodes and NTT rows now more than 5x slower than their checked-in
    latency, plus *exact* planned-NTT-row ceilings per kernel.

    Latency floor entries are keyed ``<params>.<opcode>`` so quick (toy)
    and full (secure preset) runs track separate baselines; per-row
    transform entries are keyed ``ntt.<params>.<stack>.<direction>``.
    NTT row-count entries are keyed ``toy-insecure.ntt_rows.<kernel>``
    and checked with no slack: the count is a deterministic function of
    the tape and parameters, so any growth is a planner regression.
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
    for key, us in _transform_latencies(transforms).items():
        floor_us = floors.get(key)
        if floor_us is None:
            continue
        failure = ceiling_failure(
            key, us, floor_us, slack=5.0, unit="us",
            detail=" (NTT µs per row)",
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


def _transform_latencies(transforms: dict) -> dict[str, float]:
    """Floor keys ``ntt.<params>.<stack>.<direction>`` -> µs per row."""
    return {
        f"ntt.{params}.{stack}.{direction}": row[f"{direction}_us_per_row"]
        for params, stacks in transforms.items()
        for stack, row in stacks.items()
        for direction in ("forward", "inverse")
    }


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
    args = parser.parse_args(argv)

    mode = "quick" if args.quick else "full"
    params = toy_params() if args.quick else small_params()
    repeats = 3 if args.quick else 7
    # the end-to-end section measures executor overhead (planning,
    # tape dispatch), which the toy preset exposes; opcode latencies
    # above track the secure preset in full mode.  Each row records the
    # params it ran on.
    e2e_params = toy_params()

    print(f"opcode microbenchmarks on {params.name} ...", flush=True)
    opcodes = bench_opcodes(params, repeats)
    for name, row in opcodes.items():
        print(
            f"  {name:10s} ref {row['reference_us']:>10,.0f}us"
            f"  rns {row['rns_us']:>9,.0f}us ({row['speedup']}x)"
        )

    print("batched NTT vs the radix-2 per-prime reference ...", flush=True)
    transforms = bench_ntt(repeats)
    for params_name, stacks in transforms.items():
        for stack, row in stacks.items():
            print(
                f"  {params_name} {stack:16s} {str(tuple(row['shape'])):18s}"
                f" fwd {row['forward_us_per_row']:>7,.1f}us/row"
                f" ({row['forward_speedup']}x)"
                f"  inv {row['inverse_us_per_row']:>7,.1f}us/row"
                f" ({row['inverse_speedup']}x)"
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
        end_to_end[kernel] = bench_end_to_end(kernel, e2e_params, repeats)
        row = end_to_end[kernel]
        print(
            f"  ref {row['reference_seconds']}s -> rns {row['rns_seconds']}s "
            f"({row['speedup']}x)"
        )

    report = {
        "schema": 3,
        "mode": mode,
        "params": params.name,
        "opcodes": opcodes,
        "ntt": transforms,
        "ntt_counts": ntt_counts,
        "end_to_end": end_to_end,
        "metrics": {
            **{
                f"{name}.speedup": row["speedup"]
                for name, row in opcodes.items()
            },
            **{
                f"ntt.{params_name}.{stack}.{direction}_speedup": (
                    row[f"{direction}_speedup"]
                )
                for params_name, stacks in transforms.items()
                for stack, row in stacks.items()
                for direction in ("forward", "inverse")
            },
            **{
                f"{kernel}.ntt_rows_elided": row["ntt_rows_elided"]
                for kernel, row in ntt_counts.items()
            },
            **{
                f"{kernel}.e2e_speedup": row["speedup"]
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
        updates.update(_transform_latencies(transforms))
        save_floors(FLOOR_FILE, updates, merge=True)

    if args.check_floor:
        return report_failures(
            check_floor(params.name, opcodes, ntt_counts, transforms)
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
