"""Quill optimizer benchmark: op-count and latency deltas, tracked.

Measures what the middle-end (:mod:`repro.quill.rewrite`) buys on every
registry kernel:

* static op counts, optimizer off vs on — executable homomorphic ops
  (relins included: eager programs pay one hidden relinearization per
  ct-ct multiply), rotations, relins, ct-ct multiplies, Galois keys,
  and modelled latency;
* end-to-end encrypted ``HEExecutor.run`` wall times, optimizer off vs
  on, for a subset of kernels (the rotation-only kernels box_blur/gx
  guard against regressions; roberts shows the lazy-relin win).

Unoptimized programs are deterministic — hand-written baselines for
direct kernels, baseline-built compositions for sobel/harris — so the
op-count section needs no synthesis and its floors can be exact.  With
``--synthesized`` the same comparison also runs on the synthesized suite
through a :class:`repro.api.Porcupine` session (slow: CEGIS runs).

Everything is recorded into ``BENCH_quill_opt.json`` at the repository
root.  Run it after touching the optimizer::

    PYTHONPATH=src python benchmarks/bench_quill_opt.py          # full
    PYTHONPATH=src python benchmarks/bench_quill_opt.py --quick  # CI

``--check-floor`` compares against ``benchmarks/quill_opt_floor.json``:
optimized op counts must not exceed their committed ceilings (exact —
the optimizer is deterministic) and the optimized end-to-end runs must
stay within 1.25x of the unoptimized ones (a loose tripwire for noisy
CI machines; the interesting direction — the optimizer *helping* — is
visible in the recorded ratios).  Refresh with ``--update-floor``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
FLOOR_FILE = Path(__file__).resolve().parent / "quill_opt_floor.json"
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_quill_opt.json"

sys.path.insert(0, str(REPO_ROOT / "src"))

from harness import (  # noqa: E402
    ceiling_failure,
    load_floors,
    report_failures,
    save_floors,
    write_report,
)
from repro.api.registry import KernelRegistry  # noqa: E402
from repro.he.params import toy_params  # noqa: E402
from repro.quill.latency import default_latency_model  # noqa: E402
from repro.quill.rewrite import default_pass_manager  # noqa: E402
from repro.runtime.executor import HEExecutor  # noqa: E402

GUARD_KERNELS = ("box_blur", "gx")  # must not regress end to end
# roberts needs a real parameter preset (its product exhausts the toy
# budget), so it only runs in full mode — where it shows the lazy-relin
# end-to-end win
FULL_E2E_KERNELS = GUARD_KERNELS + ("roberts",)
E2E_RATIO_CEILING = 1.25


def counts(program) -> dict:
    model = default_latency_model(
        "n4096-depth1"
        if program.vector_size <= 2048
        else "n8192-depth3"
    )
    return {
        "executable_ops": program.executable_op_count(),
        "rotations": program.rotation_count(),
        "relins": program.relin_count(),
        "mul_cc": program.multiply_cc_count(),
        "galois_keys": program.galois_key_count(),
        "modelled_latency_ms": round(
            model.program_latency(program) / 1e3, 1
        ),
    }


def bench_op_counts(registry: KernelRegistry) -> dict:
    """Optimizer off vs on, statically, for every registry kernel."""
    out: dict[str, dict] = {}
    for name in registry.names():
        spec = registry.spec(name)
        before = registry.baseline_program(name)
        result = default_pass_manager().run(before, spec=spec)
        after = result.program
        row = {
            "before": counts(before),
            "after": counts(after),
            "verified": result.verified,
            "optimizer_seconds": round(result.seconds, 4),
            "pass_changes": [
                {"name": r.name, **{k: v for k, v in r.delta().items() if v}}
                for r in result.reports
                if r.changed
            ],
        }
        out[name] = row
    return out


def bench_synthesized(seed: int = 0) -> dict:
    """The same comparison on the synthesized suite (runs CEGIS: slow).

    The "before" program is the post-phase-2 (cost-minimized),
    pre-rewrite output — direct kernels keep it on
    ``CompiledKernel.synthesis``, composed kernels re-stitch their
    compiled components — so the delta isolates exactly what the
    rewrite suite buys, not what synthesis minimization already did.
    """
    from repro.api import Porcupine
    from repro.core.multistep import compose

    session = Porcupine(seed=seed)
    out: dict[str, dict] = {}
    for name in session.kernels():
        compiled = session.compile(name)
        if compiled.synthesis is not None:
            before = compiled.synthesis.program
        else:
            graph = session.definition(name).composition
            before = compose(
                graph,
                {k: session.compile(k).program for k in graph.kernels},
            )
        out[name] = {
            "before": counts(before),
            "after": counts(compiled.program),
        }
    return out


def bench_end_to_end(registry: KernelRegistry, quick: bool, repeats: int) -> dict:
    """Encrypted wall time per kernel, optimizer off vs on."""
    params = toy_params() if quick else None
    out: dict[str, dict] = {}
    for name in GUARD_KERNELS if quick else FULL_E2E_KERNELS:
        spec = registry.spec(name)
        before = registry.baseline_program(name)
        after = default_pass_manager().run(before, spec=spec).program
        executor = HEExecutor(spec, params=params, seed=7)
        rng = np.random.default_rng(3)
        logical = {
            p.name: rng.integers(0, 5, p.shape) for p in spec.layout.inputs
        }
        executor.compile(before)
        executor.compile(after)

        def best(program):
            times = []
            for _ in range(repeats):
                report = executor.run(program, logical)
                assert report.matches_reference, name
                times.append(report.wall_time)
            return min(times)

        off_s = best(before)
        on_s = best(after)
        out[name] = {
            "params": executor.params.name,
            "unoptimized_seconds": round(off_s, 4),
            "optimized_seconds": round(on_s, 4),
            "ratio": round(on_s / off_s, 3) if off_s else None,
            "ops": {
                "before": before.executable_op_count(),
                "after": after.executable_op_count(),
            },
        }
    return out


def check_floor(op_counts: dict, end_to_end: dict) -> list[str]:
    floors = load_floors(FLOOR_FILE)
    if floors is None:
        return []
    failures = []
    for name, row in op_counts.items():
        for metric in ("executable_ops", "rotations", "relins", "galois_keys"):
            ceiling = floors.get(f"{name}.{metric}")
            if ceiling is None:
                continue
            failure = ceiling_failure(
                f"{name}.{metric}",
                row["after"][metric],
                ceiling,
                detail=" (optimized program op count)",
            )
            if failure:
                failures.append(failure)
    for name in GUARD_KERNELS:
        row = end_to_end.get(name)
        if row is None or row["ratio"] is None:
            continue
        if row["ratio"] > E2E_RATIO_CEILING:
            failures.append(
                f"{name}: optimized end-to-end run is {row['ratio']}x the "
                f"unoptimized one (ceiling {E2E_RATIO_CEILING}x)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Quill optimizer benchmark -> BENCH_quill_opt.json"
    )
    parser.add_argument("--quick", action="store_true",
                        help="CI subset: toy HE parameters, fewer repeats")
    parser.add_argument("--synthesized", action="store_true",
                        help="also compare the synthesized suite "
                             "(runs CEGIS; slow)")
    parser.add_argument("--check-floor", action="store_true",
                        help="fail on op-count or latency-ratio regressions "
                             "against the committed floor")
    parser.add_argument("--update-floor", action="store_true",
                        help="rewrite benchmarks/quill_opt_floor.json from "
                             "this run")
    parser.add_argument("--output", type=Path, default=None,
                        help=f"result file (default {DEFAULT_OUTPUT}, "
                             "which a --quick run leaves alone)")
    args = parser.parse_args(argv)

    registry = KernelRegistry.builtin()
    repeats = 3 if args.quick else 7

    print("static op counts (optimizer off -> on) ...", flush=True)
    t0 = time.perf_counter()
    op_counts = bench_op_counts(registry)
    for name, row in op_counts.items():
        b, a = row["before"], row["after"]
        print(
            f"  {name:24s} ops {b['executable_ops']:3d}->{a['executable_ops']:3d}"
            f"  rot {b['rotations']:2d}->{a['rotations']:2d}"
            f"  relin {b['relins']}->{a['relins']}"
            f"  keys {b['galois_keys']}->{a['galois_keys']}"
            f"  {b['modelled_latency_ms']:>9,.1f}ms->"
            f"{a['modelled_latency_ms']:>9,.1f}ms"
        )
    print(f"  ({time.perf_counter() - t0:.1f}s, every program re-verified)")

    print("end-to-end encrypted runs ...", flush=True)
    end_to_end = bench_end_to_end(registry, args.quick, repeats)
    for name, row in end_to_end.items():
        print(
            f"  {name:10s} {row['unoptimized_seconds']}s -> "
            f"{row['optimized_seconds']}s ({row['ratio']}x) on {row['params']}"
        )

    synthesized = None
    if args.synthesized:
        print("synthesized suite (CEGIS) ...", flush=True)
        synthesized = bench_synthesized()
        for name, row in synthesized.items():
            b, a = row["before"], row["after"]
            print(
                f"  {name:24s} ops {b['executable_ops']:3d}->"
                f"{a['executable_ops']:3d}  relin {b['relins']}->{a['relins']}"
            )

    report = {
        "schema": 1,
        "mode": "quick" if args.quick else "full",
        "op_counts": op_counts,
        "end_to_end": end_to_end,
        "metrics": {
            **{
                f"{name}.ops_saved": (
                    row["before"]["executable_ops"]
                    - row["after"]["executable_ops"]
                )
                for name, row in op_counts.items()
            },
            **{
                f"{name}.relins_saved": (
                    row["before"]["relins"] - row["after"]["relins"]
                )
                for name, row in op_counts.items()
            },
            **{
                f"{name}.e2e_ratio": row["ratio"]
                for name, row in end_to_end.items()
            },
        },
    }
    if synthesized is not None:
        report["synthesized"] = synthesized
    write_report(report, args.output, DEFAULT_OUTPUT)

    if args.update_floor:
        save_floors(
            FLOOR_FILE,
            {
                f"{name}.{metric}": row["after"][metric]
                for name, row in op_counts.items()
                for metric in (
                    "executable_ops",
                    "rotations",
                    "relins",
                    "galois_keys",
                )
            },
        )

    if args.check_floor:
        return report_failures(check_floor(op_counts, end_to_end))
    return 0


if __name__ == "__main__":
    sys.exit(main())
