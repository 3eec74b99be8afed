"""Synthesis-engine throughput benchmark: the perf trajectory tracker.

Measures, per kernel, and records everything into ``BENCH_synthesis.json``
at the repository root:

* the search engine's enumeration rate (nodes/sec) on exhaustive
  fixed-length searches;
* the **per-rule pruning ablation**: exhaustive-search node counts with
  each pruning rule individually disabled, and with all of them off,
  attributing the searched-space reduction rule by rule;
* end-to-end synthesis node counts and wall times, **pruned vs
  unpruned** (byte-identical programs, the soundness receipt).

Run it after touching anything on the synthesis hot path::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py          # full
    PYTHONPATH=src python benchmarks/bench_engine_throughput.py --quick  # CI

``--check-floor`` compares this run against ``benchmarks/
throughput_floor.json``: engine nodes/sec must stay within 5x of the
checked-in floor (a loose tripwire that survives noisy CI machines), and
searched-node counts must not exceed their exact ceilings — node counts
are deterministic, so a pruning regression fails CI deterministically
instead of via flaky timing.  Refresh with ``--update-floor`` after an
intentional change.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
FLOOR_FILE = Path(__file__).resolve().parent / "throughput_floor.json"
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_synthesis.json"

sys.path.insert(0, str(REPO_ROOT / "src"))

from harness import (  # noqa: E402
    ceiling_failure,
    floor_failure,
    load_floors,
    report_failures,
    save_floors,
    write_report,
)
from repro.core.cegis import SynthesisConfig, synthesize  # noqa: E402
from repro.core.sketches import default_sketch_for  # noqa: E402
from repro.quill.latency import default_latency_model  # noqa: E402
from repro.quill.printer import format_program  # noqa: E402
from repro.solver.engine import (  # noqa: E402
    PRUNE_RULES,
    SearchOptions,
    SketchSearch,
)
from repro.spec import get_spec  # noqa: E402

MODEL = default_latency_model()


@dataclass(frozen=True)
class EngineCase:
    """One engine-exhaustion measurement: kernel x sketch size."""

    kernel: str
    length: int
    examples: int = 2
    seed: int = 3
    quick: bool = False  # include in the CI smoke subset

    @property
    def key(self) -> str:
        return f"{self.kernel}@L{self.length}"


ENGINE_CASES = (
    EngineCase("box_blur", 3, quick=True),
    EngineCase("dot_product", 4, quick=True),
    EngineCase("l2", 3, quick=True),
    EngineCase("hamming", 4),
    EngineCase("gx", 3),
)

# end-to-end synthesis (phase 1 + phase 2) tracking; the pruned-vs-unpruned
# comparison also runs on the quick subset (byte-identity is the receipt
# that every pruning rule is sound)
SYNTH_CASES = {
    "quick": ("box_blur", "dot_product"),
    "full": ("box_blur", "dot_product", "hamming", "linear_regression"),
}

ABLATION_CAP_SECONDS = 30.0


def _outcome_payload(outcome, seconds: float) -> dict:
    return {
        "status": outcome.status,
        "nodes": outcome.nodes,
        "candidates": outcome.candidates,
        "batches": outcome.batches,
        "dedup_hits": outcome.dedup_hits,
        "seconds": round(seconds, 4),
        "nodes_per_sec": round(outcome.nodes / seconds, 1) if seconds else 0.0,
    }


def _exhaust(case: EngineCase, options: SearchOptions, cap: float | None):
    spec = get_spec(case.kernel)
    sketch = default_sketch_for(spec)
    rng = np.random.default_rng(case.seed)
    example_set = [spec.make_example(rng) for _ in range(case.examples)]
    search = SketchSearch(
        sketch, spec.layout, example_set, MODEL, case.length, options=options
    )
    deadline = time.perf_counter() + cap if cap else None
    started = time.perf_counter()
    outcome = search.run(lambda a: (False, None), deadline=deadline)
    return outcome, time.perf_counter() - started


def run_engine_case(case: EngineCase) -> dict:
    outcome, seconds = _exhaust(case, SearchOptions(), None)
    return {
        "kernel": case.kernel,
        "length": case.length,
        "examples": case.examples,
        **_outcome_payload(outcome, seconds),
    }


def run_ablation_case(case: EngineCase, cap: float) -> dict:
    """Exhaustion node counts with each pruning rule disabled in turn."""
    base_outcome, base_seconds = _exhaust(case, SearchOptions(), cap)
    payload: dict = {
        "kernel": case.kernel,
        "length": case.length,
        "all_rules": {
            "nodes": base_outcome.nodes,
            "status": base_outcome.status,
            "seconds": round(base_seconds, 4),
            "pruned": {
                rule: count
                for rule, count in base_outcome.pruned.items()
                if count
            },
        },
        "rules": {},
    }
    for rule in PRUNE_RULES:
        outcome, seconds = _exhaust(
            case, SearchOptions().without(rule), cap
        )
        complete = outcome.status == "exhausted"
        payload["rules"][rule] = {
            "nodes": outcome.nodes,
            "status": outcome.status,
            "seconds": round(seconds, 4),
            # nodes the rule saved (meaningless on a capped partial run)
            "saved_nodes": (
                outcome.nodes - base_outcome.nodes if complete else None
            ),
        }
    none_outcome, none_seconds = _exhaust(
        case, SearchOptions.no_prune(), cap
    )
    payload["no_prune"] = {
        "nodes": none_outcome.nodes,
        "status": none_outcome.status,
        "seconds": round(none_seconds, 4),
        "node_ratio": (
            round(none_outcome.nodes / base_outcome.nodes, 2)
            if none_outcome.status == "exhausted" and base_outcome.nodes
            else None
        ),
    }
    return payload


def run_synth_case(kernel: str) -> dict:
    """End-to-end synthesis: default vs unpruned (byte-identity check)."""
    spec = get_spec(kernel)
    sketch = default_sketch_for(spec)

    def compile_with(
        options: SearchOptions | None, workers: int = 1
    ) -> tuple[dict, str]:
        config = SynthesisConfig(
            optimize_timeout=30.0, search_options=options, workers=workers
        )
        started = time.perf_counter()
        result = synthesize(spec, sketch, config)
        wall = time.perf_counter() - started
        payload = {
            "wall_seconds": round(wall, 4),
            "initial_seconds": round(result.initial_time, 4),
            "components": result.components,
            "instructions": result.program.instruction_count(),
            "examples": result.examples_used,
            "final_cost": result.final_cost,
            "proof_complete": result.proof_complete,
            "nodes": result.nodes,
        }
        if result.search_stats is not None:
            payload["engine"] = result.search_stats.summary()
        return payload, format_program(result.program)

    pruned, pruned_text = compile_with(None)
    unpruned, unpruned_text = compile_with(SearchOptions.no_prune())
    pruned["unpruned"] = {
        "nodes": unpruned["nodes"],
        "wall_seconds": unpruned["wall_seconds"],
        "proof_complete": unpruned["proof_complete"],
        "node_ratio": (
            round(unpruned["nodes"] / pruned["nodes"], 2)
            if pruned["nodes"]
            else None
        ),
        "program_identical": pruned_text == unpruned_text,
    }
    parallel, parallel_text = compile_with(None, workers=4)
    pruned["workers4"] = {
        "wall_seconds": parallel["wall_seconds"],
        "steals": parallel.get("engine", {}).get("steals", 0),
        "chunks": parallel.get("engine", {}).get("chunks", 0),
        "program_identical": parallel_text == pruned_text,
    }
    return pruned


def check_floor(engine_results: dict, synthesis_results: dict) -> list[str]:
    """Violations of the checked-in floors and exact node ceilings."""
    floors = load_floors(FLOOR_FILE)
    if floors is None:
        return []
    failures = []
    for key, floor in floors.get("engine", {}).items():
        measured = engine_results.get(key, {})
        if not measured:
            continue  # floor entry for a case this run did not measure
        nps = measured.get("nodes_per_sec")
        if nps is not None:
            failure = floor_failure(
                key, nps, floor["nodes_per_sec"],
                fraction=0.2, unit=" nodes/s",
            )
            if failure:
                failures.append(failure)
        nodes = measured.get("nodes")
        if nodes is not None:
            failure = ceiling_failure(
                key, nodes, floor["max_nodes"],
                unit=" nodes", detail=" — a pruning regression",
            )
            if failure:
                failures.append(failure)
    for kernel, ceiling in floors.get("synthesis", {}).items():
        payload = synthesis_results.get(kernel)
        if payload is None or not payload.get("proof_complete"):
            continue  # ceilings only bind deterministic (complete) runs
        failure = ceiling_failure(
            f"synthesis {kernel}", payload["nodes"], ceiling,
            unit=" nodes", detail=" — a pruning/reuse regression",
        )
        if failure:
            failures.append(failure)
    return failures


def update_floor(engine_results: dict, synthesis_results: dict) -> None:
    """Merge this run into the floor file (keep unmeasured entries)."""
    floors = (
        json.loads(FLOOR_FILE.read_text()) if FLOOR_FILE.exists() else {}
    )
    if "engine" not in floors:  # migrate the flat schema-1 layout
        floors = {"engine": {}, "synthesis": {}}
    floors["schema"] = 3
    for key, payload in engine_results.items():
        floors["engine"][key] = {
            "nodes_per_sec": payload["nodes_per_sec"],
            "max_nodes": payload["nodes"],
        }
    for kernel, payload in synthesis_results.items():
        if payload.get("proof_complete"):
            floors["synthesis"][kernel] = payload["nodes"]
    save_floors(FLOOR_FILE, floors)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="engine throughput benchmark -> BENCH_synthesis.json"
    )
    parser.add_argument("--quick", action="store_true",
                        help="CI subset: fast kernels, short ablation cap")
    parser.add_argument("--check-floor", action="store_true",
                        help="fail on >5x nodes/sec regressions or any "
                             "searched-node ceiling violation")
    parser.add_argument("--update-floor", action="store_true",
                        help="rewrite benchmarks/throughput_floor.json from "
                             "this run's measurements")
    parser.add_argument("--no-synthesis", action="store_true",
                        help="skip the end-to-end synthesis sections")
    parser.add_argument("--no-ablation", action="store_true",
                        help="skip the per-rule pruning ablation")
    parser.add_argument("--output", type=Path, default=None,
                        help=f"result file (default {DEFAULT_OUTPUT}, "
                             "which a --quick run leaves alone)")
    args = parser.parse_args(argv)

    mode = "quick" if args.quick else "full"
    ablation_cap = 10.0 if args.quick else ABLATION_CAP_SECONDS
    cases = [c for c in ENGINE_CASES if c.quick] if args.quick else ENGINE_CASES

    engine_results: dict[str, dict] = {}
    for case in cases:
        print(f"engine {case.key} ...", flush=True)
        payload = run_engine_case(case)
        engine_results[case.key] = payload
        print(
            f"  {payload['nodes']:,} nodes"
            f"  {payload['nodes_per_sec']:>12,.0f} nodes/s"
        )

    ablation_results: dict[str, dict] = {}
    if not args.no_ablation:
        for case in cases:
            print(f"ablation {case.key} ...", flush=True)
            payload = run_ablation_case(case, ablation_cap)
            ablation_results[case.key] = payload
            ratio = payload["no_prune"]["node_ratio"]
            print(
                f"  {payload['all_rules']['nodes']:,} nodes with all rules, "
                f"{payload['no_prune']['nodes']:,} with none "
                f"({ratio}x)" if ratio else "  (capped)"
            )

    synthesis_results: dict[str, dict] = {}
    if not args.no_synthesis:
        for kernel in SYNTH_CASES[mode]:
            print(f"synthesize {kernel} ...", flush=True)
            payload = run_synth_case(kernel)
            synthesis_results[kernel] = payload
            unpruned = payload["unpruned"]
            print(
                f"  {payload['wall_seconds']}s, {payload['nodes']:,} nodes "
                f"(unpruned {unpruned['nodes']:,}, "
                f"{unpruned['node_ratio']}x, identical="
                f"{unpruned['program_identical']}; workers=4 identical="
                f"{payload['workers4']['program_identical']}, "
                f"{payload['workers4']['steals']} steals)"
            )

    report = {
        "schema": 6,
        "mode": mode,
        "engine": engine_results,
        "ablation": ablation_results,
        "synthesis": synthesis_results,
        "metrics": {
            **{
                f"{key}.nodes_per_sec": payload["nodes_per_sec"]
                for key, payload in engine_results.items()
            },
            **{
                f"{key}.prune_ratio": payload["no_prune"]["node_ratio"]
                for key, payload in ablation_results.items()
                if payload["no_prune"]["node_ratio"] is not None
            },
            **{
                f"{kernel}.wall_seconds": payload["wall_seconds"]
                for kernel, payload in synthesis_results.items()
            },
            **{
                f"{kernel}.synth_prune_ratio": payload["unpruned"]["node_ratio"]
                for kernel, payload in synthesis_results.items()
            },
        },
    }
    write_report(report, args.output, DEFAULT_OUTPUT)

    if args.update_floor:
        update_floor(engine_results, synthesis_results)

    if args.check_floor:
        return report_failures(check_floor(engine_results, synthesis_results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
