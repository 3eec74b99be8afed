"""Synthesis-engine throughput benchmark: the perf trajectory tracker.

Measures, per kernel, and records everything into ``BENCH_synthesis.json``
at the repository root:

* the search engine's enumeration rate (nodes/sec) on exhaustive
  fixed-length searches;
* the **per-rule pruning ablation**: exhaustive-search node counts with
  each pruning rule individually disabled, and with all of them off,
  attributing the searched-space reduction rule by rule;
* end-to-end synthesis node counts and wall times, **pruned vs
  unpruned** (byte-identical programs, the soundness receipt) and
  **incremental vs from-scratch** CEGIS on seeds with real
  counterexample rounds;
* **warm-start** node counts: a kernel searched with a lemma store
  warmed by a sibling kernel (gx warming gy, gx+gy warming roberts)
  or by its own prior run must search *strictly fewer* nodes than a
  cold run and still synthesize byte-identical programs;
* **rewrite-seeded** synthesis: phase 2 entered with the baseline's
  verified rewrite frontier as the initial cost bound — the bound is
  at most the baseline's cost and the result stays byte-identical to
  an unseeded run;
* **shard** merges: the same search split into N ``--shard i/N`` rank
  ranges and merged must reproduce the serial program byte for byte.

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
import tempfile
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
)
from repro.baselines import baseline_for  # noqa: E402
from repro.core.cegis import (  # noqa: E402
    SynthesisConfig,
    SynthesisError,
    synthesize,
)
from repro.core.sketches import default_sketch_for  # noqa: E402
from repro.quill.cost import program_cost  # noqa: E402
from repro.quill.latency import default_latency_model  # noqa: E402
from repro.quill.parser import parse_program  # noqa: E402
from repro.quill.printer import format_program  # noqa: E402
from repro.quill.rewrite import seed_frontier  # noqa: E402
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

# (kernel, seed) pairs whose phase 1 goes through counterexample rounds,
# exercising cross-round frontier reuse (column appends + rank resume)
INCREMENTAL_CASES = {
    "quick": (("dot_product", 5), ("linear_regression", 0)),
    "full": (("dot_product", 5), ("linear_regression", 0), ("hamming", 1)),
}

# (target, warmers, optimize): the target kernel searched cold vs with a
# lemma store warmed by the warmer kernels.  Same-kernel warming replays
# the recorded candidate (0 nodes); cross-kernel warming reuses the
# sibling's finals/instruction-value lemmas (the sketch families share
# slot-0 equivalence classes).  Cross-kernel pairs run phase 1 only so
# the quick subset stays CI-sized.
WARM_START_CASES = {
    "quick": (
        ("box_blur", ("box_blur",), True),
        ("gy", ("gx",), False),
    ),
    "full": (
        ("box_blur", ("box_blur",), True),
        ("gy", ("gx",), False),
        ("roberts", ("gx", "gy"), False),
    ),
}

# kernels whose hand-written baseline seeds phase 2 via its verified
# rewrite frontier; the seeded run must start with a bound <= the
# baseline's cost and synthesize the same bytes as an unseeded run
SEEDED_CASES = {
    "quick": ("box_blur",),
    "full": ("box_blur", "gy"),
}

# (kernel, seed, shard_count): serial run vs N disjoint --shard-style
# rank-range searches merged through a shared lemma store.  dot_product
# at seed 5 goes through real counterexample rounds, so the merge replays
# a multi-round search rather than a single exhaustion.
SHARD_CASES = {
    "quick": (("box_blur", 0, 2),),
    "full": (("box_blur", 0, 2), ("dot_product", 5, 3)),
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


def run_incremental_case(kernel: str, seed: int) -> dict:
    """Multi-round CEGIS: incremental vs from-scratch node counts."""
    spec = get_spec(kernel)
    sketch = default_sketch_for(spec)

    def compile_with(incremental: bool) -> tuple[dict, str]:
        config = SynthesisConfig(
            seed=seed, optimize_timeout=30.0, incremental=incremental
        )
        started = time.perf_counter()
        result = synthesize(spec, sketch, config)
        payload = {
            "wall_seconds": round(time.perf_counter() - started, 4),
            "nodes": result.nodes,
            "examples": result.examples_used,
            "proof_complete": result.proof_complete,
        }
        if result.search_stats is not None:
            stats = result.search_stats
            payload["reused_values"] = stats.reused_values
            payload["appended_columns"] = stats.appended_columns
            payload["ranks_skipped"] = stats.ranks_skipped
        return payload, format_program(result.program)

    incremental, inc_text = compile_with(True)
    scratch, scratch_text = compile_with(False)
    return {
        "kernel": kernel,
        "seed": seed,
        "incremental": incremental,
        "scratch": {
            "nodes": scratch["nodes"],
            "wall_seconds": scratch["wall_seconds"],
        },
        "nodes_saved": scratch["nodes"] - incremental["nodes"],
        "program_identical": inc_text == scratch_text,
    }


def _synth_with(kernel: str, config: SynthesisConfig) -> tuple[dict, str]:
    """One synthesis run -> (payload, program text)."""
    spec = get_spec(kernel)
    sketch = default_sketch_for(spec)
    started = time.perf_counter()
    result = synthesize(spec, sketch, config)
    payload = {
        "wall_seconds": round(time.perf_counter() - started, 4),
        "nodes": result.nodes,
        "final_cost": result.final_cost,
    }
    if result.search_stats is not None:
        stats = result.search_stats
        payload["lemma_hits"] = stats.lemma_hits
        payload["lemma_skips"] = stats.lemma_skips
        payload["seed_bounds"] = stats.seed_bounds
        payload["seed_retries"] = stats.seed_retries
    return payload, format_program(result.program)


def run_warm_start_case(
    target: str, warmers: tuple[str, ...], optimize: bool
) -> dict:
    """Cold vs lemma-store-warmed node counts for one kernel."""
    with tempfile.TemporaryDirectory() as tmp:
        cold_store = Path(tmp) / "cold_lemmas.json"
        warm_store = Path(tmp) / "warm_lemmas.json"
        # the cold run gets its own empty store so both sides pay the
        # same recording overhead; an empty store never changes a search
        cold, cold_text = _synth_with(
            target,
            SynthesisConfig(
                optimize=optimize,
                optimize_timeout=30.0,
                lemma_path=cold_store,
            ),
        )
        for warmer in warmers:
            _synth_with(
                warmer,
                SynthesisConfig(
                    optimize=optimize,
                    optimize_timeout=30.0,
                    lemma_path=warm_store,
                ),
            )
        warm, warm_text = _synth_with(
            target,
            SynthesisConfig(
                optimize=optimize,
                optimize_timeout=30.0,
                lemma_path=warm_store,
            ),
        )
    return {
        "target": target,
        "warmers": list(warmers),
        "optimize": optimize,
        "cold": cold,
        "warm": warm,
        "nodes_saved": cold["nodes"] - warm["nodes"],
        "warm_strictly_fewer": warm["nodes"] < cold["nodes"],
        "program_identical": warm_text == cold_text,
    }


def run_seeded_case(kernel: str) -> dict:
    """Rewrite-seeded vs unseeded phase 2 for one baselined kernel."""
    spec = get_spec(kernel)
    baseline = baseline_for(kernel)
    model = default_latency_model(spec.params_name)
    baseline_cost = program_cost(baseline, model)
    seeds = seed_frontier(baseline, spec)
    seed_costs = [
        program_cost(parse_program(text), model) for text in seeds
    ]
    unseeded, unseeded_text = _synth_with(
        kernel, SynthesisConfig(optimize_timeout=30.0)
    )
    seeded, seeded_text = _synth_with(
        kernel,
        SynthesisConfig(
            optimize_timeout=30.0, seed_programs=tuple(seeds)
        ),
    )
    return {
        "kernel": kernel,
        "baseline_cost": baseline_cost,
        "seed_count": len(seeds),
        "min_seed_cost": min(seed_costs) if seed_costs else None,
        # the baseline itself is in the frontier, so the entry bound the
        # seeds provide can never exceed the baseline's cost
        "bound_leq_baseline": (
            bool(seed_costs) and min(seed_costs) <= baseline_cost
        ),
        "unseeded": unseeded,
        "seeded": seeded,
        "program_identical": seeded_text == unseeded_text,
    }


def run_shard_case(kernel: str, seed: int, shards: int) -> dict:
    """Serial vs N-way sharded-and-merged synthesis for one kernel."""
    serial, serial_text = _synth_with(
        kernel, SynthesisConfig(seed=seed, optimize_timeout=30.0)
    )
    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp) / "shard_lemmas.json"
        shard_nodes = []
        for index in range(shards):
            try:
                payload, _ = _synth_with(
                    kernel,
                    SynthesisConfig(
                        seed=seed,
                        optimize_timeout=30.0,
                        lemma_path=store,
                        shard=(index, shards),
                    ),
                )
                shard_nodes.append(payload["nodes"])
            except SynthesisError:
                # this shard's rank ranges hold no solution — expected;
                # the merge below reconstitutes the full answer
                shard_nodes.append(None)
        merge, merge_text = _synth_with(
            kernel,
            SynthesisConfig(
                seed=seed, optimize_timeout=30.0, lemma_path=store
            ),
        )
    return {
        "kernel": kernel,
        "seed": seed,
        "shards": shards,
        "serial_nodes": serial["nodes"],
        "shard_nodes": shard_nodes,
        "merge_nodes": merge["nodes"],
        "program_identical": merge_text == serial_text,
    }


def check_floor(
    engine_results: dict,
    synthesis_results: dict,
    warm_results: dict | None = None,
    seeded_results: dict | None = None,
    shard_results: dict | None = None,
) -> list[str]:
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
    # warm-start: exact node ceilings on both sides, plus the two
    # run-invariants the lemma store promises — strictly fewer warm
    # nodes and byte-identical programs
    for key, floor in floors.get("warm_start", {}).items():
        payload = (warm_results or {}).get(key)
        if payload is None:
            continue
        for side in ("cold", "warm"):
            failure = ceiling_failure(
                f"warm_start {key} ({side})",
                payload[side]["nodes"],
                floor[f"{side}_max_nodes"],
                unit=" nodes",
                detail=" — a lemma-reuse regression",
            )
            if failure:
                failures.append(failure)
    for key, payload in (warm_results or {}).items():
        if not payload["warm_strictly_fewer"]:
            failures.append(
                f"warm_start {key}: warm run searched "
                f"{payload['warm']['nodes']:,} nodes, not strictly fewer "
                f"than the cold run's {payload['cold']['nodes']:,}"
            )
        if not payload["program_identical"]:
            failures.append(
                f"warm_start {key}: warmed synthesis produced a different "
                "program than the cold run — the lemma store is UNSOUND"
            )
    # seeded: exact node ceiling plus the two seeding invariants
    for kernel, ceiling in floors.get("seeded", {}).items():
        payload = (seeded_results or {}).get(kernel)
        if payload is None:
            continue
        failure = ceiling_failure(
            f"seeded {kernel}", payload["seeded"]["nodes"], ceiling,
            unit=" nodes", detail=" — a seed-bound regression",
        )
        if failure:
            failures.append(failure)
    for kernel, payload in (seeded_results or {}).items():
        if not payload["bound_leq_baseline"]:
            failures.append(
                f"seeded {kernel}: min seed cost {payload['min_seed_cost']}"
                f" exceeds the baseline cost {payload['baseline_cost']}"
            )
        if not payload["program_identical"]:
            failures.append(
                f"seeded {kernel}: seeded synthesis produced a different "
                "program than the unseeded run — seeding is UNSOUND"
            )
    # shards carry no floor numbers: byte-identity is the whole contract
    for key, payload in (shard_results or {}).items():
        if not payload["program_identical"]:
            failures.append(
                f"shards {key}: merged {payload['shards']}-way sharded "
                "search produced a different program than the serial run"
            )
    return failures


def update_floor(
    engine_results: dict,
    synthesis_results: dict,
    warm_results: dict | None = None,
    seeded_results: dict | None = None,
) -> None:
    """Merge this run into the floor file (keep unmeasured entries)."""
    floors = (
        json.loads(FLOOR_FILE.read_text()) if FLOOR_FILE.exists() else {}
    )
    if "engine" not in floors:  # migrate the flat schema-1 layout
        floors = {"engine": {}, "synthesis": {}}
    floors["schema"] = 3
    floors.setdefault("warm_start", {})
    floors.setdefault("seeded", {})
    for key, payload in engine_results.items():
        floors["engine"][key] = {
            "nodes_per_sec": payload["nodes_per_sec"],
            "max_nodes": payload["nodes"],
        }
    for kernel, payload in synthesis_results.items():
        if payload.get("proof_complete"):
            floors["synthesis"][kernel] = payload["nodes"]
    for key, payload in (warm_results or {}).items():
        floors["warm_start"][key] = {
            "cold_max_nodes": payload["cold"]["nodes"],
            "warm_max_nodes": payload["warm"]["nodes"],
        }
    for kernel, payload in (seeded_results or {}).items():
        floors["seeded"][kernel] = payload["seeded"]["nodes"]
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
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"result file (default {DEFAULT_OUTPUT})")
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
    incremental_results: dict[str, dict] = {}
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
        for kernel, seed in INCREMENTAL_CASES[mode]:
            print(f"incremental {kernel} seed={seed} ...", flush=True)
            payload = run_incremental_case(kernel, seed)
            incremental_results[f"{kernel}@s{seed}"] = payload
            print(
                f"  {payload['incremental']['nodes']:,} nodes incremental vs "
                f"{payload['scratch']['nodes']:,} from scratch "
                f"({payload['nodes_saved']:,} saved, identical="
                f"{payload['program_identical']})"
            )

    warm_results: dict[str, dict] = {}
    seeded_results: dict[str, dict] = {}
    shard_results: dict[str, dict] = {}
    if not args.no_synthesis:
        for target, warmers, optimize in WARM_START_CASES[mode]:
            key = f"{'+'.join(warmers)}->{target}"
            print(f"warm-start {key} ...", flush=True)
            payload = run_warm_start_case(target, warmers, optimize)
            warm_results[key] = payload
            print(
                f"  cold {payload['cold']['nodes']:,} nodes -> warm "
                f"{payload['warm']['nodes']:,} ({payload['nodes_saved']:,} "
                f"saved, {payload['warm'].get('lemma_skips', 0)} lemma "
                f"skips, identical={payload['program_identical']})"
            )
        for kernel in SEEDED_CASES[mode]:
            print(f"seeded {kernel} ...", flush=True)
            payload = run_seeded_case(kernel)
            seeded_results[kernel] = payload
            print(
                f"  {payload['seed_count']} seeds, min cost "
                f"{payload['min_seed_cost']} vs baseline "
                f"{payload['baseline_cost']} "
                f"(bound<=baseline={payload['bound_leq_baseline']}); "
                f"{payload['seeded']['nodes']:,} nodes seeded vs "
                f"{payload['unseeded']['nodes']:,} unseeded, identical="
                f"{payload['program_identical']}"
            )
        for kernel, seed, shards in SHARD_CASES[mode]:
            key = f"{kernel}@s{seed}/{shards}"
            print(f"shards {key} ...", flush=True)
            payload = run_shard_case(kernel, seed, shards)
            shard_results[key] = payload
            print(
                f"  serial {payload['serial_nodes']:,} nodes; merge "
                f"{payload['merge_nodes']:,} nodes after {shards} shards, "
                f"identical={payload['program_identical']}"
            )

    report = {
        "schema": 4,
        "mode": mode,
        "engine": engine_results,
        "ablation": ablation_results,
        "synthesis": synthesis_results,
        "incremental": incremental_results,
        "warm_start": warm_results,
        "seeded": seeded_results,
        "shards": shard_results,
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
            **{
                f"{key}.nodes_saved": payload["nodes_saved"]
                for key, payload in incremental_results.items()
            },
            **{
                f"warm.{key}.nodes_saved": payload["nodes_saved"]
                for key, payload in warm_results.items()
            },
            **{
                f"seeded.{kernel}.identical": payload["program_identical"]
                for kernel, payload in seeded_results.items()
            },
            **{
                f"shards.{key}.identical": payload["program_identical"]
                for key, payload in shard_results.items()
            },
        },
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"written to {args.output}")

    if args.update_floor:
        update_floor(
            engine_results, synthesis_results, warm_results, seeded_results
        )

    if args.check_floor:
        return report_failures(check_floor(
            engine_results,
            synthesis_results,
            warm_results,
            seeded_results,
            shard_results,
        ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
