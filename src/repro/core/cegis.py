"""Porcupine's synthesis engine: the CEGIS loop of Algorithm 1.

Phase 1 (*synthesize an initial solution*): starting from the smallest
sketch size, complete the sketch against a set of concrete input-output
examples; verify candidates exactly against the specification; on
verification failure, extract a counterexample, add it to the example set
and retry.  Exhausting a size proves no L-component program exists for it,
so L is incremented — the first verified solution therefore uses the
minimum number of components.

Phase 2 (*cost minimization*): keep searching the same sketch size for
verified programs with strictly lower cost ``latency * (1 + mdepth)``,
with branch-and-bound pruning, until the space is exhausted (optimality
proof, like the paper's re-issued synthesis queries with cost constraints)
or a timeout fires (the paper times out after 20 minutes of no progress
and returns the best solution found).

Every round and each phase builds one fresh
:class:`~repro.solver.engine.SketchSearch` over the full example list.
What carries across the counterexample rounds of one length is the rank
frontier: a resumed round starts at the root branch where the failed
candidate was found (``run(start_rank=...)``), since every lower branch
was exhausted without an example match and example sets only grow, so
a matchless branch stays matchless.  The resumed enumeration visits
exactly the candidates a full enumeration would still accept, so the
frontier never changes the synthesized program.

Both phases run every search round through one driver,
:class:`~repro.core.parallel.ParallelSynthesis`.  With ``workers=1`` it
runs each round in this process and forks nothing; with ``workers>1`` it
runs a work-stealing pool with mid-round counterexample-frontier and
cost-bound broadcast.  The pool's candidate stream is replayed in
canonical enumeration order, so the synthesized program is bit-identical
for any worker count.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.core.checkpoint import (
    CheckpointState,
    SynthesisCheckpoint,
    restore_rng,
    rng_state,
)
from repro.core.parallel import ParallelSynthesis
from repro.core.sketch import Sketch
from repro.quill.cost import program_cost
from repro.quill.ir import Program
from repro.quill.latency import LatencyModel, default_latency_model
from repro.quill.parser import parse_program
from repro.quill.printer import format_program
from repro.solver.engine import SearchOptions, SearchStats
from repro.spec.reference import Example, Spec


class SynthesisError(Exception):
    """Raised when no verified kernel can be synthesized."""


@dataclass
class SynthesisConfig:
    """Tunables for one synthesis run (paper section 7.1 methodology)."""

    min_components: int = 1
    max_components: int = 8
    seed: int = 0
    seed_examples: int = 1
    initial_timeout: float = 900.0
    optimize_timeout: float = 120.0
    optimize: bool = True
    latency_model: LatencyModel | None = None
    workers: int = 1  # search processes; results are identical for any value
    #: pruning/evaluation toggles threaded to the engine (None = defaults)
    search_options: SearchOptions | None = None
    #: crash-safe checkpoint file (the CLI's ``compile --checkpoint``):
    #: search state is persisted atomically at every round boundary and a
    #: rerun with the same config resumes from it, producing a
    #: byte-identical program; a stale or corrupt file is ignored
    #: (None: no checkpoint)
    checkpoint_path: str | None = None


@dataclass
class SynthesisResult:
    """A synthesized kernel plus the statistics Table 3 reports."""

    program: Program
    initial_program: Program
    spec_name: str
    components: int
    examples_used: int
    initial_time: float
    total_time: float
    initial_cost: float
    final_cost: float
    proof_complete: bool
    nodes: int
    examples: list[Example] = field(repr=False, default_factory=list)
    search_stats: SearchStats | None = field(repr=False, default=None)


def seed_examples(
    spec: Spec,
    config: SynthesisConfig,
    rng: np.random.Generator | None = None,
) -> list[Example]:
    """The initial example set, drawn deterministically from ``config.seed``.

    Every random draw in a synthesis run — seed examples here and
    counterexample fill-in values in :meth:`Spec.example_from_witness` —
    flows from one generator seeded by ``config.seed``, so equal configs
    reproduce equal runs and compile-cache keys stay stable.
    """
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    return [spec.make_example(rng) for _ in range(config.seed_examples)]


def driver_scope(
    config: SynthesisConfig, driver: ParallelSynthesis | None = None
) -> ParallelSynthesis | nullcontext:
    """``driver`` as given, or a fresh one from ``config`` closed on exit."""
    if driver is not None:
        return nullcontext(driver)
    return ParallelSynthesis(
        max(1, config.workers),
        options=config.search_options or SearchOptions(),
    )


def synthesize_initial(
    spec: Spec,
    sketch: Sketch,
    config: SynthesisConfig | None = None,
    *,
    driver: ParallelSynthesis | None = None,
) -> SynthesisResult:
    """Phase 1 of Algorithm 1: the smallest verified completion of the sketch.

    Returns a result whose final program *is* the initial program; run
    :func:`minimize_cost` on it for the paper's phase-2 cost search.
    ``driver`` shares one search driver across phases (a fresh one from
    ``config.workers`` when omitted).
    """
    config = config or SynthesisConfig()
    model = config.latency_model or default_latency_model(spec.params_name)
    rng = np.random.default_rng(config.seed)
    examples = seed_examples(spec, config, rng)

    checkpoint: SynthesisCheckpoint | None = None
    restored: CheckpointState | None = None
    start_length = config.min_components
    restored_rank = 0  # resume rank for the restored length only
    if config.checkpoint_path is not None:
        checkpoint = SynthesisCheckpoint.for_run(
            config.checkpoint_path, spec, sketch, config
        )
        restored = checkpoint.load()
    if restored is not None and restored.phase != "initial":
        # phase 1 completed before the crash: reconstruct its result
        # (the program text is what byte-identity is measured on; the
        # wall-clock and node counters of the lost run are gone)
        program = parse_program(restored.initial_text)
        cost = float(restored.initial_cost)
        return SynthesisResult(
            program=program,
            initial_program=program,
            spec_name=spec.name,
            components=restored.components,
            examples_used=len(restored.examples),
            initial_time=0.0,
            total_time=0.0,
            initial_cost=cost,
            final_cost=cost,
            proof_complete=True,
            nodes=0,
            examples=list(restored.examples),
            search_stats=SearchStats(),
        )
    if restored is not None and restored.length is not None:
        # resume the counterexample loop at the checkpointed boundary:
        # same examples, same rng stream, same sketch size, same rank
        examples = list(restored.examples)
        if restored.rng is not None:
            restore_rng(rng, restored.rng)
        start_length = restored.length
        restored_rank = restored.resume_rank

    start = time.perf_counter()
    deadline = start + config.initial_timeout
    stats = SearchStats()
    initial_program: Program | None = None
    components_used = 0

    def fail_timeout(length: int) -> SynthesisError:
        return SynthesisError(
            f"{spec.name}: initial synthesis timed out at "
            f"{length} components after "
            f"{time.perf_counter() - start:.1f}s ({stats.nodes} nodes)"
        )

    with driver_scope(config, driver) as driver:
        for length in range(start_length, config.max_components + 1):
            found_at_this_length = False
            # cross-round frontier within this length (restored for the
            # checkpointed length, 0 for every deeper one)
            resume_rank = restored_rank if length == start_length else 0
            while True:  # counterexample loop at this sketch size
                if checkpoint is not None:
                    # a round boundary is deterministic given (examples,
                    # length, start_rank) and the rng stream: saving
                    # here makes a kill anywhere inside the round resume
                    # to a byte-identical replay of it
                    checkpoint.save(CheckpointState(
                        phase="initial",
                        length=length,
                        resume_rank=resume_rank,
                        examples=examples,
                        rng=rng_state(rng),
                    ))
                outcome, text = driver.find_first(
                    sketch,
                    spec.layout,
                    examples,
                    model,
                    length,
                    deadline=deadline,
                    name=f"{spec.name}_synth",
                    start_rank=resume_rank,
                )
                stats.record(outcome)
                if text is not None:
                    program = parse_program(text)
                    verdict = spec.verify_program(program)
                    if verdict.equivalent:
                        initial_program = program
                        components_used = length
                        found_at_this_length = True
                        break
                    if length >= 2 and driver.last_match_rank >= 0:
                        # every branch below the failed match is
                        # exhausted and matchless; adding an example can
                        # only shrink the match set, so the next round
                        # resumes at the match branch
                        resume_rank = driver.last_match_rank
                    examples.append(
                        spec.example_from_witness(verdict.counterexample, rng)
                    )
                    continue
                if outcome.status == "timeout":
                    raise fail_timeout(length)
                break  # exhausted: no program of this size exists
            if found_at_this_length:
                break
    if initial_program is None:
        raise SynthesisError(
            f"{spec.name}: sketch has no solution with up to "
            f"{config.max_components} components"
        )

    initial_time = time.perf_counter() - start
    initial_cost = program_cost(initial_program, model)
    if checkpoint is not None:
        text = format_program(initial_program)
        checkpoint.save(CheckpointState(
            # optimize=False runs are complete here; otherwise phase 2
            # restarts its branch-and-bound from this (program, bound)
            phase="optimize" if config.optimize else "done",
            examples=examples,
            components=components_used,
            initial_text=text,
            initial_cost=initial_cost,
            best_text=text,
            best_cost=initial_cost,
            proof_complete=True,
        ))

    return SynthesisResult(
        program=initial_program,
        initial_program=initial_program,
        spec_name=spec.name,
        components=components_used,
        examples_used=len(examples),
        initial_time=initial_time,
        total_time=initial_time,
        initial_cost=initial_cost,
        final_cost=initial_cost,
        proof_complete=True,
        nodes=stats.nodes,
        examples=examples,
        search_stats=stats,
    )


def minimize_cost(
    spec: Spec,
    sketch: Sketch,
    initial: SynthesisResult,
    config: SynthesisConfig | None = None,
    *,
    driver: ParallelSynthesis | None = None,
) -> SynthesisResult:
    """Phase 2 of Algorithm 1: branch-and-bound cost minimization.

    Keeps searching ``initial``'s sketch size for verified programs with
    strictly lower cost, over a fresh search of its example set, until
    the space is exhausted (optimality proof) or
    ``config.optimize_timeout`` fires.
    """
    config = config or SynthesisConfig()
    model = config.latency_model or default_latency_model(spec.params_name)
    start = time.perf_counter()
    optimize_deadline = start + config.optimize_timeout
    examples = list(initial.examples)
    best_program, best_cost = initial.program, initial.final_cost
    stats = SearchStats()

    checkpoint: SynthesisCheckpoint | None = None
    if config.checkpoint_path is not None:
        checkpoint = SynthesisCheckpoint.for_run(
            config.checkpoint_path, spec, sketch, config
        )
        restored = checkpoint.load()
        if restored is not None and restored.phase == "done":
            # the whole run finished before the crash
            program = parse_program(restored.best_text)
            return SynthesisResult(
                program=program,
                initial_program=initial.initial_program,
                spec_name=initial.spec_name,
                components=initial.components,
                examples_used=len(examples),
                initial_time=initial.initial_time,
                total_time=initial.total_time,
                initial_cost=initial.initial_cost,
                final_cost=float(restored.best_cost),
                proof_complete=restored.proof_complete,
                nodes=initial.nodes,
                examples=examples,
                search_stats=initial.search_stats,
            )
        if (
            restored is not None
            and restored.phase == "optimize"
            and restored.best_text is not None
        ):
            # restart the branch-and-bound from the checkpointed best:
            # verified accepted programs form a strictly cost-decreasing
            # sequence in canonical order, so the tightened bound skips
            # exactly the candidates the lost run already rejected
            best_program = parse_program(restored.best_text)
            best_cost = float(restored.best_cost)

    def verify(text: str) -> bool:
        program = parse_program(text)
        if not spec.verify_program(program).equivalent:
            return False
        if checkpoint is not None:
            # the driver verifies in canonical order and only under its
            # current bound, so each accepted program is a strictly
            # better checkpointed frontier
            checkpoint.save(CheckpointState(
                phase="optimize",
                examples=examples,
                components=initial.components,
                initial_text=format_program(initial.initial_program),
                initial_cost=initial.initial_cost,
                best_text=text,
                best_cost=program_cost(program, model),
                proof_complete=True,
            ))
        return True

    with driver_scope(config, driver) as driver:
        # the phase-1 cost, or the checkpointed best: phase 2 searches
        # for strictly cheaper programs under this one bound
        outcome, best_text, cost = driver.minimize(
            sketch,
            spec.layout,
            examples,
            model,
            initial.components,
            cost_bound=best_cost,
            verify=verify,
            deadline=optimize_deadline,
            name=f"{spec.name}_synth",
        )
    stats.record(outcome)
    if best_text is not None:
        best_program, best_cost = parse_program(best_text), cost
    if checkpoint is not None:
        checkpoint.save(CheckpointState(
            phase="done",
            examples=examples,
            components=initial.components,
            initial_text=format_program(initial.initial_program),
            initial_cost=initial.initial_cost,
            best_text=format_program(best_program),
            best_cost=best_cost,
            proof_complete=outcome.status == "exhausted",
        ))
    return SynthesisResult(
        program=best_program,
        initial_program=initial.initial_program,
        spec_name=initial.spec_name,
        components=initial.components,
        examples_used=len(examples),
        initial_time=initial.initial_time,
        total_time=initial.total_time + (time.perf_counter() - start),
        initial_cost=initial.initial_cost,
        final_cost=best_cost,
        proof_complete=outcome.status == "exhausted",
        nodes=initial.nodes + outcome.nodes,
        examples=examples,
        search_stats=stats.merge(initial.search_stats),
    )


def synthesize(
    spec: Spec, sketch: Sketch, config: SynthesisConfig | None = None
) -> SynthesisResult:
    """Compile a specification to a verified, optimized Quill kernel.

    One search driver serves both phases, so with ``workers > 1`` its
    worker pool forks once per run.
    """
    config = config or SynthesisConfig()
    with driver_scope(config) as driver:
        result = synthesize_initial(spec, sketch, config, driver=driver)
        if config.optimize:
            result = minimize_cost(spec, sketch, result, config, driver=driver)
    return result
