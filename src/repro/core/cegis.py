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

Both phases run the search either in-process (``workers=1``) or through
:class:`~repro.core.parallel.ParallelSynthesis` (``workers>1``), a
work-stealing pool with mid-round counterexample-frontier and cost-bound
broadcast.  The merged candidate stream is replayed in canonical
enumeration order, so the synthesized program is bit-identical either
way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.checkpoint import (
    CheckpointState,
    SynthesisCheckpoint,
    restore_rng,
    rng_state,
)
from repro.core.lemmas import (
    LemmaStore,
    LemmaTap,
    chain_fingerprint,
    chain_key,
    covered_prefix,
    family_fingerprint,
    finals_key,
    inputs_fingerprint,
    marker_key,
)
from repro.core.parallel import ParallelSynthesis
from repro.core.sketch import Sketch
from repro.quill.cost import program_cost
from repro.quill.ir import Program
from repro.quill.latency import LatencyModel, default_latency_model
from repro.quill.parser import parse_program
from repro.quill.printer import format_program
from repro.solver.engine import (
    SearchOptions,
    SearchOutcome,
    SearchStats,
    SketchSearch,
    materialize_assignment,
)
from repro.solver.values import signature_block
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
    #: crash-safe checkpoint file: search state is persisted atomically
    #: at every round boundary and a rerun with the same config resumes
    #: from it, producing a byte-identical program (None: no checkpoint)
    checkpoint_path: str | None = None
    #: persistent cross-kernel lemma store (see :mod:`repro.core.lemmas`):
    #: records proven-matchless rank ranges, reachable final-value
    #: signatures, and branch-and-bound outcomes, and consults a sibling
    #: kernel's records to skip work.  Advisory-but-sound — warm and cold
    #: runs synthesize byte-identical programs — so the path never enters
    #: compile-cache keys (None: no store)
    lemma_path: str | None = None
    #: ``(index, count)``: restrict this run to shard ``index`` of
    #: ``count`` disjoint root-rank ranges (lengths >= 2; length-1
    #: searches are not rank-partitioned and run in full).  Shards force
    #: a serial engine and record their findings in the lemma store;
    #: a later ``--merge-shards`` replay assembles the serial result
    shard: tuple[int, int] | None = None


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


def _validate_shard(config: SynthesisConfig) -> tuple[int, int] | None:
    shard = config.shard
    if shard is None:
        return None
    index, count = int(shard[0]), int(shard[1])
    if count < 1 or not 0 <= index < count:
        raise ValueError(f"invalid shard descriptor {index}/{count}")
    return (index, count)


def _shard_bounds(shard: tuple[int, int], total: int) -> tuple[int, int]:
    """Disjoint, exhaustive rank range of shard ``index`` of ``count``."""
    index, count = shard
    return (index * total) // count, ((index + 1) * total) // count


def _lemma_context(spec, sketch, config, options):
    """(store, family fingerprint, seed-chain fingerprint) — or Nones.

    The seed chain (the deterministic initial example set, before any
    counterexamples) keys the cross-shard coordination records: every
    shard of a run shares it regardless of how its own chain diverges.
    """
    if config.lemma_path is None:
        return None, None, None
    store = LemmaStore(config.lemma_path)
    family = family_fingerprint(spec, sketch, options)
    seed_chain = chain_fingerprint(spec.layout, seed_examples(spec, config))
    return store, family, seed_chain


def _goal_signature(examples: list[Example]) -> int:
    goals = np.stack([np.asarray(ex.goal) for ex in examples])
    return int(signature_block(goals[None, :, :])[0])


def _fold_lemma_counters(stats: SearchStats, store: LemmaStore | None) -> None:
    if store is not None:
        stats.lemma_hits += store.hits
        stats.lemma_misses += store.misses
        stats.lemma_skips += store.skips


def _record_shard_done(store, family, seed_chain, shard, search) -> None:
    """Record this shard's completed rank range so ``--merge-shards`` can
    check that every shard of the split actually ran."""
    rank_count = search.root_choice_count() if search is not None else 0
    lo, hi = _shard_bounds(shard, rank_count)
    store.record_shard(
        marker_key(family, seed_chain),
        index=shard[0],
        count=shard[1],
        start=lo,
        end=hi,
        rank_count=rank_count,
    )
    store.flush()


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
    ``driver`` shares one parallel worker pool across phases (created on
    demand from ``config.workers`` when omitted).
    """
    config = config or SynthesisConfig()
    model = config.latency_model or default_latency_model(spec.params_name)
    options = config.search_options or SearchOptions()
    shard = _validate_shard(config)
    if shard is not None:
        driver = None  # shard searches are serial by construction
    store, family, seed_chain = _lemma_context(spec, sketch, config, options)
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
    own_driver = driver is None and config.workers > 1 and shard is None
    if own_driver:
        driver = ParallelSynthesis(config.workers, options=options)

    def fail_timeout(length: int) -> SynthesisError:
        return SynthesisError(
            f"{spec.name}: initial synthesis timed out at "
            f"{length} components after "
            f"{time.perf_counter() - start:.1f}s ({stats.nodes} nodes)"
        )

    search: SketchSearch | None = None
    try:
        for length in range(start_length, config.max_components + 1):
            found_at_this_length = False
            # cross-round frontier within this length (restored for the
            # checkpointed length, 0 for every deeper one)
            resume_rank = restored_rank if length == start_length else 0
            if store is not None and shard is not None:
                marker = store.marker(marker_key(family, seed_chain))
                if marker is not None and length > marker["length"]:
                    # a sibling shard already solved at a smaller length:
                    # this shard's ranges cannot contain the canonical
                    # solution, so stop instead of searching ever deeper
                    _record_shard_done(store, family, seed_chain, shard, search)
                    raise SynthesisError(
                        f"{spec.name}: shard {shard[0]}/{shard[1]} "
                        "completed its rank ranges without the solution "
                        "(a sibling shard solved at "
                        f"{marker['length']} components); run with "
                        "--merge-shards to assemble the result"
                    )
            while True:  # counterexample loop at this sketch size
                ckey = fkey = inputs_fp = None
                if store is not None:
                    inputs_fp = inputs_fingerprint(spec.layout, examples)
                    ckey = chain_key(
                        family,
                        chain_fingerprint(spec.layout, examples),
                        length,
                    )
                    fkey = finals_key(family, inputs_fp, length)
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
                        shard_index=None if shard is None else shard[0],
                        shard_count=None if shard is None else shard[1],
                    ))
                # lemma: a complete recorded final-value set for this
                # (family, inputs, length) that misses the goal proves
                # the whole length matchless — skip it without a search
                if store is not None and store.finals_skip(
                    fkey, _goal_signature(examples)
                ):
                    break
                # lemma: a recorded candidate whose every lower rank is
                # covered by matchless ranges is exactly the program the
                # canonical search would find first — jump to verifying
                if store is not None and shard is None:
                    hit = store.candidate_after(ckey, resume_rank)
                    if hit is not None:
                        rank, text = hit
                        store.skips += 1
                        program = parse_program(text)
                        verdict = spec.verify_program(program)
                        if verdict.equivalent:
                            initial_program = program
                            components_used = length
                            found_at_this_length = True
                            break
                        examples.append(
                            spec.example_from_witness(
                                verdict.counterexample, rng
                            )
                        )
                        if length >= 2:
                            resume_rank = rank
                        continue
                if driver is not None:
                    run_start = resume_rank
                    if store is not None and length >= 2:
                        extended = covered_prefix(
                            store.matchless_ranges(ckey), run_start
                        )
                        if extended > run_start:
                            store.skips += 1
                            run_start = extended
                    outcome, text = driver.find_first(
                        sketch,
                        spec.layout,
                        examples,
                        model,
                        length,
                        deadline=deadline,
                        name=f"{spec.name}_synth",
                        start_rank=run_start,
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
                            # exhausted and matchless; adding an example
                            # can only shrink the match set, so the next
                            # round resumes at the match branch
                            resume_rank = driver.last_match_rank
                        examples.append(
                            spec.example_from_witness(
                                verdict.counterexample, rng
                            )
                        )
                        continue
                    if outcome.status == "timeout":
                        raise fail_timeout(length)
                    break  # exhausted: no program of this size exists
                search = SketchSearch(
                    sketch, spec.layout, examples, model, length,
                    options=options,
                )
                total_ranks = search.root_choice_count()
                run_start = resume_rank
                root_ranks = None
                shard_lo = shard_hi = None
                if shard is not None and length >= 2:
                    shard_lo, shard_hi = _shard_bounds(shard, total_ranks)
                    root_ranks = frozenset(range(shard_lo, shard_hi))
                if store is not None and shard is None:
                    ranges = store.matchless_ranges(ckey)
                    if length >= 2:
                        extended = covered_prefix(ranges, run_start)
                        if extended > run_start:
                            # proven-matchless prefix: resume past it
                            store.skips += 1
                            run_start = extended
                    elif covered_prefix(ranges, 0) >= total_ranks:
                        # length-1 searches are not rank-partitioned;
                        # full recorded coverage skips the whole round
                        store.skips += 1
                        break
                tap = None
                if store is not None:
                    # only a full, unrestricted sweep sees every final
                    # value, so only those runs may record a finals set
                    # (and re-collecting one already on disk is waste)
                    tap = LemmaTap(
                        store,
                        inputs_fp,
                        collect_finals=(
                            run_start == 0
                            and root_ranks is None
                            and not store.has_finals(fkey)
                        ),
                    )
                    search.lemma_tap = tap
                state: dict = {}

                def on_candidate(assignment):
                    program = materialize_assignment(
                        sketch,
                        spec.layout,
                        assignment,
                        name=f"{spec.name}_synth",
                    )
                    verdict = spec.verify_program(program)
                    if verdict.equivalent:
                        state["program"] = program
                    else:
                        state["witness"] = verdict.counterexample
                    if store is not None:
                        state["text"] = format_program(program)
                    return True, None  # stop either way: accept or add example

                try:
                    outcome = search.run(
                        on_candidate,
                        deadline=deadline,
                        start_rank=run_start,
                        root_ranks=root_ranks,
                    )
                finally:
                    search.lemma_tap = None
                stats.record(outcome)
                if store is not None and outcome.status != "timeout":
                    searched_lo = (
                        run_start if shard_lo is None
                        else max(run_start, shard_lo)
                    )
                    if "text" in state:
                        match_rank = (
                            search.current_root_rank if length >= 2 else 0
                        )
                        store.record_matchless(
                            ckey,
                            searched_lo if length >= 2 else 0,
                            match_rank,
                        )
                        store.record_candidate(ckey, match_rank, state["text"])
                    elif outcome.status == "exhausted":
                        searched_hi = (
                            total_ranks if shard_hi is None else shard_hi
                        )
                        store.record_matchless(
                            ckey,
                            searched_lo if length >= 2 else 0,
                            searched_hi,
                        )
                        if (
                            tap is not None
                            and tap.collect_finals
                            and tap.finals_valid
                            and not tap.finals_overflow
                        ):
                            store.record_finals(fkey, tap.final_sigs)
                    store.flush()
                if "program" in state:
                    initial_program = state["program"]
                    components_used = length
                    found_at_this_length = True
                    break
                if "witness" in state:
                    examples.append(
                        spec.example_from_witness(state["witness"], rng)
                    )
                    if length >= 2 and search.current_root_rank >= 0:
                        resume_rank = search.current_root_rank
                    continue
                if outcome.status == "timeout":
                    raise fail_timeout(length)
                break  # exhausted: no program of this size exists
            if found_at_this_length:
                break
    finally:
        if own_driver:
            driver.close()
    if initial_program is None:
        if store is not None and shard is not None:
            _record_shard_done(store, family, seed_chain, shard, search)
        raise SynthesisError(
            f"{spec.name}: sketch has no solution with up to "
            f"{config.max_components} components"
            + (
                f" in shard {shard[0]}/{shard[1]}'s rank ranges"
                if shard is not None
                else ""
            )
        )

    initial_time = time.perf_counter() - start
    initial_cost = program_cost(initial_program, model)
    if store is not None:
        # the solve marker tells sibling shards to stop deepening, and
        # --merge-shards which shard carried the canonical solution
        store.record_marker(
            marker_key(family, seed_chain), components_used, initial_cost
        )
        if shard is not None:
            _record_shard_done(store, family, seed_chain, shard, search)
        store.flush()
    _fold_lemma_counters(stats, store)
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
    options = config.search_options or SearchOptions()
    shard = _validate_shard(config)
    if shard is not None:
        driver = None  # shard searches are serial by construction
    store, family, seed_chain = _lemma_context(spec, sketch, config, options)
    start = time.perf_counter()
    optimize_deadline = start + config.optimize_timeout
    examples = list(initial.examples)
    best_box = {"program": initial.program, "cost": initial.final_cost}
    stats = SearchStats()
    p2key = None
    if store is not None:
        p2key = chain_key(
            family,
            chain_fingerprint(spec.layout, examples),
            initial.components,
        )

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
            best_box = {
                "program": parse_program(restored.best_text),
                "cost": float(restored.best_cost),
            }

    def save_progress(program: Program, cost: float) -> None:
        if checkpoint is not None:
            checkpoint.save(CheckpointState(
                phase="optimize",
                examples=examples,
                components=initial.components,
                initial_text=format_program(initial.initial_program),
                initial_cost=initial.initial_cost,
                best_text=format_program(program),
                best_cost=cost,
                proof_complete=True,
                shard_index=None if shard is None else shard[0],
                shard_count=None if shard is None else shard[1],
            ))

    # the phase-1 cost, or the checkpointed best: phase 2 searches for
    # strictly cheaper programs under this one bound
    entry_bound = best_box["cost"]

    # lemma: a recorded full-range branch-and-bound proof under a bound
    # no tighter than ours already names the cold run's result
    shortcut_outcome = None
    if store is not None and shard is None:
        rec = store.phase2_full(p2key, entry_bound)
        if rec is not None:
            usable = True
            if (
                rec.get("best_text") is not None
                and rec.get("best_cost", entry_bound) < entry_bound
            ):
                program = parse_program(rec["best_text"])
                if spec.verify_program(program).equivalent:
                    best_box["program"] = program
                    best_box["cost"] = program_cost(program, model)
                    save_progress(program, best_box["cost"])
                else:
                    usable = False  # stale record: run the real search
            if usable:
                store.skips += 1
                shortcut_outcome = SearchOutcome(
                    status="exhausted", nodes=0, candidates=0
                )

    if shortcut_outcome is not None:
        outcome = shortcut_outcome
        stats.record(outcome)
    elif config.workers > 1 and initial.components > 1 and shard is None:
        own_driver = driver is None
        if own_driver:
            driver = ParallelSynthesis(config.workers, options=options)
        try:
            saved = {"cost": best_box["cost"]}

            def verify_text(text: str) -> bool:
                program = parse_program(text)
                if not spec.verify_program(program).equivalent:
                    return False
                cost = program_cost(program, model)
                if cost < saved["cost"]:
                    # parent-side verified tightening: the canonical
                    # replay hands texts in accept order, so each save
                    # is a strictly better checkpointed frontier
                    saved["cost"] = cost
                    save_progress(program, cost)
                return True

            outcome, best_text, best_cost = driver.minimize(
                sketch,
                spec.layout,
                examples,
                model,
                initial.components,
                cost_bound=entry_bound,
                verify=verify_text,
                deadline=optimize_deadline,
                name=f"{spec.name}_synth",
            )
        finally:
            if own_driver:
                driver.close()
        stats.record(outcome)
        if best_text is not None:
            best_box["program"] = parse_program(best_text)
            best_box["cost"] = best_cost
    else:
        search = SketchSearch(
            sketch, spec.layout, examples, model, initial.components,
            options=options,
        )
        total_ranks = search.root_choice_count()
        root_ranks = None
        shard_lo = shard_hi = None
        if shard is not None and initial.components >= 2:
            shard_lo, shard_hi = _shard_bounds(shard, total_ranks)
            root_ranks = frozenset(range(shard_lo, shard_hi))
        elif store is not None and initial.components >= 2:
            # lemma: ranges proven accept-free under a bound at least as
            # tight contribute nothing — search only their complement
            allowed = set(range(total_ranks))
            for lo, hi in store.phase2_dead_ranges(p2key, entry_bound):
                allowed.difference_update(range(lo, min(hi, total_ranks)))
            removed = total_ranks - len(allowed)
            if removed:
                store.skips += removed
                root_ranks = frozenset(allowed)

        def on_better(assignment):
            program = materialize_assignment(
                sketch, spec.layout, assignment, name=f"{spec.name}_synth"
            )
            cost = program_cost(program, model)
            if cost >= best_box["cost"]:
                return False, None
            if spec.verify_program(program).equivalent:
                best_box["program"] = program
                best_box["cost"] = cost
                save_progress(program, cost)
                return False, cost
            return False, None  # matches examples but not the spec

        outcome = search.run(
            on_better,
            cost_bound=entry_bound,
            deadline=optimize_deadline,
            root_ranks=root_ranks,
        )
        stats.record(outcome)
        if store is not None and outcome.status == "exhausted":
            best_text = (
                format_program(best_box["program"])
                if best_box["cost"] < entry_bound
                else None
            )
            store.record_phase2(
                p2key,
                bound=entry_bound,
                start=0 if shard_lo is None else shard_lo,
                end=None if shard_lo is None else shard_hi,
                best_text=best_text,
                best_cost=None if best_text is None else best_box["cost"],
            )
            store.flush()
    _fold_lemma_counters(stats, store)
    if checkpoint is not None:
        checkpoint.save(CheckpointState(
            phase="done",
            examples=examples,
            components=initial.components,
            initial_text=format_program(initial.initial_program),
            initial_cost=initial.initial_cost,
            best_text=format_program(best_box["program"]),
            best_cost=best_box["cost"],
            proof_complete=outcome.status == "exhausted",
        ))
    return SynthesisResult(
        program=best_box["program"],
        initial_program=initial.initial_program,
        spec_name=initial.spec_name,
        components=initial.components,
        examples_used=len(examples),
        initial_time=initial.initial_time,
        total_time=initial.total_time + (time.perf_counter() - start),
        initial_cost=initial.initial_cost,
        final_cost=best_box["cost"],
        proof_complete=outcome.status == "exhausted",
        nodes=initial.nodes + outcome.nodes,
        examples=examples,
        search_stats=stats.merge(initial.search_stats),
    )


def synthesize(
    spec: Spec, sketch: Sketch, config: SynthesisConfig | None = None
) -> SynthesisResult:
    """Compile a specification to a verified, optimized Quill kernel.

    With ``workers > 1`` one parallel driver (and its forked worker pool)
    serves both phases.
    """
    config = config or SynthesisConfig()
    driver = None
    if config.workers > 1 and config.shard is None:
        driver = ParallelSynthesis(
            config.workers,
            options=config.search_options or SearchOptions(),
        )
    try:
        result = synthesize_initial(spec, sketch, config, driver=driver)
        if config.optimize:
            result = minimize_cost(spec, sketch, result, config, driver=driver)
    finally:
        if driver is not None:
            driver.close()
    return result
