"""The search driver: every CEGIS search round, for any worker count.

:class:`ParallelSynthesis` runs one round either as a single
:class:`~repro.solver.engine.SketchSearch` in this process or across a
work-stealing pool of worker processes.  A round runs in process when the
driver has one worker, the sketch length is 1, or the root-rank universe
has fewer than two ranks: phase 1 stops at the first example match, and
phase 2 verifies each candidate under the current bound and tightens it
as it goes.  The pool and its shared state are created by the first
pooled round, so ``workers=1`` forks nothing.

The engine's enumeration tree fans out at the root slot into independent
``(component, operand1, rotation1)`` branches ("root ranks", numbered in
canonical enumeration order by :class:`~repro.solver.engine.SketchSearch`).
:class:`ParallelSynthesis` groups those ranks into fine-grained
*contiguous chunks* on a shared queue: each worker loops, atomically
claiming the next unclaimed chunk — work stealing, so a worker that drew
a cheap subtree immediately takes more instead of idling behind a
straggler the way a static partition would.  Three pieces of shared state
are broadcast *mid-round*, not just between rounds:

* the **cost bound** (phase 2): the parent re-verifies candidates in
  canonical order and publishes every tightened verified bound to a
  shared value that running engines poll each batch
  (``run(bound_poll=...)``), so a cheap program found in an early rank
  prunes the subtrees workers are *currently* searching;
* the **match frontier** (phase 1): the lowest example-matching rank seen
  so far; workers skip whole chunks above it, since the round's result is
  decided at or below that rank;
* the **cancel event**: cooperative abandonment of in-flight subtrees
  when the round is decided (``Future.cancel()`` cannot stop a running
  task).

Determinism: the parent consumes chunk results strictly in chunk order
and replays each chunk's candidate stream with serial semantics, so
``workers=N`` stays bit-identical to the in-process search.  Mid-round
bounds only ever come from parent-verified programs in
already-replayed (lower) chunks — a worker sees a bound no tighter than
the one a serial search would hold at the same point, so workers emit a
superset of the serial candidate stream and the ordered replay filters
it.  The match frontier can only discard chunks strictly above the
deciding rank.  Under deadline pressure the driver reports a timeout
whenever a chunk times out before a decisive lower-rank result (a serial
search would still be inside that subtree at the deadline), so it never
returns a *different* program than serial.

Each worker builds one fresh :class:`SketchSearch` per round and runs
it over every chunk it claims.  The **cross-round frontier** lives in the
parent: its ``start_rank`` drops chunks for root branches already proven
matchless in earlier rounds.

Workers never tighten bounds on unverified candidates — a cheap
example-matching program can still fail verification, and pruning on its
cost could hide the true optimum.  Verification stays in the parent: a
:class:`~repro.spec.reference.Spec` holds an arbitrary Python reference
implementation (often a lambda) and does not cross process boundaries,
while sketches, layouts, examples, and latency tables are all plain
picklable data; candidates come back as Quill program text.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import queue as queue_lib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable

from repro.quill.cost import program_cost
from repro.quill.latency import LatencyModel
from repro.quill.printer import format_program
from repro.solver.engine import (
    SearchOptions,
    SearchOutcome,
    SketchSearch,
    materialize_assignment,
)
from repro.spec.layout import Layout
from repro.spec.reference import Example

#: found_rank sentinel: no example match reported yet this round.
_NO_RANK = 2**62

#: target chunks per worker; smaller chunks steal better, larger chunks
#: amortize the per-chunk root-scan overhead
_CHUNKS_PER_WORKER = 8

# Worker-process shared state, installed once by the pool initializer:
# the cancel event, the shared bound/frontier values, the chunk cursor,
# and the result queue (inherited through process creation, the only way
# multiprocessing queues cross the boundary).
_SHARED: dict = {}


def _init_worker(cancel, bound, found_rank, chunk_next, results) -> None:
    _SHARED.update(
        cancel=cancel,
        bound=bound,
        found_rank=found_rank,
        chunk_next=chunk_next,
        results=results,
    )


@dataclass(frozen=True)
class ChunkTask:
    """One worker's view of a whole work-stealing round."""

    sketch: object
    layout: Layout
    examples: tuple[Example, ...]
    model: LatencyModel
    length: int
    options: SearchOptions
    mode: str  # "first" | "collect"
    cost_bound: float
    deadline: float | None
    name: str
    chunks: tuple[tuple[int, int], ...]  # contiguous [lo, hi) rank ranges
    generation: int  # round id, echoed on every message


def _new_search(task: ChunkTask) -> SketchSearch:
    return SketchSearch(
        task.sketch,
        task.layout,
        list(task.examples),
        task.model,
        task.length,
        options=task.options,
    )


def _worker_round(task: ChunkTask) -> dict:
    """Pool entry point: steal chunks until the queue (or round) is done."""
    shared = _SHARED
    search = _new_search(task)
    grabbed = 0
    while True:
        if shared["cancel"].is_set():
            break
        with shared["chunk_next"].get_lock():
            index = shared["chunk_next"].value
            shared["chunk_next"].value = index + 1
        if index >= len(task.chunks):
            break
        grabbed += 1
        lo, hi = task.chunks[index]
        if task.mode == "first" and lo > shared["found_rank"].value:
            # mid-round frontier broadcast: the round is decided at or
            # below found_rank, so this whole chunk is moot
            shared["results"].put((task.generation, index, os.getpid(), None, []))
            continue
        found: list[tuple] = []
        if task.mode == "first":

            def on_candidate(assignment, search=search, found=found):
                program = materialize_assignment(
                    task.sketch, task.layout, assignment, name=task.name
                )
                found.append(
                    (search.current_root_rank, format_program(program))
                )
                return True, None

            cost_bound = float("inf")
            bound_poll = None
        else:
            sequence = 0

            def on_candidate(assignment, search=search, found=found):
                nonlocal sequence
                program = materialize_assignment(
                    task.sketch, task.layout, assignment, name=task.name
                )
                cost = program_cost(program, task.model)
                # the shared bound only ever holds parent-verified costs
                # from fully-replayed lower chunks, so this filter is a
                # subset of what the ordered replay would drop anyway
                if cost < shared["bound"].value:
                    found.append(
                        (
                            search.current_root_rank,
                            sequence,
                            cost,
                            format_program(program),
                        )
                    )
                sequence += 1
                return False, None

            cost_bound = shared["bound"].value
            bound_poll = lambda: shared["bound"].value  # noqa: E731

        outcome = search.run(
            on_candidate,
            cost_bound=cost_bound,
            deadline=task.deadline,
            root_ranks=frozenset(range(lo, hi)),
            should_stop=shared["cancel"].is_set,
            bound_poll=bound_poll,
        )
        if task.mode == "first" and found:
            rank = found[0][0]
            with shared["found_rank"].get_lock():
                if rank < shared["found_rank"].value:
                    shared["found_rank"].value = rank
        shared["results"].put(
            (task.generation, index, os.getpid(), outcome, found)
        )
    return {"worker": os.getpid(), "chunks": grabbed}


class ParallelSynthesis:
    """The search driver: in-process rounds, or a reusable work-stealing
    pool with deterministic merging.

    One driver serves every round of a CEGIS run (both phases): the pool
    forks at most once, and each pooled :meth:`find_first`/:meth:`minimize`
    call streams chunk results in canonical order.  Use as a context
    manager (or call :meth:`close`) to release the pool.
    """

    def __init__(
        self,
        workers: int | None = None,
        options: SearchOptions | None = None,
    ):
        self.workers = max(1, workers or os.cpu_count() or 1)
        self.options = options or SearchOptions()
        # the pool and its shared round state (cancel event, bound, match
        # frontier, chunk cursor, result queue) are created by the first
        # pooled round, so an in-process-only driver forks nothing
        self._pool: ProcessPoolExecutor | None = None
        self._generation = 0
        self._rank_counts: dict[tuple, tuple[object, int]] = {}
        self._round_summaries: list[dict] = []
        #: rank of the last find_first example match (cross-round frontier)
        self.last_match_rank = -1

    # -- lifecycle --------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._cancel = multiprocessing.Event()
            self._bound = multiprocessing.Value("d", float("inf"))
            self._found_rank = multiprocessing.Value("q", _NO_RANK)
            self._chunk_next = multiprocessing.Value("q", 0)
            self._results = multiprocessing.Queue()
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(
                    self._cancel,
                    self._bound,
                    self._found_rank,
                    self._chunk_next,
                    self._results,
                ),
            )
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._cancel.set()  # reap in-flight stragglers cooperatively
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "ParallelSynthesis":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- rank streaming ---------------------------------------------------

    def rank_count(
        self,
        sketch,
        layout: Layout,
        examples: list[Example],
        model: LatencyModel,
        length: int,
    ) -> int:
        """The root-rank universe size (cached: invariant across rounds)."""
        key = (id(sketch), length)
        cached = self._rank_counts.get(key)
        if cached is None:
            probe = SketchSearch(
                sketch, layout, examples, model, length, options=self.options
            )
            # the entry holds its sketch, so the id stays unique while
            # the driver serves other kernels' sketches (composed compiles)
            cached = (sketch, probe.root_choice_count())
            self._rank_counts[key] = cached
        return cached[1]

    def _chunk_ranges(
        self, start_rank: int, total: int
    ) -> tuple[tuple[int, int], ...]:
        span = total - start_rank
        size = max(1, math.ceil(span / (self.workers * _CHUNKS_PER_WORKER)))
        return tuple(
            (lo, min(lo + size, total))
            for lo in range(start_rank, total, size)
        )

    def _stream_chunks(self, task: ChunkTask):
        """Yield ``(chunk_index, outcome, found)`` strictly in chunk order.

        ``outcome`` is ``None`` for a chunk skipped via the match
        frontier (only ever above the deciding rank).  Closing the
        generator cancels the round: queued chunks are never claimed,
        in-flight engines bail at their next poll, and the result queue
        is drained so the next round starts clean.
        """
        pool = self._ensure_pool()
        self._cancel.clear()
        with self._chunk_next.get_lock():
            self._chunk_next.value = 0
        with self._found_rank.get_lock():
            self._found_rank.value = _NO_RANK
        with self._bound.get_lock():
            self._bound.value = task.cost_bound
        futures = [
            pool.submit(_worker_round, task)
            for _ in range(min(self.workers, len(task.chunks)))
        ]
        buffered: dict[int, tuple] = {}
        next_index = 0
        try:
            while next_index < len(task.chunks):
                try:
                    message = self._results.get(timeout=0.25)
                except queue_lib.Empty:
                    for future in futures:
                        if future.done() and future.exception() is not None:
                            raise future.exception()
                    continue
                generation, index, _worker, outcome, found = message
                if generation != task.generation:
                    continue  # straggler from a cancelled round
                buffered[index] = (outcome, found)
                while next_index in buffered:
                    outcome, found = buffered.pop(next_index)
                    yield next_index, outcome, found
                    next_index += 1
        finally:
            self._cancel.set()
            summaries = []
            straggler = False
            for future in futures:
                try:
                    summaries.append(future.result(timeout=60))
                except Exception:
                    # a worker that raised is done and harmless (stats are
                    # best-effort); one that is *still running* past the
                    # cancel window would share the chunk cursor and the
                    # result queue with the next round — rebuild the pool
                    # so every future round starts from clean workers
                    straggler = straggler or not future.done()
            if straggler and self._pool is not None:
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = None
            while True:
                try:
                    self._results.get_nowait()
                except queue_lib.Empty:
                    break
            self._round_summaries = summaries

    def _steal_stats(self) -> tuple[int, int]:
        """(chunks grabbed, grabs beyond an even share) for the last round."""
        counts = [s["chunks"] for s in self._round_summaries]
        total = sum(counts)
        if not counts or total == 0:
            return 0, 0
        fair = math.ceil(total / len(counts))
        return total, sum(max(0, count - fair) for count in counts)

    def _merge(
        self,
        outcomes: list[SearchOutcome],
        status: str,
        wall_seconds: float,
        ranks_skipped: int = 0,
    ) -> SearchOutcome:
        chunks, steals = self._steal_stats()
        total = SearchOutcome(status=status)
        for outcome in outcomes:
            total.absorb(outcome)
        return replace(
            total,
            seconds=wall_seconds,
            steals=steals,
            chunks=chunks,
            ranks_skipped=ranks_skipped + total.ranks_skipped,
        )

    def _chunk_task(
        self, sketch, layout, examples, model, length, mode, bound, deadline,
        name, start_rank,
    ) -> ChunkTask:
        total = self.rank_count(sketch, layout, examples, model, length)
        self._generation += 1
        return ChunkTask(
            sketch=sketch,
            layout=layout,
            examples=tuple(examples),
            model=model,
            length=length,
            options=self.options,
            mode=mode,
            cost_bound=bound,
            deadline=deadline,
            name=name,
            chunks=self._chunk_ranges(start_rank, total),
            generation=self._generation,
        )

    # -- search rounds ----------------------------------------------------

    def _in_process(
        self, sketch, layout, examples, model, length, start_rank
    ) -> bool:
        """Whether a round runs as one search in this process.

        One worker has nothing to fork for, a length-1 search is pure
        goal-directed final-slot enumeration (no root ranks to split),
        and a universe under two ranks is not worth a fork.  Checked
        before the rank probe, so a one-worker driver never builds one.
        """
        return (
            self.workers < 2
            or length < 2
            or self.rank_count(sketch, layout, examples, model, length)
            - start_rank < 2
        )

    def find_first(
        self,
        sketch,
        layout: Layout,
        examples: list[Example],
        model: LatencyModel,
        length: int,
        *,
        deadline: float | None = None,
        name: str = "synthesized",
        start_rank: int = 0,
    ) -> tuple[SearchOutcome, str | None]:
        """One phase-1 round: the globally-first example-matching program.

        Chunks are consumed in order, so the first chunk that reports a
        match — with every lower chunk already exhausted and match-free —
        holds exactly the candidate a single-process search reaches
        first; chunks above the match frontier are skipped mid-round and
        in-flight subtrees abandoned.  ``start_rank`` resumes a
        counterexample round at the previous match's branch (lower
        branches are proven matchless forever).  Returns the merged
        outcome and the winning program's text (``None`` when the space
        is exhausted, or on timeout); ``self.last_match_rank`` records
        the match branch for the caller's next resume.
        """
        self.last_match_rank = -1
        if self._in_process(
            sketch, layout, examples, model, length, start_rank
        ):
            search = SketchSearch(
                sketch, layout, examples, model, length, options=self.options
            )
            found: list[str] = []

            def on_candidate(assignment):
                program = materialize_assignment(
                    sketch, layout, assignment, name=name
                )
                self.last_match_rank = search.current_root_rank
                found.append(format_program(program))
                return True, None

            outcome = search.run(
                on_candidate, deadline=deadline, start_rank=start_rank
            )
            return outcome, found[0] if found else None

        started = time.perf_counter()
        task = self._chunk_task(
            sketch, layout, examples, model, length, "first", float("inf"),
            deadline, name, start_rank,
        )
        outcomes: list[SearchOutcome] = []
        best_text: str | None = None
        status = "exhausted"
        stream = self._stream_chunks(task)
        try:
            for _, outcome, found in stream:
                if outcome is not None:
                    outcomes.append(outcome)
                    if outcome.status == "timeout":
                        # a serial search would still be inside this
                        # subtree at the deadline; never report a
                        # later-rank match
                        status = "timeout"
                        break
                if found:
                    self.last_match_rank, best_text = found[0]
                    status = "stopped"
                    break
        finally:
            stream.close()
        return (
            self._merge(
                outcomes, status, time.perf_counter() - started,
                ranks_skipped=start_rank,
            ),
            best_text,
        )

    def minimize(
        self,
        sketch,
        layout: Layout,
        examples: list[Example],
        model: LatencyModel,
        length: int,
        *,
        cost_bound: float,
        verify: Callable[[str], bool],
        deadline: float | None = None,
        name: str = "synthesized",
    ) -> tuple[SearchOutcome, str | None, float]:
        """One phase-2 round: the cheapest verified program under the bound.

        Every candidate cheaper than the current bound goes to
        ``verify`` in canonical order, and each verified one tightens
        the bound.  In process, the tightening is the callback's
        ``(False, cost)`` return; in the pool, chunk results are replayed
        in chunk order and every verified tightening is broadcast to the
        shared bound that running engines poll mid-round
        (``bound_poll``), so a cheap program verified in an early chunk
        prunes every subtree still being searched.  Returns the outcome,
        the best program's text (``None`` when nothing beat
        ``cost_bound``), and its cost.
        """
        best: dict = {"text": None, "cost": cost_bound}

        def accept(cost: float, text: str) -> bool:
            if not verify(text):
                return False  # matches the examples but not the spec
            best.update(text=text, cost=cost)
            return True

        if self._in_process(sketch, layout, examples, model, length, 0):
            search = SketchSearch(
                sketch, layout, examples, model, length, options=self.options
            )

            def on_candidate(assignment):
                program = materialize_assignment(
                    sketch, layout, assignment, name=name
                )
                cost = program_cost(program, model)
                if cost < best["cost"] and accept(
                    cost, format_program(program)
                ):
                    return False, cost
                return False, None

            outcome = search.run(
                on_candidate, cost_bound=cost_bound, deadline=deadline
            )
            return outcome, best["text"], best["cost"]

        started = time.perf_counter()
        task = self._chunk_task(
            sketch, layout, examples, model, length, "collect", cost_bound,
            deadline, name, 0,
        )
        outcomes: list[SearchOutcome] = []
        status = "exhausted"
        stream = self._stream_chunks(task)
        try:
            for _, outcome, found in stream:
                if outcome is None:
                    continue
                outcomes.append(outcome)
                # candidates this chunk emitted before any deadline are
                # exactly the ones a serial search would have reached
                for _, _, cost, text in found:
                    if cost < best["cost"] and accept(cost, text):
                        # mid-round broadcast: parent-verified bounds only
                        with self._bound.get_lock():
                            if cost < self._bound.value:
                                self._bound.value = cost
                if outcome.status == "timeout":
                    status = "timeout"
                    break
        finally:
            stream.close()
        return (
            self._merge(outcomes, status, time.perf_counter() - started),
            best["text"],
            best["cost"],
        )
