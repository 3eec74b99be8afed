"""Backtracking search over sketch holes (the synthesis "solve" query).

Given a sketch, a program length ``L``, and a set of input-output
examples, the engine enumerates hole assignments — one component choice
plus operand/rotation fills per slot — and reports every assignment whose
program maps each example input to its expected output.  Pruning rules are
documented in the package docstring; all of them are *sound*: an exhausted
search proves no L-component completion of the sketch matches the
examples.

The hot loop is *batched*: for a fixed ``(component, operand1, rotation1)``
prefix, every ``(operand2, rotation2)`` fill is evaluated in one stacked
numpy operation over a single gather of rotation-block rows,
deduplicated through one vectorized 64-bit hash pass
(:meth:`ValueStore.hash_block`), and — on the final slot — goal-checked
with one ``(K, E*|out_slots|)`` comparison against the flattened goal.
Node accounting is per candidate, as if each fill were evaluated on its
own: an early stop uncharges the fills of a batch never reached.  (The
one-candidate-at-a-time scalar engine lives on as the equivalence oracle
in ``tests/solver/scalar_engine.py``.)

The caller (the CEGIS loop in :mod:`repro.core.cegis`) owns verification,
counterexamples, and cost accounting; the engine calls back on every
goal-matching assignment and honours the returned directive (stop, or
continue with a tightened cost bound).

The CEGIS loop builds one :class:`SketchSearch` per round over the full
example list.  ``run(start_rank=...)`` resumes a counterexample round at
the root branch where the failed candidate was found — every lower
branch exhausted without an example match, and example sets only ever
grow, so those branches can never match again (the cross-round
frontier).

Pruning is a declarative rule table (:data:`PRUNE_RULES`), each rule
individually toggleable through :class:`SearchOptions` and individually
counted in :class:`SearchOutcome.pruned <SearchOutcome>` so the ablation
benchmark can attribute node reductions per rule.  All rules are *sound*
under the CEGIS discipline (lengths searched in increasing order):
see the package docstring for the per-rule soundness arguments.

For parallel search, the root slot's ``(component, operand1, rotation1)``
branches are numbered in enumeration order ("root ranks");
``run(root_ranks=...)`` restricts one engine to one contiguous chunk of
branches, so the work-stealing workers of :mod:`repro.core.parallel` can
split the space across processes while preserving the global candidate
order via ``current_root_rank``, and ``run(bound_poll=...)`` lets that
driver broadcast a tightened cost bound *mid-run* (work stealing with live
branch-and-bound, not just between rounds).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields, replace

import numpy as np

from repro.core.sketch import (
    ComponentChoice,
    CtRotHole,
    RotationChoice,
    Sketch,
)
from repro.counters import Counters, counter, derived
from repro.quill.builder import ProgramBuilder
from repro.quill.ir import Opcode, Program, PtConst, PtInput
from repro.quill.latency import LatencyModel
from repro.solver.values import ValueStore
from repro.spec.layout import Layout
from repro.spec.reference import Example


class _Timeout(Exception):
    pass


def _nodes_per_sec(stats) -> float:
    return stats.nodes / stats.seconds if stats.seconds > 0 else 0.0


@dataclass
class SearchOutcome(Counters):
    """Result of one engine run, with throughput statistics."""

    status: str  # "stopped" | "exhausted" | "timeout"
    nodes: int = counter()
    candidates: int = counter()  # assignments that matched the examples
    seconds: float = counter(default=0.0)  # wall time inside run()
    nodes_per_sec = derived(_nodes_per_sec)
    batches: int = counter()  # stacked evaluations
    dedup_hits: int = counter()  # values rejected as observably equivalent
    #: per-rule prune counters: rule name -> candidates/branches skipped
    pruned: dict[str, int] = counter("keyed")
    ranks_skipped: int = counter()  # root branches skipped by the frontier
    shift_cache_peak: int = counter("max")  # store's shift-cache peak
    bound_updates: int = counter()  # mid-run tightenings taken from bound_poll
    steals: int = counter()  # chunk grabs beyond an even share (driver)
    chunks: int = counter()  # chunk tasks executed (driver)


@dataclass
class SearchStats(Counters):
    """Aggregate engine throughput over one synthesis phase (or run).

    Folds the per-run statistics of every :class:`SearchOutcome` a CEGIS
    run issued — counterexample rounds, length increments, parallel
    chunks — into one profile (nodes/sec in ``BENCH_synthesis.json``,
    the session's per-pass timing report, the CLI's ``--timings``).
    """

    runs: int = counter(show="always")  # engine runs (one per round)
    nodes: int = counter(show="always")
    candidates: int = counter()
    seconds: float = counter(default=0.0, digits=6)  # summed across runs
    nodes_per_sec = derived(
        _nodes_per_sec, digits=1, show="always", label="nodes/s",
        fmt="{:,.0f}",
    )
    batches: int = counter()  # stacked evaluations
    dedup_hits: int = counter(show="always")  # observationally equivalent
    pruned: dict[str, int] = counter("keyed", show="detail")  # per-rule skips
    ranks_skipped: int = counter(show="detail")  # skipped by the frontier
    #: high-water mark of live shift-cache entries
    shift_cache_peak: int = counter("max", show="detail")
    bound_updates: int = counter(show="detail")  # mid-run bound tightenings
    steals: int = counter(show="detail")  # chunk grabs beyond an even share
    chunks: int = counter(show="detail")  # chunk tasks of the parallel driver

    def record(self, outcome: SearchOutcome) -> None:
        """Fold in one :class:`SearchOutcome`."""
        self.runs += 1
        self.absorb(outcome)


#: The declarative pruning-rule catalog: rule name -> what the rule skips.
#: Every rule is sound under the CEGIS discipline (lengths searched in
#: increasing order) — disabling a rule enlarges the searched space but
#: never changes the synthesized program; the package docstring carries
#: the per-rule soundness arguments.  Each name is a boolean field on
#: :class:`SearchOptions` and a counter key in ``SearchOutcome.pruned``.
PRUNE_RULES: dict[str, str] = {
    "dedup": "observational-equivalence deduplication of candidate values",
    "commutative": "canonical operand order for commutative components",
    "adjacent": "canonical order for adjacent independent slots",
    "dead_value": "every pushed value must still be able to reach the output",
    "rotation_collapse": (
        "skip rotating a rotation wire when the composed same-sign amount "
        "is itself a legal rotation"
    ),
    "zero_elide": (
        "skip candidates whose all-zero/identity operand makes the result "
        "a value the store already holds"
    ),
    "cost_bound": "branch-and-bound cutoff on the latency*depth lower bound",
}


@dataclass(frozen=True)
class SearchOptions:
    """Pruning toggles, used by the ablation benchmarks.

    One boolean per :data:`PRUNE_RULES` entry; all rules are sound, so
    disabling them only slows the search down (the defaults match the
    paper's section 6.2 configuration plus this port's extensions).
    """

    dedup: bool = True
    commutative: bool = True
    adjacent: bool = True
    dead_value: bool = True
    rotation_collapse: bool = True
    zero_elide: bool = True
    cost_bound: bool = True

    def __post_init__(self):
        missing = [
            name for name in PRUNE_RULES
            if name not in {f.name for f in fields(self)}
        ]
        assert not missing, f"PRUNE_RULES out of sync: {missing}"

    @classmethod
    def no_prune(cls, **overrides) -> "SearchOptions":
        """Every pruning rule disabled (the ablation baseline)."""
        flags = {name: False for name in PRUNE_RULES}
        flags.update(overrides)
        return cls(**flags)

    @classmethod
    def from_rules(cls, rules, **overrides) -> "SearchOptions":
        """Options with exactly the named pruning rules enabled.

        ``rules`` is an iterable of rule names or one comma-separated
        string (the CLI's ``--prune-rules=`` format).
        """
        if isinstance(rules, str):
            rules = [name.strip() for name in rules.split(",") if name.strip()]
        rules = list(rules)
        unknown = sorted(set(rules) - set(PRUNE_RULES))
        if unknown:
            raise ValueError(
                f"unknown pruning rule(s) {', '.join(unknown)}; "
                f"available: {', '.join(PRUNE_RULES)}"
            )
        flags = {name: name in rules for name in PRUNE_RULES}
        flags.update(overrides)
        return cls(**flags)

    def without(self, *rules: str) -> "SearchOptions":
        """A copy with the named rules disabled (per-rule ablations)."""
        unknown = sorted(set(rules) - set(PRUNE_RULES))
        if unknown:
            raise ValueError(
                f"unknown pruning rule(s) {', '.join(unknown)}; "
                f"available: {', '.join(PRUNE_RULES)}"
            )
        return replace(self, **{name: False for name in rules})

    def enabled_rules(self) -> tuple[str, ...]:
        return tuple(
            name for name in PRUNE_RULES if getattr(self, name)
        )


@dataclass
class _Comp:
    """A sketch choice compiled against the current example set."""

    choice_index: int
    is_rotation: bool
    opcode: Opcode | None
    commutative: bool
    rots1: tuple[int, ...]
    rots2: tuple[int, ...] | None  # None for plaintext second operands
    pt_matrix: np.ndarray | None
    pt_ref: PtInput | PtConst | None
    rot_amounts: tuple[int, ...] | None  # explicit rotation components
    latency: float
    depth_inc: int
    max_uses: int
    rot_amount_set: frozenset | None = None  # fast member test for collapse
    pt_zero: bool = False  # plaintext operand is all-zero on the examples
    pt_ones: bool = False  # plaintext operand is all-one on the examples


_ADD_OPS = (Opcode.ADD_CC, Opcode.ADD_CP)
_SUB_OPS = (Opcode.SUB_CC, Opcode.SUB_CP)


def _apply(opcode: Opcode, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if opcode in _ADD_OPS:
        return a + b
    if opcode in _SUB_OPS:
        return a - b
    return a * b


class SketchSearch:
    """One synthesis query: sketch x length x example set."""

    def __init__(
        self,
        sketch: Sketch,
        layout: Layout,
        examples: list[Example],
        latency_model: LatencyModel,
        length: int,
        options: SearchOptions | None = None,
    ):
        if length < 1:
            raise ValueError("length must be >= 1")
        if not examples:
            raise ValueError("at least one example is required")
        self.sketch = sketch
        self.layout = layout
        self.length = length
        self.examples = list(examples)
        self.latency_model = latency_model
        self.options = options or SearchOptions()

        base = [
            np.stack([ex.ct_env[name] for ex in examples])
            for name in layout.ct_names
        ]
        self.goal = np.stack([ex.goal for ex in examples])
        self.out_slots = list(layout.output_slots)

        rots_with_identity = (0,) + tuple(sketch.rotations)
        self.store = ValueStore(
            base,
            amounts=rots_with_identity,
            out_slots=self.out_slots,
            capacity=len(base) + length,
        )
        self._pair_cache: dict[tuple, tuple] = {}
        self._gather_cache: dict[tuple, np.ndarray] = {}
        self._final_cache: dict[tuple, tuple] = {}
        self._final_gather_cache: dict[tuple, tuple] = {}
        self.components: list[_Comp] = []
        for index, choice in enumerate(sketch.choices):
            self.components.append(
                self._compile_choice(index, choice, rots_with_identity)
            )
        self.rot_latency = latency_model.table[Opcode.ROTATE]
        self.min_latency = min(c.latency for c in self.components)
        #: Root branch the engine is currently exploring (see run()).
        self.current_root_rank = -1

    def _compile_choice(self, index, choice, rots_with_identity) -> _Comp:
        model = self.latency_model
        if isinstance(choice, RotationChoice):
            return _Comp(
                choice_index=index,
                is_rotation=True,
                opcode=Opcode.ROTATE,
                commutative=False,
                rots1=(0,),
                rots2=None,
                pt_matrix=None,
                pt_ref=None,
                rot_amounts=tuple(self.sketch.rotations),
                latency=model.table[Opcode.ROTATE],
                depth_inc=0,
                max_uses=choice.max_uses or self.length,
                rot_amount_set=frozenset(self.sketch.rotations),
            )
        assert isinstance(choice, ComponentChoice)
        rots1 = (
            rots_with_identity
            if isinstance(choice.operand1, CtRotHole)
            else (0,)
        )
        pt_matrix = None
        pt_ref = None
        rots2: tuple[int, ...] | None
        if choice.opcode.has_plain_operand:
            rots2 = None
            pt_ref = choice.operand2
            pt_matrix = self._plaintext_matrix(pt_ref)
        else:
            rots2 = (
                rots_with_identity
                if isinstance(choice.operand2, CtRotHole)
                else (0,)
            )
        return _Comp(
            choice_index=index,
            is_rotation=False,
            opcode=choice.opcode,
            commutative=choice.opcode.is_commutative,
            rots1=rots1,
            rots2=rots2,
            pt_matrix=pt_matrix,
            pt_ref=pt_ref,
            rot_amounts=None,
            latency=model.table[choice.opcode],
            depth_inc=1 if choice.opcode.is_multiply else 0,
            max_uses=choice.max_uses or self.length,
            pt_zero=pt_matrix is not None and not pt_matrix.any(),
            pt_ones=pt_matrix is not None and bool((pt_matrix == 1).all()),
        )

    def _plaintext_matrix(self, ref: PtInput | PtConst) -> np.ndarray:
        if isinstance(ref, PtInput):
            return np.stack([ex.pt_env[ref.name] for ex in self.examples])
        value = self.sketch.constants[ref.name]
        if isinstance(value, int):
            row = np.full(self.layout.vector_size, value, dtype=np.int64)
        else:
            row = np.array(value, dtype=np.int64)
        return np.tile(row, (len(self.examples), 1))

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def root_choice_count(self) -> int:
        """Number of root-slot branches (rank universe for partitioning).

        Only meaningful for ``length > 1``: a length-1 search goes
        straight to goal-directed final-slot enumeration, which is not
        rank-partitioned.
        """
        base = self.store.base_count
        total = 0
        for comp in self.components:
            if comp.is_rotation:
                total += base * len(comp.rot_amounts)
            else:
                total += base * len(comp.rots1)
        return total

    def run(
        self,
        on_candidate,
        cost_bound: float = float("inf"),
        deadline: float | None = None,
        root_ranks: frozenset[int] | set[int] | None = None,
        should_stop=None,
        start_rank: int = 0,
        bound_poll=None,
    ) -> SearchOutcome:
        """Enumerate matching assignments, calling back on each.

        ``on_candidate(assignment)`` must return ``(stop, new_bound)``:
        stop aborts the search (initial-solution mode); a non-None bound
        tightens branch-and-bound pruning (optimization mode).

        ``root_ranks`` restricts the search to the given root-slot
        branches (see :meth:`root_choice_count`), one work-stealing chunk
        of the parallel driver; ``None`` searches all of them.  During
        enumeration ``self.current_root_rank`` names the branch the
        current candidate descends from, letting the driver reconstruct
        the global canonical candidate order.

        ``start_rank`` skips every root branch below it — the CEGIS
        cross-round frontier: branches exhausted without an example match
        stay matchless under any extended example set, so a resumed round
        starts at the branch where the failed candidate was found.

        ``should_stop`` is polled alongside the deadline (every 4096
        nodes / every batch); returning True aborts with a "timeout"
        status — the parallel driver's cooperative cancellation.
        ``bound_poll``, polled at the same points, returns the current
        externally-shared cost bound (mid-round broadcast); the engine
        adopts it whenever it is tighter than its own.
        """
        self._on_candidate = on_candidate
        self._bound = cost_bound
        self._deadline = deadline
        self._should_stop = should_stop
        self._bound_poll = bound_poll
        self._bound_updates = 0
        self._root_ranks = frozenset(root_ranks) if root_ranks is not None else None
        self._start_rank = start_rank
        self._ranks_skipped = 0
        self._root_rank = -1
        self.current_root_rank = -1
        self._nodes = 0
        self._batches = 0
        self._candidates = 0
        self._stopped = False
        self._assignment: list[tuple] = []
        self._uses = [0] * len(self.components)
        self._used_flags: list[bool] = []
        self._wire_origin: list[tuple[int, int] | None] = []
        self._unused = 0
        self._latency_sum = 0.0
        self._rotset: set[tuple[int, int]] = set()
        self._max_depth = 0
        self._pruned = {name: 0 for name in PRUNE_RULES}
        dedup_before = self.store.dedup_hits
        started = time.perf_counter()
        status = "exhausted"
        try:
            self._slot(0)
        except _Timeout:
            status = "timeout"
        finally:
            # a timeout (or callback exception) aborts mid-descent; unwind
            # the store so the next run (a parallel worker runs one per
            # chunk) starts from the base values, not a poisoned stack
            while len(self.store) > self.store.base_count:
                self.store.pop()
        if self._stopped:
            status = "stopped"
        self._pruned["dedup"] = self.store.dedup_hits - dedup_before
        return SearchOutcome(
            status=status,
            nodes=self._nodes,
            candidates=self._candidates,
            seconds=time.perf_counter() - started,
            batches=self._batches,
            dedup_hits=self._pruned["dedup"],
            pruned=self._pruned,
            ranks_skipped=self._ranks_skipped,
            shift_cache_peak=self.store.shift_cache_peak,
            bound_updates=self._bound_updates,
        )

    # -- bookkeeping helpers -----------------------------------------------

    def _poll(self) -> None:
        if self._deadline is not None and time.perf_counter() > self._deadline:
            raise _Timeout()
        if self._should_stop is not None and self._should_stop():
            raise _Timeout()
        if self._bound_poll is not None:
            shared = self._bound_poll()
            if shared < self._bound:
                self._bound = shared
                self._bound_updates += 1

    def _tick(self) -> None:
        self._nodes += 1
        if self._nodes % 4096 == 0:
            self._poll()

    def _advance(self, count: int) -> None:
        """Account for one stacked evaluation of ``count`` candidates."""
        self._nodes += count
        self._batches += 1
        self._poll()

    def _enter_root(self, slot: int) -> bool:
        """Number root branches; True when this branch should be searched."""
        if slot != 0:
            return True
        self._root_rank += 1
        self.current_root_rank = self._root_rank
        if self._root_rank < self._start_rank:
            self._ranks_skipped += 1
            return False
        if self._root_ranks is None:
            return True
        return self._root_rank in self._root_ranks

    def _mark_used(self, *ops: int) -> list[int]:
        base = self.store.base_count
        newly = []
        for op in ops:
            if op is None or op < base:
                continue
            wire = op - base
            if not self._used_flags[wire]:
                self._used_flags[wire] = True
                self._unused -= 1
                newly.append(wire)
        return newly

    def _unmark(self, newly: list[int]) -> None:
        for wire in newly:
            self._used_flags[wire] = False
            self._unused += 1

    def _new_rotations(self, *pairs) -> list[tuple[int, int]]:
        added = []
        for op, rot in pairs:
            if op is None or rot == 0:
                continue
            key = (op, rot)
            if key not in self._rotset:
                self._rotset.add(key)
                added.append(key)
        return added

    def _cost_lb(self, slots_left: int) -> float:
        latency = (
            self._latency_sum
            + len(self._rotset) * self.rot_latency
            + slots_left * self.min_latency
        )
        return latency * (1 + self._max_depth)

    # -- slot enumeration -------------------------------------------------------

    def _slot(self, slot: int) -> None:
        if self._stopped:
            return
        if slot == self.length - 1:
            self._final_slot()
            return
        store = self.store
        base = store.base_count
        prev = self._assignment[slot - 1] if slot > 0 else None
        prev_wire = base + slot - 1
        zero_elide = self.options.zero_elide
        for comp in self.components:
            if self._uses[comp.choice_index] >= comp.max_uses:
                continue
            if comp.is_rotation:
                self._try_rotation_comp(slot, comp, prev, prev_wire)
                if self._stopped:
                    return
                continue
            avail = len(store)
            is_mul = comp.opcode.is_multiply
            for op1 in range(avail - 1, -1, -1):
                for r1 in comp.rots1:
                    if not self._enter_root(slot):
                        continue
                    if comp.pt_matrix is not None:
                        if zero_elide and self._elide_pt(comp, op1, r1):
                            continue
                        self._tick()
                        value = _apply(
                            comp.opcode, store.rotated(op1, r1), comp.pt_matrix
                        )
                        self._try_push(
                            slot, comp, op1, r1, None, 0, value, prev, prev_wire
                        )
                        if self._stopped:
                            return
                        continue
                    if (
                        zero_elide
                        and is_mul
                        and store.has_zero()
                        and store.is_zero_rotated(op1, r1)
                    ):
                        # every fill multiplies by the all-zero vector:
                        # each result is the zero value already live in
                        # the store, so dedup would reject every push
                        pairs, _ = self._pairs_for(comp, op1, r1, avail)
                        self._pruned["zero_elide"] += len(pairs)
                        continue
                    v1 = store.rotated(op1, r1)
                    self._fill_ct(
                        slot, comp, op1, r1, v1, avail, prev, prev_wire
                    )
                    if self._stopped:
                        return

    def _elide_pt(self, comp, op1, r1) -> bool:
        """zero_elide for plaintext fills: result duplicates a store value.

        ``x (+|-) 0`` and ``x * 1`` reproduce ``rot(x, r1)``, which is a
        store value exactly when ``r1 == 0``; ``x * 0`` is the all-zero
        vector, a duplicate only when a zero value is live.  All three are
        pure dedup fast-paths: the skipped candidate would be rejected by
        ``try_push`` anyway, so the candidate stream is unchanged.
        """
        if comp.opcode.is_multiply:
            if comp.pt_zero and self.store.has_zero():
                self._pruned["zero_elide"] += 1
                return True
            if comp.pt_ones and r1 == 0:
                self._pruned["zero_elide"] += 1
                return True
            return False
        if comp.pt_zero and r1 == 0:
            self._pruned["zero_elide"] += 1
            return True
        return False

    def _pairs_for(self, comp, op1, r1, avail) -> tuple[list, int]:
        """The (op2, r2) fills for a fixed prefix, in canonical order.

        Returns ``(pairs, skipped)`` where ``skipped`` counts the fills
        removed by the commutative canonical-order rule; both are cached
        per prefix for every later run of this search.
        """
        key = (comp.choice_index, avail, op1, r1)
        cached = self._pair_cache.get(key)
        if cached is None:
            symmetry = self.options.commutative and comp.commutative
            pairs = []
            skipped = 0
            for op2 in range(avail - 1, -1, -1):
                for r2 in comp.rots2:
                    if symmetry and (op2, r2) < (op1, r1):
                        skipped += 1
                        continue
                    pairs.append((op2, r2))
            cached = (pairs, skipped)
            self._pair_cache[key] = cached
        return cached

    def _fill_ct(
        self, slot, comp, op1, r1, v1, avail, prev, prev_wire
    ) -> None:
        store = self.store
        pairs, skipped = self._pairs_for(comp, op1, r1, avail)
        self._pruned["commutative"] += skipped
        if not pairs:
            return
        key = (comp.choice_index, avail, op1, r1)
        rows = self._gather_cache.get(key)
        if rows is None:
            rows = store.rows(pairs)
            self._gather_cache[key] = rows
        self._advance(len(pairs))
        values = _apply(comp.opcode, v1[None, :, :], store.gather(rows))
        hashes = store.hash_block(values).tolist()
        for k, (op2, r2) in enumerate(pairs):
            self._try_push(
                slot, comp, op1, r1, op2, r2, values[k], prev, prev_wire,
                key_hash=hashes[k],
            )
            if self._stopped:
                # per-candidate node accounting on early stops: uncharge
                # the candidates never reached
                self._nodes -= len(pairs) - 1 - k
                return

    def _collapses(self, comp, op1, amount) -> bool:
        """rotation_collapse: rot(rot(x, a), b) with a, b same-sign and
        a+b legal — rot(x, a+b) computes the identical value in the same
        slot at the same cost, so the chained form is redundant."""
        base = self.store.base_count
        if op1 < base:
            return False
        origin = self._wire_origin[op1 - base]
        if origin is None:
            return False
        prior_amount = origin[1]
        if (prior_amount > 0) != (amount > 0):
            return False  # opposite signs do not compose under zero fill
        return (prior_amount + amount) in comp.rot_amount_set

    def _try_rotation_comp(self, slot, comp, prev, prev_wire) -> None:
        store = self.store
        collapse = self.options.rotation_collapse
        zero_elide = self.options.zero_elide
        for op1 in range(len(store) - 1, -1, -1):
            for amount in comp.rot_amounts:
                if not self._enter_root(slot):
                    continue
                if collapse and self._collapses(comp, op1, amount):
                    self._pruned["rotation_collapse"] += 1
                    continue
                if (
                    zero_elide
                    and store.has_zero()
                    and store.is_zero_rotated(op1, amount)
                ):
                    self._pruned["zero_elide"] += 1
                    continue
                self._tick()
                value = store.rotated(op1, amount).copy()
                self._try_push(
                    slot, comp, op1, amount, None, 0, value, prev, prev_wire
                )
                if self._stopped:
                    return

    def _try_push(
        self, slot, comp, op1, r1, op2, r2, value, prev, prev_wire,
        key_hash=None,
    ) -> None:
        # canonical order for adjacent independent components (symmetry
        # breaking, paper 6.2): if this slot does not consume the previous
        # wire, require its encoding to exceed the previous slot's.
        encode = (comp.choice_index, op1, r1, -1 if op2 is None else op2, r2)
        if (
            self.options.adjacent
            and prev is not None
            and op1 != prev_wire
            and op2 != prev_wire
            and encode < prev[5]
        ):
            self._pruned["adjacent"] += 1
            return
        depth = self.store.depths[op1] + comp.depth_inc
        if op2 is not None:
            depth = max(depth, self.store.depths[op2] + comp.depth_inc)
        # a value pushed at slot L-2 is read only by the final slot's
        # goal checks, so its full rotation-block row is never needed
        if not self.store.try_push(
            value, depth, force=not self.options.dedup, key_hash=key_hash,
            out_only=slot == self.length - 2,
        ):
            return  # observational-equivalence dedup
        self._used_flags.append(False)
        self._wire_origin.append((op1, r1) if comp.is_rotation else None)
        self._unused += 1
        newly_used = self._mark_used(op1, op2)
        # dead-value bound: r remaining slots can retire at most r+1 values
        slots_left = self.length - 1 - slot
        if self.options.dead_value and self._unused > slots_left + 1:
            self._pruned["dead_value"] += 1
            self._undo_push(newly_used)
            return
        prev_depth = self._max_depth
        self._max_depth = max(self._max_depth, depth)
        self._latency_sum += comp.latency
        new_rots = (
            self._new_rotations((op1, r1), (op2, r2))
            if not comp.is_rotation
            else []
        )
        self._uses[comp.choice_index] += 1
        if (
            not self.options.cost_bound
            or self._cost_lb(slots_left) < self._bound
        ):
            self._assignment.append((comp, op1, r1, op2, r2, encode))
            self._slot(slot + 1)
            self._assignment.pop()
        else:
            self._pruned["cost_bound"] += 1
        self._uses[comp.choice_index] -= 1
        for key in new_rots:
            self._rotset.discard(key)
        self._latency_sum -= comp.latency
        self._max_depth = prev_depth
        self._undo_push(newly_used)

    def _undo_push(self, newly_used) -> None:
        self._unmark(newly_used)
        self._used_flags.pop()
        self._wire_origin.pop()
        self._unused -= 1
        self.store.pop()

    # -- final slot: goal-directed enumeration ---------------------------------

    def _final_slot(self) -> None:
        store = self.store
        base = store.base_count
        unused = [
            base + wire
            for wire, used in enumerate(self._used_flags)
            if not used
        ]
        if len(unused) > 2:
            return
        avail = range(len(store) - 1, -1, -1)
        collapse = self.options.rotation_collapse
        for comp in self.components:
            if self._uses[comp.choice_index] >= comp.max_uses:
                continue
            if comp.is_rotation:
                if len(unused) > 1:
                    continue
                ops = unused if unused else list(avail)
                for op1 in ops:
                    for amount in comp.rot_amounts:
                        if collapse and self._collapses(comp, op1, amount):
                            # the direct rotation of the chain's source is
                            # enumerated in this same slot with the same
                            # value, so the goal check loses nothing
                            self._pruned["rotation_collapse"] += 1
                            continue
                        self._tick()
                        value = store.shifted(op1, amount)
                        self._check_goal(comp, op1, amount, None, 0, value)
                        if self._stopped:
                            return
                continue
            if comp.pt_matrix is not None:
                if len(unused) > 1:
                    continue
                ops = unused if unused else list(avail)
                for op1 in ops:
                    for r1 in comp.rots1:
                        self._tick()
                        value = _apply(
                            comp.opcode,
                            store.shifted(op1, r1),
                            comp.pt_matrix,
                        )
                        self._check_goal(comp, op1, r1, None, 0, value)
                        if self._stopped:
                            return
                continue
            self._final_ct(unused, comp)
            if self._stopped:
                return

    def _final_ct_cands(self, unused, comp) -> tuple[list, int]:
        """Final-slot ct-ct fills in canonical order, plus the skip count.

        The commutative skip is only sound when the mirrored operand
        order is also enumerated (or op1 == op2, where swapping rotations
        mirrors the pair) — see :meth:`_final_pairs`.  With the
        commutative rule disabled, mirrors of commutative pairs are
        enumerated too, so the ablation baseline searches the genuinely
        unpruned space.  Cached per (component, store size, unused set).
        """
        key = (comp.choice_index, len(self.store), tuple(unused))
        cached = self._final_cache.get(key)
        if cached is not None:
            return cached
        commutative_rule = comp.commutative and self.options.commutative
        cands = []
        skipped = 0
        for op1, op2, sym in self._final_pairs(
            unused, len(self.store), comp, mirrors=not commutative_rule
        ):
            for r1 in comp.rots1:
                for r2 in comp.rots2:
                    if (
                        commutative_rule
                        and (sym or op1 == op2)
                        and (op2, r2) < (op1, r1)
                    ):
                        skipped += 1
                        continue
                    cands.append((op1, r1, op2, r2))
        cached = (cands, skipped)
        self._final_cache[key] = cached
        return cached

    def _final_ct(self, unused, comp) -> None:
        store = self.store
        cands, skipped = self._final_ct_cands(unused, comp)
        self._pruned["commutative"] += skipped
        if not cands:
            return
        key = (comp.choice_index, len(store), tuple(unused))
        cached = self._final_gather_cache.get(key)
        if cached is None:
            cached = (
                store.rows([(c[0], c[1]) for c in cands]),
                store.rows([(c[2], c[3]) for c in cands]),
            )
            self._final_gather_cache[key] = cached
        rows1, rows2 = cached
        self._advance(len(cands))
        # evaluate only the output-slot columns, as flat (K, E*|out|)
        # rows: the goal check never needs the full vectors, and the
        # final slot pushes nothing
        values = _apply(
            comp.opcode, store.gather_out(rows1), store.gather_out(rows2)
        )
        hits = (values == self.goal.reshape(-1)).all(axis=1)
        if not hits.any():
            return
        for k in np.flatnonzero(hits):
            op1, r1, op2, r2 = cands[int(k)]
            self._record_candidate(comp, op1, r1, op2, r2)
            if self._stopped:
                # charge only the candidates up to this one
                self._nodes -= len(cands) - 1 - int(k)
                return

    def _final_pairs(self, unused, avail, comp, mirrors: bool):
        """Operand pairs for the final slot, covering all unused wires.

        The third element says whether the mirrored order of the pair is
        also generated, which gates the commutative symmetry skip.
        ``mirrors`` forces mirror generation for commutative components —
        the commutative-rule-off ablation baseline (for non-commutative
        components mirrors are always required, and generated).
        """
        if len(unused) == 2:
            a, b = unused
            yield a, b, False
            if mirrors:
                yield b, a, False
        elif len(unused) == 1:
            u = unused[0]
            for other in range(avail):
                yield u, other, False
                if other != u and mirrors:
                    yield other, u, False
        else:  # only when length == 1 (no previous wires exist)
            for a in range(avail):
                for b in range(avail):
                    yield a, b, True

    def _check_goal(self, comp, op1, r1, op2, r2, value) -> None:
        out = value[:, self.out_slots]
        if not np.array_equal(out, self.goal):
            return
        self._record_candidate(comp, op1, r1, op2, r2)

    def _record_candidate(self, comp, op1, r1, op2, r2) -> None:
        self._candidates += 1
        encode = (comp.choice_index, op1, r1, -1 if op2 is None else op2, r2)
        self._assignment.append((comp, op1, r1, op2, r2, encode))
        stop, new_bound = self._on_candidate(list(self._assignment))
        self._assignment.pop()
        if new_bound is not None and new_bound < self._bound:
            self._bound = new_bound
        if stop:
            self._stopped = True


# ---------------------------------------------------------------------------
# Materialization: assignment -> Quill program
# ---------------------------------------------------------------------------

def materialize_assignment(
    sketch: Sketch,
    layout: Layout,
    assignment: list[tuple],
    name: str = "synthesized",
) -> Program:
    """Build the Quill program for a search assignment.

    Operand rotations become explicit ``rot`` instructions, shared across
    identical uses (the builder's CSE), which is how the paper counts
    instructions in Table 2.
    """
    builder = ProgramBuilder(layout.vector_size, name=name)
    input_refs = [builder.ct_input(n) for n in layout.ct_names]
    pt_refs = {n: builder.pt_input(n) for n in layout.pt_names}
    for const_name, const_value in sketch.constants.items():
        builder.constant(const_name, const_value)
    base = len(input_refs)
    wire_refs: list = []

    def resolve(index: int):
        if index < base:
            return input_refs[index]
        return wire_refs[index - base]

    last = None
    for comp, op1, r1, op2, r2, _ in assignment:
        if comp.is_rotation:
            last = builder.rotate(resolve(op1), r1)
            wire_refs.append(last)
            continue
        first = builder.rotate(resolve(op1), r1)
        if comp.pt_ref is not None:
            second = (
                pt_refs[comp.pt_ref.name]
                if isinstance(comp.pt_ref, PtInput)
                else comp.pt_ref
            )
        else:
            second = builder.rotate(resolve(op2), r2)
        if comp.opcode in _ADD_OPS:
            last = builder.add(first, second)
        elif comp.opcode in _SUB_OPS:
            last = builder.sub(first, second)
        else:
            last = builder.mul(first, second)
        wire_refs.append(last)
    return builder.build(last)
