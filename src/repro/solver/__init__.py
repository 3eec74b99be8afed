"""Constraint-search substrate: the synthesis engine's "solver".

This package stands in for the SMT solver (Boolector via Rosette) in the
paper's toolchain.  A synthesis query — *complete this sketch so the
program maps the example inputs to the example outputs* — is solved by
backtracking search over the sketch's holes with aggressive pruning.

Pruning is a declarative rule table (:data:`repro.solver.PRUNE_RULES`);
each rule is a toggle on :class:`SearchOptions` and a counter in
``SearchOutcome.pruned``, so the ablation benchmark can attribute node
reductions per rule.  The catalog, with soundness arguments:

``dedup`` — observational-equivalence deduplication.  A candidate whose
  value on all examples duplicates a live store value cannot appear in a
  minimal program: every later consumer can point at the existing wire
  instead (equal values have equal rotations), and dropping the duplicate
  shortens the program.  Sound for any fixed-length query.

``commutative`` — canonical operand order for commutative components
  (paper section 6.2).  The mirrored fill computes the identical value in
  the same slot at the same cost and is enumerated under the canonical
  encoding, so nothing is lost.  Sound for any fixed-length query; in the
  final slot the skip is gated on the mirror actually being generated.

``adjacent`` — canonical order for adjacent independent slots (paper
  section 6.2).  Two adjacent slots that do not consume each other's
  wires commute as instructions; requiring non-decreasing encodings keeps
  exactly one interleaving of each unordered program.  Sound for any
  fixed-length query.

``dead_value`` — every pushed value must still be able to reach the
  output: ``r`` remaining slots can retire at most ``r + 1`` unconsumed
  wires.  A violating completion has a dead component, so an equivalent
  strictly shorter program exists — sound under the CEGIS discipline of
  searching lengths in increasing order (the shorter program was found,
  or refuted, first).

``rotation_collapse`` — skip rotating a rotation wire when both amounts
  share a sign and their sum is itself a legal amount: ``rot(rot(x, a),
  b) == rot(x, a+b)`` exactly under zero-fill shift semantics, and the
  direct rotation of ``x`` (still available, as an ancestor) is
  enumerated in the same slot at the same cost.  If the inner rotation
  wire had no other consumer, the collapsed program has a dead wire and a
  strictly shorter equivalent exists — sound under the CEGIS discipline,
  like ``dead_value``.  (Local-rotate sketches never chain rotations, so
  the rule only fires for explicit-style sketches.)

``zero_elide`` — skip candidates whose all-zero or identity operand
  makes the result a value the store already holds, without evaluating
  it: ``x ⊕ 0`` and ``x * 1`` reproduce an existing wire, ``x * 0``
  reproduces a live zero value (the elision requires one), and an
  over-rotation that shifts a value's entire nonzero support off the
  vector is the zero value again.  Decided in O(1) from cached
  nonzero-support bounds; a pure fast-path for ``dedup`` (the skipped
  push would be rejected), so the candidate stream is unchanged.

``cost_bound`` — branch-and-bound: abandon a prefix when its latency ×
  (1 + depth) lower bound already meets the best verified cost.  Only
  candidates at least as expensive as a known verified program are
  skipped, so the cost minimum is preserved.

Component-multiset accounting (section 4.4) and goal-directed
enumeration of the final instruction are structural, not toggleable.
The engine is exact for the queries it answers under the CEGIS
discipline: "exhausted" means no completion of the sketch at that size
matches the examples, modulo programs the rules above prove redundant.

Searches persist across CEGIS rounds: counterexamples are appended as
single columns to the live value store (``extend_examples``), exhausted
length-``L`` searches seed length ``L+1`` (``set_length``), and resumed
rounds skip root branches already exhausted without a match
(``run(start_rank=...)``).

Evaluation is batched: all operand fills of a prefix are one gather of
pre-rotated value-block rows (each push fills its rotations with one
gather through a cached source-index table), dedup is one vectorized
hash pass, and the final slot's goal check compares flat output-column
rows against the flattened goal.  The scalar engine survives only as the
equivalence oracle in the tests.  Root-slot partitioning
(``run(root_ranks=...)``) plus mid-run bound polling
(``run(bound_poll=...)``) support the work-stealing process-parallel
driver in :mod:`repro.core.parallel`.
"""

from repro.solver.engine import (
    PRUNE_RULES,
    SearchOptions,
    SearchOutcome,
    SearchStats,
    SketchSearch,
    materialize_assignment,
)
from repro.solver.values import ValueStore, shift_matrix

__all__ = [
    "PRUNE_RULES",
    "SearchOptions",
    "SearchOutcome",
    "SearchStats",
    "SketchSearch",
    "ValueStore",
    "materialize_assignment",
    "shift_matrix",
]
