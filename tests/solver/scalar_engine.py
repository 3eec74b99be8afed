"""The scalar search engine: the batched engine's equivalence oracle.

:class:`ScalarSketchSearch` evaluates every ``(operand2, rotation2)``
fill and every final-slot ct-ct candidate on its own — one shifted
operand, one ``_apply``, one dedup probe or goal comparison per node —
instead of as one stacked numpy batch.  Its value store keeps no
rotation block, so every rotated operand comes from ``shift_matrix``
through the per-value shift cache.  Everything else (slot order,
pruning rules, candidate callbacks) is inherited, so the two engines
must enumerate the same candidates in the same order, with the same
node and per-rule prune counts.
"""

from __future__ import annotations

from repro.solver.engine import SketchSearch, _apply
from repro.solver.values import ValueStore


class ScalarSketchSearch(SketchSearch):
    """:class:`SketchSearch` with one-candidate-at-a-time evaluation."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        base = self.store.vectors[: self.store.base_count]
        self.store = ValueStore(base)

    def _fill_ct(self, slot, comp, op1, r1, v1, avail, prev, prev_wire):
        store = self.store
        pairs, skipped = self._pairs_for(comp, op1, r1, avail)
        self._pruned["commutative"] += skipped
        for op2, r2 in pairs:
            self._tick()
            value = _apply(comp.opcode, v1, store.shifted(op2, r2))
            self._try_push(
                slot, comp, op1, r1, op2, r2, value, prev, prev_wire
            )
            if self._stopped:
                return

    def _final_ct(self, unused, comp):
        store = self.store
        cands, skipped = self._final_ct_cands(unused, comp)
        self._pruned["commutative"] += skipped
        for op1, r1, op2, r2 in cands:
            self._tick()
            value = _apply(
                comp.opcode, store.shifted(op1, r1), store.shifted(op2, r2)
            )
            self._check_goal(comp, op1, r1, op2, r2, value)
            if self._stopped:
                return
