"""Compile-time NTT-domain planning over the executor's instruction tape.

The lazy ring layer decides coeff<->eval residency per operation, at run
time: whatever forms an operand happens to carry determine whether a
transform fires.  That policy is locally reasonable and globally wasteful
— a relinearized product that feeds another multiply is pushed into the
evaluation domain only to be pulled straight back, and every rotation of
an NTT-form ciphertext re-pays the inverse transform its key-switch
digits need.  EVA and HEIR treat conversion placement as a *compiler*
decision; this module does the same at the tape level.

The planner runs two exact simulations of the tape over per-part domain
state machines (which of ``{coeff, eval}`` each ciphertext part carries,
mirroring :mod:`repro.he.context` op for op):

* the **lazy** simulation reproduces the unplanned executor and counts
  the NTT row transforms it performs, and
* the **planned** simulation resolves one domain hint per step — greedy
  over (immediate transform cost + k rows per demanded-but-missing form
  on the result, from a backward demand pass) — and counts again.

Counts are in *row* units (one length-``N`` transform; a ``(k, N)``
element costs ``k`` rows, a key-switch digit stack ``digits * k``, the
multiply tensor ``7 * k_ext``, or ``5 * k_ext`` for a square, whose two
operands are one value) per run, so a measured run must equal the
prediction — the property tests pin exactly that.  Because the NTT is an
exact linear bijection mod each prime and automorphisms commute with it,
*any* hint assignment yields bit-identical residues; the plan changes
only where transforms happen.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.quill.ir import Opcode

_C = "C"  # coefficient domain
_E = "E"  # evaluation (NTT) domain

_CC_OPS = (Opcode.ADD_CC, Opcode.SUB_CC)
_CP_OPS = (Opcode.ADD_CP, Opcode.SUB_CP)

# public hint vocabulary (what HEExecutor passes to BFVContext ops)
_DOMAIN_OF = {_C: "coeff", _E: "eval"}


@dataclass(frozen=True)
class DomainPlan:
    """Per-step domain hints plus the predicted transform economics.

    ``hints[i]`` is ``None`` (keep the lazy policy), ``"coeff"`` or
    ``"eval"`` for step ``i``; rotations are always executed in planned
    routing (cost is never worse than the lazy hoist).  Row counts are
    per run: one run performs ``ntts_planned`` rows planned and
    ``ntts_lazy`` unplanned.
    """

    hints: tuple
    ntts_planned: int
    ntts_lazy: int

    @property
    def ntts_elided(self) -> int:
        return self.ntts_lazy - self.ntts_planned

    def summary(self) -> dict:
        return {
            "steps": len(self.hints),
            "hinted_steps": sum(1 for h in self.hints if h is not None),
            "ntts_planned": self.ntts_planned,
            "ntts_lazy": self.ntts_lazy,
            "ntts_elided": self.ntts_elided,
        }


class _Sim:
    """One exact pass of the tape over per-part domain-form sets.

    Mutable state mirrors what the runtime actually caches: slot values
    and ciphertext inputs hold per-part form sets (forcing a missing form
    caches it, like ``RingElement`` lazy materialisation), and transient
    operands (the rotated c1 under lazy routing) pay their transform
    without caching anything.  Plaintext lifts carry both forms before
    the tape starts: the executor primes them when a plaintext enters its
    cache, so they never cost a row.
    """

    def __init__(self, k: int, k_ext: int, digits: int):
        self.k = k
        self.k_ext = k_ext
        self.digits = digits
        self.rows = 0
        self.slots: dict[int, list[set]] = {}
        self.ct_inputs: dict[str, list[set]] = {}

    # -- state access ---------------------------------------------------

    def ct_value(self, desc: tuple) -> list[set]:
        kind, key = desc
        if kind == "slot":
            return self.slots[key]
        # fresh encryptions arrive in NTT form (encrypt primes the masking
        # sums' caches and the public-key products are pointwise)
        return self.ct_inputs.setdefault(key, [{_E}, {_E}])

    # -- primitives -----------------------------------------------------

    def force(self, forms: set, dom: str) -> None:
        """Materialise ``dom`` on a persistent value (transform + cache)."""
        if dom not in forms:
            self.rows += self.k
            forms.add(dom)

    def force_transient(self, forms: set, dom: str) -> None:
        """Materialise ``dom`` on a value that dies after this op."""
        if dom not in forms:
            self.rows += self.k

    def binary(self, a: set, b: set, hint: str | None) -> set:
        """Mirror ``RingElement._binary``: domains computed and forced."""
        if hint == "coeff":
            self.force(a, _C)
            self.force(b, _C)
            return {_C}
        if hint == "eval":
            self.force(a, _E)
            self.force(b, _E)
            return {_E}
        out = set()
        if _C in a and _C in b:
            out.add(_C)
        if _E in a and _E in b:
            out.add(_E)
        if not out:  # mixed domains: the lazy policy prefers evaluation
            self.force(a, _E)
            self.force(b, _E)
            out.add(_E)
        return out

    def relinearize(self, parts: list[set], hint: str | None) -> list[set]:
        self.force(parts[2], _C)  # digit decomposition reads coefficients
        self.rows += self.digits * self.k  # batched digit-stack forward
        if hint == "coeff":
            self.rows += 2 * self.k  # prime_coeffs on the two accumulators
            self.force(parts[0], _C)
            self.force(parts[1], _C)
            return [{_C}, {_C}]
        self.force(parts[0], _E)  # prime_evals on both target parts
        self.force(parts[1], _E)
        return [{_E}, {_E}]

    # -- one tape step --------------------------------------------------

    def apply(
        self,
        opcode: Opcode,
        a_desc: tuple,
        b_desc: tuple | None,
        hint: str | None,
        planned: bool,
        eager: bool,
    ) -> list[set]:
        if opcode in _CC_OPS:
            a = self.ct_value(a_desc)
            b = self.ct_value(b_desc)
            return [self.binary(p, q, hint) for p, q in zip(a, b)]
        if opcode in _CP_OPS:
            a = self.ct_value(a_desc)
            # the scaled lift: scalar_mul copies both of the lift's forms
            head = self.binary(a[0], {_C, _E}, hint)
            return [head] + [set(p) for p in a[1:]]
        if opcode is Opcode.MUL_CP:
            a = self.ct_value(a_desc)
            for p in a:
                self.force(p, _E)
            return [{_E} for _ in a]
        if opcode is Opcode.MUL_CC:
            a = self.ct_value(a_desc)
            b = self.ct_value(b_desc)
            for j in (0, 1):  # the tensor stacks coefficient residues
                self.force(a[j], _C)
                self.force(b[j], _C)
            # ext basis: 4 forward + 3 inverse, or 2 + 3 for a square
            # (both operands fetch one object, so the tensor sees ct1 is ct2)
            square = a_desc == b_desc
            self.rows += (5 if square else 7) * self.k_ext
            product = [{_C}, {_C}, {_C}]
            if eager:
                return self.relinearize(product, hint)
            return product
        if opcode is Opcode.RELIN:
            return self.relinearize(self.ct_value(a_desc), hint)
        assert opcode is Opcode.ROTATE
        a = self.ct_value(a_desc)
        if planned:
            # c0 permutes evaluation rows; c1 routes through coefficients
            # (the decomposition needs them) *cached on the input wire*,
            # so repeated rotations of one value pay the inverse once
            self.force(a[0], _E)
            self.force(a[1], _C)
        else:
            self.force(a[0], _E)  # the lazy hoist
            # lazy c1 is a fresh permuted element: its coefficient form is
            # recomputed per rotation and never cached on the input
            self.force_transient(a[1], _C)
        self.rows += self.digits * self.k
        return [{_E}, {_E}]

    def run_step(self, step, hint, planned, eager) -> None:
        opcode, a, b, _amount, out_slot, _frees = step
        result = self.apply(opcode, a, b, hint, planned, eager)
        if out_slot >= 0:
            self.slots[out_slot] = result


def _wiring(steps, output: tuple, extras: tuple, eager: bool):
    """Producer step of each operand, part counts, and output producers."""
    producers: list[tuple[int | None, int | None]] = []
    part_counts: list[int] = []
    slot_prod: dict[int, int] = {}
    for i, (opcode, a, b, _amount, out_slot, _frees) in enumerate(steps):
        pa = slot_prod.get(a[1]) if a[0] == "slot" else None
        pb = slot_prod.get(b[1]) if (b is not None and b[0] == "slot") else None
        producers.append((pa, pb))
        if opcode is Opcode.MUL_CC and not eager:
            count = 3
        elif opcode in _CC_OPS or opcode in _CP_OPS or opcode is Opcode.MUL_CP:
            count = part_counts[pa] if pa is not None else 2
        else:  # ROTATE, RELIN, eager MUL_CC
            count = 2
        part_counts.append(count)
        if out_slot >= 0:
            slot_prod[out_slot] = i
    out_producers = [
        slot_prod.get(desc[1])
        for desc in (output, *extras)
        if desc[0] == "slot"
    ]
    return producers, part_counts, out_producers


def _demands(steps, producers, part_counts, out_producers, eager):
    """Backward pass: which domains each step's result parts must serve.

    Demand guides the greedy hint choice only — correctness never depends
    on it.  Program outputs demand the evaluation domain (decryption's
    ``c0 + c1*s`` is a pointwise product)."""
    demand = [[set() for _ in range(part_counts[i])] for i in range(len(steps))]

    def want(producer, part, doms):
        if producer is not None and doms:
            demand[producer][part] |= doms

    for producer in out_producers:
        if producer is not None:
            for part in range(part_counts[producer]):
                demand[producer][part].add(_E)
    for i in range(len(steps) - 1, -1, -1):
        opcode = steps[i][0]
        pa, pb = producers[i]
        dm = demand[i]
        if opcode is Opcode.ROTATE:
            want(pa, 0, {_E})
            want(pa, 1, {_C})
        elif opcode is Opcode.MUL_CC:
            for j in (0, 1):
                want(pa, j, {_C})
                want(pb, j, {_C})
        elif opcode is Opcode.RELIN:
            want(pa, 0, dm[0])
            want(pa, 1, dm[1])
            want(pa, 2, {_C})
        elif opcode is Opcode.MUL_CP:
            if pa is not None:
                for j in range(part_counts[pa]):
                    want(pa, j, {_E})
        else:  # ADD/SUB, ct-ct and ct-pt: linear, demand passes through
            for j, doms in enumerate(dm):
                if pa is not None and j < part_counts[pa]:
                    want(pa, j, doms)
                if pb is not None and j < part_counts[pb]:
                    want(pb, j, doms)
    return demand


def _candidates(opcode: Opcode, dm: list[set]) -> list[str | None]:
    union = set().union(*dm) if dm else set()
    if opcode is Opcode.MUL_CC or opcode is Opcode.RELIN:
        # the only planned variant folds the key-switch result back into
        # the coefficient domain; worth it when no consumer wants eval
        return ["coeff", None] if union == {_C} else [None, "coeff"]
    if len(union) == 1:
        dom = _DOMAIN_OF[next(iter(union))]
        rest = [h for h in (None, "coeff", "eval") if h != dom]
        return [dom] + rest
    return [None, "coeff", "eval"]


def _probe_cost(sim: _Sim, step, hint, eager, dm) -> int:
    """Immediate rows of ``hint`` plus a k-row penalty per demanded form
    the result would not carry — evaluated on copies, no state mutated."""
    opcode, a_desc, b_desc, _amount, _out, _frees = step
    probe = _Sim(sim.k, sim.k_ext, sim.digits)
    probe.slots = {
        key: [set(p) for p in parts] for key, parts in sim.slots.items()
    }
    probe.ct_inputs = {
        key: [set(p) for p in parts] for key, parts in sim.ct_inputs.items()
    }
    result = probe.apply(opcode, a_desc, b_desc, hint, True, eager)
    deferred = sum(
        sim.k * len(doms - forms) for doms, forms in zip(dm, result)
    )
    return probe.rows + deferred


def plan_tape(
    steps: list,
    output: tuple,
    extras: tuple,
    eager: bool,
    k: int,
    k_ext: int,
    digits: int,
) -> DomainPlan:
    """Plan domain residency for one compiled tape.

    ``k``/``k_ext`` are the coefficient- and extension-basis prime counts,
    ``digits`` the key-switch digit depth; ``eager`` mirrors the
    executor's relinearize-every-multiply mode.
    """
    producers, part_counts, out_producers = _wiring(
        steps, output, extras, eager
    )
    demand = _demands(steps, producers, part_counts, out_producers, eager)

    lazy = _Sim(k, k_ext, digits)
    for step in steps:
        lazy.run_step(step, None, False, eager)

    greedy = _Sim(k, k_ext, digits)
    hints: list[str | None] = []
    for i, step in enumerate(steps):
        opcode = step[0]
        if opcode is Opcode.ROTATE or opcode is Opcode.MUL_CP:
            hint = None  # fixed routing; nothing to choose
        else:
            options = _candidates(opcode, demand[i])
            hint = min(
                options,
                key=lambda h: _probe_cost(greedy, step, h, eager, demand[i]),
            )
        hints.append(hint)
        greedy.run_step(step, hint, True, eager)

    # Planned routing with no hints is provably never costlier than lazy
    # (forms only accumulate; rotation caching strictly helps), so a
    # greedy plan that somehow loses falls back to it.
    if greedy.rows > lazy.rows:
        baseline = _Sim(k, k_ext, digits)
        for step in steps:
            baseline.run_step(step, None, True, eager)
        return DomainPlan(
            hints=tuple(None for _ in steps),
            ntts_planned=baseline.rows,
            ntts_lazy=lazy.rows,
        )
    return DomainPlan(
        hints=tuple(hints),
        ntts_planned=greedy.rows,
        ntts_lazy=lazy.rows,
    )
