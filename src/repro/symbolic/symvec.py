"""Symbolic evaluation of Quill programs over polynomial vectors.

Evaluation is demand-sliced: one backward pass over the straight-line
program (:func:`slot_demand`) gives every wire the slots its consumers
read, and the forward pass computes only those.  Asking for every slot
is a full evaluation; asking for a layout's output slots computes just
the output cone that verification compares.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.quill.ir import CtInput, Opcode, Program, PtConst, PtInput, Ref, Wire
from repro.symbolic.polynomial import Poly

_ADD = (Opcode.ADD_CC, Opcode.ADD_CP)
_SUB = (Opcode.SUB_CC, Opcode.SUB_CP)


def symbolic_vector(prefix: str, size: int) -> list[Poly]:
    """A vector of fresh variables named ``prefix[i]``."""
    return [Poly.var(f"{prefix}[{i}]") for i in range(size)]


def zeros_vector(size: int) -> list[Poly]:
    return [Poly.zero()] * size


def slot_demand(
    program: Program, slots: Iterable[int], outputs: Sequence[Ref]
) -> list[int]:
    """Per wire, a bitmask of the slots needed for ``slots`` of ``outputs``.

    A rotation by ``a`` reads slot ``i + a`` for its slot ``i`` (slots
    shifted in from outside the vector are zero and read nothing);
    arithmetic and ``RELIN`` read the slots they produce.
    """
    n = program.vector_size
    full = (1 << n) - 1
    wanted = 0
    for slot in slots:
        if not 0 <= slot < n:
            raise ValueError(f"slot {slot} is outside a {n}-slot vector")
        wanted |= 1 << slot
    demand = [0] * len(program.instructions)
    for ref in outputs:
        if isinstance(ref, Wire):
            demand[ref.index] |= wanted
    for index in range(len(demand) - 1, -1, -1):
        mask = demand[index]
        if not mask:
            continue
        instr = program.instructions[index]
        if instr.opcode is Opcode.ROTATE:
            amount = instr.amount
            mask = (mask << amount) & full if amount >= 0 else mask >> -amount
        for ref in instr.operands:
            if isinstance(ref, Wire):
                demand[ref.index] |= mask
    return demand


def evaluate_outputs(
    program: Program,
    ct_env: dict[str, list[Poly]],
    pt_env: dict[str, list[Poly]] | None = None,
    slots: Iterable[int] | None = None,
    outputs: Sequence[Ref] | None = None,
) -> list[list[Poly | None]]:
    """The values of ``outputs`` (default: ``program.outputs``) on ``slots``.

    Mirrors :func:`repro.quill.interpreter.evaluate` exactly, which is
    asserted by property tests: plugging concrete values into the
    symbolic output equals concrete evaluation.  ``slots`` defaults to
    every slot; an output wire holds ``None`` in slots not asked for.
    """
    pt_env = pt_env or {}
    n = program.vector_size
    if outputs is None:
        outputs = program.outputs
    demand = slot_demand(
        program, range(n) if slots is None else slots, outputs
    )
    zero = Poly.zero()

    def fetch(ref: Ref) -> list[Poly | None]:
        if isinstance(ref, Wire):
            return wires[ref.index]
        if isinstance(ref, CtInput):
            return _checked(ct_env[ref.name], n)
        if isinstance(ref, PtInput):
            return _checked(pt_env[ref.name], n)
        if isinstance(ref, PtConst):
            return [Poly.const(v) for v in program.constant_vector(ref.name)]
        raise TypeError(f"unknown reference {ref!r}")

    wires: list[list[Poly | None] | None] = []
    for instr, mask in zip(program.instructions, demand):
        if not mask:
            wires.append(None)  # outside every output's cone
            continue
        if instr.opcode is Opcode.RELIN:
            # identity on the encrypted value (representation change only)
            wires.append(fetch(instr.operands[0]))
            continue
        live = [i for i in range(n) if mask >> i & 1]
        value: list[Poly | None] = [None] * n
        if instr.opcode is Opcode.ROTATE:
            source, amount = fetch(instr.operands[0]), instr.amount
            for i in live:
                j = i + amount
                value[i] = source[j] if 0 <= j < n else zero
        else:
            a = fetch(instr.operands[0])
            b = fetch(instr.operands[1])
            if instr.opcode in _ADD:
                for i in live:
                    value[i] = a[i] + b[i]
            elif instr.opcode in _SUB:
                for i in live:
                    value[i] = a[i] - b[i]
            else:
                for i in live:
                    value[i] = a[i] * b[i]
        wires.append(value)
    return [fetch(ref) for ref in outputs]


def evaluate_symbolic(
    program: Program,
    ct_env: dict[str, list[Poly]],
    pt_env: dict[str, list[Poly]] | None = None,
    slots: Iterable[int] | None = None,
) -> list[Poly | None]:
    """The primary output of :func:`evaluate_outputs`."""
    if program.output is None:
        raise ValueError("program has no output")
    return evaluate_outputs(
        program, ct_env, pt_env, slots, outputs=(program.output,)
    )[0]


def _checked(vec: list[Poly], n: int) -> list[Poly]:
    if len(vec) != n:
        raise ValueError(f"expected a symbolic vector of {n} slots")
    return vec
