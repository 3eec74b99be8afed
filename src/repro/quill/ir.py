"""Quill intermediate representation: opcodes, references, programs.

A program is a straight line of SSA instructions.  Instruction ``i``
defines wire ``c{i+1}`` (``c0``..name the ciphertext inputs in listings);
operands reference either inputs, earlier wires, or plaintext values.

Relinearization is modelled two ways, selected by ``Program.relin_mode``:

``"eager"``
    The historical behaviour: ``RELIN`` instructions are forbidden and
    every consumer (executor, code generator, cost model) assumes a
    relinearization immediately follows each ciphertext-ciphertext
    multiply.  Synthesis produces eager programs.
``"explicit"``
    ``RELIN`` instructions appear in the program text exactly where the
    ciphertext is folded back to two polynomials; multiplies leave their
    three-part product live until then.  The optimizer's lazy-relin pass
    converts eager programs into (cheaper) explicit ones.

Programs may also carry ``extra_outputs`` — additional result wires a
multi-output kernel exposes alongside the primary ``output``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Opcode(enum.Enum):
    """The BFV-level instruction set (paper Table 1, plus ``RELIN``)."""

    ADD_CC = "add-ct-ct"
    SUB_CC = "sub-ct-ct"
    MUL_CC = "mul-ct-ct"
    ADD_CP = "add-ct-pt"
    SUB_CP = "sub-ct-pt"
    MUL_CP = "mul-ct-pt"
    ROTATE = "rot"
    RELIN = "relin"

    @property
    def is_rotation(self) -> bool:
        return self is Opcode.ROTATE

    @property
    def is_arithmetic(self) -> bool:
        return self not in (Opcode.ROTATE, Opcode.RELIN)

    @property
    def is_unary(self) -> bool:
        return self in (Opcode.ROTATE, Opcode.RELIN)

    @property
    def has_plain_operand(self) -> bool:
        return self in (Opcode.ADD_CP, Opcode.SUB_CP, Opcode.MUL_CP)

    @property
    def is_multiply(self) -> bool:
        return self in (Opcode.MUL_CC, Opcode.MUL_CP)

    @property
    def is_commutative(self) -> bool:
        return self in (Opcode.ADD_CC, Opcode.MUL_CC)


@dataclass(frozen=True)
class CtInput:
    """Reference to a named ciphertext input."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class PtInput:
    """Reference to a named *symbolic* plaintext input (server-side data)."""

    name: str

    def __str__(self) -> str:
        return f"${self.name}"


@dataclass(frozen=True)
class PtConst:
    """Reference to a named plaintext constant baked into the program."""

    name: str

    def __str__(self) -> str:
        return f"%{self.name}"


@dataclass(frozen=True)
class Wire:
    """Reference to the result of instruction ``index``."""

    index: int

    def __str__(self) -> str:
        return f"c{self.index + 1}"


# Any value an instruction operand may reference.
Ref = CtInput | PtInput | PtConst | Wire


@dataclass(frozen=True)
class Instruction:
    """One SSA instruction; its destination is implicit (its position).

    ``amount`` is the signed rotation offset for ``ROTATE`` (positive =
    left shift, negative = right shift) and must be 0 otherwise.
    """

    opcode: Opcode
    operands: tuple[Ref, ...]
    amount: int = 0

    def __post_init__(self):
        expected = 1 if self.opcode.is_unary else 2
        if len(self.operands) != expected:
            raise ValueError(
                f"{self.opcode.value} takes {expected} operand(s), "
                f"got {len(self.operands)}"
            )
        if not self.opcode.is_rotation and self.amount != 0:
            raise ValueError("only rotations carry a shift amount")


@dataclass
class Program:
    """A straight-line Quill kernel.

    Attributes:
        vector_size: the model slot count every operand vector has.
        ct_inputs: ciphertext input names, in argument order.
        pt_inputs: symbolic plaintext input names (server-side operands
            the kernel must be correct for *all* values of).
        constants: named fixed plaintext vectors (masks, filter weights);
            scalars are broadcast to ``vector_size`` at evaluation time.
        instructions: the SSA instruction list.
        output: reference to the primary program result.
        name: optional kernel name for listings.
        extra_outputs: additional result references for multi-output
            kernels (listed after the primary output).
        relin_mode: ``"eager"`` (implicit relin after every ct-ct
            multiply) or ``"explicit"`` (``RELIN`` instructions appear
            in the instruction stream).
    """

    vector_size: int
    ct_inputs: list[str]
    pt_inputs: list[str] = field(default_factory=list)
    constants: dict[str, tuple[int, ...] | int] = field(default_factory=dict)
    instructions: list[Instruction] = field(default_factory=list)
    output: Ref | None = None
    name: str = "kernel"
    extra_outputs: list[Ref] = field(default_factory=list)
    relin_mode: str = "eager"

    @property
    def outputs(self) -> tuple[Ref, ...]:
        """Every program result: the primary output plus any extras."""
        primary = () if self.output is None else (self.output,)
        return primary + tuple(self.extra_outputs)

    @property
    def is_explicit_relin(self) -> bool:
        return self.relin_mode == "explicit"

    # ------------------------------------------------------------------
    # Static metrics (paper Table 2 reports these per kernel)
    # ------------------------------------------------------------------

    def instruction_count(self) -> int:
        """Total instructions, rotations included (Table 2 convention)."""
        return len(self.instructions)

    def logical_instruction_count(self) -> int:
        """Instructions excluding ``RELIN`` — the paper's accounting.

        Table 2 counts relinearization as part of the multiply, so
        explicit-relin programs are compared on this number (eager
        programs: identical to :meth:`instruction_count`).
        """
        return sum(
            1 for i in self.instructions if i.opcode is not Opcode.RELIN
        )

    def rotation_count(self) -> int:
        return sum(1 for i in self.instructions if i.opcode.is_rotation)

    def arithmetic_count(self) -> int:
        return sum(1 for i in self.instructions if i.opcode.is_arithmetic)

    def multiply_cc_count(self) -> int:
        return sum(1 for i in self.instructions if i.opcode is Opcode.MUL_CC)

    def relin_count(self) -> int:
        """Relinearizations the program *performs* when executed.

        Eager programs relinearize implicitly after every ct-ct multiply;
        explicit programs perform exactly their ``RELIN`` instructions.
        """
        if self.is_explicit_relin:
            return sum(
                1 for i in self.instructions if i.opcode is Opcode.RELIN
            )
        return self.multiply_cc_count()

    def executable_op_count(self) -> int:
        """Homomorphic operations one run performs, relins included.

        The comparable "work" metric across relin modes: eager programs
        pay one hidden relinearization per ct-ct multiply on top of their
        instruction count.
        """
        if self.is_explicit_relin:
            return len(self.instructions)
        return len(self.instructions) + self.multiply_cc_count()

    def rotation_amounts(self) -> tuple[int, ...]:
        """Distinct rotation offsets, sorted — one Galois key each."""
        return tuple(
            sorted(
                {
                    i.amount
                    for i in self.instructions
                    if i.opcode.is_rotation
                }
            )
        )

    def galois_key_count(self) -> int:
        return len(self.rotation_amounts())

    def critical_depth(self) -> int:
        """Longest instruction chain from any input to any output.

        This is the "Depth" column of Table 2: every instruction
        (rotations included) counts one level — except ``RELIN``, which
        is a ciphertext representation change, not a dataflow level, so
        eager and explicit forms of the same program report one depth.
        """
        depths: list[int] = []
        for instr in self.instructions:
            operand_depth = 0
            for ref in instr.operands:
                if isinstance(ref, Wire):
                    operand_depth = max(operand_depth, depths[ref.index])
            level = 0 if instr.opcode is Opcode.RELIN else 1
            depths.append(operand_depth + level)
        result = 0
        for out in self.outputs:
            if isinstance(out, Wire):
                result = max(result, depths[out.index])
        return result

    def wires_used(self) -> set[int]:
        """Indices of instructions whose results are consumed somewhere."""
        used: set[int] = set()
        for instr in self.instructions:
            for ref in instr.operands:
                if isinstance(ref, Wire):
                    used.add(ref.index)
        for out in self.outputs:
            if isinstance(out, Wire):
                used.add(out.index)
        return used

    def constant_vector(self, name: str) -> tuple[int, ...]:
        """The constant as a full-width tuple (scalars broadcast)."""
        value = self.constants[name]
        if isinstance(value, int):
            return (value,) * self.vector_size
        return tuple(value)

    def __str__(self) -> str:
        from repro.quill.printer import format_program

        return format_program(self)


def wire_part_counts(program: Program) -> list[int]:
    """Ciphertext part count (2 or 3) of every instruction result.

    In eager mode every wire is two parts (the implicit relinearization
    after each ct-ct multiply folds the product immediately).  In
    explicit mode a ct-ct multiply yields a three-part ciphertext that
    stays three parts through additions, subtractions, and plaintext
    operations until a ``RELIN`` folds it back.
    """
    if not program.is_explicit_relin:
        return [2] * len(program.instructions)
    parts: list[int] = []

    def of(ref: Ref) -> int:
        if isinstance(ref, Wire):
            return parts[ref.index]
        return 2  # fresh encryptions are two parts

    for instr in program.instructions:
        if instr.opcode is Opcode.MUL_CC:
            parts.append(3)
        elif instr.opcode in (Opcode.RELIN, Opcode.ROTATE):
            parts.append(2)
        else:
            # add/sub propagate the widest operand; ct-pt ops keep the
            # ciphertext operand's width
            ct_operands = (
                instr.operands[:1]
                if instr.opcode.has_plain_operand
                else instr.operands
            )
            parts.append(max(of(ref) for ref in ct_operands))
    return parts
