"""Multi-step synthesis: composing synthesized kernels (paper section 6.3).

Program synthesis stops scaling around 10-12 instructions, but image
pipelines have natural break points.  Porcupine synthesizes the core
kernels (Gx, Gy, box blur) directly and stitches them into larger
applications: the Sobel operator (``Gx^2 + Gy^2``) and the Harris corner
response.

Compositions are *declarative*: a :class:`CompositionGraph` names the
ciphertext inputs, the synthesized kernels to splice in, and the glue
arithmetic between them, and :func:`compose` materializes the graph into
one Quill program.  Materialization is graph stitching: every component
is spliced into one :class:`~repro.quill.graph.GraphProgram` through a
shared hash-consing table, so structurally identical work — rotations
*and* arithmetic — is emitted once across component boundaries.  The
kernel registry (:mod:`repro.api.registry`) consumes these graphs to
compile multi-step kernels, and new pipelines can be registered at
runtime without touching this module.  The paper's two applications are
the built-in graphs :data:`SOBEL_GRAPH` and :data:`HARRIS_GRAPH`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.quill.graph import GraphProgram, GraphRef, NodeRef
from repro.quill.ir import (
    CtInput,
    Opcode,
    Program,
    PtConst,
    PtInput,
    Ref,
    Wire,
)


# ---------------------------------------------------------------------------
# Declarative composition graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelStep:
    """Splice a synthesized kernel in, feeding its ciphertext inputs.

    ``args`` name earlier steps or graph inputs, matched positionally to
    the kernel program's ciphertext inputs.
    """

    id: str
    kernel: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class OpStep:
    """Glue arithmetic between spliced kernels: add, sub, or mul."""

    id: str
    op: str  # "add" | "sub" | "mul"
    a: str
    b: str

    def __post_init__(self):
        if self.op not in ("add", "sub", "mul"):
            raise ValueError(f"unknown composition op {self.op!r}")


@dataclass(frozen=True)
class ConstStep:
    """A named plaintext constant available to later ``OpStep``s."""

    id: str
    value: int | tuple[int, ...]


CompositionStep = KernelStep | OpStep | ConstStep


@dataclass(frozen=True)
class CompositionGraph:
    """A multi-step application as data: inputs, steps, and the output.

    ``kernels`` lists the synthesized-kernel names the graph splices in
    (the keys ``compose`` expects in its ``programs`` mapping), so a
    registry can compile dependencies before materializing the graph.
    """

    name: str
    inputs: tuple[str, ...]
    steps: tuple[CompositionStep, ...]
    output: str

    @property
    def kernels(self) -> tuple[str, ...]:
        seen: list[str] = []
        for step in self.steps:
            if isinstance(step, KernelStep) and step.kernel not in seen:
                seen.append(step.kernel)
        return tuple(seen)

    def validate(self) -> None:
        """Check every step reference resolves and ids are unique."""
        known = set(self.inputs)
        for step in self.steps:
            if step.id in known:
                raise ValueError(f"{self.name}: duplicate step id {step.id!r}")
            refs = ()
            if isinstance(step, KernelStep):
                refs = step.args
            elif isinstance(step, OpStep):
                refs = (step.a, step.b)
            for ref in refs:
                if ref not in known:
                    raise ValueError(
                        f"{self.name}: step {step.id!r} references "
                        f"unknown value {ref!r}"
                    )
            known.add(step.id)
        if self.output not in known:
            raise ValueError(
                f"{self.name}: output {self.output!r} is not produced "
                "by any step"
            )


class _Stitcher:
    """Hash-consing emitter over one target :class:`GraphProgram`.

    Every instruction — spliced from a component or glue arithmetic —
    goes through :meth:`emit` (the graph's ``find_or_add``), which
    reuses an existing node whenever a structurally identical one was
    already created.  That makes CSE a property of composition itself:
    identical rotations and identical arithmetic are shared across all
    spliced components.
    """

    def __init__(self, target: GraphProgram):
        self.target = target

    def emit(
        self, opcode: Opcode, operands: tuple[GraphRef, ...], amount: int = 0
    ) -> NodeRef:
        return self.target.find_or_add(opcode, operands, amount)

    def splice(
        self, program: Program, input_map: dict[str, GraphRef]
    ) -> GraphRef:
        """Inline one component, remapping its ciphertext inputs.

        Component ``RELIN`` instructions are dropped (the value is its
        operand): relinearization placement is a whole-program decision,
        recomputed by the optimizer's lazy-relin pass after composition,
        so per-component placements would only pin stale choices.
        """
        node_map: dict[int, GraphRef] = {}

        def resolve(ref: Ref) -> GraphRef:
            if isinstance(ref, Wire):
                return node_map[ref.index]
            if isinstance(ref, CtInput):
                return input_map[ref.name]
            return ref  # plaintext refs resolve by name on the target

        for index, instr in enumerate(program.instructions):
            if instr.opcode is Opcode.RELIN:
                node_map[index] = resolve(instr.operands[0])
                continue
            node_map[index] = self.emit(
                instr.opcode,
                tuple(resolve(r) for r in instr.operands),
                instr.amount,
            )
        return resolve(program.output)


_GLUE_OPS = {"add": Opcode.ADD_CC, "sub": Opcode.SUB_CC, "mul": Opcode.MUL_CC}
_CC_TO_CP = {
    Opcode.ADD_CC: Opcode.ADD_CP,
    Opcode.SUB_CC: Opcode.SUB_CP,
    Opcode.MUL_CC: Opcode.MUL_CP,
}


def compose(
    graph: CompositionGraph,
    programs: dict[str, Program],
    name: str | None = None,
) -> Program:
    """Materialize a composition graph into a single Quill program."""
    graph.validate()
    missing = [k for k in graph.kernels if k not in programs]
    if missing:
        raise KeyError(
            f"{graph.name}: no program supplied for kernel(s) {missing}"
        )
    used = [programs[k] for k in graph.kernels]
    if len({p.vector_size for p in used}) > 1:
        raise ValueError("component kernels use different vector sizes")
    target = GraphProgram(used[0].vector_size, name=name or graph.name)
    stitcher = _Stitcher(target)
    env: dict[str, GraphRef] = {
        input_name: target.ct_input(input_name)
        for input_name in graph.inputs
    }
    _declare_plains(target, *used)
    for step in graph.steps:
        if isinstance(step, ConstStep):
            env[step.id] = target.constant(step.id, step.value)
        elif isinstance(step, KernelStep):
            program = programs[step.kernel]
            if len(step.args) != len(program.ct_inputs):
                raise ValueError(
                    f"{graph.name}: step {step.id!r} feeds "
                    f"{len(step.args)} input(s) but kernel "
                    f"{step.kernel!r} takes {len(program.ct_inputs)}"
                )
            input_map = {
                ct_name: env[arg]
                for ct_name, arg in zip(program.ct_inputs, step.args)
            }
            env[step.id] = stitcher.splice(program, input_map)
        else:
            a, b = env[step.a], env[step.b]
            cc = _GLUE_OPS[step.op]
            opcode = (
                _CC_TO_CP[cc] if isinstance(b, (PtInput, PtConst)) else cc
            )
            env[step.id] = stitcher.emit(opcode, (a, b))
    target.outputs = [env[graph.output]]
    return target.to_program()


SOBEL_GRAPH = CompositionGraph(
    name="sobel_synth",
    inputs=("img",),
    steps=(
        KernelStep("gx_out", "gx", ("img",)),
        KernelStep("gy_out", "gy", ("img",)),
        OpStep("gx2", "mul", "gx_out", "gx_out"),
        OpStep("gy2", "mul", "gy_out", "gy_out"),
        OpStep("magnitude", "add", "gx2", "gy2"),
    ),
    output="magnitude",
)

HARRIS_GRAPH = CompositionGraph(
    name="harris_synth",
    inputs=("img",),
    steps=(
        ConstStep("sixteen", 16),
        KernelStep("gx_out", "gx", ("img",)),
        KernelStep("gy_out", "gy", ("img",)),
        OpStep("gxx", "mul", "gx_out", "gx_out"),
        KernelStep("sxx", "box_blur", ("gxx",)),
        OpStep("gyy", "mul", "gy_out", "gy_out"),
        KernelStep("syy", "box_blur", ("gyy",)),
        OpStep("gxy", "mul", "gx_out", "gy_out"),
        KernelStep("sxy", "box_blur", ("gxy",)),
        OpStep("sxx_syy", "mul", "sxx", "syy"),
        OpStep("sxy2", "mul", "sxy", "sxy"),
        OpStep("det", "sub", "sxx_syy", "sxy2"),
        OpStep("trace", "add", "sxx", "syy"),
        OpStep("det16", "mul", "det", "sixteen"),
        OpStep("trace2", "mul", "trace", "trace"),
        OpStep("response", "sub", "det16", "trace2"),
    ),
    output="response",
)


def _declare_plains(target: GraphProgram, *programs: Program) -> None:
    """Declare the union of plaintext inputs/constants on the target."""
    declared_pt: set[str] = set()
    declared_const: set[str] = set()
    for program in programs:
        for name in program.pt_inputs:
            if name not in declared_pt:
                target.pt_input(name)
                declared_pt.add(name)
        for name, value in program.constants.items():
            if name not in declared_const:
                target.constant(name, value)
                declared_const.add(name)
