"""The compile pipeline as named, hookable passes.

Porcupine's Figure 3 flow — specification + sketch in, verified SEAL
kernel out — runs here as five explicit passes:

``synthesize``
    Phase-1 CEGIS: the smallest verified completion of the sketch
    (direct kernels only; composed kernels skip it).
``optimize``
    Phase-2 branch-and-bound cost minimization.
``compose``
    Multi-step kernels only: compile each component through the session
    (hitting its compile cache), materialize the declarative
    :class:`~repro.core.multistep.CompositionGraph`, and verify the
    stitched program against the composed specification.
``rewrite``
    The middle-end optimizer: every compiled program — synthesized or
    composed — runs the :mod:`repro.quill.rewrite` pass suite (CSE,
    rotation composition/hoisting, dead-code elimination, lazy
    relinearization, Galois-key analysis), with each pass re-verified
    against the kernel specification.  Disabled by
    ``SynthesisConfig(optimize=False)``.
``lower``
    Legality checks before code generation: the layout's margins must
    absorb the program's worst-case slot displacement, so Quill's
    shift-with-zero-fill semantics coincide with BFV's cyclic rotation.
    The measured displacement lands in ``ctx.metrics["lower"]``.
``codegen``
    Emit SEAL C++.

Every pass is timed; observers register ``on_pass_start``/``on_pass_end``
hooks (telemetry, logging, test instrumentation), and the pass list
itself can be edited (``insert_after``, ``replace``, ``remove``) to
customize a session's pipeline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.api.registry import KernelDefinition
from repro.core.cegis import (
    SynthesisConfig,
    SynthesisResult,
    minimize_cost,
    synthesize_initial,
)
from repro.core.codegen import generate_seal_code
from repro.core.multistep import compose
from repro.core.parallel import ParallelSynthesis
from repro.core.sketch import Sketch
from repro.quill.ir import Program
from repro.quill.rewrite import default_pass_manager
from repro.runtime.executor import check_displacement
from repro.spec.reference import Spec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.session import Porcupine


class CompositionError(Exception):
    """Raised when a composed program fails verification."""


@dataclass
class PassTiming:
    """Wall-clock seconds one pass spent on one kernel."""

    name: str
    seconds: float


@dataclass
class PassContext:
    """Mutable state threaded through the pipeline for one compilation."""

    session: "Porcupine"
    definition: KernelDefinition
    spec: Spec
    config: SynthesisConfig
    sketch: Sketch | None = None
    #: the search driver both synthesis phases share (None: each phase
    #: opens its own from ``config``)
    driver: ParallelSynthesis | None = None
    synthesis: SynthesisResult | None = None
    program: Program | None = None
    seal_code: str | None = None
    components: dict[str, Program] = field(default_factory=dict)
    timings: list[PassTiming] = field(default_factory=list)
    metrics: dict[str, dict] = field(default_factory=dict)  # per-pass stats

    def require_program(self, pass_name: str) -> Program:
        if self.program is None:
            raise RuntimeError(
                f"pass {pass_name!r} needs a program, but no earlier pass "
                f"produced one for {self.definition.name!r}"
            )
        return self.program


PassFn = Callable[[PassContext], None]
PassHook = Callable[[str, PassContext], None]


@dataclass(frozen=True)
class Pass:
    """One named pipeline stage."""

    name: str
    run: PassFn


# ---------------------------------------------------------------------------
# The default passes
# ---------------------------------------------------------------------------


def synthesize_pass(ctx: PassContext) -> None:
    if ctx.definition.is_composed:
        return
    if ctx.sketch is None:
        if ctx.definition.sketch is None:
            raise ValueError(
                f"kernel {ctx.definition.name!r} has no sketch and no "
                "composition graph"
            )
        ctx.sketch = ctx.definition.sketch(ctx.spec)
    ctx.synthesis = synthesize_initial(
        ctx.spec, ctx.sketch, ctx.config, driver=ctx.driver
    )
    ctx.program = ctx.synthesis.program
    if ctx.synthesis.search_stats is not None:
        ctx.metrics["synthesize"] = ctx.synthesis.search_stats.summary()


def optimize_pass(ctx: PassContext) -> None:
    if ctx.definition.is_composed or not ctx.config.optimize:
        return
    assert ctx.synthesis is not None and ctx.sketch is not None
    before = ctx.synthesis.search_stats
    ctx.synthesis = minimize_cost(
        ctx.spec, ctx.sketch, ctx.synthesis, ctx.config, driver=ctx.driver
    )
    ctx.program = ctx.synthesis.program
    after = ctx.synthesis.search_stats
    if after is not None:
        # minimize_cost folds phase-1 stats in; report just this pass's share
        ctx.metrics["optimize"] = after.minus(before).summary()


def compose_pass(ctx: PassContext) -> None:
    graph = ctx.definition.composition
    if graph is None:
        return
    for kernel_name in graph.kernels:
        if kernel_name not in ctx.components:
            # components search on this compile's driver (one pool)
            ctx.components[kernel_name] = ctx.session._compile(
                kernel_name, driver=ctx.driver
            ).program
    program = compose(graph, ctx.components)
    verdict = ctx.spec.verify_program(program)
    if not verdict.equivalent:
        raise CompositionError(
            f"{ctx.definition.name}: composed program disagrees with the "
            f"specification (counterexample {verdict.counterexample})"
        )
    ctx.program = program


def rewrite_pass(ctx: PassContext) -> None:
    """Run the verified middle-end pass suite on every compiled program."""
    if not ctx.config.optimize:
        return
    program = ctx.require_program("rewrite")
    dump = None
    if getattr(ctx.session, "dump_ir", False):
        import sys

        def dump(pass_name: str, dumped: Program) -> None:
            print(
                f"# --- after {pass_name} ---\n{dumped}\n",
                file=sys.stderr,
            )

    manager = default_pass_manager(dump=dump)
    result = manager.run(program, spec=ctx.spec)
    ctx.program = result.program
    ctx.metrics["rewrite"] = result.summary()


def lower_pass(ctx: PassContext) -> None:
    report = check_displacement(ctx.require_program("lower"), ctx.spec)
    ctx.metrics["lower"] = report.summary()


def codegen_pass(ctx: PassContext) -> None:
    ctx.seal_code = generate_seal_code(ctx.require_program("codegen"))


DEFAULT_PASSES = (
    Pass("synthesize", synthesize_pass),
    Pass("optimize", optimize_pass),
    Pass("compose", compose_pass),
    Pass("rewrite", rewrite_pass),
    Pass("lower", lower_pass),
    Pass("codegen", codegen_pass),
)


class PassPipeline:
    """An ordered, editable pass list with start/end hooks."""

    def __init__(self, passes: tuple[Pass, ...] | list[Pass] | None = None):
        self._passes: list[Pass] = list(
            DEFAULT_PASSES if passes is None else passes
        )
        self._on_start: list[PassHook] = []
        self._on_end: list[Callable[[str, PassContext, float], None]] = []

    @classmethod
    def default(cls) -> "PassPipeline":
        return cls()

    # -- observation ------------------------------------------------------

    def on_pass_start(self, hook: PassHook) -> PassHook:
        self._on_start.append(hook)
        return hook

    def on_pass_end(
        self, hook: Callable[[str, PassContext, float], None]
    ) -> Callable[[str, PassContext, float], None]:
        self._on_end.append(hook)
        return hook

    # -- editing ----------------------------------------------------------

    @property
    def pass_names(self) -> list[str]:
        return [p.name for p in self._passes]

    def _index_of(self, name: str) -> int:
        for index, p in enumerate(self._passes):
            if p.name == name:
                return index
        raise KeyError(
            f"no pass named {name!r}; pipeline has {self.pass_names}"
        )

    def insert_after(self, name: str, new_pass: Pass) -> None:
        self._passes.insert(self._index_of(name) + 1, new_pass)

    def replace(self, name: str, new_pass: Pass) -> None:
        self._passes[self._index_of(name)] = new_pass

    def remove(self, name: str) -> Pass:
        return self._passes.pop(self._index_of(name))

    # -- execution --------------------------------------------------------

    def run(self, ctx: PassContext) -> PassContext:
        for p in self._passes:
            for hook in self._on_start:
                hook(p.name, ctx)
            started = time.perf_counter()
            p.run(ctx)
            elapsed = time.perf_counter() - started
            ctx.timings.append(PassTiming(p.name, elapsed))
            for hook in self._on_end:
                hook(p.name, ctx, elapsed)
        return ctx

    def __repr__(self) -> str:
        return f"PassPipeline({' -> '.join(self.pass_names)})"
