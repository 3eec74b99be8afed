"""Verified rewrite passes over the Quill dataflow graph.

This is the middle-end layer EVA and HECO showed matters for HE
compilers: after synthesis/composition produces a correct program, a
pass pipeline shrinks it — common-subexpression elimination (rotation
dedup included),
dead-code elimination, rotation composition and hoisting, lazy
relinearization placement, and Galois-key-set minimization.  Every pass
that changes the program is immediately re-verified against the kernel
specification (exact symbolic equivalence), so the optimizer is provably
safe: a bad rewrite raises :class:`RewriteVerificationError` instead of
shipping a wrong kernel.

Usage::

    manager = default_pass_manager()
    result = manager.run(program, spec=spec)
    result.program          # the optimized, re-verified program
    result.summary()        # per-pass op-count deltas for reports

Rotation rewrites respect Quill's shift-with-zero-fill semantics:
``rot(rot(x, a), b) == rot(x, a+b)`` and
``rot(x, a) op rot(y, a) == rot(x op y, a)`` hold only for same-sign
(resp. equal) amounts, which is exactly what the passes require — and
the per-pass verification would catch any slip regardless.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Protocol

from repro.quill.graph import GraphProgram, GraphRef, NodeRef
from repro.quill.ir import Opcode, Program, PtConst, PtInput
from repro.quill.latency import LatencyModel

if TYPE_CHECKING:  # pragma: no cover - keeps quill imports spec-free
    from repro.spec.reference import Spec


class RewriteVerificationError(Exception):
    """A rewrite pass produced a program that no longer meets the spec."""


@dataclass
class RewriteContext:
    """Shared state handed to every pass in one pipeline run."""

    latency_model: LatencyModel | None = None
    options: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)  # pass name -> extra stats


class RewritePass(Protocol):
    """One named graph-to-graph rewrite."""

    name: str

    def run(self, graph: GraphProgram, ctx: RewriteContext) -> bool:
        """Mutate ``graph``; return whether anything changed."""
        ...  # pragma: no cover - protocol


@dataclass
class PassReport:
    """What one pass did to one program."""

    name: str
    changed: bool
    seconds: float
    verify_seconds: float
    before: dict[str, int]
    after: dict[str, int]
    details: dict = field(default_factory=dict)

    def delta(self) -> dict[str, int]:
        return {
            key: self.after[key] - self.before[key] for key in self.before
        }


@dataclass
class OptimizationResult:
    """One full pipeline run: the final program plus the audit trail."""

    program: Program
    reports: list[PassReport]
    verified: bool
    seconds: float

    @property
    def before(self) -> dict[str, int]:
        return self.reports[0].before if self.reports else {}

    @property
    def after(self) -> dict[str, int]:
        return self.reports[-1].after if self.reports else {}

    def summary(self) -> dict:
        """Machine-readable report (session metrics, CLI ``--json``)."""
        return {
            "verified": self.verified,
            "seconds": round(self.seconds, 6),
            "before": self.before,
            "after": self.after,
            "passes": [
                {
                    "name": r.name,
                    "changed": r.changed,
                    "seconds": round(r.seconds, 6),
                    "verify_seconds": round(r.verify_seconds, 6),
                    **(
                        {"delta": {
                            k: v for k, v in r.delta().items() if v
                        }}
                        if r.changed
                        else {}
                    ),
                    **({"details": r.details} if r.details else {}),
                }
                for r in self.reports
            ],
        }


# ---------------------------------------------------------------------------
# The pass suite
# ---------------------------------------------------------------------------


class CommonSubexpressionElimination:
    """Unify structurally identical nodes (rotation dedup included).

    Value numbering in topological order: operands are canonicalized
    through the replacement map before hashing, so chains of duplicates
    collapse in a single sweep.  This is where composed kernels win —
    components spliced by :func:`repro.core.multistep.compose` share
    every identical rotation and arithmetic node across component
    boundaries.
    """

    name = "cse"

    def run(self, graph: GraphProgram, ctx: RewriteContext) -> bool:
        table: dict[tuple, NodeRef] = {}
        replaced = 0
        for node in graph.topo_order():
            if node.id not in graph:
                continue
            key = graph.structural_key(node.opcode, node.operands, node.amount)
            existing = table.get(key)
            if existing is None:
                table[key] = NodeRef(node.id)
                continue
            graph.replace_all_uses(node.id, existing)
            graph.remove_node(node.id)
            replaced += 1
        if replaced:
            ctx.details.setdefault(self.name, {})["unified"] = replaced
        return replaced > 0


class DeadCodeElimination:
    """Drop nodes unreachable from any output, then unused declarations."""

    name = "dce"

    def run(self, graph: GraphProgram, ctx: RewriteContext) -> bool:
        live: set[int] = set()
        stack = [ref.id for ref in graph.outputs if isinstance(ref, NodeRef)]
        while stack:
            node_id = stack.pop()
            if node_id in live:
                continue
            live.add(node_id)
            for ref in graph.node(node_id).operands:
                if isinstance(ref, NodeRef):
                    stack.append(ref.id)
        # remove consumers before producers: reverse *topological* order
        # (insertion order stops being topological once a rewrite inserts
        # a producer after its in-place-updated consumer)
        dead = [
            node.id for node in graph.topo_order() if node.id not in live
        ]
        for node_id in reversed(dead):
            graph.remove_node(node_id)

        # prune plaintext declarations nothing references any more
        used_pt: set[str] = set()
        used_const: set[str] = set()
        for node in graph.nodes():
            for ref in node.operands:
                if isinstance(ref, PtInput):
                    used_pt.add(ref.name)
                elif isinstance(ref, PtConst):
                    used_const.add(ref.name)
        dropped_decls = len(
            [n for n in graph.pt_inputs if n not in used_pt]
        ) + len([n for n in graph.constants if n not in used_const])
        graph.pt_inputs = [n for n in graph.pt_inputs if n in used_pt]
        graph.constants = {
            name: value
            for name, value in graph.constants.items()
            if name in used_const
        }
        if dead or dropped_decls:
            ctx.details.setdefault(self.name, {}).update(
                removed=len(dead), dropped_declarations=dropped_decls
            )
        return bool(dead or dropped_decls)


class RotationComposition:
    """Fold ``rot(rot(x, a), b)`` into ``rot(x, a+b)`` (same-sign only).

    With shift-with-zero-fill semantics two same-direction shifts compose
    additively; opposite directions do not (they zero different slots),
    so those chains are left alone.
    """

    name = "rotate-compose"

    def run(self, graph: GraphProgram, ctx: RewriteContext) -> bool:
        folded = 0
        for node in graph.topo_order():
            if node.id not in graph or node.opcode is not Opcode.ROTATE:
                continue
            inner = graph.resolve(node.operands[0])
            if inner is None or inner.opcode is not Opcode.ROTATE:
                continue
            a, b = inner.amount, node.amount
            if a * b <= 0:  # opposite directions: not composable
                continue
            combined = a + b
            if abs(combined) >= graph.vector_size:
                continue  # would shift the whole window out
            graph.update_node(
                node.id, operands=inner.operands, amount=combined
            )
            folded += 1
        if folded:
            ctx.details.setdefault(self.name, {})["folded"] = folded
        return folded > 0


class RotationHoisting:
    """Rewrite ``rot(x, a) op rot(y, a)`` into ``rot(x op y, a)``.

    Shifting is linear and slot-wise, so it commutes with element-wise
    add/sub/mul when both operands moved by the same amount.  Only fires
    when each rotation has a single consumer (otherwise the original
    rotations stay live and the rewrite would add work).  One rotation
    replaces two; cascades feed further composition and CSE.

    The generalized form handles *different* same-sign amounts:
    ``rot(x, a) op rot(y, b)`` with ``|a| > |b|`` equals
    ``rot(rot(x, a-b) op y, b)``.  That is count-neutral in isolation,
    so it only fires when the residual rotation ``rot(x, a-b)`` already
    exists in the graph — then the rewrite strictly shrinks the program
    (and usually lets CSE collapse the inner op too).  This is exactly
    the factored box-blur structure the paper's synthesizer discovers:
    ``rot(src,W) + rot(src,W+1)`` becomes ``rot(src + rot(src,1), W)``
    with both pieces shared.
    """

    name = "rotate-hoist"

    _BINOPS = (Opcode.ADD_CC, Opcode.SUB_CC, Opcode.MUL_CC)

    def run(self, graph: GraphProgram, ctx: RewriteContext) -> bool:
        hoisted = 0
        for node in graph.topo_order():
            if node.id not in graph or node.opcode not in self._BINOPS:
                continue
            if (
                node.opcode is Opcode.MUL_CC
                and graph.relin_mode == "explicit"
            ):
                # hoisting a multiply puts its 3-part product under the
                # rotation; legal only while relin placement is still
                # implicit (the lazy-relin pass runs later on eager
                # graphs and will insert the fold)
                continue
            left = graph.resolve(node.operands[0])
            right = graph.resolve(node.operands[1])
            if (
                left is None
                or right is None
                or left.opcode is not Opcode.ROTATE
                or right.opcode is not Opcode.ROTATE
                or left.id == right.id
                or graph.use_count(left.id) != 1
                or graph.use_count(right.id) != 1
                or left.amount * right.amount < 0
            ):
                continue
            if left.amount == right.amount:
                inner_ref = graph.find_or_add(
                    node.opcode, (left.operands[0], right.operands[0])
                )
                outer_amount = left.amount
            else:
                # generalized: peel the shared shift off the larger side,
                # but only when the residual rotation is already computed
                big, small = (
                    (left, right)
                    if abs(left.amount) > abs(right.amount)
                    else (right, left)
                )
                diff = big.amount - small.amount
                residual = graph.find(Opcode.ROTATE, (big.operands[0],), diff)
                if residual is None or residual.id in (left.id, right.id):
                    continue
                inner_operands = (
                    (residual, small.operands[0])
                    if big is left
                    else (small.operands[0], residual)
                )
                inner_ref = graph.find_or_add(node.opcode, inner_operands)
                outer_amount = small.amount
            if inner_ref.id == node.id:
                continue
            graph.update_node(
                node.id,
                opcode=Opcode.ROTATE,
                operands=(inner_ref,),
                amount=outer_amount,
            )
            graph.remove_node(left.id)
            graph.remove_node(right.id)
            hoisted += 1
        if hoisted:
            ctx.details.setdefault(self.name, {})["hoisted"] = hoisted
        return hoisted > 0


class LazyRelinearization:
    """Convert an eager program to explicit, minimal relin placement.

    A ct-ct product stays three polynomial parts until something forces
    it back to two: a rotation, another ct-ct multiply, an add/sub whose
    other operand is two parts, or leaving the program as an output.
    Additions of two unrelinearized products and plaintext ops on them
    stay lazy — that is where composed kernels like sobel (two squares
    summed, one relin instead of two) and harris (six multiplies, four
    relins) win.

    Each three-part value is relinearized at most once; every consumer
    that needs two parts shares the same ``RELIN`` node.
    """

    name = "lazy-relin"

    def run(self, graph: GraphProgram, ctx: RewriteContext) -> bool:
        if graph.relin_mode != "eager":
            return False
        mul_count = sum(
            1 for node in graph.nodes() if node.opcode is Opcode.MUL_CC
        )
        graph.relin_mode = "explicit"
        if mul_count == 0:
            # still a mode change: the program now states its (empty)
            # relin placement explicitly
            ctx.details.setdefault(self.name, {}).update(
                relins_before=0, relins_after=0
            )
            return True

        parts: dict[int, int] = {}
        relined: dict[int, NodeRef] = {}

        def width(ref: GraphRef) -> int:
            if isinstance(ref, NodeRef):
                return parts[ref.id]
            return 2

        def relin_of(ref: NodeRef) -> NodeRef:
            cached = relined.get(ref.id)
            if cached is None:
                cached = graph.add_node(Opcode.RELIN, (ref,))
                parts[cached.id] = 2
                relined[ref.id] = cached
            return cached

        def two_part(ref: GraphRef) -> GraphRef:
            if isinstance(ref, NodeRef) and parts[ref.id] == 3:
                return relin_of(ref)
            return ref

        for node in graph.topo_order():
            if node.id in parts:  # relin node added mid-walk
                continue
            if node.opcode is Opcode.ROTATE:
                graph.update_node(
                    node.id, operands=(two_part(node.operands[0]),)
                )
                parts[node.id] = 2
            elif node.opcode is Opcode.MUL_CC:
                graph.update_node(
                    node.id,
                    operands=tuple(two_part(r) for r in node.operands),
                )
                parts[node.id] = 3
            elif node.opcode in (Opcode.ADD_CC, Opcode.SUB_CC):
                a, b = node.operands
                wa, wb = width(a), width(b)
                if wa != wb:  # relinearize the wide side to match
                    if wa == 3:
                        a = two_part(a)
                    else:
                        b = two_part(b)
                    graph.update_node(node.id, operands=(a, b))
                parts[node.id] = min(wa, wb) if wa != wb else wa
            else:  # ct-pt ops keep their ciphertext operand's width
                parts[node.id] = width(node.operands[0])
        graph.outputs = [
            two_part(ref) if isinstance(ref, NodeRef) else ref
            for ref in graph.outputs
        ]
        relins_after = sum(
            1 for node in graph.nodes() if node.opcode is Opcode.RELIN
        )
        ctx.details.setdefault(self.name, {}).update(
            relins_before=mul_count, relins_after=relins_after
        )
        return True


class GaloisKeyMinimization:
    """Shrink the Galois key set a program's rotations require.

    By default an analysis pass: records the distinct rotation amounts
    (one key each — the set the executor generates).  With the
    ``max_keys`` option set, amounts expressible as a same-sign sum of
    two retained amounts are rewritten as two chained rotations until
    the key budget is met — trading one extra rotation per rewritten
    use for a smaller key set (key generation and key storage dominate
    setup cost when serving many kernels from one context).
    """

    name = "galois-keys"

    def __init__(self, max_keys: int | None = None):
        self.max_keys = max_keys

    def run(self, graph: GraphProgram, ctx: RewriteContext) -> bool:
        max_keys = ctx.options.get("max_galois_keys", self.max_keys)
        amounts = sorted(
            {
                node.amount
                for node in graph.nodes()
                if node.opcode is Opcode.ROTATE
            }
        )
        detail = ctx.details.setdefault(self.name, {})
        detail["keys_before"] = len(amounts)
        changed = False
        if max_keys is not None:
            kept = set(amounts)
            while len(kept) > max_keys:
                rewrite = self._decomposable(kept)
                if rewrite is None:
                    break
                target, a, b = rewrite
                for node in list(graph.nodes()):
                    if (
                        node.opcode is Opcode.ROTATE
                        and node.amount == target
                    ):
                        # find_or_add shares inner rotations across every
                        # rewritten use (and reuses pre-existing ones)
                        inner = graph.find_or_add(
                            Opcode.ROTATE, (node.operands[0],), a
                        )
                        graph.update_node(
                            node.id, operands=(inner,), amount=b
                        )
                        changed = True
                kept.discard(target)
        remaining = sorted(
            {
                node.amount
                for node in graph.nodes()
                if node.opcode is Opcode.ROTATE
            }
        )
        detail["keys_after"] = len(remaining)
        detail["amounts"] = remaining
        return changed

    @staticmethod
    def _decomposable(kept: set[int]) -> tuple[int, int, int] | None:
        """A key expressible as a same-sign sum of two other kept keys.

        Prefers dropping the largest-magnitude key (most likely to be a
        rare long shift).
        """
        for target in sorted(kept, key=abs, reverse=True):
            others = kept - {target}
            for a in others:
                b = target - a
                if b in others and a * target > 0 and b * target > 0:
                    return target, a, b
        return None


# ---------------------------------------------------------------------------
# The pass manager
# ---------------------------------------------------------------------------


def default_passes() -> list[RewritePass]:
    """The standard suite, in dependency order.

    Structure first (CSE/fold/hoist feed each other, then a second CSE
    round catches what hoisting exposed), cleanup, then relin placement
    and key analysis on the settled graph.
    """
    return [
        CommonSubexpressionElimination(),
        RotationComposition(),
        RotationHoisting(),
        CommonSubexpressionElimination(),
        DeadCodeElimination(),
        LazyRelinearization(),
        GaloisKeyMinimization(),
        DeadCodeElimination(),
    ]


def _all_outputs_equivalent(before: Program, after: Program) -> bool:
    """Exact symbolic self-equivalence of *every* output, extras included.

    Specifications only describe the primary output, so multi-output
    programs additionally pin each output of the rewritten program to
    the corresponding output of its predecessor, slot by slot.
    """
    from repro.symbolic.symvec import evaluate_outputs, symbolic_vector

    ct_env = {
        name: symbolic_vector(name, before.vector_size)
        for name in before.ct_inputs
    }
    pt_env = {
        name: symbolic_vector(f"${name}", before.vector_size)
        for name in before.pt_inputs
    }
    return evaluate_outputs(before, ct_env, pt_env) == evaluate_outputs(
        after, ct_env, pt_env
    )


class PassManager:
    """Runs a rewrite pipeline, re-verifying the program after each pass.

    ``spec`` enables the safety net: after any pass that changed the
    graph, the re-linearized program is checked for exact symbolic
    equivalence against the kernel specification; multi-output programs
    additionally re-check every extra output against its pre-pass value.
    Structural validation
    (:func:`~repro.quill.validate.validate_program`) runs regardless via
    :meth:`GraphProgram.to_program`.
    """

    def __init__(
        self,
        passes: list[RewritePass] | None = None,
        *,
        verify: bool = True,
        options: dict | None = None,
        latency_model: LatencyModel | None = None,
        dump: Callable[[str, Program], None] | None = None,
    ):
        self.passes = list(passes) if passes is not None else default_passes()
        self.verify = verify
        self.options = dict(options or {})
        self.latency_model = latency_model
        self.dump = dump

    def run(self, program: Program, spec: Spec | None = None) -> OptimizationResult:
        started = time.perf_counter()
        ctx = RewriteContext(
            latency_model=self.latency_model, options=dict(self.options)
        )
        graph = GraphProgram.from_program(program)
        current = program
        reports: list[PassReport] = []
        verified = False
        for rewrite in self.passes:
            # details are keyed by pass name; clear before running so a
            # repeated pass (cse, dce) reports only its own run
            ctx.details.pop(rewrite.name, None)
            before = graph.op_counts()
            t0 = time.perf_counter()
            changed = rewrite.run(graph, ctx)
            pass_seconds = time.perf_counter() - t0
            verify_seconds = 0.0
            if changed:
                candidate = graph.to_program()
                if self.verify and spec is not None:
                    t1 = time.perf_counter()
                    if current.extra_outputs:
                        # exact output-by-output equality against the
                        # (already spec-conforming) predecessor is
                        # stronger than slot equivalence, and covers the
                        # primary too — one check instead of two
                        if not _all_outputs_equivalent(current, candidate):
                            raise RewriteVerificationError(
                                f"pass {rewrite.name!r} broke "
                                f"{current.name!r}: an output no longer "
                                "matches its pre-pass value"
                            )
                    else:
                        verdict = spec.verify_program(candidate)
                        if not verdict.equivalent:
                            raise RewriteVerificationError(
                                f"pass {rewrite.name!r} broke "
                                f"{current.name!r}: optimized program "
                                "disagrees with the specification "
                                f"(counterexample {verdict.counterexample})"
                            )
                    verify_seconds = time.perf_counter() - t1
                    verified = True
                current = candidate
                if self.dump is not None:
                    self.dump(rewrite.name, current)
            reports.append(
                PassReport(
                    name=rewrite.name,
                    changed=changed,
                    seconds=pass_seconds,
                    verify_seconds=verify_seconds,
                    before=before,
                    after=graph.op_counts(),
                    details=dict(ctx.details.get(rewrite.name, {})),
                )
            )
        return OptimizationResult(
            program=current,
            reports=reports,
            verified=verified,
            seconds=time.perf_counter() - started,
        )


def default_pass_manager(**kwargs) -> PassManager:
    """The session's optimizer: the default suite with verification on."""
    return PassManager(**kwargs)


def optimize_program(
    program: Program, spec: Spec | None = None, **kwargs
) -> Program:
    """One-call convenience: run the default pipeline, return the program."""
    return default_pass_manager(**kwargs).run(program, spec=spec).program

