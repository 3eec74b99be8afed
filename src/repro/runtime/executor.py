"""Execute Quill programs homomorphically and validate against the spec.

Model-to-ciphertext mapping: the model vector (layout slots) occupies the
first ``vector_size`` slots of batching row 0 of a BFV ciphertext, with
the rest of the row zero.  Quill's shift-with-zero-fill rotation equals
true cyclic row rotation *provided data never crosses the model window's
edges*; ``check_displacement`` verifies that statically from the layout's
margins before execution, so a passing run is genuine evidence of
equivalence, not luck.

Programs are compiled once into a flat instruction tape
(:class:`CompiledProgram`): the displacement check runs at compile time,
the Galois keys a program needs are generated up front, program constants
are encoded and frozen, and wires are assigned to a minimal set of slots
by liveness analysis, so dead intermediates are released as soon as their
last consumer has run.  Every :meth:`HEExecutor.run` is one request: one
environment is encrypted into one ciphertext per input and the tape is
replayed once over it.  Throughput comes from packing slots inside each
ciphertext (paper section 3), not from stacking requests.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.he import BFVContext
from repro.he.arena import ExecCounters, execution_scope, thread_arena
from repro.he.context import Ciphertext
from repro.he.errors import NoiseBudgetExhausted
from repro.he.params import BFVParams
from repro.quill.ir import (
    CtInput,
    Opcode,
    Program,
    PtConst,
    PtInput,
    Ref,
    Wire,
)
from repro.quill.noise import multiplicative_depth
from repro.runtime.options import ExecOptions, NoiseGuardPolicy
from repro.runtime.planner import DomainPlan, plan_tape
from repro.runtime.profiler import ExecutorStats
from repro.spec.reference import Spec


class DisplacementError(Exception):
    """Raised when a program could push packed data beyond its margins."""


def _wire_displacements(program: Program) -> list[tuple[int, int]]:
    """Per-wire worst-case (left, right) slot displacement."""
    bounds: list[tuple[int, int]] = []

    def of(ref: Ref) -> tuple[int, int]:
        if isinstance(ref, Wire):
            return bounds[ref.index]
        return (0, 0)

    for instr in program.instructions:
        if instr.opcode is Opcode.ROTATE:
            left, right = of(instr.operands[0])
            if instr.amount > 0:
                left += instr.amount
            else:
                right -= instr.amount
            bounds.append((left, right))
        else:
            lefts, rights = zip(*(of(r) for r in instr.operands))
            bounds.append((max(lefts), max(rights)))
    return bounds


def displacement_bounds(program: Program) -> tuple[int, int]:
    """Worst-case (left, right) slot displacement of the output."""
    if not isinstance(program.output, Wire):
        return (0, 0)
    return _wire_displacements(program)[program.output.index]


@dataclass(frozen=True)
class DisplacementReport:
    """How far a program moves packed data versus the layout's margins.

    Conservative: the maxima range over every wire, not just the output,
    since every intermediate must stay inside the model window.
    """

    max_left: int
    max_right: int
    budget_left: int
    budget_right: int

    @property
    def ok(self) -> bool:
        return (
            self.max_left <= self.budget_left
            and self.max_right <= self.budget_right
        )

    def summary(self) -> dict:
        return {
            "max_left": self.max_left,
            "max_right": self.max_right,
            "budget_left": self.budget_left,
            "budget_right": self.budget_right,
            "ok": self.ok,
        }


def displacement_report(program: Program, spec: Spec) -> DisplacementReport:
    """Measure worst-case data movement against the layout's margins."""
    bounds = _wire_displacements(program)
    max_left = max((b[0] for b in bounds), default=0)
    max_right = max((b[1] for b in bounds), default=0)
    budget_left, budget_right = spec.layout.max_displacement_budget()
    return DisplacementReport(max_left, max_right, budget_left, budget_right)


def check_displacement(program: Program, spec: Spec) -> DisplacementReport:
    """Assert the layout margins absorb the program's data movement."""
    report = displacement_report(program, spec)
    if not report.ok:
        raise DisplacementError(
            f"program moves data {report.max_left} left / "
            f"{report.max_right} right but the layout margins allow only "
            f"{report.budget_left} / {report.budget_right}; "
            "shift semantics would diverge from cyclic rotation"
        )
    return report


# one tape entry: (opcode, fetch a, fetch b | None, rotation amount,
# destination slot, slots freed after this step).  Fetch descriptors are
# ("slot", i) | ("ct", name) | ("pt", name).
TapeStep = tuple[Opcode, tuple, tuple | None, int, int, tuple[int, ...]]


@dataclass
class CompiledProgram:
    """A Quill program lowered onto one executor: checked, keyed, encoded.

    Produced once per program by :meth:`HEExecutor.compile`; every
    :meth:`HEExecutor.run` replays the tape.

    Attributes:
        program: the source program.
        steps: the flat instruction tape with liveness-resolved slots.
        slot_count: size of the wire buffer pool (<= instruction count;
            liveness analysis reuses slots whose wire died).
        output: fetch descriptor for the program result.
        galois_elements: every Galois key the tape's rotations need
            (generated at compile time, so runs never pay key generation).
        constants: program constants, encoded and frozen.
    """

    program: Program
    steps: list[TapeStep]
    slot_count: int
    output: tuple
    galois_elements: tuple[int, ...]
    constants: dict[str, object]
    # NTT-domain residency plan for the tape
    plan: DomainPlan
    extra_outputs: tuple[tuple, ...] = ()  # fetch descriptors, extras only
    # worst-case predicted output budget under this executor's params
    # (Fan-Vercauteren bounds, bits); the admission margin gates on it
    predicted_noise_budget: float | None = None

    def describe(self) -> str:
        return (
            f"CompiledProgram({self.program.name}: {len(self.steps)} steps, "
            f"{self.slot_count} slots, "
            f"{len(self.galois_elements)} galois keys)"
        )


@dataclass
class ExecutionReport:
    """Everything one homomorphic run produced."""

    model_output: np.ndarray
    logical_output: np.ndarray
    expected_output: np.ndarray
    matches_reference: bool
    output_noise_budget: int
    wall_time: float
    instruction_seconds: dict[str, float] = field(default_factory=dict)
    # decrypted model vectors of the program's extra outputs, in order
    extra_model_outputs: list[np.ndarray] = field(default_factory=list)


class HEExecutor:
    """Runs Quill programs under real BFV encryption.

    Tapes always execute their compiled NTT-domain plan.  The plan only
    chooses where values live (transforms are exact bijections), so the
    outputs and noise budgets equal those of a textbook big-integer BFV
    replaying the same tape (``tests/he/reference_bfv.py``).
    """

    PLAINTEXT_CACHE_LIMIT = 256

    def __init__(
        self,
        spec: Spec,
        params: BFVParams | None = None,
        seed: int | None = None,
        options: ExecOptions | None = None,
    ):
        options = options or ExecOptions()
        self.spec = spec
        self.guard = NoiseGuardPolicy.coerce(options.guard)
        # predictive admission: compile() rejects programs whose predicted
        # budget falls below this margin (None disables admission)
        self.noise_margin_bits = options.noise_margin_bits
        self._tape_fault: tuple | None = None
        self._tape_fault_lock = threading.Lock()
        if params is None:
            from repro.he.params import large_params, small_params

            params = {
                "n4096-depth1": small_params,
                "n8192-depth3": large_params,
            }.get(spec.params_name, small_params)()
        if spec.layout.vector_size > params.row_size:
            raise ValueError(
                "model vector does not fit one batching row; "
                "choose a larger polynomial degree"
            )
        self.params = params
        self.ctx = BFVContext(params, seed=seed)
        self._plaintext_cache: dict[bytes, object] = {}
        self._compiled: dict[int, CompiledProgram] = {}
        self._pinned: set[int] = set()
        self.stats = ExecutorStats()

    # ------------------------------------------------------------------
    # Compilation: program -> tape
    # ------------------------------------------------------------------

    def compile(self, program: Program) -> CompiledProgram:
        """Lower a program onto this executor (cached per program object).

        One-time work hoisted out of every run: the displacement check,
        Galois key generation, constant encoding, and liveness-based wire
        slot assignment.
        """
        cached = self._compiled.get(id(program))
        if cached is not None and cached.program is program:
            return cached
        check_displacement(program, self.spec)
        from repro.runtime.estimator import estimate_noise_budget

        predicted = estimate_noise_budget(program, self.params)
        if (
            self.noise_margin_bits is not None
            and predicted < self.noise_margin_bits
        ):
            raise NoiseBudgetExhausted(
                f"program {program.name!r} predicted to finish with "
                f"{predicted:.1f} bits of noise budget under params "
                f"{self.params.name!r}, below the {self.noise_margin_bits}"
                f"-bit admission margin; use a larger preset",
                min_budget=predicted,
                params_name=self.params.name,
            )

        # last use of each wire (every program output counts as a final use)
        last_use: dict[int, int] = {}
        for i, instr in enumerate(program.instructions):
            for ref in instr.operands:
                if isinstance(ref, Wire):
                    last_use[ref.index] = i
        for out in program.outputs:
            if isinstance(out, Wire):
                last_use[out.index] = len(program.instructions)

        slot_of: dict[int, int] = {}
        free: list[int] = []
        slot_count = 0
        steps: list[TapeStep] = []
        galois: list[int] = []

        def fetch(ref: Ref) -> tuple:
            if isinstance(ref, Wire):
                return ("slot", slot_of[ref.index])
            if isinstance(ref, CtInput):
                return ("ct", ref.name)
            assert isinstance(ref, (PtInput, PtConst))
            return ("pt", ref.name)

        for i, instr in enumerate(program.instructions):
            a = fetch(instr.operands[0])
            b = fetch(instr.operands[1]) if len(instr.operands) > 1 else None
            amount = 0
            if instr.opcode is Opcode.ROTATE:
                amount = instr.amount
                g = self.ctx.encoder.galois_element_for_rotation(amount)
                if g not in galois:
                    galois.append(g)
            # release slots of wires whose last consumer is this step;
            # the freed slot may immediately host this step's result
            dying = [
                slot_of.pop(ref.index)
                for ref in instr.operands
                if isinstance(ref, Wire) and last_use.get(ref.index) == i
                and ref.index in slot_of
            ]
            free.extend(dying)
            if last_use.get(i, -1) >= i:  # result is consumed somewhere
                if free:
                    out_slot = free.pop()
                else:
                    out_slot = slot_count
                    slot_count += 1
                slot_of[i] = out_slot
            else:  # dead instruction: still executed, result dropped
                out_slot = -1
            steps.append((instr.opcode, a, b, amount, out_slot, tuple(dying)))

        for g in galois:
            self.ctx.generate_galois_key(g)

        constants = {
            name: self._encode_cached(
                np.array(program.constant_vector(name), dtype=np.int64)
            )
            for name in program.constants
        }
        output_desc = fetch(program.output)
        extra_descs = tuple(fetch(ref) for ref in program.extra_outputs)
        plan = plan_tape(
            steps,
            output_desc,
            extra_descs,
            eager=not program.is_explicit_relin,
            k=len(self.params.coeff_primes),
            k_ext=len(self.ctx._ext_ring.basis),
            digits=self.ctx._digit_count,
        )
        compiled = CompiledProgram(
            program=program,
            steps=steps,
            slot_count=slot_count,
            output=output_desc,
            galois_elements=tuple(galois),
            constants=constants,
            extra_outputs=extra_descs,
            plan=plan,
            predicted_noise_budget=predicted,
        )
        if len(self._compiled) >= 32:  # bound the per-program tape cache
            # pinned tapes survive the wholesale clear: the server
            # replays the same hot programs on every request, and
            # evicting one mid-serve would silently re-pay displacement
            # checks, Galois key generation, and constant encoding
            self._compiled = {
                key: value
                for key, value in self._compiled.items()
                if key in self._pinned
            }
        self._compiled[id(program)] = compiled
        return compiled

    def pin(self, program: Program) -> CompiledProgram:
        """Compile ``program`` and keep its tape resident across evictions.

        The server pins every precompiled/hot program so its tape, keys
        and encoded constants are reused across requests no matter how
        many cold programs pass through.
        """
        compiled = self.compile(program)
        self._pinned.add(id(program))
        return compiled

    def unpin(self, program: Program) -> None:
        """Allow a previously pinned program's tape to be evicted again."""
        self._pinned.discard(id(program))

    def prepare(self, program: Program) -> None:
        """Generate the Galois keys the program needs (outside timing)."""
        self.compile(program)

    # ------------------------------------------------------------------
    # Runtime fault injection (chaos testing only)
    # ------------------------------------------------------------------

    def arm_tape_fault(self, fault: tuple | None) -> None:
        """Arm a one-shot mid-tape ciphertext corruption.

        Fault shapes (see :mod:`repro.serve.faults` for the wire-level
        sites that deliver them):

        - ``("bitflip", [step], [bit])`` — XOR one evaluation-domain
          residue bit of the ciphertext produced at tape step ``step``
          (default 0).  A single flipped NTT point inverse-transforms to
          a dense ~q-scale coefficient error, so the corruption is
          exactly the silent-garbage hazard guards exist to catch.
        - ``("poison", [step])`` — replace the step's result with a
          scrambled (cyclically shifted) residue matrix: a valid-looking
          but meaningless ciphertext, as a stuck/poisoned slot would be.
        """
        self._tape_fault = tuple(fault) if fault is not None else None

    def _trip_tape_fault(self, value, index: int):
        """Apply the armed fault if this tape step is its trigger."""
        with self._tape_fault_lock:  # one-shot, even when armed concurrently
            fault = self._tape_fault
            step = int(fault[1]) if fault and len(fault) > 1 else 0
            if fault is None or index != step:
                return value
            self._tape_fault = None
        return self._corrupt_ciphertext(value, fault)

    def _corrupt_ciphertext(self, ct: Ciphertext, fault: tuple) -> Ciphertext:
        from repro.he.poly import RingElement

        kind = fault[0]
        part = ct.parts[0]
        if kind == "bitflip":
            bit = int(fault[2]) if len(fault) > 2 else 10
            rows = np.array(part.eval_rows(), copy=True)
            # write through an index: reshape(-1) of a non-C-ordered copy
            # is itself a copy, which would silently drop the flip
            first = (0,) * rows.ndim
            prime = int(self.params.coeff_primes[0])
            rows[first] = (int(rows[first]) ^ (1 << bit)) % prime
            corrupted = RingElement(part.ctx, eval_rows=rows)
        elif kind == "poison":
            residues = np.roll(np.array(part.residues, copy=True), 1, axis=-1)
            corrupted = RingElement(part.ctx, residues)
        else:
            raise ValueError(f"unknown tape fault kind {fault[0]!r}")
        return Ciphertext([corrupted, *ct.parts[1:]])

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _encrypt_env(self, logical_env: dict[str, np.ndarray]):
        """Pack and encrypt one logical environment."""
        ct_env, pt_env = self.spec.packed_env(logical_env)
        encrypted = {
            name: self.ctx.encrypt_vector(vec) for name, vec in ct_env.items()
        }
        plain = {
            name: self._encode_cached(vec) for name, vec in pt_env.items()
        }
        return encrypted, plain

    def _execute_tape(
        self,
        compiled: CompiledProgram,
        encrypted: dict,
        plain: dict,
    ):
        """Replay the instruction tape under the compiled domain plan.

        The plan supplies per-step residency hints and rotation routing.

        Returns ``(output ct, extra cts, per-op seconds)``.  A tripped
        guard stops the replay and raises, after counting its check.
        """
        ctx = self.ctx
        guard = self.guard
        stats = self.stats
        slots: list = [None] * compiled.slot_count
        per_opcode: dict[str, float] = {}
        hints = compiled.plan.hints
        # explicit-relin programs defer the fold to their RELIN steps;
        # eager programs keep the historical relinearize-every-multiply
        eager = not compiled.program.is_explicit_relin
        dispatch = {
            Opcode.ADD_CC: ctx.add,
            Opcode.SUB_CC: ctx.sub,
            Opcode.ADD_CP: ctx.add_plain,
            Opcode.SUB_CP: ctx.sub_plain,
        }

        def resolve(desc):
            kind, key = desc
            if kind == "slot":
                return slots[key]
            if kind == "ct":
                return encrypted[key]
            return plain[key]

        for index, (opcode, a, b, amount, out_slot, frees) in enumerate(
            compiled.steps
        ):
            hint = hints[index]
            t0 = time.perf_counter()
            if opcode is Opcode.ROTATE:
                value = ctx.rotate_rows(resolve(a), amount)
            elif opcode is Opcode.RELIN:
                value = ctx.relinearize(resolve(a), out_domain=hint)
            elif opcode is Opcode.MUL_CC:
                value = ctx.multiply(
                    resolve(a),
                    resolve(b),
                    relinearize=eager,
                    out_domain=hint,
                )
            elif opcode is Opcode.MUL_CP:
                value = ctx.multiply_plain(resolve(a), resolve(b))
            else:
                value = dispatch[opcode](resolve(a), resolve(b), hint)
            elapsed = time.perf_counter() - t0
            key = opcode.value
            per_opcode[key] = per_opcode.get(key, 0.0) + elapsed
            if self._tape_fault is not None:
                value = self._trip_tape_fault(value, index)
            if guard is not None and (
                (guard.after_multiplies and opcode is Opcode.MUL_CC)
                or (
                    guard.every_n_ops is not None
                    and (index + 1) % guard.every_n_ops == 0
                )
            ):
                stats.guard_checks += 1
                budget = ctx.noise_budget(value)
                if budget <= guard.min_budget_bits:
                    stats.guard_trips += 1
                    raise NoiseBudgetExhausted(
                        f"noise guard tripped at tape step {index} "
                        f"({opcode.value}): budget {budget} bits under "
                        f"params {self.params.name!r}",
                        min_budget=budget,
                        op_index=index,
                        params_name=self.params.name,
                    )
            for slot in frees:
                if slot != out_slot:
                    slots[slot] = None  # release dead intermediates
            if out_slot >= 0:
                slots[out_slot] = value
        extras = [resolve(desc) for desc in compiled.extra_outputs]
        return resolve(compiled.output), extras, per_opcode

    def _report(
        self,
        env: dict[str, np.ndarray],
        decrypted: np.ndarray,
        extras: list[np.ndarray],
        budget: int,
        wall: float,
        per_opcode: dict[str, float],
    ) -> ExecutionReport:
        """Unpack one decrypted element and compare it to the reference."""
        layout = self.spec.layout
        model_output = decrypted[: layout.vector_size]
        logical_output = layout.unpack_output(model_output)
        expected = np.array(
            self.spec.reference_output(env), dtype=np.int64
        ).reshape(layout.output_shape)
        return ExecutionReport(
            model_output=model_output,
            logical_output=logical_output,
            expected_output=expected,
            matches_reference=bool(np.array_equal(logical_output, expected)),
            output_noise_budget=budget,
            wall_time=wall,
            instruction_seconds=per_opcode,
            # extras mirror the primary's epilogue: no budget gate (the
            # report carries the primary's budget)
            extra_model_outputs=[
                vec[: layout.vector_size] for vec in extras
            ],
        )

    def run(
        self, program: Program, logical_env: dict[str, np.ndarray]
    ) -> ExecutionReport:
        """Encrypt, evaluate homomorphically, decrypt, and compare.

        The environment is checked against the spec's inputs before
        anything is encrypted.
        """
        self._validate_env(logical_env)
        compiled = self.compile(program)
        encrypted, plain = self._encrypt_env(logical_env)
        plain.update(compiled.constants)
        counters = ExecCounters()
        arena = thread_arena()
        start = time.perf_counter()
        with execution_scope(arena, counters):
            output_ct, extra_cts, per_opcode = self._execute_tape(
                compiled, encrypted, plain
            )
        wall = time.perf_counter() - start
        stats = self.stats
        stats.runs += 1
        stats.ntts_performed += counters.ntt_rows
        stats.ntts_planned += compiled.plan.ntts_planned
        stats.ntts_elided += compiled.plan.ntts_elided
        stats.arena_bytes = max(stats.arena_bytes, arena.bytes_held)
        plaintext, budget = self.ctx.decrypt_with_budgets(
            output_ct, check_budget=False
        )
        self._note_output_budget(budget)
        extras = [
            self.ctx.decode(self.ctx.decrypt(ct, check_budget=False))
            for ct in extra_cts
        ]
        return self._report(
            logical_env,
            self.ctx.decode(plaintext),
            extras,
            budget,
            wall,
            per_opcode,
        )

    def _note_output_budget(self, budget: int) -> None:
        """Track the output-budget low-water mark and gate on the guard.

        With ``check_output`` set the executor refuses to hand back a
        decryption whose budget bottomed out — the typed raise replaces
        the silent garbage BFV would otherwise return.
        """
        stats = self.stats
        if stats.min_output_budget is None or budget < stats.min_output_budget:
            stats.min_output_budget = int(budget)
        guard = self.guard
        if (
            guard is not None
            and guard.check_output
            and budget <= guard.min_budget_bits
        ):
            stats.guard_trips += 1
            raise NoiseBudgetExhausted(
                f"output noise budget exhausted: {budget} bits under params "
                f"{self.params.name!r}; decryption would return garbage",
                min_budget=budget,
                params_name=self.params.name,
            )

    def _validate_env(self, logical_env: dict[str, np.ndarray]) -> None:
        """Reject a malformed environment with a clear error.

        The environment must bind exactly the layout's input names; a
        missing or extra name is reported by name instead of surfacing
        later as a ``KeyError`` during encryption or a ``TypeError`` from
        the reference after the whole tape has run.
        """
        expected = {p.name for p in self.spec.layout.inputs}
        names = set(logical_env)
        if names == expected:
            return
        missing = sorted(expected - names)
        extra = sorted(names - expected)
        problems = []
        if missing:
            problems.append(f"missing input(s) {missing}")
        if extra:
            problems.append(f"unexpected input(s) {extra}")
        raise ValueError(
            f"environment does not match spec {self.spec.name!r}: "
            f"{'; '.join(problems)} (expected exactly {sorted(expected)})"
        )

    # ------------------------------------------------------------------
    # Plaintext cache
    # ------------------------------------------------------------------

    def _encode_cached(self, vec: np.ndarray):
        """Encode a vector, caching by content.

        The cache is bounded (cleared wholesale past
        ``PLAINTEXT_CACHE_LIMIT`` entries, mirroring the solver's shift
        cache policy) and cached plaintexts are frozen so no caller can
        mutate a shared entry.  Each new entry's ring lift is built in
        both domains here, outside the tape, so every run of a tape pays
        the same transforms (the domain plan counts none for plaintexts).
        """
        key = vec.tobytes()
        cached = self._plaintext_cache.get(key)
        if cached is None:
            if len(self._plaintext_cache) >= self.PLAINTEXT_CACHE_LIMIT:
                self._plaintext_cache.clear()
            cached = self.ctx.encode(vec).freeze()
            cached.lift(self.ctx.ring, self.ctx.t).eval_rows()
            self._plaintext_cache[key] = cached
        return cached

    def sanity_check(self, program: Program, seed: int = 0) -> ExecutionReport:
        """One end-to-end encrypted run on random in-range inputs."""
        rng = np.random.default_rng(seed)
        logical = {}
        for packed in self.spec.layout.inputs:
            logical[packed.name] = rng.integers(
                0, self.spec.backend_bound + 1, packed.shape, dtype=np.int64
            )
        report = self.run(program, logical)
        if multiplicative_depth(program) > 0 and report.output_noise_budget <= 0:
            raise RuntimeError("noise budget exhausted during sanity check")
        return report
