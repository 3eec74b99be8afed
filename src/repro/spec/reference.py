"""The Spec class: reference implementation + layout + verification glue.

A reference implementation is a Python callable taking one keyword array
per logical input and returning the *flat list* of output values in the
layout's output-slot order.  Because references only use ``+ - *`` they
run unchanged on integer arrays (concrete examples for the CEGIS loop) and
on object arrays of :class:`~repro.symbolic.polynomial.Poly` (symbolic
lifting for verification) — the paper uses Racket + Rosette for the same
two roles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.quill.ir import Program
from repro.spec.layout import Layout
from repro.symbolic.polynomial import Poly
from repro.symbolic.symvec import evaluate_symbolic
from repro.symbolic.verify import VerificationResult, check_equivalence


@dataclass
class Example:
    """One concrete input-output example driving inductive synthesis."""

    ct_env: dict[str, np.ndarray]  # packed model vectors
    pt_env: dict[str, np.ndarray]
    goal: np.ndarray  # expected values at layout.output_slots, flat order


@dataclass(frozen=True)
class Spec:
    """A kernel specification (paper section 4.3).

    Attributes:
        name: kernel identifier.
        layout: slot map for inputs and outputs.
        reference: plaintext implementation; called with one keyword array
            per logical input, returns flat outputs in output-slot order.
        example_bound: magnitude bound for randomly drawn synthesis
            examples (verification is exact, so small values suffice).
        backend_bound: magnitude bound for inputs when executing on the
            real BFV backend, chosen so no intermediate overflows the
            plaintext modulus.
        params_name: BFV parameter preset with enough noise budget for the
            kernel's multiplicative depth.
        description: one-line summary for docs and reports.
    """

    name: str
    layout: Layout
    reference: Callable[..., list]
    example_bound: int = 9
    backend_bound: int = 50
    params_name: str = "n4096-depth1"
    description: str = ""

    # -- concrete side ----------------------------------------------------

    def random_logical_inputs(
        self, rng: np.random.Generator, bound: int | None = None
    ) -> dict[str, np.ndarray]:
        bound = bound if bound is not None else self.example_bound
        env = {}
        for packed in self.layout.inputs:
            env[packed.name] = rng.integers(
                -bound, bound + 1, packed.shape, dtype=np.int64
            )
        return env

    def random_backend_inputs(self, seed: int) -> dict[str, np.ndarray]:
        """In-range inputs for a backend run, drawn from ``seed``.

        Values lie in ``[0, backend_bound]``, so nothing overflows the
        plaintext modulus; equal seeds give bit-identical int64 arrays.
        """
        rng = np.random.default_rng(seed)
        return {
            packed.name: rng.integers(
                0, self.backend_bound + 1, packed.shape, dtype=np.int64
            )
            for packed in self.layout.inputs
        }

    def reference_output(self, logical_env: dict[str, np.ndarray]) -> list:
        return list(self.reference(**logical_env))

    def packed_env(
        self, logical_env: dict[str, np.ndarray]
    ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        ct_env, pt_env = {}, {}
        for packed in self.layout.inputs:
            vec = self.layout.pack(packed.name, logical_env[packed.name])
            (ct_env if packed.kind == "ct" else pt_env)[packed.name] = vec
        return ct_env, pt_env

    def make_example(
        self,
        rng: np.random.Generator,
        logical_env: dict[str, np.ndarray] | None = None,
    ) -> Example:
        if logical_env is None:
            logical_env = self.random_logical_inputs(rng)
        goal = np.array(
            [int(v) for v in self.reference_output(logical_env)],
            dtype=np.int64,
        )
        ct_env, pt_env = self.packed_env(logical_env)
        return Example(ct_env=ct_env, pt_env=pt_env, goal=goal)

    # -- symbolic side --------------------------------------------------------

    def symbolic_env(self) -> tuple[dict[str, list[Poly]], dict[str, list[Poly]]]:
        ct_env, pt_env = {}, {}
        for packed in self.layout.inputs:
            vec = self.layout.pack_symbolic(packed.name)
            (ct_env if packed.kind == "ct" else pt_env)[packed.name] = vec
        return ct_env, pt_env

    def symbolic_logical_inputs(self) -> dict[str, np.ndarray]:
        """Object arrays of fresh variables, shaped like the logical inputs."""
        env = {}
        for packed in self.layout.inputs:
            flat = [
                Poly.var(f"{packed.name}[{i}]") for i in range(packed.size)
            ]
            env[packed.name] = np.array(flat, dtype=object).reshape(packed.shape)
        return env

    def expected_symbolic(self) -> list[Poly]:
        """The reference lifted to polynomials, one per output slot."""
        outputs = self.reference(**self.symbolic_logical_inputs())
        return [o if isinstance(o, Poly) else Poly.const(int(o)) for o in outputs]

    def verify_program(self, program: Program) -> VerificationResult:
        """Exact equivalence of a Quill program against this specification."""
        if program.vector_size != self.layout.vector_size:
            raise ValueError(
                f"program vector size {program.vector_size} != "
                f"layout vector size {self.layout.vector_size}"
            )
        ct_env, pt_env = self.symbolic_env()
        actual = evaluate_symbolic(program, ct_env, pt_env)
        expected_flat = self.expected_symbolic()
        expected = [Poly.zero()] * self.layout.vector_size
        slots = list(self.layout.output_slots)
        for slot, poly in zip(slots, expected_flat):
            expected[slot] = poly
        return check_equivalence(actual, expected, slots=slots)

    def example_from_witness(
        self, witness: dict[str, int], rng: np.random.Generator
    ) -> Example:
        """Turn a verifier counterexample into a concrete Example.

        Witness variables are named ``input[flat_index]``; variables absent
        from the witness do not affect the disagreement, so they are filled
        with small random values.
        """
        logical_env = self.random_logical_inputs(rng, bound=3)
        for var, value in witness.items():
            name, _, rest = var.partition("[")
            index = int(rest[:-1])
            logical_env[name].reshape(-1)[index] = value
        return self.make_example(rng, logical_env)

    def __repr__(self) -> str:
        return f"Spec({self.name!r}, n={self.layout.vector_size})"
