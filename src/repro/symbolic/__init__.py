"""Exact symbolic verification substrate.

Replaces the paper's Rosette + SMT verification pipeline.  Straight-line
HE-compatible kernels compute polynomial functions of their inputs, so we
lift both the candidate Quill program and the plaintext reference
implementation to vectors of exact multivariate polynomials over the
integers and compare them slot by slot.  Polynomial identity over Z is a
*sound and complete* equivalence check for this program class — strictly
stronger than the bounded bit-vector check an SMT solver performs.

Evaluation covers only the output cone: a backward pass over the
straight-line program gives each wire the slots its consumers read (a
rotation by ``a`` moves slot ``i`` to ``i + a`` and drops what it shifts
out; arithmetic and ``RELIN`` pass slots through), and the forward pass
computes just those.  A verification against a layout asks for its
output slots, a full evaluation for every slot; either way the verdict
on the requested slots is the same.  Monomials are packed integers (see
:mod:`repro.symbolic.polynomial`), so a monomial product is one add.

Counterexamples for CEGIS are extracted by Schwartz-Zippel sampling of the
difference polynomial.
"""

from repro.symbolic.polynomial import ExponentOverflowError, Poly
from repro.symbolic.symvec import (
    evaluate_outputs,
    evaluate_symbolic,
    symbolic_vector,
    zeros_vector,
)
from repro.symbolic.verify import (
    VerificationResult,
    check_equivalence,
    find_counterexample,
)

__all__ = [
    "ExponentOverflowError",
    "Poly",
    "VerificationResult",
    "check_equivalence",
    "evaluate_outputs",
    "evaluate_symbolic",
    "find_counterexample",
    "symbolic_vector",
    "zeros_vector",
]
