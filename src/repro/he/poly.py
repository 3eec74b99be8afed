"""Ring elements of ``R_q = Z_q[x]/(x^N + 1)`` in RNS representation.

A :class:`RingElement` stores one residue row per RNS prime (shape
``(k, N)`` int64) and keeps both representations of that matrix lazily:

* the **coefficient** domain (natural order), needed for automorphisms on
  coefficients, digit decomposition, and scheme boundaries, and
* the **evaluation** (NTT) domain, where ring multiplication is a
  pointwise product.

Whichever domain an element was produced in is kept; the other is
materialised on demand through the ring's batched NTT and then cached, so
chains of add / rotate / multiply never forward- or inverse-transform the
same polynomial twice.  Galois automorphisms act in *either* domain: as the
classic signed coefficient permutation, or as an unsigned permutation of
evaluation points (``f(psi^e) -> f(psi^{e*g})``).  Big-integer coefficient
views are materialised only at scheme boundaries.
"""

from __future__ import annotations

import numpy as np

from repro.he.ntt import BatchNTT, NTTContext
from repro.he.rns import RNSBasis


class RingContext:
    """Shared tables for one polynomial ring: basis primes + NTT contexts."""

    def __init__(self, n: int, primes: list[int]):
        self.n = n
        self.basis = RNSBasis(primes)
        self.ntts = [NTTContext(n, p) for p in primes]
        self.batch_ntt = BatchNTT(self.ntts)
        self._primes_col = np.array(primes, dtype=np.int64)[:, None]
        self._automorphism_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._eval_perm_cache: dict[int, np.ndarray] = {}
        self._eval_exponents: list[int] | None = None

    @property
    def modulus(self) -> int:
        return self.basis.modulus

    def zero(self) -> "RingElement":
        shape = (len(self.basis), self.n)
        return RingElement(self, np.zeros(shape, dtype=np.int64))

    def from_int_coeffs(self, coeffs) -> "RingElement":
        """Build an element from integer coefficients (any magnitude/sign)."""
        if np.shape(coeffs)[-1] != self.n:
            raise ValueError(f"expected {self.n} coefficients")
        return RingElement(self, self.basis.decompose(coeffs))

    def from_eval(self, eval_rows: np.ndarray) -> "RingElement":
        """Build an element already in the NTT (evaluation) domain."""
        return RingElement(self, eval_rows=eval_rows % self._primes_col)

    def constant(self, value: int) -> "RingElement":
        coeffs = [value] + [0] * (self.n - 1)
        return self.from_int_coeffs(coeffs)

    def automorphism_tables(self, galois_elt: int):
        """Permutation/sign tables for ``x -> x^g`` on coefficient vectors.

        Coefficient ``i`` of the input lands at position ``i*g mod 2N``; the
        negacyclic relation ``x^N = -1`` folds positions >= N back with a
        sign flip.
        """
        if galois_elt % 2 == 0:
            raise ValueError("Galois elements must be odd")
        cached = self._automorphism_cache.get(galois_elt)
        if cached is not None:
            return cached
        n = self.n
        pos = np.arange(n, dtype=np.int64) * galois_elt % (2 * n)
        dest = np.where(pos < n, pos, pos - n)
        sign = np.where(pos < n, 1, -1).astype(np.int64)
        dest.flags.writeable = sign.flags.writeable = False
        self._automorphism_cache[galois_elt] = (dest, sign)
        return dest, sign

    def evaluation_exponents(self) -> list[int]:
        """Exponent ``e_j`` of the evaluation point at output position ``j``.

        The butterfly network's output ordering is a pure index pattern, so
        the exponent list is identical for every prime of the basis (the
        equivalence tests assert this); it is derived once from the first
        NTT context and shared.
        """
        if self._eval_exponents is None:
            self._eval_exponents = self.ntts[0].evaluation_exponents()
        return self._eval_exponents

    def prime_evals(self, elements: list["RingElement"]) -> None:
        """Fill the NTT caches of several same-shape elements in one pass."""
        pending = [e for e in elements if e._eval is None]
        if not pending:
            return
        evals = self.batch_ntt.forward(
            np.stack([e._coeff for e in pending]), assume_reduced=True
        )
        for element, rows in zip(pending, evals):
            element._eval = rows

    def prime_coeffs(self, elements: list["RingElement"]) -> None:
        """Fill the coefficient caches of several elements in one pass.

        The inverse-domain twin of :meth:`prime_evals`, used by the
        domain planner when a value's consumers all demand coefficients
        (e.g. a relinearized product feeding another multiply)."""
        pending = [e for e in elements if e._coeff is None]
        if not pending:
            return
        coeffs = self.batch_ntt.inverse(
            np.stack([e._eval for e in pending]), assume_reduced=True
        )
        for element, rows in zip(pending, coeffs):
            element._coeff = rows

    def eval_automorphism_table(self, galois_elt: int) -> np.ndarray:
        """Permutation realising ``x -> x^g`` directly on evaluation rows.

        The automorphism maps ``f`` to ``f(x^g)``, whose value at the point
        ``psi^e`` is ``f(psi^{e*g mod 2N})`` — a sign-free permutation of
        evaluation positions (``g`` odd keeps the odd-exponent point set
        closed).  Rotating a ciphertext that is already in NTT form
        therefore needs no transform at all.
        """
        if galois_elt % 2 == 0:
            raise ValueError("Galois elements must be odd")
        cached = self._eval_perm_cache.get(galois_elt)
        if cached is not None:
            return cached
        exps = self.evaluation_exponents()
        position_of = {e: j for j, e in enumerate(exps)}
        two_n = 2 * self.n
        perm = np.array(
            [position_of[e * galois_elt % two_n] for e in exps],
            dtype=np.int64,
        )
        perm.flags.writeable = False
        self._eval_perm_cache[galois_elt] = perm
        return perm


class RingElement:
    """One polynomial of ``R_q``, stored as an RNS residue matrix.

    Carries the coefficient-domain matrix, the evaluation-domain matrix, or
    both; missing forms are materialised lazily and cached.  Elements are
    value-immutable: every operation returns a new element, and the cached
    forms of an operand are never written to.
    """

    __slots__ = ("ctx", "_coeff", "_eval")

    def __init__(
        self,
        ctx: RingContext,
        residues: np.ndarray | None = None,
        *,
        eval_rows: np.ndarray | None = None,
    ):
        if residues is None and eval_rows is None:
            raise ValueError("RingElement needs residues or eval_rows")
        self.ctx = ctx
        self._coeff = residues
        self._eval = eval_rows

    @property
    def residues(self) -> np.ndarray:
        """Coefficient-domain residue matrix (materialised on demand)."""
        if self._coeff is None:
            # cached forms are canonical by construction (every producer
            # reduces), so the transform skips its defensive entry mod
            self._coeff = self.ctx.batch_ntt.inverse(
                self._eval, assume_reduced=True
            )
        return self._coeff

    def eval_rows(self) -> np.ndarray:
        """Evaluation-domain residue matrix (materialised on demand)."""
        if self._eval is None:
            self._eval = self.ctx.batch_ntt.forward(
                self._coeff, assume_reduced=True
            )
        return self._eval

    def copy(self) -> "RingElement":
        return RingElement(
            self.ctx,
            None if self._coeff is None else self._coeff.copy(),
            eval_rows=None if self._eval is None else self._eval.copy(),
        )

    @staticmethod
    def _mod_add(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
        """``(a + b) mod p`` for canonical operands, division-free.

        Sums of two residues in ``[0, p)`` land in ``[0, 2p)``; one
        conditional subtract restores the canonical range — bit-identical
        to ``%`` and ~2x faster (int64 division is the expensive pass).
        The fix-up runs per prime row with a scalar modulus: the
        conditional's temporaries then stay row-sized instead of
        element-sized, which keeps them out of the allocator.
        """
        s = a + b
        for i in range(p.shape[0]):
            row = s[..., i, :]
            pi = p[i, 0]
            row -= (row >= pi) * pi
        return s

    @staticmethod
    def _mod_sub(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
        """``(a - b) mod p`` for canonical operands, division-free."""
        d = a - b
        for i in range(p.shape[0]):
            row = d[..., i, :]
            pi = p[i, 0]
            row += (row < 0) * pi
        return d

    def _binary(
        self, other: "RingElement", op, out_domain: str | None = None
    ) -> "RingElement":
        """Apply a linear op in whichever domain avoids a transform.

        ``out_domain=None`` keeps the historical lazy policy: both forms
        present on both operands -> compute both (cheap numpy adds) so
        downstream consumers of either domain stay transform-free.  A
        domain plan passes ``"coeff"``/``"eval"`` to compute exactly the
        form its consumers demand — transforms are exact bijections and
        the op is linear, so every choice yields bit-identical values.
        """
        p = self.ctx._primes_col
        fn = self._mod_add if op is np.add else self._mod_sub
        if out_domain == "coeff":
            return RingElement(self.ctx, fn(self.residues, other.residues, p))
        if out_domain == "eval":
            return RingElement(
                self.ctx, eval_rows=fn(self.eval_rows(), other.eval_rows(), p)
            )
        coeff = None
        eval_rows = None
        if self._coeff is not None and other._coeff is not None:
            coeff = fn(self._coeff, other._coeff, p)
        if self._eval is not None and other._eval is not None:
            eval_rows = fn(self._eval, other._eval, p)
        if coeff is None and eval_rows is None:
            # mixed domains: prefer evaluation (keeps hot chains in NTT form)
            eval_rows = fn(self.eval_rows(), other.eval_rows(), p)
        return RingElement(self.ctx, coeff, eval_rows=eval_rows)

    def add(
        self, other: "RingElement", out_domain: str | None = None
    ) -> "RingElement":
        return self._binary(other, np.add, out_domain)

    def sub(
        self, other: "RingElement", out_domain: str | None = None
    ) -> "RingElement":
        return self._binary(other, np.subtract, out_domain)

    def __add__(self, other: "RingElement") -> "RingElement":
        return self._binary(other, np.add)

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self._binary(other, np.subtract)

    def __neg__(self) -> "RingElement":
        p = self.ctx._primes_col
        return RingElement(
            self.ctx,
            None if self._coeff is None else (-self._coeff) % p,
            eval_rows=None if self._eval is None else (-self._eval) % p,
        )

    def __mul__(self, other: "RingElement") -> "RingElement":
        """Negacyclic product: pointwise in the (cached) NTT domain."""
        p = self.ctx._primes_col
        product = self.eval_rows() * other.eval_rows() % p
        return RingElement(self.ctx, eval_rows=product)

    def scalar_mul(self, scalar: int) -> "RingElement":
        p = self.ctx._primes_col
        scalars = np.array(
            [scalar % pi for pi in self.ctx.basis.primes], dtype=np.int64
        )[:, None]
        return RingElement(
            self.ctx,
            None if self._coeff is None else self._coeff * scalars % p,
            eval_rows=(
                None if self._eval is None else self._eval * scalars % p
            ),
        )

    def automorphism(
        self, galois_elt: int, domains: str | None = None
    ) -> "RingElement":
        """``x -> x^g``, applied in every domain the element already has.

        ``domains`` narrows the work under a domain plan: ``"coeff"`` /
        ``"eval"`` produce exactly that form (materialising the source
        form if missing), instead of permuting every cached form.  The
        automorphism commutes with the NTT, so all choices agree.
        """
        want_coeff = (
            self._coeff is not None if domains is None else domains == "coeff"
        )
        want_eval = (
            self._eval is not None if domains is None else domains == "eval"
        )
        coeff = None
        eval_rows = None
        if want_coeff:
            dest, sign = self.ctx.automorphism_tables(galois_elt)
            out = np.empty_like(self._coeff if self._coeff is not None else self.residues)
            # sign is +-1, so the signed residues sit in (-p, p); one
            # conditional add restores canonical form without a division
            signed = self.residues * sign
            signed += self.ctx._primes_col * (signed < 0)
            out[..., dest] = signed
            coeff = out
        if want_eval:
            perm = self.ctx.eval_automorphism_table(galois_elt)
            eval_rows = self.eval_rows()[..., perm]
        return RingElement(self.ctx, coeff, eval_rows=eval_rows)

    def to_int_coeffs(self) -> list[int]:
        """Coefficients in ``[0, q)``."""
        return self.ctx.basis.compose(self.residues)

    def to_centered_coeffs(self) -> list[int]:
        """Coefficients in ``(-q/2, q/2]`` (the noise-minimal lift)."""
        return self.ctx.basis.compose_centered(self.residues)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RingElement):
            return NotImplemented
        return bool(np.array_equal(self.residues, other.residues))

    def __repr__(self) -> str:
        return f"RingElement(n={self.ctx.n}, k={len(self.ctx.basis)})"

