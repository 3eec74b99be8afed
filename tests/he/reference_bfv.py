"""Textbook big-integer BFV: the RNS runtime's equivalence oracle.

:class:`ReferenceBFV` is a :class:`~repro.he.context.BFVContext` whose
ciphertext multiply, relinearize, rotation, key switch, decryption
rounding and noise measurement take the seed implementation's big-integer
path: every coefficient is composed to a Python int with a
per-coefficient Garner loop, the tensor is three exact Karatsuba products
over the integers (one radix-2 ``NTTContext`` per prime of the extension
basis), the rescale is ``(t*v + q//2) // q``, key-switch digits are
shifts of the composed coefficients, and every transform is the per-prime
reference NTT.  Encryption, plaintext ops and adds are inherited; they
are exact residue arithmetic either way.

Each override accepts the domain plan's hints (``out_domain``) and
ignores them, so an :class:`HEExecutor` whose ``ctx`` is
an oracle replays the same compiled tape as the runtime (see
:func:`reference_executor`).  :meth:`ReferenceBFV.sharing` builds the
oracle over a live context's keys, rings and RNG without touching that
context, so Galois keys generated by either side agree.

The runtime benchmark (``benchmarks/bench_he_runtime.py``) imports this
module for its ``reference_*`` columns, so it imports only numpy and
``repro``.
"""

from __future__ import annotations

import numpy as np

from repro.he.context import BFVContext, Ciphertext
from repro.he.errors import HEError
from repro.he.keys import KSwitchKey
from repro.he.poly import RingContext, RingElement
from repro.he.rns import RNSBasis, centered
from repro.runtime.executor import HEExecutor


def compose_schoolbook(basis: RNSBasis, residues: np.ndarray) -> list[int]:
    """Coefficients in ``[0, M)``: one Garner term per prime and
    coefficient, summed as Python ints."""
    k, n = residues.shape
    if k != len(basis.primes):
        raise ValueError("residue matrix does not match basis size")
    out = [0] * n
    for i, p in enumerate(basis.primes):
        # term_i = r_i * inv_i mod p_i, contribution term_i * (M / p_i)
        scale = basis._m_over_p[i]
        inv = basis._m_over_p_inv[i]
        row = residues[i]
        for j in range(n):
            out[j] += (int(row[j]) * inv % p) * scale
    return [c % basis.modulus for c in out]


def compose_centered_schoolbook(
    basis: RNSBasis, residues: np.ndarray
) -> list[int]:
    """:func:`compose_schoolbook` lifted into ``(-M/2, M/2]``."""
    half = basis.modulus // 2
    return [
        c - basis.modulus if c > half else c
        for c in compose_schoolbook(basis, residues)
    ]


def exact_negacyclic_product(
    a_coeffs: list[int], b_coeffs: list[int], ext_ring: RingContext
) -> list[int]:
    """Integer negacyclic product of two coefficient vectors.

    Taken per prime of ``ext_ring`` with the radix-2 reference NTT and
    composed centered, so ``ext_ring``'s modulus must exceed
    ``2 * N * max|a| * max|b|``.
    """
    a = ext_ring.from_int_coeffs(a_coeffs).residues
    b = ext_ring.from_int_coeffs(b_coeffs).residues
    out = np.empty_like(a)
    for i, ntt in enumerate(ext_ring.ntts):
        product = ntt.forward(a[i]) * ntt.forward(b[i]) % ntt.prime
        out[i] = ntt.inverse(product)
    return compose_centered_schoolbook(ext_ring.basis, out)


class ReferenceBFV(BFVContext):
    """:class:`BFVContext` with the textbook big-integer evaluation paths."""

    @classmethod
    def sharing(cls, ctx: BFVContext) -> "ReferenceBFV":
        """An oracle over ``ctx``'s keys, rings, tables and RNG.

        The attributes are shared, not copied: a Galois key either side
        generates lands in the one key map, drawn from the one RNG.
        ``ctx`` itself is left as it was.
        """
        oracle = cls.__new__(cls)
        oracle.__dict__.update(ctx.__dict__)
        return oracle

    def multiply(
        self,
        ct1: Ciphertext,
        ct2: Ciphertext,
        relinearize: bool = True,
        out_domain: str | None = None,
    ) -> Ciphertext:
        """Exact integer tensor (Karatsuba), big-int rescale by ``t/q``."""
        if ct1.size != 2 or ct2.size != 2:
            raise HEError("multiply expects relinearized (2-part) operands")
        basis = self.ring.basis
        a0, a1, b0, b1 = (
            compose_centered_schoolbook(basis, part.residues)
            for part in (*ct1.parts, *ct2.parts)
        )
        # Karatsuba: three exact products instead of four
        ext = self._ext_ring
        p00 = exact_negacyclic_product(a0, b0, ext)
        p11 = exact_negacyclic_product(a1, b1, ext)
        pss = exact_negacyclic_product(
            [x + y for x, y in zip(a0, a1)],
            [x + y for x, y in zip(b0, b1)],
            ext,
        )
        p01 = [s - x - y for s, x, y in zip(pss, p00, p11)]
        q, t = self.q, self.t
        product = Ciphertext(
            [
                self.ring.from_int_coeffs([(t * v + q // 2) // q for v in p])
                for p in (p00, p01, p11)
            ]
        )
        return self.relinearize(product) if relinearize else product

    def relinearize(
        self, ct: Ciphertext, out_domain: str | None = None
    ) -> Ciphertext:
        if ct.size == 2:
            return ct.copy()
        d0, d1 = self._key_switch(ct.parts[2], self.relin_key)
        return Ciphertext([ct.parts[0] + d0, ct.parts[1] + d1])

    def _apply_galois(self, ct: Ciphertext, galois_elt: int) -> Ciphertext:
        self.generate_galois_key(galois_elt)
        key = self.galois_keys.get(galois_elt)
        c0g = ct.parts[0].automorphism(galois_elt)
        c1g = ct.parts[1].automorphism(galois_elt)
        d0, d1 = self._key_switch(c1g, key)
        return Ciphertext([c0g + d0, d1])

    def _key_switch(
        self, poly: RingElement, key: KSwitchKey
    ) -> tuple[RingElement, RingElement]:
        """Big-int digits of ``poly``; one reference NTT per digit, prime."""
        ring = self.ring
        bits = self.params.decomp_bits
        mask = (1 << bits) - 1
        coeffs = compose_schoolbook(ring.basis, poly.residues)
        primes_col = ring._primes_col
        acc0 = np.zeros_like(poly.residues)
        acc1 = np.zeros_like(poly.residues)
        for j in range(len(key)):
            digit = np.array(
                [(c >> (bits * j)) & mask for c in coeffs], dtype=np.int64
            )
            digit_res = digit[None, :] % primes_col
            digit_eval = np.stack(
                [ntt.forward(digit_res[i]) for i, ntt in enumerate(ring.ntts)]
            )
            acc0 = (acc0 + digit_eval * key._stack_0[j]) % primes_col
            acc1 = (acc1 + digit_eval * key._stack_1[j]) % primes_col
        out0, out1 = (
            np.stack([ntt.inverse(acc[i]) for i, ntt in enumerate(ring.ntts)])
            for acc in (acc0, acc1)
        )
        return RingElement(ring, out0), RingElement(ring, out1)

    def _decrypt_round(self, residues: np.ndarray) -> np.ndarray:
        q, t = self.q, self.t
        return np.array(
            [
                (t * c + q // 2) // q % t
                for c in compose_schoolbook(self.ring.basis, residues)
            ],
            dtype=np.int64,
        )

    def _noise_magnitude(
        self, ct: Ciphertext, acc: RingElement | None = None
    ) -> int:
        q, t = self.q, self.t
        if acc is None:
            acc = self._noise_element(ct)
        w = compose_schoolbook(self.ring.basis, acc.residues)
        return max(abs(centered(t * c % q, q)) for c in w)


def reference_executor(
    spec, params=None, seed: int | None = None
) -> HEExecutor:
    """An :class:`HEExecutor` whose context is the oracle.

    Built like the runtime's executor (same keys for the same ``seed``),
    it compiles the same tape with the same domain plan and replays it on
    the big-integer paths.
    """
    executor = HEExecutor(spec, params=params, seed=seed)
    executor.ctx = ReferenceBFV.sharing(executor.ctx)
    return executor
