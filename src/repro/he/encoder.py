"""BFV batching: packing integer vectors into plaintext polynomial slots.

With a prime plaintext modulus ``t = 1 (mod 2N)`` the ring ``Z_t[x]/(x^N+1)``
splits into ``N`` one-dimensional factors (evaluations at the odd powers of
a primitive ``2N``-th root of unity).  Each factor is one SIMD "slot":
adding/multiplying plaintext polynomials adds/multiplies slots element-wise,
which is what gives BFV its vector programming model (paper section 2.2).

Slots are arranged exactly as in SEAL: a ``2 x (N/2)`` matrix where the
Galois automorphism ``x -> x^(3^k)`` rotates *both* rows left by ``k`` and
``x -> x^(2N-1)`` swaps the rows.  Slot ``i`` of row 0 is the evaluation at
``psi^(3^i mod 2N)`` and slot ``i`` of row 1 at ``psi^(-3^i mod 2N)``.
"""

from __future__ import annotations

import numpy as np

from repro.he.ntt import NTTContext
from repro.he.params import BFVParams


class BatchEncoder:
    """Encode/decode integer vectors to/from plaintext polynomials mod t."""

    def __init__(self, params: BFVParams):
        self.n = params.poly_degree
        self.t = params.plain_modulus
        self.row_size = self.n // 2
        self._ntt = NTTContext(self.n, self.t)
        exps = self._ntt.evaluation_exponents()
        pos_of_exp = {e: j for j, e in enumerate(exps)}
        two_n = 2 * self.n
        slot_to_pos = np.empty(self.n, dtype=np.int64)
        g = 1
        for i in range(self.row_size):
            slot_to_pos[i] = pos_of_exp[g]
            slot_to_pos[i + self.row_size] = pos_of_exp[two_n - g]
            g = g * 3 % two_n
        self._slot_to_pos = slot_to_pos

    def encode(self, values) -> np.ndarray:
        """Vector of signed ints -> plaintext polynomial coefficients mod t.

        Accepts up to ``n`` values (shorter vectors are zero-padded); each
        value must lie in the centered range ``(-t/2, t/2]``.
        """
        values = np.asarray(values, dtype=np.int64)
        if values.ndim != 1 or values.shape[-1] > self.n:
            raise ValueError(f"expected at most {self.n} scalar values")
        t = self.t
        if np.any(values > t // 2) or np.any(values < -(t // 2)):
            raise ValueError(
                f"values must fit the centered plaintext range of t={t}"
            )
        evals = np.zeros(self.n, dtype=np.int64)
        evals[self._slot_to_pos[: len(values)]] = values % t
        return self._ntt.inverse(evals)

    def decode(self, coeffs: np.ndarray, signed: bool = True) -> np.ndarray:
        """Plaintext polynomial coefficients mod t -> vector of n slots."""
        evals = self._ntt.forward(np.asarray(coeffs, dtype=np.int64))
        slots = evals[..., self._slot_to_pos]
        if signed:
            half = self.t // 2
            slots = np.where(slots > half, slots - self.t, slots)
        return slots

    def galois_element_for_rotation(self, steps: int) -> int:
        """Galois element realising a left row-rotation by ``steps``.

        ``steps`` may be negative (right rotation); it is reduced modulo the
        row size.  Rotation by 0 maps to the identity element 1.
        """
        steps = steps % self.row_size
        return pow(3, steps, 2 * self.n)

    @property
    def galois_element_row_swap(self) -> int:
        return 2 * self.n - 1
