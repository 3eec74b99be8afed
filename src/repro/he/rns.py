"""Residue number system (CRT) arithmetic over a basis of NTT primes.

Ciphertext polynomials live modulo a large composite ``q = p_1 * ... * p_k``.
Storing each coefficient as its vector of residues lets every ring operation
run as vectorized int64 numpy arithmetic; big integers only appear at scheme
boundaries (encryption scaling, decryption rounding), exactly as in RNS
variants of SEAL.

Beyond plain decompose/compose this module provides the three *exact*
vectorized primitives the RNS-native BFV hot path is built on:

* :meth:`RNSBasis.compose` / :meth:`RNSBasis.compose_centered` — CRT
  reconstruction through 16-bit limb accumulation, carry propagation, and a
  single ``int.from_bytes`` per coefficient (no per-prime Python loop);
* :meth:`RNSBasis.conversion_to` — exact base conversion into another RNS
  basis (the HPS/BEHZ ``FastBConv`` with the q-overflow count ``alpha``
  recovered exactly, not approximately);
* :class:`DigitDecomposer` — base-``2^w`` digit decomposition of composed
  coefficients straight from residues, vectorized over the whole polynomial.

All three share one trick for the overflow count: ``alpha =
floor(sum_i v_i / p_i)`` (or, centered, its ``rint``) is evaluated in
float64 with a provable error bound far below the detection threshold,
and the rare coefficients that land near a rounding boundary are settled
by an exact limb-space sign test.  The result is bit-for-bit identical to textbook CRT while
the common path stays pure numpy.
"""

from __future__ import annotations

import numpy as np

_LIMB_BITS = 16
_LIMB_MASK = (1 << _LIMB_BITS) - 1

# Distance from a float64 overflow-count estimate to the nearest rounding
# boundary below which we recompute exactly.  The accumulated float error
# is bounded by ~k * 2^-50 (k <= 64 primes), orders of magnitude smaller.
_ALPHA_GUARD = 1e-9


def _to_limbs(value: int, count: int) -> np.ndarray:
    """Little-endian 16-bit limbs of a nonnegative integer."""
    limbs = np.zeros(count, dtype=np.int64)
    for i in range(count):
        limbs[i] = value & _LIMB_MASK
        value >>= _LIMB_BITS
    if value:
        raise ValueError("value does not fit the limb budget")
    return limbs


class RNSBasis:
    """A fixed list of pairwise-coprime word-sized primes with CRT tables."""

    def __init__(self, primes: list[int]):
        if len(set(primes)) != len(primes):
            raise ValueError("RNS primes must be distinct")
        self.primes = list(primes)
        self.modulus = 1
        for p in self.primes:
            self.modulus *= p
        # Garner-style reconstruction tables: m_i = M / p_i and its inverse.
        self._m_over_p = [self.modulus // p for p in self.primes]
        self._m_over_p_inv = [
            pow(m, -1, p) for m, p in zip(self._m_over_p, self.primes)
        ]
        self._primes_arr = np.array(self.primes, dtype=np.int64)
        self._primes_col = self._primes_arr[:, None]
        self._inv_primes_f = 1.0 / self._primes_arr.astype(np.float64)
        self._inv_col = np.array(self._m_over_p_inv, dtype=np.int64)[:, None]
        # 16-bit limb tables for exact vectorized reconstruction.  The
        # float64 copies feed BLAS matrix products that are provably exact:
        # every product is below 2^47 and every partial sum below 2^53, so
        # each intermediate is an exactly representable integer.
        self._limb_count = (self.modulus.bit_length() // _LIMB_BITS) + 2
        self._m_over_p_limbs = np.stack(
            [_to_limbs(m, self._limb_count) for m in self._m_over_p]
        )  # (k, L)
        self._m_limbs_f = self._m_over_p_limbs.T.astype(np.float64)  # (L, k)
        self._modulus_limbs = _to_limbs(self.modulus, self._limb_count)
        self._conversions: dict[int, _BaseConversion] = {}

    def __len__(self) -> int:
        return len(self.primes)

    def __repr__(self) -> str:
        bits = self.modulus.bit_length()
        return f"RNSBasis({len(self.primes)} primes, {bits}-bit modulus)"

    def decompose(self, coeffs: list[int] | np.ndarray) -> np.ndarray:
        """Map integer coefficients to a residue matrix of shape (..., k, N).

        Accepts arbitrarily large Python ints (negative values are reduced
        into ``[0, p)`` per prime, consistent with values mod ``M``).
        Word-sized inputs take a fully vectorized path, including batched
        ``(..., N)`` coefficient stacks.
        """
        if not isinstance(coeffs, np.ndarray) or coeffs.dtype == object:
            try:
                coeffs = np.asarray(coeffs, dtype=np.int64)
            except (OverflowError, TypeError):
                columns = [
                    np.array([c % p for c in coeffs], dtype=np.int64)
                    for p in self.primes
                ]
                return np.stack(columns, axis=0)
        return np.asarray(coeffs, dtype=np.int64)[..., None, :] % self._primes_col

    # ------------------------------------------------------------------
    # Exact vectorized reconstruction
    # ------------------------------------------------------------------

    def _garner_lift(self, residues: np.ndarray) -> np.ndarray:
        """``v_i = r_i * (M/p_i)^{-1} mod p_i`` — the CRT mixing weights."""
        return residues * self._inv_col % self._primes_col

    def overflow_counts(
        self, v: np.ndarray, centered: bool = False
    ) -> np.ndarray:
        """Exact ``alpha`` with ``x = sum_i v_i*(M/p_i) - alpha*M``.

        ``alpha = floor(sum_i v_i/p_i)`` puts ``x`` in ``[0, M)``;
        ``centered=True`` adds one more ``M`` whenever ``x > M/2``, placing
        ``x`` in ``(-M/2, M/2]``.  The float64 estimate has error far below
        ``_ALPHA_GUARD``, so it is exact except for coefficients landing
        within the guard of a rounding boundary; those are settled by an
        exact (still vectorized) limb-space sign test.  ``v`` is the
        ``(k, cols)`` Garner lift, as integers or (no copy) as float64.

        The centered count is ``rint(sum_i v_i/p_i)``, whose only rounding
        boundary is ``x`` near ``M/2``.  Values tiny relative to ``M`` —
        a tensor product or an RNS floor-division quotient carried in a
        much wider basis — sit next to an integer, which is a boundary of
        the uncentered floor but not of the centered round, so they never
        reach the limb test.
        """
        vf = np.asarray(v, dtype=np.float64)
        frac = self._inv_primes_f @ vf
        if centered:
            alpha = np.rint(frac).astype(np.int64)
            floor = np.floor(frac)
            near_half = np.abs(frac - floor - 0.5) < _ALPHA_GUARD
            if near_half.any():
                # x vs M/2 via the sign of 2*S - (2*floor+1)*M (M is odd,
                # so x == M/2 never occurs and the sign is decisive; frac
                # is ~1/2 away from an integer, so its floor is exact).
                cols = np.nonzero(near_half)[0]
                base = floor[cols].astype(np.int64)
                below = self._limb_sign_negative(
                    vf[:, cols], 2 * base + 1, scale=2
                )
                alpha[cols] = base + (~below)
            return alpha
        alpha = np.floor(frac).astype(np.int64)
        near_floor = np.abs(frac - np.rint(frac)) < _ALPHA_GUARD
        if near_floor.any():
            # x = S - B*M with B = rint(frac) is either in [0, M) (alpha=B)
            # or negative (alpha=B-1); the sign of S - B*M decides exactly.
            cols = np.nonzero(near_floor)[0]
            boundary = np.rint(frac[cols]).astype(np.int64)
            negative = self._limb_sign_negative(vf[:, cols], boundary, scale=1)
            alpha[cols] = boundary - negative
        return alpha

    def _limb_sign_negative(
        self, vf: np.ndarray, multiple: np.ndarray, scale: int
    ) -> np.ndarray:
        """Exact sign of ``scale * sum_i v_i*(M/p_i) - multiple * M``.

        Evaluated in 16-bit limb space with carry propagation; the final
        borrow is the sign bit.  Vectorized over however many columns need
        the exact test (the limb dot product runs as an exact float64
        BLAS multiply; ``scale <= 2`` keeps sums below 2^53).
        """
        acc = (self._m_limbs_f @ vf * scale).astype(np.int64)
        acc -= multiple[None, :] * self._modulus_limbs[:, None]
        carry = np.zeros(acc.shape[1], dtype=np.int64)
        for l in range(acc.shape[0]):
            carry = (acc[l] + carry) >> _LIMB_BITS
        return carry < 0

    def _limbs(
        self,
        residues: np.ndarray,
        vf: np.ndarray | None = None,
        alpha: np.ndarray | None = None,
    ):
        """Exact 16-bit limbs of each composed coefficient ``x in [0, M)``.

        Returns ``(limbs, alpha)`` where ``limbs`` has shape ``(L, N)``.
        Centered callers subtract ``M`` afterwards in Python space (see
        :meth:`compose_centered`).  Callers that already hold the float
        lift and/or overflow counts can pass them to avoid recomputation.
        """
        if vf is None:
            vf = self._garner_lift(residues).astype(np.float64)
        if alpha is None:
            alpha = self.overflow_counts(vf)
        acc = (self._m_limbs_f @ vf).astype(np.int64)
        acc -= alpha[None, :] * self._modulus_limbs[:, None]
        limbs = np.empty_like(acc)
        carry = np.zeros(acc.shape[1], dtype=np.int64)
        for l in range(acc.shape[0]):
            cur = acc[l] + carry
            limbs[l] = cur & _LIMB_MASK
            carry = cur >> _LIMB_BITS
        if carry.any():
            raise AssertionError("limb reconstruction overflowed its budget")
        return limbs, alpha

    def compose(self, residues: np.ndarray) -> list[int]:
        """Reconstruct coefficients in ``[0, M)`` from a (k, N) residue matrix."""
        k, _ = residues.shape
        if k != len(self.primes):
            raise ValueError("residue matrix does not match basis size")
        limbs, _ = self._limbs(residues)
        raw = np.ascontiguousarray(limbs.astype(np.uint16).T).tobytes()
        width = 2 * limbs.shape[0]
        return [
            int.from_bytes(raw[j * width : (j + 1) * width], "little")
            for j in range(residues.shape[1])
        ]

    def compose_centered(self, residues: np.ndarray) -> list[int]:
        """Reconstruct signed coefficients in ``(-M/2, M/2]``."""
        half = self.modulus // 2
        modulus = self.modulus
        return [
            c - modulus if c > half else c for c in self.compose(residues)
        ]

    # ------------------------------------------------------------------
    # Exact base conversion
    # ------------------------------------------------------------------

    def conversion_to(self, target: "RNSBasis") -> "_BaseConversion":
        """A cached exact converter from this basis into ``target``."""
        conv = self._conversions.get(id(target))
        if conv is None:
            conv = _BaseConversion(self, target)
            self._conversions[id(target)] = conv
        return conv


class _BaseConversion:
    """Exact base conversion ``source -> target`` with precomputed tables.

    Converts a (k_src, N) residue matrix into the (k_tgt, N) residues of
    the *exact* integer the source residues represent — the canonical
    representative in ``[0, M)`` or, with ``centered=True``, in
    ``(-M/2, M/2]``.  This is fast base conversion with the overflow count
    computed exactly (see :meth:`RNSBasis.overflow_counts`), so unlike the
    approximate BEHZ ``FastBConv`` no spurious multiples of ``M`` leak into
    the target residues.
    """

    def __init__(self, source: RNSBasis, target: RNSBasis):
        self.source = source
        self.target = target
        # (k_src, k_tgt): (M/p_i) mod P_j   and   (k_tgt,): M mod P_j
        weights = np.array(
            [
                [m % pj for pj in target.primes]
                for m in source._m_over_p
            ],
            dtype=np.int64,
        )
        # hi/lo 16-bit split so the k_src-term dot products run as exact
        # float64 BLAS products: v < 2^31, w_hi < 2^15, w_lo < 2^16 ->
        # every product < 2^47 and every partial sum < 2^53.
        self._w_hi_f = (weights >> _LIMB_BITS).T.astype(np.float64)
        self._w_lo_f = (weights & _LIMB_MASK).T.astype(np.float64)
        self._modulus_mod = np.array(
            [source.modulus % pj for pj in target.primes], dtype=np.int64
        )
        self._target_col = target._primes_col

    def __call__(
        self, residues: np.ndarray, centered: bool = False
    ) -> np.ndarray:
        vf = self.source._garner_lift(residues).astype(np.float64)
        alpha = self.source.overflow_counts(vf, centered=centered)
        p_col = self._target_col
        s_hi = (self._w_hi_f @ vf).astype(np.int64)
        s_lo = (self._w_lo_f @ vf).astype(np.int64)
        acc = ((s_hi % p_col) << _LIMB_BITS) + s_lo
        acc -= alpha[None, :] * self._modulus_mod[:, None]
        return acc % p_col


class DigitDecomposer:
    """Base-``2^w`` digits of composed coefficients, straight from residues.

    Key switching needs the digits of each coefficient of ``c in [0, q)``.
    A textbook implementation composes every coefficient to a Python big
    int and shifts; this class reconstructs the 16-bit limbs of every coefficient
    vectorized (exact, via the shared overflow-count machinery) and gathers
    each ``w``-bit digit from at most three adjacent limbs with shifts and
    masks — no Python-level per-coefficient work at all.
    """

    def __init__(self, basis: RNSBasis, digit_bits: int, digit_count: int):
        if not 1 <= digit_bits <= 32:
            raise ValueError("digit width must be between 1 and 32 bits")
        self.basis = basis
        self.digit_bits = digit_bits
        self.digit_count = digit_count
        # per digit: (first limb index, bit offset into it)
        self._anchors = [
            ((d * digit_bits) // _LIMB_BITS, (d * digit_bits) % _LIMB_BITS)
            for d in range(digit_count)
        ]

    def digits(self, residues: np.ndarray) -> np.ndarray:
        """``(digit_count, N)`` int64 matrix of base-``2^w`` digits."""
        limbs, _ = self.basis._limbs(residues)
        count = limbs.shape[0]
        w = self.digit_bits
        mask = (1 << w) - 1
        out = np.empty((self.digit_count, residues.shape[1]), dtype=np.int64)
        for d, (j0, offset) in enumerate(self._anchors):
            if j0 >= count:
                out[d] = 0
                continue
            value = limbs[j0] >> offset
            have = _LIMB_BITS - offset
            j = j0 + 1
            while have < w and j < count:
                value = value | (limbs[j] << have)
                have += _LIMB_BITS
                j += 1
            out[d] = value & mask
        return out


def centered(value: int, modulus: int) -> int:
    """Map ``value mod modulus`` to the centered range ``(-q/2, q/2]``."""
    v = value % modulus
    if v > modulus // 2:
        v -= modulus
    return v
