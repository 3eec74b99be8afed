"""Negacyclic number-theoretic transforms, numpy-vectorized.

Both transforms here compute the same map: natural-order coefficients
``f`` of ``Z_p[x]/(x^N + 1)`` to the bit-reversed evaluations
``forward(f)[j] = f(psi^(2 * bitrev(j) + 1))`` at the odd powers of a
primitive 2N-th root ``psi``, and back.  Pointwise products in this
domain realise negacyclic convolution, i.e. ring multiplication.

* :class:`NTTContext` is the per-prime oracle: the merged-psi
  Cooley-Tukey / Gentleman-Sande butterfly pair (Longa & Naehrig,
  "Speeding up the Number Theoretic Transform for Faster Ideal
  Lattice-Based Cryptography") on int64 arrays, ``log2 N`` stages.  It
  fixes the evaluation order the encoder and automorphisms rely on.
* :class:`BatchNTT` is the runtime's transform for whole ``(..., k, N)``
  RNS stacks: Bailey's four-step decomposition as two exact float64
  matrix products per prime, so the work runs in BLAS gemms.  Its
  outputs are bit-identical to the oracle's.
  Its forward also takes integer rows that every prime shares
  (key-switch digits): step 1 is then one gemm against every prime's
  ``M1`` limbs stacked.
"""

from __future__ import annotations

import copy
from functools import lru_cache

import numpy as np

from repro.he.arena import count_ntt_rows, current_arena
from repro.he.primes import primitive_root_of_unity


def bit_reverse(value: int, bits: int) -> int:
    """Reverse the low ``bits`` bits of ``value``."""
    result = 0
    for _ in range(bits):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


@lru_cache(maxsize=None)
def bit_reverse_indices(n: int) -> np.ndarray:
    """Bit-reversal permutation of ``range(n)`` (``n`` a power of two).

    Computed vectorized (``log2 n`` shift/or passes over the whole index
    vector) and cached per size, so every per-prime NTT context of a ring
    — and every ring of the same degree — shares one read-only table.
    """
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.int64)
    rev = np.zeros(n, dtype=np.int64)
    for _ in range(bits):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    rev.flags.writeable = False
    return rev


def _power_table(base: int, exponents: np.ndarray, prime: int) -> np.ndarray:
    """``base ** exponents mod prime`` via a vectorized square-and-multiply."""
    result = np.ones(len(exponents), dtype=np.int64)
    acc = base % prime
    e = exponents.copy()
    while e.any():
        odd = (e & 1).astype(bool)
        result[odd] = result[odd] * acc % prime
        acc = acc * acc % prime
        e >>= 1
    return result


class NTTContext:
    """Per-prime transform tables for a fixed size ``n`` (a power of two)."""

    def __init__(self, n: int, prime: int):
        if n & (n - 1) != 0 or n < 2:
            raise ValueError("NTT size must be a power of two >= 2")
        if (prime - 1) % (2 * n) != 0:
            raise ValueError(f"prime {prime} is not 1 mod {2 * n}")
        if prime >= 1 << 31:
            raise ValueError("NTT primes must be below 2^31 for int64 math")
        self.n = n
        self.prime = prime
        self.psi = primitive_root_of_unity(2 * n, prime)
        self.psi_inv = pow(self.psi, -1, prime)
        self.n_inv = pow(n, -1, prime)
        rev = bit_reverse_indices(n)
        self.psi_rev = _power_table(self.psi, rev, prime)
        self.psi_inv_rev = _power_table(self.psi_inv, rev, prime)

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """Natural-order coefficients -> bit-reversed negacyclic evaluations.

        Transforms the last axis; any leading axes ride along vectorized.
        """
        a = np.asarray(coeffs, dtype=np.int64) % self.prime
        p = self.prime
        n = self.n
        t = n
        m = 1
        while m < n:
            t //= 2
            block = a.reshape(a.shape[:-1] + (m, 2 * t))
            twiddle = self.psi_rev[m : 2 * m, None]
            upper = block[..., :t].copy()
            lower = block[..., t:] * twiddle % p
            block[..., :t] = (upper + lower) % p
            block[..., t:] = (upper - lower) % p
            m *= 2
        return a

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """Bit-reversed negacyclic evaluations -> natural-order coefficients.

        Transforms the last axis; any leading axes ride along vectorized.
        """
        a = np.asarray(values, dtype=np.int64) % self.prime
        p = self.prime
        n = self.n
        t = 1
        m = n
        while m > 1:
            h = m // 2
            block = a.reshape(a.shape[:-1] + (h, 2 * t))
            twiddle = self.psi_inv_rev[h : 2 * h, None]
            upper = block[..., :t].copy()
            lower = block[..., t:].copy()
            block[..., :t] = (upper + lower) % p
            block[..., t:] = (upper - lower) % p * twiddle % p
            t *= 2
            m = h
        return a * self.n_inv % p

    def convolve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Negacyclic convolution: ``a * b mod (x^n + 1, p)``."""
        fa = self.forward(a)
        fb = self.forward(b)
        return self.inverse(fa * fb % self.prime)

    def evaluation_exponents(self) -> list[int]:
        """Odd exponent ``e_j`` with ``forward(f)[j] == f(psi^{e_j})``.

        Derived empirically by transforming the monomial ``x`` and taking
        discrete logs of the outputs, so the result stays correct whatever
        ordering convention the butterfly network produces.  Used by the
        batching encoder to map SIMD slots onto evaluation points.
        """
        probe = np.zeros(self.n, dtype=np.int64)
        probe[1] = 1
        outputs = self.forward(probe)
        dlog = {}
        acc = 1
        for e in range(2 * self.n):
            dlog[acc] = e
            acc = acc * self.psi % self.prime
        return [dlog[int(v)] for v in outputs]


def _limbs(table: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical int table ``-> (hi * 2^s, lo)`` float64 limbs, ``< 2^s``.

    The high limb is stored pre-scaled by ``2^s``: scaling by a power of
    two is exact, so products against it stay exact multiples of ``2^s``.
    """
    hi = (table >> s) << s
    return hi.astype(np.float64), (table - hi).astype(np.float64)


class BatchNTT:
    """All per-prime transforms of one ring as exact float64 matrix products.

    Operates on stacked residue arrays of shape ``(..., k, n)`` — one row
    per RNS prime, any number of leading batch axes (ciphertext parts,
    the tensor's products).  Each row is a four-step transform (Bailey, "FFTs
    in external or hierarchical memory"): with ``n = n1 * n2`` the row is
    an ``(n1, n2)`` matrix ``A`` and

        forward:  Z = ((M1 @ A) * T) @ M2^T
        inverse:  A = iM1 @ ((Z @ iM2^T) * iT)

    The psi twist, ``n^-1`` and the bit-reversed output order are folded
    into the per-prime tables (rows of ``M1``, ``T`` and ``M2`` are
    permuted so ``Z`` read row-major *is* the bit-reversed evaluation
    vector).  Every batch axis rides along the gemm columns, so a whole
    ``(4, k, n)`` tensor stack costs ``4k`` BLAS calls plus a few dozen
    elementwise passes.  Key-switch digits, integer rows shared by every
    prime, load once (``forward(..., width=w)``).

    Exactness, in three lines:

    1. Tables split into limbs ``hi * 2^s + lo`` (``s = ceil(bits/2)``),
       so each gemm sums ``max(n1, n2)`` residue-times-limb products to
       integers below ``2^52`` (asserted at construction): exact in
       float64 in any order, so BLAS blocking and threads change no bit.
    2. Limbs recombine through ``x - rint(x / p) * p``, whose float
       quotient is off by at most one: signed residues ``|x| <= p/2 + 2``.
    3. The last reduction floors ``(x + 1/2) / p``, exact below ``2^51``,
       so outputs land canonical — bit-identical to :class:`NTTContext`.
    """

    def __init__(self, ntts: list[NTTContext]):
        if not ntts:
            raise ValueError("BatchNTT needs at least one NTT context")
        n = self.n = ntts[0].n
        if any(c.n != n for c in ntts):
            raise ValueError("all NTT contexts must share one size")
        primes = [c.prime for c in ntts]
        n1 = self.n1 = 1 << ((n.bit_length() - 1) // 2)
        n2 = self.n2 = n // n1
        bits = max(primes).bit_length()
        s = self._s = -(-bits // 2)
        if (bits + 1) + s + (max(n1, n2).bit_length() - 1) > 52:
            raise ValueError(
                f"{bits}-bit primes at n={n} exceed the exact float64 "
                "range of the matrix NTT"
            )
        # widest shared rows (forward(width=...)) whose step-1 sums of
        # n1 row-times-limb products stay below 2^52
        self.max_shared_width = 52 - s - (n1.bit_length() - 1)
        self.primes = np.array(primes, dtype=np.int64)
        col = (len(primes), 1, 1)  # broadcasts over (k, rows, cols)
        p = self.primes.astype(np.float64)
        self._p = p.reshape(col)
        self._pinv = (1.0 / p).reshape(col)
        self._p_hi = (p * 2.0**s).reshape(col)
        self._pinv_hi = (1.0 / (p * 2.0**s)).reshape(col)

        two_n = 2 * n
        r1 = bit_reverse_indices(n1)[:, None]  # output row a -> k1
        r2 = bit_reverse_indices(n2)[:, None]  # output col b -> k2
        i1 = np.arange(n1)[None, :]
        i2 = np.arange(n2)[None, :]
        # psi exponents of every table entry: Z[a, b] evaluates the row
        # at psi^(2 * (r1[a] + n1 * r2[b]) + 1), input i = n2 * i1 + i2
        e_m1 = n2 * i1 * (2 * r1 + 1) % two_n  # [a, i1]
        e_t = i2 * (2 * r1 + 1) % two_n  # [a, i2]
        e_m2 = 2 * n1 * r2 * i2 % two_n  # [b, i2]
        # psi^e for e in [0, 2n) per prime: psi_rev un-permuted, then
        # psi^(n+e) = -psi^e; every table below is a gather from it
        q = self.primes[:, None]
        half = np.stack([c.psi_rev for c in ntts])[:, bit_reverse_indices(n)]
        power = np.concatenate([half, (q - half) % q], axis=1)
        inv_power = power[:, -np.arange(two_n) % two_n]  # psi^-e
        n_inv = np.array([[[c.n_inv]] for c in ntts], dtype=np.int64)
        self._m1 = np.stack(_limbs(power[:, e_m1], s))  # (2, k, n1, n1)
        self._m2t = _limbs(power[:, e_m2.T], s)
        self._im2t = _limbs(inv_power[:, e_m2], s)
        self._im1 = _limbs(inv_power[:, e_m1.T] * n_inv % q[..., None], s)
        # a signed residue (|r| <= p/2 + 2) times a canonical twiddle is
        # exact in 53 bits for primes up to ~2^27; wider ones need limbs
        shaped = (len(primes), n1, 1, n2)  # broadcast over the batch axis
        t = power[:, e_t].reshape(shaped)
        it = inv_power[:, e_t].reshape(shaped)
        pmax = max(primes)
        if (pmax // 2 + 2) * (pmax - 1) <= 1 << 53:
            self._t, self._it = t.astype(np.float64), it.astype(np.float64)
        else:
            self._t, self._it = _limbs(t, s), _limbs(it, s)

    # -- exact float64 modular arithmetic -------------------------------

    def _reduce(self, x: np.ndarray, tmp: np.ndarray, canonical=False) -> None:
        """``x <- x mod p`` in place: signed (``|x| <= p/2 + 2``) or canonical.

        Signed: ``x - rint(x / p) * p`` for integers ``|x| <= 2^53``, where
        ``x * (1/p)`` is off by under ``2/p`` so the quotient by at most
        one.  Canonical: ``x - floor((x + 1/2) / p) * p``, exact while
        ``|x| < 2^51`` keeps the quotient error under ``1/(2p)``.
        """
        if canonical:
            np.add(x, 0.5, out=tmp)
            np.multiply(tmp, self._pinv, out=tmp)
            np.floor(tmp, out=tmp)
        else:
            np.multiply(x, self._pinv, out=tmp)
            np.rint(tmp, out=tmp)
        np.multiply(tmp, self._p, out=tmp)
        np.subtract(x, tmp, out=x)

    def _combine(self, hi, lo, tmp, canonical=False) -> None:
        """``hi <- (hi + lo) mod p`` for a ``2^s``-scaled ``hi``.

        ``hi`` reduces with ``2^s``-scaled constants (exact: powers of two
        only move exponents), which leaves ``|hi| <= (p/2 + 2) 2^s``, small
        enough to add ``lo`` and reduce again.
        """
        np.multiply(hi, self._pinv_hi, out=tmp)
        np.rint(tmp, out=tmp)
        np.multiply(tmp, self._p_hi, out=tmp)
        np.subtract(hi, tmp, out=hi)
        np.add(hi, lo, out=hi)
        self._reduce(hi, tmp, canonical)

    def _twiddle(self, x, table, batch: int, lo, tmp) -> None:
        """``x <- x * table mod p`` elementwise (table broadcast on batch)."""
        x4 = self._batch_view(x, batch)
        if isinstance(table, tuple):
            np.multiply(x4, table[1], out=self._batch_view(lo, batch))
            np.multiply(x4, table[0], out=x4)
            self._combine(x, lo, tmp)
        else:
            np.multiply(x4, table, out=x4)
            self._reduce(x, tmp)

    # -- layout ---------------------------------------------------------

    def _batch_view(self, buf: np.ndarray, batch: int) -> np.ndarray:
        return buf.reshape(len(self.primes), self.n1, batch, self.n2)

    def _load(self, values, assume_reduced: bool):
        """Copy a ``(..., k, n)`` stack into float64 ``(k, n1, batch*n2)``.

        The batch axis sits between each row's two matrix axes, so every
        prime's whole stack is one wide (step ``M @ A``) or tall (step
        ``A @ M``) operand.  Returns :meth:`_workspaces` with the stack
        loaded into the first of its three slots.
        """
        x = np.asarray(values, dtype=np.int64)
        k = len(self.primes)
        if x.shape[-2:] != (k, self.n):
            raise ValueError(f"expected a (..., {k}, {self.n}) stack")
        if not assume_reduced:
            x = np.mod(x, self.primes[:, None])
        rows = x.reshape(-1, k, self.n1, self.n2)
        batch = rows.shape[0]
        bufs = self._workspaces(batch)
        np.copyto(self._batch_view(bufs[0], batch), rows.transpose(1, 2, 0, 3))
        return bufs, batch

    def _load_shared(self, rows, width: int):
        """Copy ``(batch, n)`` shared rows into slot 0's first prime.

        The rows land as one ``(n1, batch*n2)`` operand; the other primes'
        part of slot 0 stays unused (step 1 writes slots 1 and 2).
        """
        if not 1 <= width <= self.max_shared_width:
            raise ValueError(
                f"{width}-bit rows at n={self.n} exceed the exact float64 "
                f"range of the matrix NTT (at most {self.max_shared_width})"
            )
        x = np.asarray(rows, dtype=np.int64)
        if x.ndim != 2 or x.shape[1] != self.n:
            raise ValueError(f"expected a (batch, {self.n}) matrix of rows")
        batch = x.shape[0]
        bufs = self._workspaces(batch)
        np.copyto(
            bufs[0, 0].reshape(self.n1, batch, self.n2),
            x.reshape(batch, self.n1, self.n2).transpose(1, 0, 2),
        )
        return bufs, batch

    def _workspaces(self, batch: int) -> np.ndarray:
        """Three float64 ``(k, n1, batch*n2)`` buffers, stacked; counts rows.

        One array, so the last two can take a stacked gemm's output.  It
        comes from the active :class:`~repro.he.arena.ScratchArena` when
        there is one, so every transform of a tape shares it.
        """
        k = len(self.primes)
        count_ntt_rows(batch * k)
        dims = (3, k, self.n1, batch * self.n2)
        arena = current_arena()
        if arena is None:
            return np.empty(dims)
        return arena.take("ntt", dims, np.float64)

    def _store(self, x, shape, batch: int, out) -> np.ndarray:
        """Canonical ``(k, n1, batch*n2)`` workspace -> ``(..., k, n)``."""
        if out is None:
            out = np.empty(shape, dtype=np.int64)
        elif (
            out.shape != shape
            or out.dtype != np.int64
            or not out.flags.c_contiguous  # else reshape copies, losing writes
        ):
            raise ValueError(f"out must be C-contiguous int64, shape {shape}")
        np.copyto(
            out.reshape(batch, len(self.primes), self.n1, self.n2),
            self._batch_view(x, batch).transpose(2, 0, 1, 3),
            casting="unsafe",
        )
        return out

    # -- transforms -----------------------------------------------------

    def forward(
        self,
        residues: np.ndarray,
        assume_reduced: bool = False,
        out: np.ndarray | None = None,
        *,
        width: int | None = None,
    ) -> np.ndarray:
        """Coefficient stack ``(..., k, n)`` -> bit-reversed evaluations.

        ``assume_reduced=True`` promises the input is already canonical
        (every residue in ``[0, p)``), skipping the defensive entry
        reduction — callers inside the ring layer uphold this invariant
        by construction.  ``out`` (C-contiguous int64, the output's shape)
        receives the result in place; otherwise a fresh C-contiguous int64
        array is returned.

        ``width`` takes a ``(batch, n)`` matrix of integer rows in
        ``[0, 2^width)`` that every prime shares (key-switch digits) and
        returns its ``(batch, k, n)`` transform, bit-identical to that of
        the rows broadcast over the primes and reduced.  The rows load once
        and step 1 is one gemm against every prime's ``M1`` limbs stacked
        to ``(2*k*n1, n1)``, with no per-prime copy and no reduction.  Each
        prime still counts its rows (``batch * k``), as a plan predicts.
        An entry below ``2^width`` times a limb below ``2^s``, summed
        ``n1`` times, must stay below ``2^52``: wider rows than
        :attr:`max_shared_width` raise ``ValueError``.
        """
        if width is None:
            shape = np.shape(residues)
            work, batch = self._load(residues, assume_reduced)
            hi_m, lo_m = self._m1
            np.matmul(hi_m, work[0], out=work[1])
            np.matmul(lo_m, work[0], out=work[2])
        else:
            work, batch = self._load_shared(residues, width)
            shape = (batch, len(self.primes), self.n)
            # one gemm writes both limb products into the adjacent slots
            np.matmul(
                self._m1.reshape(-1, self.n1),
                work[0, 0],
                out=work[1:].reshape(-1, batch * self.n2),
            )
        a, y, lo = work
        self._combine(y, lo, a)
        self._twiddle(y, self._t, batch, lo, a)
        tall = (len(self.primes), self.n1 * batch, self.n2)
        hi_m, lo_m = self._m2t
        np.matmul(y.reshape(tall), hi_m, out=a.reshape(tall))
        np.matmul(y.reshape(tall), lo_m, out=lo.reshape(tall))
        self._combine(a, lo, y, canonical=True)
        return self._store(a, shape, batch, out)

    def inverse(
        self,
        values: np.ndarray,
        assume_reduced: bool = False,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Bit-reversed evaluation stack ``(..., k, n)`` -> coefficients.

        ``assume_reduced`` / ``out`` behave as in :meth:`forward`.
        """
        shape = np.shape(values)
        (z, w, lo), batch = self._load(values, assume_reduced)
        tall = (len(self.primes), self.n1 * batch, self.n2)
        hi_m, lo_m = self._im2t
        np.matmul(z.reshape(tall), hi_m, out=w.reshape(tall))
        np.matmul(z.reshape(tall), lo_m, out=lo.reshape(tall))
        self._combine(w, lo, z)
        self._twiddle(w, self._it, batch, lo, z)
        hi_m, lo_m = self._im1
        np.matmul(hi_m, w, out=z)
        np.matmul(lo_m, w, out=lo)
        self._combine(z, lo, w, canonical=True)
        return self._store(z, shape, batch, out)

    def scaled_inverse(self, scales) -> "BatchNTT":
        """A twin whose inverse also multiplies row ``i`` by ``scales[i]``.

        The scale folds into the inverse's last table (``iM1``, which
        already carries ``n^-1``), so the twin costs no extra pass; every
        other table is shared with this transform, not copied.
        """
        twin = copy.copy(self)
        hi, lo = self._im1
        col = self.primes[:, None, None]
        scale = np.asarray(scales, dtype=np.int64).reshape(col.shape) % col
        twin._im1 = _limbs((hi + lo).astype(np.int64) * scale % col, self._s)
        return twin


def naive_negacyclic_convolve(a, b, prime: int) -> np.ndarray:
    """Reference O(n^2) negacyclic convolution, used only in tests."""
    n = len(a)
    out = [0] * n
    for i in range(n):
        for j in range(n):
            k = i + j
            term = int(a[i]) * int(b[j])
            if k >= n:
                out[k - n] -= term
            else:
                out[k] += term
    return np.array([c % prime for c in out], dtype=np.int64)
