"""The BFV cryptosystem: keygen, encryption, and homomorphic evaluation.

This module is the substrate equivalent of SEAL's ``Evaluator`` /
``Encryptor`` / ``Decryptor`` stack.  It implements textbook BFV (Fan &
Vercauteren 2012, the paper's reference [16]) with:

* public-key encryption ``ct = (p0*u + e1 + Delta*m, p1*u + e2)``,
* ciphertext-ciphertext and ciphertext-plaintext add/sub/multiply,
* relinearization of the 3-part product ciphertext using base-T digit
  decomposition,
* SIMD slot rotation via Galois automorphisms plus key switching,
* invariant-noise-budget measurement mirroring SEAL's diagnostics.

The hot path is RNS-native: ciphertext multiplication lifts the operands
into an extended RNS basis with an exact vectorized base conversion,
tensors them with batched NTTs, and performs the ``round(t/q * .)``
rescale entirely on int64 residue matrices; key switching decomposes
digits vectorized and runs one batched NTT over the whole
``(digits, k, N)`` stack.  Both are bit-for-bit identical to the textbook
big-integer formulation, which is retained behind
``BFVContext(..., slow_reference=True)`` as the equivalence oracle (and as
the baseline the runtime benchmarks measure speedups against).
"""

from __future__ import annotations

import math

import numpy as np

from repro.he.encoder import BatchEncoder
from repro.he.errors import HEError, NoiseBudgetExhausted
from repro.he.keys import GaloisKeys, KSwitchKey, PublicKey, SecretKey
from repro.he.params import BFVParams
from repro.he.poly import RingContext, RingElement, exact_negacyclic_product
from repro.he.primes import find_ntt_primes
from repro.he.rns import DigitDecomposer, centered


class Plaintext:
    """A plaintext polynomial (coefficients mod t) with a cached ring lift."""

    __slots__ = ("coeffs", "_lift")

    def __init__(self, coeffs: np.ndarray):
        self.coeffs = np.asarray(coeffs, dtype=np.int64)
        self._lift: RingElement | None = None

    def freeze(self) -> "Plaintext":
        """Make the coefficient vector read-only (for shared caches)."""
        self.coeffs.flags.writeable = False
        return self

    def lift(self, ring: RingContext, t: int) -> RingElement:
        """Centered lift of the plaintext into R_q (noise-minimal)."""
        if self._lift is None:
            half = t // 2
            signed = np.where(self.coeffs > half, self.coeffs - t, self.coeffs)
            self._lift = ring.from_int_coeffs(signed)
        return self._lift


class Ciphertext:
    """A BFV ciphertext: 2 (or transiently 3) ring elements."""

    __slots__ = ("parts",)

    def __init__(self, parts: list[RingElement]):
        if len(parts) not in (2, 3):
            raise HEError("ciphertexts must have 2 or 3 parts")
        self.parts = parts

    @property
    def size(self) -> int:
        return len(self.parts)

    def copy(self) -> "Ciphertext":
        return Ciphertext([p.copy() for p in self.parts])


class BFVContext:
    """One key pair plus every homomorphic operation over it.

    ``slow_reference=True`` routes ciphertext multiplication and key
    switching through the retained big-integer textbook path; the default
    RNS-native path produces bit-identical ciphertexts (the equivalence
    tests pin this on every seed kernel).
    """

    def __init__(
        self,
        params: BFVParams,
        seed: int | None = None,
        slow_reference: bool = False,
    ):
        self.params = params
        self.slow_reference = slow_reference
        self.ring = RingContext(params.poly_degree, list(params.coeff_primes))
        self.encoder = BatchEncoder(params)
        self._rng = np.random.default_rng(seed)
        self.q = params.coeff_modulus
        self.t = params.plain_modulus
        self.delta = self.q // self.t
        self._digit_count = math.ceil(self.q.bit_length() / params.decomp_bits)
        self._digit_decomposer = DigitDecomposer(
            self.ring.basis, params.decomp_bits, self._digit_count
        )
        # key-switch MAC overflow budget for int64 accumulation of
        # canonical (< p) NTT outputs times canonical key residues
        pmax = max(params.coeff_primes)
        self._mac_needs_reduce = self._digit_count * pmax**2 >= 1 << 63
        # base-T digits below every prime are already canonical residues,
        # so the key-switch digit stack can skip its reduction entirely
        self._digits_canonical = (1 << params.decomp_bits) <= min(
            params.coeff_primes
        )
        self._ext_ring = self._build_extension_ring()
        self._init_rescale_tables()
        self._keygen()
        self.galois_keys = GaloisKeys()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def _build_extension_ring(self) -> RingContext:
        """RNS basis big enough for exact integer tensor products.

        BFV multiplication forms integer products of centered ciphertext
        polynomials; coefficients are bounded by ``N * q^2`` (Karatsuba
        operand sums reach ``q``), and the RNS rescale additionally needs
        headroom for ``t * tensor + q/2``, so the extension modulus exceeds
        ``t * N * q^2`` with margin.
        """
        n = self.params.poly_degree
        # |tensor| <= 1.5*N*q^2 (Karatsuba cross term), the rescale handles
        # A = t*T + q/2; two extra bits of margin on top of 2*|A|.
        needed = 12 * self.t * n * self.q * self.q
        count = needed.bit_length() // 25 + 1
        primes = find_ntt_primes(count, 26, 2 * n)
        while count > 1:
            product = 1
            for p in primes[: count - 1]:
                product *= p
            if product <= needed:
                break
            count -= 1
        primes = primes[:count]
        overlap = set(primes) & set(self.params.coeff_primes)
        if overlap:
            raise HEError(f"extension primes collide with coeff primes: {overlap}")
        return RingContext(n, primes)

    def _init_rescale_tables(self) -> None:
        """Residue tables for the RNS ``round(t/q * .)`` rescale."""
        ext = self._ext_ring
        q, t = self.q, self.t
        self._conv_q_to_ext = self.ring.basis.conversion_to(ext.basis)
        self._conv_ext_to_q = ext.basis.conversion_to(self.ring.basis)
        self._t_mod_ext = np.array(
            [t % p for p in ext.basis.primes], dtype=np.int64
        )[:, None]
        self._half_q_mod_ext = np.array(
            [(q // 2) % p for p in ext.basis.primes], dtype=np.int64
        )[:, None]
        self._q_inv_ext = np.array(
            [pow(q % p, -1, p) for p in ext.basis.primes], dtype=np.int64
        )[:, None]
        # HPS scale-and-round tables: t*(E/P_i)/q = omega_i + theta_i with
        # omega_i integer (kept mod each q-prime, 16-bit hi/lo split for
        # exact float64 BLAS dots) and theta_i in [0, 1) as float64.
        e_mod = ext.basis.modulus
        omegas = []
        thetas = []
        for w in ext.basis._m_over_p:  # E / P_i
            num = t * w
            omegas.append(num // q)
            thetas.append((num % q) / q)
        omega_mod = np.array(
            [[om % pj for om in omegas] for pj in self.params.coeff_primes],
            dtype=np.int64,
        )  # (k_q, k_ext)
        self._sr_w_hi_f = (omega_mod >> 16).astype(np.float64)
        self._sr_w_lo_f = (omega_mod & 0xFFFF).astype(np.float64)
        self._sr_theta = np.array(thetas, dtype=np.float64)
        big = t * e_mod
        self._sr_cap_omega_mod = np.array(
            [(big // q) % pj for pj in self.params.coeff_primes],
            dtype=np.int64,
        )[:, None]
        self._sr_cap_theta = float((big % q) / q)
        # decryption scale-and-round tables: t*(q/p_i)/q = omega + theta
        # with the integer parts kept mod t (t < 2^30, v < 2^31: products
        # stay float64-exact).  The alpha term t*q/q = t vanishes mod t.
        dec_omega = []
        dec_theta = []
        for w in self.ring.basis._m_over_p:  # q / p_i
            num = t * w
            dec_omega.append((num // q) % t)
            dec_theta.append((num % q) / q)
        omega_arr = np.array(dec_omega, dtype=np.int64)
        self._dec_omega_hi_f = (omega_arr >> 16).astype(np.float64)
        self._dec_omega_lo_f = (omega_arr & 0xFFFF).astype(np.float64)
        self._dec_theta = np.array(dec_theta, dtype=np.float64)
        self._t_mod_q = np.array(
            [t % p for p in self.params.coeff_primes], dtype=np.int64
        )[:, None]

    def _sample_ternary(self) -> RingElement:
        coeffs = self._rng.integers(-1, 2, self.params.poly_degree)
        return self.ring.from_int_coeffs(coeffs)

    def _sample_error(self) -> RingElement:
        std = self.params.error_std
        raw = self._rng.normal(0.0, std, self.params.poly_degree)
        clipped = np.clip(np.rint(raw), -6 * std, 6 * std).astype(np.int64)
        return self.ring.from_int_coeffs(clipped)

    def _sample_uniform(self) -> RingElement:
        rows = [
            self._rng.integers(0, p, self.params.poly_degree, dtype=np.int64)
            for p in self.params.coeff_primes
        ]
        return RingElement(self.ring, np.stack(rows))

    def _keygen(self) -> None:
        s = self._sample_ternary()
        a = self._sample_uniform()
        e = self._sample_error()
        self.secret_key = SecretKey(s)
        self.public_key = PublicKey(p0=-(a * s + e), p1=a)
        self.relin_key = self._make_kswitch_key(s * s)

    def _make_kswitch_key(self, source_secret: RingElement) -> KSwitchKey:
        """Key switching ``source_secret -> s`` with base-T digits."""
        pairs = []
        factor = 1
        for _ in range(self._digit_count):
            a = self._sample_uniform()
            e = self._sample_error()
            k0 = -(a * self.secret_key.s + e) + source_secret.scalar_mul(factor)
            pairs.append((k0, a))
            factor <<= self.params.decomp_bits
        return KSwitchKey(pairs)

    def generate_galois_key(self, galois_elt: int) -> None:
        if galois_elt not in self.galois_keys:
            rotated_secret = self.secret_key.s.automorphism(galois_elt)
            self.galois_keys.add(galois_elt, self._make_kswitch_key(rotated_secret))

    # ------------------------------------------------------------------
    # Encode / encrypt / decrypt
    # ------------------------------------------------------------------

    def encode(self, values) -> Plaintext:
        return Plaintext(self.encoder.encode(values))

    def decode(self, plaintext: Plaintext, signed: bool = True) -> np.ndarray:
        return self.encoder.decode(plaintext.coeffs, signed=signed)

    def encrypt(self, plaintext: Plaintext) -> Ciphertext:
        """Public-key encryption of one plaintext."""
        u = self._sample_ternary()
        e1 = self._sample_error()
        e2 = self._sample_error()
        m_scaled = plaintext.lift(self.ring, self.t).scalar_mul(self.delta)
        if not self.slow_reference:
            # one batched transform primes every NTT cache the masking
            # sums need (the public-key products pull the adds into the
            # evaluation domain)
            self.ring.prime_evals([u, e1, e2, m_scaled])
        c0 = self.public_key.p0 * u + e1 + m_scaled
        c1 = self.public_key.p1 * u + e2
        return Ciphertext([c0, c1])

    def encrypt_vector(self, values) -> Ciphertext:
        return self.encrypt(self.encode(values))

    @staticmethod
    def _cols(residues: np.ndarray) -> np.ndarray:
        """``(parts, k, n) -> (k, parts * n)`` copy for the RNS primitives."""
        return np.moveaxis(residues, -2, 0).reshape(residues.shape[-2], -1)

    def _compose(self, residues: np.ndarray) -> list[int]:
        """Exact coefficient reconstruction, seed path under the oracle."""
        if self.slow_reference:
            return self.ring.basis.compose_schoolbook(residues)
        return self.ring.basis.compose(residues)

    def _noise_element(self, ct: Ciphertext) -> RingElement:
        """``c0 + c1*s (+ c2*s^2)`` as a ring element."""
        s = self.secret_key.s
        acc = ct.parts[0] + ct.parts[1] * s
        if ct.size == 3:
            acc = acc + ct.parts[2] * (s * s)
        return acc

    def _noise_poly(self, ct: Ciphertext) -> list[int]:
        """Coefficients of ``c0 + c1*s (+ c2*s^2)`` in ``[0, q)``."""
        return self._compose(self._noise_element(ct).residues)

    def decrypt(self, ct: Ciphertext, check_budget: bool = True) -> Plaintext:
        plaintext, _ = self.decrypt_with_budgets(
            ct, check_budget=check_budget, want_budget=check_budget
        )
        return plaintext

    def decrypt_with_budgets(
        self,
        ct: Ciphertext,
        check_budget: bool = True,
        want_budget: bool = True,
    ) -> tuple[Plaintext, int | None]:
        """Decrypt and measure the noise budget in one pass.

        Shares the ``c0 + c1*s`` evaluation between the budget check and
        the rounding step (the executor's epilogue needs both, and
        recomputing the noise element doubles the decryption cost).
        """
        q, t = self.q, self.t
        acc = self._noise_element(ct)
        budget = None
        if want_budget or check_budget:
            budget = self._budget_bits(q, self._noise_magnitude(ct, acc))
            if check_budget and budget <= 0:
                raise NoiseBudgetExhausted(
                    f"ciphertext noise budget exhausted: budget {budget} "
                    "bits; decryption would corrupt",
                    min_budget=budget,
                    params_name=self.params.name,
                )
            if not want_budget:
                budget = None
        if self.slow_reference:
            w = self.ring.basis.compose_schoolbook(acc.residues)
            coeffs = np.array(
                [(t * c + q // 2) // q % t for c in w], dtype=np.int64
            )
        else:
            coeffs = self._decrypt_round(acc.residues)
        return Plaintext(coeffs), budget

    def _decrypt_round(self, residues: np.ndarray) -> np.ndarray:
        """``round(t * c / q) mod t`` straight from q-basis residues.

        HPS scale-and-round with target modulus ``t``: the overflow term
        ``alpha * (t*q)/q = alpha * t`` vanishes mod ``t``, so only the
        per-prime integer parts (exact float64 dots mod ``t``) and a small
        float fractional sum remain; guard-band columns fall back to the
        big-int formula.  Bit-identical to ``(t*c + q//2) // q % t``.
        """
        q, t = self.q, self.t
        basis = self.ring.basis
        v = basis._garner_lift(residues)
        vf = v.astype(np.float64)
        s_hi = (self._dec_omega_hi_f @ vf).astype(np.int64)
        s_lo = (self._dec_omega_lo_f @ vf).astype(np.int64)
        integer = ((s_hi % t) << 16) + s_lo
        frac = self._dec_theta @ vf
        frac_floor = np.floor(frac)
        d = frac - frac_floor
        rounded = (frac_floor + (d > 0.5)).astype(np.int64)
        out = (integer + rounded) % t
        risky = np.abs(d - 0.5) < 1e-5
        if risky.any():
            cols = np.nonzero(risky)[0]
            exact = basis.compose(residues[:, cols])
            out[cols] = [(t * c + q // 2) // q % t for c in exact]
        return out

    def decrypt_vector(self, ct: Ciphertext, signed: bool = True) -> np.ndarray:
        return self.decode(self.decrypt(ct), signed=signed)

    def _noise_magnitude(
        self, ct: Ciphertext, acc: RingElement | None = None
    ) -> int:
        """Max invariant-noise magnitude of one ciphertext.

        The magnitude is ``max |centered(t*c mod q, q)|`` over the
        coefficients; the RNS path finds the maximum through exact 16-bit
        limb reconstruction and a vectorized lexicographic scan, with no
        per-coefficient Python arithmetic.
        """
        q, t = self.q, self.t
        if acc is None:
            acc = self._noise_element(ct)
        if self.slow_reference:
            w = self.ring.basis.compose_schoolbook(acc.residues)
            return max(abs(centered(t * c % q, q)) for c in w)
        from repro.he.rns import _LIMB_BITS, _LIMB_MASK

        basis = self.ring.basis
        # x = t*c mod q, via residues (p_i | q keeps this exact)
        cols = acc.residues * self._t_mod_q % self.ring._primes_col
        v = basis._garner_lift(cols)
        vf = v.astype(np.float64)
        plain = basis.overflow_counts(v, vf=vf)
        flip = (
            basis.overflow_counts(v, centered=True, vf=vf) != plain
        )  # x > q/2
        limbs, _ = basis._limbs(cols, vf=vf, alpha=plain)
        # q - x in limb space (borrow-propagated subtraction)
        diff = basis._modulus_limbs[:, None] - limbs
        comp = np.empty_like(diff)
        borrow = np.zeros(diff.shape[1], dtype=np.int64)
        for level in range(diff.shape[0]):
            cur = diff[level] + borrow
            comp[level] = cur & _LIMB_MASK
            borrow = cur >> _LIMB_BITS
        mags = np.where(flip[None, :], comp, limbs)
        live = np.arange(mags.shape[1])
        for level in range(mags.shape[0] - 1, -1, -1):
            row = mags[level, live]
            live = live[row == row.max()]
            if len(live) == 1:
                break
        best = mags[:, live[0]]
        max_u = 0
        for level in range(mags.shape[0] - 1, -1, -1):
            max_u = (max_u << _LIMB_BITS) | int(best[level])
        return max_u

    @staticmethod
    def _budget_bits(q: int, max_u: int) -> int:
        if max_u == 0:
            return q.bit_length() - 1
        return max(0, (q // (2 * max_u)).bit_length() - 1)

    def noise_budget(self, ct: Ciphertext) -> int:
        """Bits of invariant-noise headroom (0 means decryption may fail)."""
        return self._budget_bits(self.q, self._noise_magnitude(ct))

    # ------------------------------------------------------------------
    # Homomorphic operations
    # ------------------------------------------------------------------

    def add(
        self,
        ct1: Ciphertext,
        ct2: Ciphertext,
        out_domain: str | None = None,
    ) -> Ciphertext:
        self._check_sizes(ct1, ct2)
        return Ciphertext(
            [a.add(b, out_domain) for a, b in zip(ct1.parts, ct2.parts)]
        )

    def sub(
        self,
        ct1: Ciphertext,
        ct2: Ciphertext,
        out_domain: str | None = None,
    ) -> Ciphertext:
        self._check_sizes(ct1, ct2)
        return Ciphertext(
            [a.sub(b, out_domain) for a, b in zip(ct1.parts, ct2.parts)]
        )

    def negate(self, ct: Ciphertext) -> Ciphertext:
        return Ciphertext([-p for p in ct.parts])

    def add_plain(
        self, ct: Ciphertext, pt: Plaintext, out_domain: str | None = None
    ) -> Ciphertext:
        lift = self._plain_operand(pt, out_domain)
        m_scaled = lift.scalar_mul(self.delta)
        parts = [ct.parts[0].add(m_scaled, out_domain)]
        parts += [p.copy() for p in ct.parts[1:]]
        return Ciphertext(parts)

    def sub_plain(
        self, ct: Ciphertext, pt: Plaintext, out_domain: str | None = None
    ) -> Ciphertext:
        lift = self._plain_operand(pt, out_domain)
        m_scaled = lift.scalar_mul(self.delta)
        parts = [ct.parts[0].sub(m_scaled, out_domain)]
        parts += [p.copy() for p in ct.parts[1:]]
        return Ciphertext(parts)

    def _plain_operand(
        self, pt: Plaintext, out_domain: str | None
    ) -> RingElement:
        """The plaintext's ring lift, with its NTT cache primed if the
        plan wants the evaluation domain.

        The lazy path forward-transforms the *transient* scaled operand
        on every call; priming the cached lift instead pays the transform
        once per plaintext (``scalar_mul`` scales every cached form)."""
        lift = pt.lift(self.ring, self.t)
        if out_domain == "eval":
            lift.eval_rows()
        return lift

    def multiply_plain(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        lift = pt.lift(self.ring, self.t)
        return Ciphertext([p * lift for p in ct.parts])

    def multiply(
        self,
        ct1: Ciphertext,
        ct2: Ciphertext,
        relinearize: bool = True,
        out_domain: str | None = None,
    ) -> Ciphertext:
        """BFV multiply: exact integer tensor, rescale by t/q, relinearize."""
        if ct1.size != 2 or ct2.size != 2:
            raise HEError("multiply expects relinearized (2-part) operands")
        if self.slow_reference:
            parts = self._tensor_reference(ct1, ct2)
        else:
            parts = self._tensor_rns(ct1, ct2)
        product = Ciphertext(parts)
        if relinearize:
            product = self.relinearize(product, out_domain=out_domain)
        return product

    def _tensor_rns(self, ct1: Ciphertext, ct2: Ciphertext) -> list[RingElement]:
        """Vectorized tensor-and-rescale in the extended RNS basis.

        The four operand parts are base-converted (exactly, centered) into
        the extension basis, tensored with one batched forward NTT and
        Karatsuba's three pointwise products, and rescaled without ever
        leaving int64 residue land.
        """
        ext = self._ext_ring
        n = self.params.poly_degree
        # one conversion call over all four parts
        stack = np.stack(
            [part.residues for ct in (ct1, ct2) for part in ct.parts]
        )  # (4, k, n)
        converted = self._conv_q_to_ext(self._cols(stack), centered=True)
        k_ext = len(ext.basis)
        operands = np.moveaxis(converted.reshape(k_ext, 4, n), 0, -2)
        fa0, fa1, fb0, fb1 = ext.batch_ntt.forward(operands, assume_reduced=True)
        p_col = ext._primes_col
        fsa = RingElement._mod_add(fa0, fa1, p_col)
        fsb = RingElement._mod_add(fb0, fb1, p_col)
        products = np.stack(
            [fa0 * fb0 % p_col, fa1 * fb1 % p_col, fsa * fsb % p_col]
        )
        t00, t11, tss = ext.batch_ntt.inverse(products, assume_reduced=True)
        t01 = RingElement._mod_sub(
            RingElement._mod_sub(tss, t00, p_col), t11, p_col
        )
        # rescale all three tensor parts in one vectorized sweep
        tensors = np.stack([t00, t01, t11])  # (3, k_ext, n)
        rescaled = self._rns_rescale(self._cols(tensors))
        k = len(self.ring.basis)
        parts = np.moveaxis(rescaled.reshape(k, 3, n), 0, -2)
        return [
            RingElement(self.ring, np.ascontiguousarray(parts[i]))
            for i in range(3)
        ]

    def _rns_rescale(self, tensor_res: np.ndarray) -> np.ndarray:
        """``round(t * T / q) mod q`` on extension-basis residues, exactly.

        HPS-style scale-and-round: with ``T = sum_i v_i*(E/P_i) - alpha*E``
        (``alpha`` exact, ``T`` centered), ``t*T/q`` splits into an integer
        part — accumulated mod each q-prime through exact float64 BLAS dot
        products against ``omega_i = floor(t*(E/P_i)/q)`` — plus a small
        real ``sum_i v_i*theta_i - alpha*Theta`` whose rounding is decided
        in float64.  ``q`` is odd so exact .5 ties are impossible; columns
        within the float guard band of a boundary are recomputed through
        the exact floor-division path.  Bit-identical to the big-integer
        ``(t*v + q//2) // q`` of the reference path, vectorized over
        however many columns the caller concatenates.
        """
        basis = self._ext_ring.basis
        v = basis._garner_lift(tensor_res)
        vf = v.astype(np.float64)
        alpha = basis.overflow_counts(v, centered=True, vf=vf)
        p_col = self.ring._primes_col
        s_hi = (self._sr_w_hi_f @ vf).astype(np.int64)
        s_lo = (self._sr_w_lo_f @ vf).astype(np.int64)
        integer = ((s_hi % p_col) << 16) + s_lo
        integer -= alpha[None, :] * self._sr_cap_omega_mod
        frac = self._sr_theta @ vf - alpha * self._sr_cap_theta
        frac_floor = np.floor(frac)
        d = frac - frac_floor
        rounded = (frac_floor + (d > 0.5)).astype(np.int64)
        out = (integer + rounded[None, :]) % p_col
        risky = np.abs(d - 0.5) < 1e-5
        if risky.any():
            cols = np.nonzero(risky)[0]
            out[:, cols] = self._rns_rescale_exact(tensor_res[:, cols])
        return out

    def _rns_rescale_exact(self, tensor_res: np.ndarray) -> np.ndarray:
        """Exact RNS floor-division rescale (guard-band fallback path).

        Writes the rounding as ``floor((t*T + q/2) / q)``: the remainder
        ``r = A mod q`` is recovered through an exact ext->q conversion
        (its q-basis residues *are* ``A mod p_i``), lifted back, and
        ``(A - r) * q^{-1}`` evaluated in the extension basis where ``q``
        is invertible.
        """
        ext = self._ext_ring
        p_col = ext._primes_col
        a = (tensor_res * self._t_mod_ext + self._half_q_mod_ext) % p_col
        r_q = self._conv_ext_to_q(a, centered=True)
        r_ext = self._conv_q_to_ext(r_q)
        quot = (a - r_ext) % p_col * self._q_inv_ext % p_col
        return self._conv_ext_to_q(quot, centered=True)

    def _tensor_reference(
        self, ct1: Ciphertext, ct2: Ciphertext
    ) -> list[RingElement]:
        """Textbook big-integer tensor-and-rescale (the equivalence oracle).

        This is the seed implementation kept byte-for-byte in behavior —
        per-coefficient Garner composition, Python-int Karatsuba sums, and
        big-int rescale — so the equivalence tests pin the RNS path to it
        and the runtime benchmarks measure speedups against it honestly.
        """
        basis = self.ring.basis
        a0 = basis.compose_centered_schoolbook(ct1.parts[0].residues)
        a1 = basis.compose_centered_schoolbook(ct1.parts[1].residues)
        b0 = basis.compose_centered_schoolbook(ct2.parts[0].residues)
        b1 = basis.compose_centered_schoolbook(ct2.parts[1].residues)
        # Karatsuba: three exact products instead of four.
        p00 = exact_negacyclic_product(a0, b0, self._ext_ring, schoolbook=True)
        p11 = exact_negacyclic_product(a1, b1, self._ext_ring, schoolbook=True)
        asum = [x + y for x, y in zip(a0, a1)]
        bsum = [x + y for x, y in zip(b0, b1)]
        pss = exact_negacyclic_product(
            asum, bsum, self._ext_ring, schoolbook=True
        )
        p01 = [s - x - y for s, x, y in zip(pss, p00, p11)]
        return [
            self._rescale_to_ring(p00),
            self._rescale_to_ring(p01),
            self._rescale_to_ring(p11),
        ]

    def _rescale_to_ring(self, coeffs: list[int]) -> RingElement:
        """``round(t * v / q) mod q`` applied coefficient-wise (big-int)."""
        q, t = self.q, self.t
        scaled = [(t * v + q // 2) // q for v in coeffs]
        return self.ring.from_int_coeffs(scaled)

    def relinearize(
        self, ct: Ciphertext, out_domain: str | None = None
    ) -> Ciphertext:
        """Fold the quadratic part of a 3-part ciphertext back to 2 parts."""
        if ct.size == 2:
            return ct.copy()
        d0, d1 = self._key_switch(ct.parts[2], self.relin_key)
        if self.slow_reference:
            return Ciphertext([ct.parts[0] + d0, ct.parts[1] + d1])
        if out_domain == "coeff":
            # the tensor parts already hold coefficients, so when every
            # consumer demands that domain it is cheaper to pull the two
            # key-switch accumulators *back* than to push the parts forward
            self.ring.prime_coeffs([d0, d1])
            return Ciphertext(
                [
                    ct.parts[0].add(d0, "coeff"),
                    ct.parts[1].add(d1, "coeff"),
                ]
            )
        # d0/d1 arrive in NTT form; prime both target parts' caches in
        # one batched transform so the adds stay in the NTT domain.
        self.ring.prime_evals([ct.parts[0], ct.parts[1]])
        return Ciphertext([ct.parts[0] + d0, ct.parts[1] + d1])

    def rotate_rows(
        self, ct: Ciphertext, steps: int, planned: bool = False
    ) -> Ciphertext:
        """Rotate both batching rows left by ``steps`` (negative = right)."""
        if ct.size != 2:
            raise HEError("rotate expects a relinearized (2-part) ciphertext")
        steps = steps % self.encoder.row_size
        if steps == 0:
            return ct.copy()
        g = self.encoder.galois_element_for_rotation(steps)
        return self._apply_galois(ct, g, planned=planned)

    def rotate_columns(self, ct: Ciphertext, planned: bool = False) -> Ciphertext:
        """Swap the two batching rows."""
        if ct.size != 2:
            raise HEError("rotate expects a relinearized (2-part) ciphertext")
        return self._apply_galois(
            ct, self.encoder.galois_element_row_swap, planned=planned
        )

    def _apply_galois(
        self, ct: Ciphertext, galois_elt: int, planned: bool = False
    ) -> Ciphertext:
        self.generate_galois_key(galois_elt)
        key = self.galois_keys.get(galois_elt)
        if planned and not self.slow_reference:
            # Planned routing: c0 permutes cached evaluation rows (the
            # hoisted form below), while c1 routes through the coefficient
            # domain — digit decomposition needs coefficients regardless,
            # and the inverse transform caches on the *input* wire, so R
            # rotations of one ciphertext pay it once instead of R times.
            c0g = ct.parts[0].automorphism(galois_elt, domains="eval")
            c1g = ct.parts[1].automorphism(galois_elt, domains="coeff")
            d0, d1 = self._key_switch(c1g, key)
            return Ciphertext([c0g + d0, d1])
        if not self.slow_reference:
            # Hoist: materialise c0's NTT form on the *input* ciphertext so
            # repeated rotations of the same ciphertext permute the cached
            # evaluation rows instead of re-transforming (c0g + d0 happens
            # in the evaluation domain either way).
            ct.parts[0].eval_rows()
        c0g = ct.parts[0].automorphism(galois_elt)
        c1g = ct.parts[1].automorphism(galois_elt)
        d0, d1 = self._key_switch(c1g, key)
        return Ciphertext([c0g + d0, d1])

    def _key_switch(
        self, poly: RingElement, key: KSwitchKey
    ) -> tuple[RingElement, RingElement]:
        if self.slow_reference:
            return self._key_switch_reference(poly, key)
        return self._key_switch_rns(poly, key)

    def _key_switch_rns(
        self, poly: RingElement, key: KSwitchKey
    ) -> tuple[RingElement, RingElement]:
        """Inner product of base-T digits with an NTT-domain switch key.

        Digit decomposition is vectorized (no big-int compose), the whole
        ``(digits, k, N)`` stack goes through one batched forward NTT, and
        the accumulators stay in the evaluation domain — the returned
        elements inverse-transform only if a consumer needs coefficients.
        """
        ring = self.ring
        n = self.params.poly_degree
        digits = self._digit_decomposer.digits(poly.residues)
        depth = digits.shape[0]
        shaped = digits.reshape(depth, 1, n)
        if self._digits_canonical:
            # digits < 2^T <= every prime: the broadcast across the prime
            # axis is already canonical, so the transform's working copy
            # materialises it without a division pass
            stack = np.broadcast_to(shaped, (depth, len(ring.basis), n))
        else:
            stack = shaped % ring._primes_col  # (digits, k, n)
        evals = ring.batch_ntt.forward(stack, assume_reduced=True)
        p_col = ring._primes_col
        key0, key1 = key._stack_0, key._stack_1
        if self._mac_needs_reduce:
            acc0 = np.sum(evals * key0 % p_col, axis=0) % p_col
            acc1 = np.sum(evals * key1 % p_col, axis=0) % p_col
        else:
            # digit_count * p^2 < 2^63: accumulate unreduced, reduce once
            acc0 = (evals * key0).sum(axis=0) % p_col
            acc1 = (evals * key1).sum(axis=0) % p_col
        return (
            RingElement(ring, eval_rows=acc0),
            RingElement(ring, eval_rows=acc1),
        )

    def _key_switch_reference(
        self, poly: RingElement, key: KSwitchKey
    ) -> tuple[RingElement, RingElement]:
        """Big-int digit decomposition with per-digit transforms (oracle)."""
        ring = self.ring
        bits = self.params.decomp_bits
        mask = (1 << bits) - 1
        coeffs = ring.basis.compose_schoolbook(poly.residues)
        primes_col = ring._primes_col
        acc0 = np.zeros_like(poly.residues)
        acc1 = np.zeros_like(poly.residues)
        for j in range(len(key)):
            shift = bits * j
            digit = np.array(
                [(c >> shift) & mask for c in coeffs], dtype=np.int64
            )
            digit_res = digit[None, :] % primes_col
            digit_eval = np.stack(
                [ntt.forward(digit_res[i]) for i, ntt in enumerate(ring.ntts)]
            )
            acc0 = (acc0 + digit_eval * key._ntt_cache_0[j]) % primes_col
            acc1 = (acc1 + digit_eval * key._ntt_cache_1[j]) % primes_col
        out0 = np.stack(
            [ntt.inverse(acc0[i]) for i, ntt in enumerate(ring.ntts)]
        )
        out1 = np.stack(
            [ntt.inverse(acc1[i]) for i, ntt in enumerate(ring.ntts)]
        )
        return RingElement(ring, out0), RingElement(ring, out1)

    @staticmethod
    def _check_sizes(ct1: Ciphertext, ct2: Ciphertext) -> None:
        if ct1.size != ct2.size:
            raise HEError(
                f"ciphertext sizes differ ({ct1.size} vs {ct2.size}); "
                "relinearize first"
            )
