"""The BFV cryptosystem: keygen, encryption, and homomorphic evaluation.

This module is the substrate equivalent of SEAL's ``Evaluator`` /
``Encryptor`` / ``Decryptor`` stack, with :class:`BFVTables` as its
``SEALContext``: one read-only set of ring tables per parameter set,
shared by every context's keys.  It implements textbook BFV (Fan &
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
digits vectorized and transforms the ``(digits, N)`` digit matrix once
for every prime (``BatchNTT.forward(..., width=w)``).  Both are
bit-for-bit identical to the textbook big-integer formulation; that
formulation lives outside the package, as the test suite's equivalence
oracle (``tests/he/reference_bfv.py``), which the runtime benchmark also
measures speedups against.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.he.arena import pin_allocator
from repro.he.encoder import BatchEncoder
from repro.he.errors import HEError, NoiseBudgetExhausted
from repro.he.keys import GaloisKeys, KSwitchKey, PublicKey, SecretKey
from repro.he.ntt import BatchNTT
from repro.he.params import BFVParams
from repro.he.poly import RingContext, RingElement
from repro.he.primes import find_ntt_primes
from repro.he.rns import _LIMB_BITS, _LIMB_MASK, DigitDecomposer


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


def _freeze(obj, seen: set[int]) -> None:
    """Make every array reachable through ``obj``'s attributes read-only."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        obj.flags.writeable = False
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _freeze(item, seen)
    elif isinstance(obj, dict):
        for item in obj.values():
            _freeze(item, seen)
    elif hasattr(obj, "__dict__"):
        for item in vars(obj).values():
            _freeze(item, seen)


class BFVTables:
    """The key-independent half of a BFV context.

    The q ring and its transform, the extension ring of the exact tensor,
    the base conversions between them, the rescale and decrypt tables and
    the digit decomposer depend on the parameters alone, as do SEAL's
    ``SEALContext`` tables.  :func:`shared_tables` builds them once per
    parameter set, and every context, key and thread of that set reads
    the one copy.  Every array is read-only: an in-place write raises.
    """

    def __init__(
        self,
        poly_degree: int,
        plain_modulus: int,
        coeff_primes: tuple[int, ...],
        decomp_bits: int,
    ):
        n, t = poly_degree, plain_modulus
        self.ring = RingContext(n, list(coeff_primes))
        q = self.ring.modulus
        digit_count = math.ceil(q.bit_length() / decomp_bits)
        self.digit_decomposer = DigitDecomposer(
            self.ring.basis, decomp_bits, digit_count
        )
        ext = self.ext_ring = _extension_ring(n, t, q, coeff_primes)
        # residue tables for the RNS ``round(t/q * .)`` rescale
        self.conv_q_to_ext = self.ring.basis.conversion_to(ext.basis)
        self.conv_ext_to_q = ext.basis.conversion_to(self.ring.basis)
        self.t_mod_ext = np.array(
            [t % p for p in ext.basis.primes], dtype=np.int64
        )[:, None]
        self.half_q_mod_ext = np.array(
            [(q // 2) % p for p in ext.basis.primes], dtype=np.int64
        )[:, None]
        self.q_inv_ext = np.array(
            [pow(q % p, -1, p) for p in ext.basis.primes], dtype=np.int64
        )[:, None]
        # v_i * (E/p_i) mod p_i undoes the Garner lift (exact fallback)
        self.e_over_p_mod = np.array(
            [w % p for w, p in zip(ext.basis._m_over_p, ext.basis.primes)],
            dtype=np.int64,
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
            [[om % pj for om in omegas] for pj in coeff_primes],
            dtype=np.int64,
        )  # (k_q, k_ext)
        self.sr_w_hi_f = (omega_mod >> 16).astype(np.float64)
        self.sr_w_lo_f = (omega_mod & 0xFFFF).astype(np.float64)
        self.sr_theta = np.array(thetas, dtype=np.float64)
        big = t * e_mod
        self.sr_cap_omega_mod = np.array(
            [(big // q) % pj for pj in coeff_primes],
            dtype=np.int64,
        )[:, None]
        self.sr_cap_theta = float((big % q) / q)
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
        self.dec_omega_hi_f = (omega_arr >> 16).astype(np.float64)
        self.dec_omega_lo_f = (omega_arr & 0xFFFF).astype(np.float64)
        self.dec_theta = np.array(dec_theta, dtype=np.float64)
        self.t_mod_q = np.array(
            [t % p for p in coeff_primes], dtype=np.int64
        )[:, None]
        _freeze(self, set())

    @functools.cached_property
    def tensor_inverse(self) -> BatchNTT:
        """The tensor's inverse NTT with the CRT weights ``(E/p_i)^-1``
        folded into its last table, so it emits the rescale's Garner lift
        directly.  Built on the first ciphertext multiply: programs
        without one never hold its table."""
        ext = self.ext_ring
        twin = ext.batch_ntt.scaled_inverse(ext.basis._m_over_p_inv)
        _freeze(twin, set())
        return twin


def _extension_ring(
    n: int, t: int, q: int, coeff_primes: tuple[int, ...]
) -> RingContext:
    """RNS basis big enough for exact integer tensor products.

    BFV multiplication forms integer products of centered ciphertext
    polynomials; coefficients are bounded by ``N * q^2`` (Karatsuba
    operand sums reach ``q``), and the RNS rescale additionally needs
    headroom for ``t * tensor + q/2``, so the extension modulus exceeds
    ``t * N * q^2`` with margin.
    """
    # |tensor| <= 1.5*N*q^2 (Karatsuba cross term), the rescale handles
    # A = t*T + q/2; two extra bits of margin on top of 2*|A|.
    needed = 12 * t * n * q * q
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
    overlap = set(primes) & set(coeff_primes)
    if overlap:
        raise HEError(f"extension primes collide with coeff primes: {overlap}")
    return RingContext(n, primes)


@functools.lru_cache(maxsize=None)
def shared_tables(
    poly_degree: int,
    plain_modulus: int,
    coeff_primes: tuple[int, ...],
    decomp_bits: int,
) -> BFVTables:
    """The one :class:`BFVTables` of a parameter set, built on first use.

    Keyed by the fields the tables depend on, so presets that differ only
    in name or error width share them.
    """
    return BFVTables(poly_degree, plain_modulus, coeff_primes, decomp_bits)


class BFVContext:
    """One key pair plus every homomorphic operation over it.

    Every operation runs RNS-native on int64 residue matrices.  The
    equivalence tests pin the ciphertexts, plaintexts and noise budgets
    bit for bit to a textbook big-integer BFV that shares this context's
    keys (``tests/he/reference_bfv.py``).
    """

    def __init__(self, params: BFVParams, seed: int | None = None):
        pin_allocator()
        self.params = params
        # rings, transforms and rescale tables are one shared copy per
        # parameter set; the context owns only its RNG and its keys
        tables = self.tables = shared_tables(
            params.poly_degree,
            params.plain_modulus,
            tuple(params.coeff_primes),
            params.decomp_bits,
        )
        self.ring = tables.ring
        self.encoder = BatchEncoder(params)
        self._ext_ring = tables.ext_ring
        self._digit_decomposer = tables.digit_decomposer
        self._rng = np.random.default_rng(seed)
        self.q = params.coeff_modulus
        self.t = params.plain_modulus
        self.delta = self.q // self.t
        self._digit_count = self._digit_decomposer.digit_count
        # digits load once for every prime while the shared-row transform
        # is exact at their width (every preset); wider ones go per prime
        self._shared_digits = (
            params.decomp_bits <= self.ring.batch_ntt.max_shared_width
        )
        # key-switch MAC overflow budget: how many products of canonical
        # (< p) residues an int64 sum holds
        pmax = max(params.coeff_primes)
        self._mac_digits = ((1 << 63) - 1) // (pmax - 1) ** 2
        self._keygen()
        self.galois_keys = GaloisKeys()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

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
        # one batched transform primes every NTT cache the masking sums
        # need (the public-key products pull the adds into the evaluation
        # domain)
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

    def _noise_element(self, ct: Ciphertext) -> RingElement:
        """``c0 + c1*s (+ c2*s^2)`` as a ring element."""
        s = self.secret_key.s
        acc = ct.parts[0] + ct.parts[1] * s
        if ct.size == 3:
            acc = acc + ct.parts[2] * (s * s)
        return acc

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
        acc = self._noise_element(ct)
        budget = None
        if want_budget or check_budget:
            budget = self._budget_bits(self.q, self._noise_magnitude(ct, acc))
            if check_budget and budget <= 0:
                raise NoiseBudgetExhausted(
                    f"ciphertext noise budget exhausted: budget {budget} "
                    "bits; decryption would corrupt",
                    min_budget=budget,
                    params_name=self.params.name,
                )
            if not want_budget:
                budget = None
        return Plaintext(self._decrypt_round(acc.residues)), budget

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
        s_hi = (self.tables.dec_omega_hi_f @ vf).astype(np.int64)
        s_lo = (self.tables.dec_omega_lo_f @ vf).astype(np.int64)
        integer = ((s_hi % t) << 16) + s_lo
        frac = self.tables.dec_theta @ vf
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
        coefficients, found through exact 16-bit limb reconstruction and a
        vectorized lexicographic scan, with no per-coefficient Python
        arithmetic.
        """
        if acc is None:
            acc = self._noise_element(ct)
        basis = self.ring.basis
        # x = t*c mod q, via residues (p_i | q keeps this exact)
        cols = acc.residues * self.tables.t_mod_q % self.ring._primes_col
        vf = basis._garner_lift(cols).astype(np.float64)
        plain = basis.overflow_counts(vf)
        flip = (
            basis.overflow_counts(vf, centered=True) != plain
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
        m_scaled = pt.lift(self.ring, self.t).scalar_mul(self.delta)
        parts = [ct.parts[0].add(m_scaled, out_domain)]
        parts += [p.copy() for p in ct.parts[1:]]
        return Ciphertext(parts)

    def sub_plain(
        self, ct: Ciphertext, pt: Plaintext, out_domain: str | None = None
    ) -> Ciphertext:
        m_scaled = pt.lift(self.ring, self.t).scalar_mul(self.delta)
        parts = [ct.parts[0].sub(m_scaled, out_domain)]
        parts += [p.copy() for p in ct.parts[1:]]
        return Ciphertext(parts)

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
        product = Ciphertext(self._tensor_rns(ct1, ct2))
        if relinearize:
            product = self.relinearize(product, out_domain=out_domain)
        return product

    def _tensor_rns(self, ct1: Ciphertext, ct2: Ciphertext) -> list[RingElement]:
        """Vectorized tensor-and-rescale in the extended RNS basis.

        The operand parts are base-converted (exactly, centered) into the
        extension basis and tensored with one batched forward NTT: a
        general product transforms four parts and takes Karatsuba's three
        pointwise products; a square (``ct1 is ct2``) transforms two and
        forms ``a0^2``, ``a1^2`` and ``a0*a1``, doubled into the cross
        term.  The inverse NTT carries the CRT weights ``(E/p_i)^-1``, so
        it hands the rescale Garner-lifted values and the product never
        leaves int64 residue land.
        """
        ext = self._ext_ring
        n = self.params.poly_degree
        square = ct1 is ct2
        cts = (ct1,) if square else (ct1, ct2)
        stack = np.stack(
            [part.residues for ct in cts for part in ct.parts]
        )  # (2 or 4, k, n)
        tab = self.tables
        converted = tab.conv_q_to_ext(self._cols(stack), centered=True)
        k_ext = len(ext.basis)
        operands = np.moveaxis(converted.reshape(k_ext, len(stack), n), 0, -2)
        evals = ext.batch_ntt.forward(operands, assume_reduced=True)
        p_col = ext._primes_col
        if square:
            fa0, fa1 = evals
            pairs = ((fa0, fa0), (fa0, fa1), (fa1, fa1))
        else:
            fa0, fa1, fb0, fb1 = evals
            fsa = RingElement._mod_add(fa0, fa1, p_col)
            fsb = RingElement._mod_add(fb0, fb1, p_col)
            pairs = ((fa0, fb0), (fsa, fsb), (fa1, fb1))
        products = np.stack([x * y % p_col for x, y in pairs])
        lifted = tab.tensor_inverse.inverse(products, assume_reduced=True)
        # the cross term: 2*a0*a1 for a square, else Karatsuba's
        # (a0+a1)*(b0+b1) - a0*b0 - a1*b1 (v_i is linear in T)
        if square:
            lifted[1] = RingElement._mod_add(lifted[1], lifted[1], p_col)
        else:
            lifted[1] = RingElement._mod_sub(
                RingElement._mod_sub(lifted[1], lifted[0], p_col),
                lifted[2],
                p_col,
            )
        # (3, k_ext, n) -> (k_ext, 3n) float64 in one pass, so the rescale
        # sweeps all three tensor parts at once
        vf = np.empty((k_ext, 3, n))
        vf[...] = np.moveaxis(lifted, 0, 1)
        rescaled = self._rns_rescale(vf.reshape(k_ext, 3 * n))
        k = len(self.ring.basis)
        parts = np.moveaxis(rescaled.reshape(k, 3, n), 0, -2)
        return [
            RingElement(self.ring, np.ascontiguousarray(parts[i]))
            for i in range(3)
        ]

    def _rns_rescale(self, vf: np.ndarray) -> np.ndarray:
        """``round(t * T / q) mod q`` from Garner-lifted residues, exactly.

        ``vf`` holds (as float64) the CRT weights ``v_i = T * (E/p_i)^-1
        mod p_i`` of the tensor ``T`` in the extension basis, one column
        per coefficient; the tensor's inverse NTT emits them directly.
        HPS-style scale-and-round: with ``T = sum_i v_i*(E/P_i) -
        alpha*E`` (``alpha`` exact, ``T`` centered), ``t*T/q`` splits into
        an integer part — accumulated mod each q-prime through exact
        float64 BLAS dot products against ``omega_i = floor(t*(E/P_i)/q)``
        — plus a small real ``sum_i v_i*theta_i - alpha*Theta`` whose
        rounding is decided in float64.  ``q`` is odd so exact .5 ties are
        impossible; columns within the float guard band of a boundary get
        their residues back (``v_i * (E/p_i)``) and are recomputed through
        the exact floor-division path.  Bit-identical to the big-integer
        ``(t*T + q//2) // q`` of textbook BFV.
        """
        ext = self._ext_ring
        tab = self.tables
        alpha = ext.basis.overflow_counts(vf, centered=True)
        p_col = self.ring._primes_col
        s_hi = (tab.sr_w_hi_f @ vf).astype(np.int64)
        s_lo = (tab.sr_w_lo_f @ vf).astype(np.int64)
        integer = ((s_hi % p_col) << 16) + s_lo
        integer -= alpha[None, :] * tab.sr_cap_omega_mod
        frac = tab.sr_theta @ vf - alpha * tab.sr_cap_theta
        frac_floor = np.floor(frac)
        d = frac - frac_floor
        rounded = (frac_floor + (d > 0.5)).astype(np.int64)
        out = (integer + rounded[None, :]) % p_col
        risky = np.abs(d - 0.5) < 1e-5
        if risky.any():
            cols = np.nonzero(risky)[0]
            v = vf[:, cols].astype(np.int64)
            residues = v * tab.e_over_p_mod % ext._primes_col
            out[:, cols] = self._rns_rescale_exact(residues)
        return out

    def _rns_rescale_exact(self, tensor_res: np.ndarray) -> np.ndarray:
        """Exact RNS floor-division rescale (guard-band fallback path).

        Writes the rounding as ``floor((t*T + q/2) / q)``: the remainder
        ``r = A mod q`` is recovered through an exact ext->q conversion
        (its q-basis residues *are* ``A mod p_i``), lifted back, and
        ``(A - r) * q^{-1}`` evaluated in the extension basis where ``q``
        is invertible.
        """
        tab = self.tables
        p_col = self._ext_ring._primes_col
        a = (tensor_res * tab.t_mod_ext + tab.half_q_mod_ext) % p_col
        r_q = tab.conv_ext_to_q(a, centered=True)
        r_ext = tab.conv_q_to_ext(r_q)
        quot = (a - r_ext) % p_col * tab.q_inv_ext % p_col
        return tab.conv_ext_to_q(quot, centered=True)

    def relinearize(
        self, ct: Ciphertext, out_domain: str | None = None
    ) -> Ciphertext:
        """Fold the quadratic part of a 3-part ciphertext back to 2 parts."""
        if ct.size == 2:
            return ct.copy()
        d0, d1 = self._key_switch(ct.parts[2], self.relin_key)
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

    def rotate_rows(self, ct: Ciphertext, steps: int) -> Ciphertext:
        """Rotate both batching rows left by ``steps`` (negative = right)."""
        if ct.size != 2:
            raise HEError("rotate expects a relinearized (2-part) ciphertext")
        steps = steps % self.encoder.row_size
        if steps == 0:
            return ct.copy()
        g = self.encoder.galois_element_for_rotation(steps)
        return self._apply_galois(ct, g)

    def rotate_columns(self, ct: Ciphertext) -> Ciphertext:
        """Swap the two batching rows."""
        if ct.size != 2:
            raise HEError("rotate expects a relinearized (2-part) ciphertext")
        return self._apply_galois(ct, self.encoder.galois_element_row_swap)

    def _apply_galois(self, ct: Ciphertext, galois_elt: int) -> Ciphertext:
        self.generate_galois_key(galois_elt)
        key = self.galois_keys.get(galois_elt)
        # c0 permutes evaluation rows (cached on the input wire, so R
        # rotations of one ciphertext transform it once), while c1 routes
        # through the coefficient domain — digit decomposition needs
        # coefficients regardless, and the inverse transform also caches
        # on the input wire.
        c0g = ct.parts[0].automorphism(galois_elt, domains="eval")
        c1g = ct.parts[1].automorphism(galois_elt, domains="coeff")
        d0, d1 = self._key_switch(c1g, key)
        return Ciphertext([c0g + d0, d1])

    def _key_switch(
        self, poly: RingElement, key: KSwitchKey
    ) -> tuple[RingElement, RingElement]:
        """Inner product of base-T digits with an NTT-domain switch key.

        Digit decomposition is vectorized (no big-int compose), the
        ``(digits, N)`` digit matrix goes through one shared-row forward
        transform for every prime, and the multiply-accumulate sums into two
        fresh ``(k, N)`` accumulators.  They stay in the evaluation domain:
        the returned elements inverse-transform only if a consumer needs
        coefficients.  Digits too wide for the shared-row transform's exact
        range transform as a reduced ``(digits, k, N)`` copy instead.
        """
        ring = self.ring
        digits = self._digit_decomposer.digits(poly.residues)
        if self._shared_digits:
            evals = ring.batch_ntt.forward(digits, width=self.params.decomp_bits)
        else:
            stack = digits[:, None, :] % ring._primes_col
            evals = ring.batch_ntt.forward(stack, assume_reduced=True)
        return (
            RingElement(ring, eval_rows=self._mac(evals, key._stack_0)),
            RingElement(ring, eval_rows=self._mac(evals, key._stack_1)),
        )

    def _mac(self, evals: np.ndarray, key_stack: np.ndarray) -> np.ndarray:
        """``sum_j evals[j] * key_stack[j] mod p`` into one ``(k, N)`` array.

        ``einsum`` sums the products without a ``(digits, k, N)``
        temporary.  Canonical residues multiply to at most ``(p-1)^2``, so
        ``_mac_digits`` products sum exactly in int64; more digits than
        that (never on the presets) accumulate in reduced chunks.
        """
        p_col = self.ring._primes_col
        step = self._mac_digits
        acc = np.einsum("dkn,dkn->kn", evals[:step], key_stack[:step])
        np.remainder(acc, p_col, out=acc)
        for j in range(step, len(evals), step):
            part = np.einsum(
                "dkn,dkn->kn", evals[j : j + step], key_stack[j : j + step]
            )
            np.remainder(part, p_col, out=part)
            np.add(acc, part, out=acc)
            np.remainder(acc, p_col, out=acc)
        return acc

    @staticmethod
    def _check_sizes(ct1: Ciphertext, ct2: Ciphertext) -> None:
        if ct1.size != ct2.size:
            raise HEError(
                f"ciphertext sizes differ ({ct1.size} vs {ct2.size}); "
                "relinearize first"
            )
