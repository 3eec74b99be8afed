"""Property tests pinning the RNS-native hot path to the big-int oracle.

Every vectorized primitive introduced for the RNS runtime — limb-based
CRT composition, exact base conversion, digit decomposition, the batched
NTT, the evaluation-domain automorphism, and the full
multiply/key-switch/rotate pipeline — must agree *bit-for-bit* with the
textbook big-integer implementation (:mod:`tests.he.reference_bfv`),
including boundary-hugging values where float shortcuts would round the
wrong way.  The oracle is built over the context under test
(``ReferenceBFV.sharing``): it shares the keys and leaves the context
untouched, so a failing reference call cannot leak into later tests.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.he import BFVContext, toy_params
from repro.he.ntt import BatchNTT, NTTContext
from repro.he.params import BFVParams, large_params, small_params
from repro.he.poly import RingContext
from repro.he.primes import find_ntt_primes
from repro.he.rns import DigitDecomposer, RNSBasis
from tests.he.reference_bfv import (
    ReferenceBFV,
    compose_centered_schoolbook,
    compose_schoolbook,
)

BASIS = RNSBasis(find_ntt_primes(4, 27, 64))
WIDE = RNSBasis(find_ntt_primes(11, 26, 64))
M = BASIS.modulus


def _boundary_values():
    return [0, 1, 2, M - 1, M - 2, M // 2, M // 2 + 1, M // 2 - 1]


# ---------------------------------------------------------------------------
# Exact vectorized CRT reconstruction
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, M - 1), min_size=1, max_size=40))
def test_compose_matches_schoolbook(values):
    residues = BASIS.decompose(values)
    assert BASIS.compose(residues) == compose_schoolbook(BASIS, residues)
    assert BASIS.compose_centered(residues) == compose_centered_schoolbook(
        BASIS, residues
    )


def test_compose_boundary_values():
    values = _boundary_values()
    residues = BASIS.decompose(values)
    assert BASIS.compose(residues) == values
    assert BASIS.compose_centered(residues) == [
        v - M if v > M // 2 else v for v in values
    ]


# ---------------------------------------------------------------------------
# Exact base conversion
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-(M // 2) + 1, M // 2), min_size=1, max_size=32))
def test_base_conversion_exact(values):
    residues = BASIS.decompose(values)
    conv = BASIS.conversion_to(WIDE)
    plain = conv(residues)
    centered = conv(residues, centered=True)
    for j, pj in enumerate(WIDE.primes):
        assert list(plain[j]) == [v % M % pj for v in values]
        assert list(centered[j]) == [v % pj for v in values]


def test_base_conversion_tiny_values_through_wide_basis():
    """Values tiny relative to the modulus sit on the float guard band for
    *every* coefficient; the exact limb sign test must settle them all."""
    random.seed(7)
    tiny = [0, 1, 2, -1] + [random.randrange(-(10**9), 10**9) for _ in range(500)]
    residues = WIDE.decompose(tiny)
    out = WIDE.conversion_to(BASIS)(residues, centered=True)
    for j, pj in enumerate(BASIS.primes):
        assert list(out[j]) == [v % pj for v in tiny]


# ---------------------------------------------------------------------------
# Digit decomposition
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("width", [13, 16, 20, 24, 32])
def test_digit_decomposition_matches_shifts(width):
    random.seed(width)
    count = math.ceil(M.bit_length() / width)
    decomposer = DigitDecomposer(BASIS, width, count)
    values = _boundary_values() + [random.randrange(M) for _ in range(200)]
    digits = decomposer.digits(BASIS.decompose(values))
    mask = (1 << width) - 1
    for j, v in enumerate(values):
        for d in range(count):
            assert int(digits[d, j]) == (v >> (width * d)) & mask


# ---------------------------------------------------------------------------
# Batched matrix NTT == eager per-prime NTT
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [4, 16, 128, 512])
@pytest.mark.parametrize("bits", [23, 27, 30])
def test_batch_ntt_matches_eager(n, bits):
    primes = find_ntt_primes(3, bits, 2 * n)
    ntts = [NTTContext(n, p) for p in primes]
    batch = BatchNTT(ntts)
    rng = np.random.default_rng(n + bits)
    for shape in ((3, n), (4, 3, n)):
        x = rng.integers(0, max(primes), shape)
        forward = batch.forward(x)
        inverse = batch.inverse(x)
        flat_f = forward.reshape(-1, 3, n)
        flat_i = inverse.reshape(-1, 3, n)
        flat_x = x.reshape(-1, 3, n)
        for i in range(flat_x.shape[0]):
            for j, ctx in enumerate(ntts):
                assert np.array_equal(flat_f[i, j], ctx.forward(flat_x[i, j]))
                assert np.array_equal(flat_i[i, j], ctx.inverse(flat_x[i, j]))


def test_evaluation_exponents_shared_across_primes():
    ring = RingContext(32, find_ntt_primes(3, 27, 64))
    exps = ring.evaluation_exponents()
    for ctx in ring.ntts:
        assert ctx.evaluation_exponents() == exps


@pytest.mark.parametrize("g", [3, 9, 27, 63])
def test_eval_domain_automorphism_matches_coefficient_domain(g):
    ring = RingContext(32, find_ntt_primes(3, 27, 64))
    rng = np.random.default_rng(g)
    elt = ring.from_int_coeffs(rng.integers(-500, 500, 32))
    eval_only = ring.from_eval(elt.eval_rows())
    assert eval_only.automorphism(g) == elt.automorphism(g)


# ---------------------------------------------------------------------------
# Full pipeline: RNS context == big-integer oracle, bit for bit
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ctx():
    return BFVContext(toy_params(), seed=1234)


def _assert_ct_equal(a, b):
    assert a.size == b.size
    for x, y in zip(a.parts, b.parts):
        assert x == y


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_multiply_paths_bit_identical(seed):
    context = _PROPERTY_CTX
    rng = np.random.default_rng(seed)
    a = rng.integers(-50, 51, 300)
    b = rng.integers(-50, 51, 300)
    ca, cb = context.encrypt_vector(a), context.encrypt_vector(b)
    oracle = ReferenceBFV.sharing(context)
    ref = oracle.multiply(ca, cb)
    rns = context.multiply(ca, cb)
    _assert_ct_equal(rns, ref)
    assert context.noise_budget(rns) == oracle.noise_budget(ref)
    assert np.array_equal(context.decrypt_vector(rns)[:300], a * b)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_square_paths_bit_identical(seed):
    """``multiply(ca, ca)`` takes the squaring tensor (two operand parts
    transformed, the cross term doubled); the oracle squares through
    Karatsuba like any product."""
    context = _PROPERTY_CTX
    rng = np.random.default_rng(seed)
    a = rng.integers(-50, 51, 300)
    ca = context.encrypt_vector(a)
    oracle = ReferenceBFV.sharing(context)
    ref = oracle.multiply(ca, ca)
    rns = context.multiply(ca, ca)
    _assert_ct_equal(rns, ref)
    assert context.noise_budget(rns) == oracle.noise_budget(ref)
    assert np.array_equal(context.decrypt_vector(rns)[:300], a * a)


def test_square_path_matches_general_path(ctx):
    """A copy is a different object, so it takes the general tensor."""
    rng = np.random.default_rng(16)
    ca = ctx.encrypt_vector(rng.integers(-50, 51, 64))
    for relinearize in (False, True):
        square = ctx.multiply(ca, ca, relinearize=relinearize)
        general = ctx.multiply(ca, ca.copy(), relinearize=relinearize)
        _assert_ct_equal(square, general)


@pytest.mark.parametrize("preset", [small_params, large_params])
@pytest.mark.parametrize("square", [True, False], ids=["square", "general"])
def test_multiply_bit_identical_on_secure_presets(preset, square):
    context = BFVContext(preset(), seed=21)
    rng = np.random.default_rng(22)
    a = rng.integers(-20, 21, 64)
    b = a if square else rng.integers(-20, 21, 64)
    ca = context.encrypt_vector(a)
    cb = ca if square else context.encrypt_vector(b)
    oracle = ReferenceBFV.sharing(context)
    ref = oracle.multiply(ca, cb)
    rns = context.multiply(ca, cb)
    _assert_ct_equal(rns, ref)
    assert context.noise_budget(rns) == oracle.noise_budget(ref)
    assert np.array_equal(context.decrypt_vector(rns)[:64], a * b)


@pytest.mark.parametrize("preset", [toy_params, small_params, large_params])
def test_rescale_guard_band_takes_exact_path(preset, monkeypatch):
    """Tensor coefficients whose ``t*T/q`` sits within 1e-5 of a half
    integer must be settled by the exact floor-division fallback, and
    must still round exactly like the big-integer formula."""
    context = BFVContext(preset(), seed=3)
    q, t, n = context.q, context.t, context.params.poly_degree
    rng = random.Random(preset.__name__)
    crafted = []
    for _ in range(40):
        m = rng.randrange(-(t * n * q) // 4, (t * n * q) // 4)
        crafted.append(q * (2 * m + 1) // (2 * t) + rng.randrange(-3, 4))
    bound = n * q * q // 4
    plain = [rng.randrange(-bound, bound) for _ in range(40)] + [0, 1, -1]
    tensor = crafted + plain
    for value in crafted:
        frac = (t * value % q) / q
        assert abs(frac - 0.5) < 1e-5
    basis = context._ext_ring.basis
    v = basis._garner_lift(basis.decompose(tensor))

    seen = []
    exact = context._rns_rescale_exact

    def spy(residues):
        seen.append(residues.shape[1])
        return exact(residues)

    monkeypatch.setattr(context, "_rns_rescale_exact", spy)
    out = context._rns_rescale(v.astype(np.float64))
    assert seen == [len(crafted)]
    expected = context.ring.basis.decompose(
        [(t * value + q // 2) // q for value in tensor]
    )
    assert np.array_equal(out, expected)


def test_centered_counts_of_tiny_values_need_no_limb_test(monkeypatch):
    """Tiny values sit next to an integer multiple of the modulus, a
    boundary of the uncentered count only: rounding settles them all."""
    rng = random.Random(8)
    tiny = [0, 1, -1] + [rng.randrange(-(10**12), 10**12) for _ in range(500)]
    residues = WIDE.decompose(tiny)
    v = WIDE._garner_lift(residues)

    def refuse(*args, **kwargs):
        raise AssertionError("centered count fell back to the limb test")

    monkeypatch.setattr(WIDE, "_limb_sign_negative", refuse)
    alpha = WIDE.overflow_counts(v, centered=True)
    for j, value in enumerate(tiny):
        weighted = sum(
            int(v[i, j]) * w for i, w in enumerate(WIDE._m_over_p)
        )
        assert weighted - int(alpha[j]) * WIDE.modulus == value


def test_centered_counts_near_half_use_the_limb_test(monkeypatch):
    """The one boundary of the centered count, ``x`` next to ``M/2``,
    is decided exactly in limb space."""
    half = M // 2
    values = [half + d for d in range(-3, 4)]
    calls = []
    sign = BASIS._limb_sign_negative

    def spy(vf, multiple, scale):
        calls.append(vf.shape[1])
        return sign(vf, multiple, scale)

    monkeypatch.setattr(BASIS, "_limb_sign_negative", spy)
    out = BASIS.conversion_to(WIDE)(BASIS.decompose(values), centered=True)
    assert calls and sum(calls) == len(values)
    for j, pj in enumerate(WIDE.primes):
        assert list(out[j]) == [(v - M if v > half else v) % pj for v in values]


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 400))
def test_rotate_paths_bit_identical(seed, steps):
    context = _PROPERTY_CTX
    rng = np.random.default_rng(seed)
    a = rng.integers(-50, 51, 64)
    ca = context.encrypt_vector(a)
    oracle = ReferenceBFV.sharing(context)
    ref = oracle.rotate_rows(ca, steps)
    rns = context.rotate_rows(ca, steps)
    _assert_ct_equal(rns, ref)
    assert context.noise_budget(rns) == oracle.noise_budget(ref)


def test_key_switch_paths_bit_identical(ctx):
    rng = np.random.default_rng(9)
    ca = ctx.encrypt_vector(rng.integers(-10, 11, 32))
    prod = ctx.multiply(ca, ca, relinearize=False)
    d_rns = ctx._key_switch(prod.parts[2], ctx.relin_key)
    d_ref = ReferenceBFV.sharing(ctx)._key_switch(prod.parts[2], ctx.relin_key)
    assert d_rns[0] == d_ref[0]
    assert d_rns[1] == d_ref[1]


@pytest.mark.parametrize("preset", [small_params, large_params])
def test_key_switch_paths_bit_identical_on_secure_presets(preset):
    """The shared-digit transform and the einsum MAC equal the big-int
    oracle for the relinearization key and for one Galois key (n8192's
    32-bit digits exceed its primes, n4096's do not)."""
    context = BFVContext(preset(), seed=23)
    rng = np.random.default_rng(24)
    ca = context.encrypt_vector(rng.integers(-20, 21, 64))
    g = context.encoder.galois_element_for_rotation(3)
    context.generate_galois_key(g)
    oracle = ReferenceBFV.sharing(context)
    poly = ca.parts[1]
    for key in (context.relin_key, context.galois_keys.get(g)):
        d_rns = context._key_switch(poly, key)
        d_ref = oracle._key_switch(poly, key)
        assert d_rns[0] == d_ref[0]
        assert d_rns[1] == d_ref[1]


def test_key_switch_digits_too_wide_for_the_shared_transform():
    """A secure n4096 set of 30-bit primes with the default 32-bit digits
    is past the shared-row transform's exact range (32 + 15 + 6 > 52):
    the context builds, and its per-prime digit path equals the oracle."""
    params = BFVParams(
        poly_degree=4096,
        plain_modulus=65537,
        coeff_primes=tuple(find_ntt_primes(3, 30, 8192)),
    )
    context = BFVContext(params, seed=26)
    assert params.decomp_bits > context.ring.batch_ntt.max_shared_width
    assert not context._shared_digits
    rng = np.random.default_rng(27)
    ca = context.encrypt_vector(rng.integers(-20, 21, 64))
    g = context.encoder.galois_element_for_rotation(1)
    context.generate_galois_key(g)
    oracle = ReferenceBFV.sharing(context)
    poly = ca.parts[1]
    for key in (context.relin_key, context.galois_keys.get(g)):
        d_rns = context._key_switch(poly, key)
        d_ref = oracle._key_switch(poly, key)
        assert d_rns[0] == d_ref[0]
        assert d_rns[1] == d_ref[1]
    product = context.multiply(ca, ca)
    values = context.decrypt_vector(ca)[:64]
    assert np.array_equal(context.decrypt_vector(product)[:64], values**2)


def test_key_switch_mac_in_reduced_chunks(ctx, monkeypatch):
    """With fewer products per exact int64 sum than digits (wide custom
    primes), the MAC reduces chunk by chunk and still equals the oracle."""
    rng = np.random.default_rng(25)
    ca = ctx.encrypt_vector(rng.integers(-10, 11, 32))
    poly = ctx.multiply(ca, ca, relinearize=False).parts[2]
    reference = ReferenceBFV.sharing(ctx)._key_switch(poly, ctx.relin_key)
    for digits in (1, 2):
        monkeypatch.setattr(ctx, "_mac_digits", digits)
        d_rns = ctx._key_switch(poly, ctx.relin_key)
        assert d_rns[0] == reference[0]
        assert d_rns[1] == reference[1]


def test_relinearize_paths_bit_identical(ctx):
    rng = np.random.default_rng(10)
    ca = ctx.encrypt_vector(rng.integers(-10, 11, 32))
    cb = ctx.encrypt_vector(rng.integers(-10, 11, 32))
    oracle = ReferenceBFV.sharing(ctx)
    prod_ref = oracle.multiply(ca, cb, relinearize=False)
    relin_ref = oracle.relinearize(prod_ref)
    prod_rns = ctx.multiply(ca, cb, relinearize=False)
    relin_rns = ctx.relinearize(prod_rns)
    _assert_ct_equal(prod_rns, prod_ref)
    _assert_ct_equal(relin_rns, relin_ref)


def test_encrypt_takes_one_vector(ctx):
    """A ciphertext holds one request: stacked vectors are refused."""
    with pytest.raises(ValueError):
        ctx.encrypt_vector(np.zeros((2, 8), dtype=np.int64))


# ---------------------------------------------------------------------------
# Noise-budget behaviour
# ---------------------------------------------------------------------------

def test_noise_budget_monotonicity(ctx):
    """Budgets shrink under homomorphic work and never grow along a chain."""
    rng = np.random.default_rng(12)
    ca = ctx.encrypt_vector(rng.integers(-5, 6, 32))
    cb = ctx.encrypt_vector(rng.integers(-5, 6, 32))
    fresh = ctx.noise_budget(ca)
    assert fresh > 0
    total = ctx.add(ca, cb)
    assert ctx.noise_budget(total) <= fresh + 1  # adds cost at most ~1 bit
    prod = ctx.multiply(ca, cb)
    after_mul = ctx.noise_budget(prod)
    assert after_mul < fresh  # multiplies strictly burn budget
    deeper = ctx.multiply(prod, prod)
    assert ctx.noise_budget(deeper) < after_mul
    rot = ctx.rotate_rows(ca, 3)
    assert ctx.noise_budget(rot) <= fresh  # key switch only adds noise


_PROPERTY_CTX = BFVContext(toy_params(), seed=77)
