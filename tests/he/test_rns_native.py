"""Property tests pinning the RNS-native hot path to the big-int oracle.

Every vectorized primitive introduced for the RNS runtime — limb-based
CRT composition, exact base conversion, digit decomposition, the batched
lazy NTT, the evaluation-domain automorphism, and the full
multiply/key-switch/rotate pipeline — must agree *bit-for-bit* with the
retained schoolbook implementation (``slow_reference=True``), including
boundary-hugging values where float shortcuts would round the wrong way.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.he import BFVContext, toy_params
from repro.he.ntt import BatchNTT, NTTContext
from repro.he.poly import RingContext
from repro.he.primes import find_ntt_primes
from repro.he.rns import DigitDecomposer, RNSBasis

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
    assert BASIS.compose(residues) == BASIS.compose_schoolbook(residues)
    assert (
        BASIS.compose_centered(residues)
        == BASIS.compose_centered_schoolbook(residues)
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
# Full pipeline: RNS context == slow_reference context, bit for bit
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
    context.slow_reference = True
    ref = context.multiply(ca, cb)
    context.slow_reference = False
    rns = context.multiply(ca, cb)
    _assert_ct_equal(rns, ref)
    assert context.noise_budget(rns) == context.noise_budget(ref)
    assert np.array_equal(context.decrypt_vector(rns)[:300], a * b)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 400))
def test_rotate_paths_bit_identical(seed, steps):
    context = _PROPERTY_CTX
    rng = np.random.default_rng(seed)
    a = rng.integers(-50, 51, 64)
    ca = context.encrypt_vector(a)
    context.slow_reference = True
    ref = context.rotate_rows(ca, steps)
    context.slow_reference = False
    rns = context.rotate_rows(ca, steps)
    _assert_ct_equal(rns, ref)
    assert context.noise_budget(rns) == context.noise_budget(ref)


def test_key_switch_paths_bit_identical(ctx):
    rng = np.random.default_rng(9)
    ca = ctx.encrypt_vector(rng.integers(-10, 11, 32))
    prod = ctx.multiply(ca, ca, relinearize=False)
    d_rns = ctx._key_switch_rns(prod.parts[2], ctx.relin_key)
    d_ref = ctx._key_switch_reference(prod.parts[2], ctx.relin_key)
    assert d_rns[0] == d_ref[0]
    assert d_rns[1] == d_ref[1]


def test_relinearize_paths_bit_identical(ctx):
    rng = np.random.default_rng(10)
    ca = ctx.encrypt_vector(rng.integers(-10, 11, 32))
    cb = ctx.encrypt_vector(rng.integers(-10, 11, 32))
    ctx.slow_reference = True
    prod_ref = ctx.multiply(ca, cb, relinearize=False)
    relin_ref = ctx.relinearize(prod_ref)
    ctx.slow_reference = False
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
