"""Tests for ring-element arithmetic in RNS representation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.he.ntt import naive_negacyclic_convolve
from repro.he.poly import RingContext
from repro.he.primes import find_ntt_primes
from tests.he.reference_bfv import exact_negacyclic_product

N = 16
RING = RingContext(N, find_ntt_primes(2, 27, 2 * N))
Q = RING.modulus

coeff_lists = st.lists(
    st.integers(-(Q // 2), Q // 2), min_size=N, max_size=N
)


def test_zero_and_constant():
    zero = RING.zero()
    one = RING.constant(1)
    assert zero.to_int_coeffs() == [0] * N
    assert one.to_int_coeffs() == [1] + [0] * (N - 1)


def test_roundtrip_int_coeffs():
    coeffs = list(range(N))
    elt = RING.from_int_coeffs(coeffs)
    assert elt.to_int_coeffs() == coeffs


def test_centered_roundtrip():
    coeffs = [(-1) ** i * i for i in range(N)]
    elt = RING.from_int_coeffs(coeffs)
    assert elt.to_centered_coeffs() == coeffs


@settings(max_examples=30, deadline=None)
@given(coeff_lists, coeff_lists)
def test_add_sub_match_integers(a, b):
    ea, eb = RING.from_int_coeffs(a), RING.from_int_coeffs(b)
    assert (ea + eb).to_int_coeffs() == [(x + y) % Q for x, y in zip(a, b)]
    assert (ea - eb).to_int_coeffs() == [(x - y) % Q for x, y in zip(a, b)]
    assert (-ea).to_int_coeffs() == [(-x) % Q for x in a]


@settings(max_examples=15, deadline=None)
@given(coeff_lists, coeff_lists)
def test_mul_matches_naive(a, b):
    ea, eb = RING.from_int_coeffs(a), RING.from_int_coeffs(b)
    product = (ea * eb).to_int_coeffs()
    expected = naive_negacyclic_convolve(
        np.array([x % Q for x in a], dtype=object),
        np.array([x % Q for x in b], dtype=object),
        Q,
    )
    assert product == [int(c) for c in expected]


def test_scalar_mul():
    coeffs = list(range(N))
    elt = RING.from_int_coeffs(coeffs)
    assert elt.scalar_mul(7).to_int_coeffs() == [7 * c % Q for c in coeffs]
    assert elt.scalar_mul(-1).to_int_coeffs() == [(-c) % Q for c in coeffs]


@pytest.mark.parametrize("g", [3, 5, 9, 2 * N - 1])
def test_automorphism_permutes_with_signs(g):
    rng = np.random.default_rng(0)
    coeffs = [int(c) for c in rng.integers(-50, 50, N)]
    elt = RING.from_int_coeffs(coeffs)
    out = elt.automorphism(g).to_centered_coeffs()
    expected = [0] * N
    for i, c in enumerate(coeffs):
        d = i * g % (2 * N)
        if d < N:
            expected[d] += c
        else:
            expected[d - N] -= c
    assert out == expected


def test_automorphism_rejects_even_elements():
    with pytest.raises(ValueError):
        RING.from_int_coeffs([1] * N).automorphism(4)


def test_automorphism_composition():
    # sigma_g1 . sigma_g2 == sigma_{g1*g2 mod 2N}
    rng = np.random.default_rng(1)
    coeffs = [int(c) for c in rng.integers(-9, 9, N)]
    elt = RING.from_int_coeffs(coeffs)
    g1, g2 = 3, 5
    two_step = elt.automorphism(g2).automorphism(g1)
    one_step = elt.automorphism(g1 * g2 % (2 * N))
    assert two_step == one_step


def _exact_products(a, b, ext):
    """The integer product through the ring's NTT multiply and through the
    oracle's per-prime reference transforms (``ext`` is wide enough)."""
    product = ext.from_int_coeffs(a) * ext.from_int_coeffs(b)
    return product.to_centered_coeffs(), exact_negacyclic_product(a, b, ext)


def test_exact_negacyclic_product_small():
    ext = RingContext(4, find_ntt_primes(3, 26, 8))
    # (1 + x) * (1 - x^3) in Z[x]/(x^4+1): x*x^3 = x^4 = -1
    a = [1, 1, 0, 0]
    b = [1, 0, 0, -1]
    # a*b = 1 + x - x^3 - x^4 = 2 + x - x^3
    assert _exact_products(a, b, ext) == ([2, 1, 0, -1],) * 2


def test_exact_product_handles_large_values():
    ext = RingContext(4, find_ntt_primes(8, 26, 8))
    big = 10**15
    a = [big, -big, 0, big]
    b = [big, big, big, -big]
    # verify against naive integer negacyclic convolution
    expected = [0, 0, 0, 0]
    for i in range(4):
        for j in range(4):
            k = i + j
            term = a[i] * b[j]
            if k >= 4:
                expected[k - 4] -= term
            else:
                expected[k] += term
    assert _exact_products(a, b, ext) == (expected,) * 2
