"""Tests for the SIMD batching encoder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.he.encoder import BatchEncoder
from repro.he.ntt import NTTContext, naive_negacyclic_convolve
from repro.he.params import large_params, small_params, toy_params

PARAMS = toy_params()
ENC = BatchEncoder(PARAMS)
N = PARAMS.poly_degree
T = PARAMS.plain_modulus


def test_roundtrip_full_vector():
    rng = np.random.default_rng(0)
    values = rng.integers(-(T // 2), T // 2 + 1, N)
    assert np.array_equal(ENC.decode(ENC.encode(values)), values)


def test_roundtrip_partial_vector_zero_pads():
    values = np.array([5, -3, 7])
    decoded = ENC.decode(ENC.encode(values))
    assert np.array_equal(decoded[:3], values)
    assert not decoded[3:].any()


def test_unsigned_decode():
    values = np.array([-1, -2, 3])
    decoded = ENC.decode(ENC.encode(values), signed=False)
    assert list(decoded[:3]) == [T - 1, T - 2, 3]


def test_rejects_out_of_range():
    with pytest.raises(ValueError):
        ENC.encode([T])
    with pytest.raises(ValueError):
        ENC.encode(np.zeros(N + 1, dtype=np.int64))


def test_encode_addition_is_slotwise():
    rng = np.random.default_rng(1)
    a = rng.integers(-100, 100, N)
    b = rng.integers(-100, 100, N)
    summed = (ENC.encode(a) + ENC.encode(b)) % T
    assert np.array_equal(ENC.decode(summed), a + b)


def test_encode_multiplication_is_slotwise():
    # Polynomial product in R_t multiplies slots element-wise: this is the
    # batching property that gives BFV its SIMD programming model.
    rng = np.random.default_rng(2)
    a = rng.integers(-50, 50, N)
    b = rng.integers(-50, 50, N)
    prod_poly = naive_negacyclic_convolve(
        ENC.encode(a).astype(object), ENC.encode(b).astype(object), T
    ).astype(np.int64)
    assert np.array_equal(ENC.decode(prod_poly), a * b)


def test_constant_vector_encodes_to_constant_poly():
    coeffs = ENC.encode(np.full(N, 42))
    assert coeffs[0] == 42
    assert not coeffs[1:].any()


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=32))
def test_roundtrip_property(values):
    decoded = ENC.decode(ENC.encode(values))
    assert list(decoded[: len(values)]) == values


def test_galois_rotation_rotates_rows():
    """sigma_{3^k} applied to encoded coefficients rotates each row left by k."""
    rng = np.random.default_rng(3)
    values = rng.integers(-100, 100, N)
    row = N // 2
    for steps in (1, 2, 5, row - 1):
        g = ENC.galois_element_for_rotation(steps)
        coeffs = ENC.encode(values)
        # apply the automorphism over Z_t directly on the coefficient vector
        rotated = np.zeros(N, dtype=np.int64)
        for i in range(N):
            d = i * g % (2 * N)
            if d < N:
                rotated[d] = (rotated[d] + coeffs[i]) % T
            else:
                rotated[d - N] = (rotated[d - N] - coeffs[i]) % T
        decoded = ENC.decode(rotated)
        expected = np.concatenate(
            [np.roll(values[:row], -steps), np.roll(values[row:], -steps)]
        )
        assert np.array_equal(decoded, expected), f"steps={steps}"


def test_galois_row_swap():
    rng = np.random.default_rng(4)
    values = rng.integers(-100, 100, N)
    row = N // 2
    g = ENC.galois_element_row_swap
    coeffs = ENC.encode(values)
    swapped = np.zeros(N, dtype=np.int64)
    for i in range(N):
        d = i * g % (2 * N)
        if d < N:
            swapped[d] = (swapped[d] + coeffs[i]) % T
        else:
            swapped[d - N] = (swapped[d - N] - coeffs[i]) % T
    decoded = ENC.decode(swapped)
    expected = np.concatenate([values[row:], values[:row]])
    assert np.array_equal(decoded, expected)


def test_galois_element_reduction():
    assert ENC.galois_element_for_rotation(0) == 1
    row = N // 2
    assert (
        ENC.galois_element_for_rotation(-1)
        == ENC.galois_element_for_rotation(row - 1)
    )


@pytest.mark.parametrize("preset", [toy_params, small_params, large_params])
def test_encode_and_decode_match_the_butterfly_oracle(preset):
    """The one-prime matrix transform over ``t`` gives the butterfly
    transform's plaintexts and slots, bit for bit."""
    params = preset()
    encoder = BatchEncoder(params)
    oracle = NTTContext(params.poly_degree, params.plain_modulus)
    t = params.plain_modulus
    values = np.random.default_rng(2).integers(
        -(t // 2), t // 2 + 1, params.poly_degree
    )
    evals = np.zeros(params.poly_degree, dtype=np.int64)
    evals[encoder._slot_to_pos] = values % t
    coeffs = encoder.encode(values)
    assert np.array_equal(coeffs, oracle.inverse(evals))
    assert np.array_equal(encoder.decode(coeffs), values)
    unsigned = encoder.decode(coeffs + 3 * t, signed=False)
    slots = oracle.forward(coeffs)[encoder._slot_to_pos]
    assert np.array_equal(unsigned, slots)
    stacked = encoder.decode(np.stack([coeffs, coeffs]))
    assert stacked.shape == (2, params.poly_degree)
    assert np.array_equal(stacked[1], values)
