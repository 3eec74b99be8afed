"""Deeper tests of key switching, relinearization, and noise behaviour."""

import numpy as np
import pytest

from repro.he import BFVContext, toy_params
from repro.he.keys import KSwitchKey


@pytest.fixture(scope="module")
def ctx():
    return BFVContext(toy_params(), seed=123)


def test_relin_key_structure(ctx):
    # one pair per base-T digit of q
    import math

    expected_digits = math.ceil(ctx.q.bit_length() / ctx.params.decomp_bits)
    assert len(ctx.relin_key) == expected_digits


def test_relin_key_encrypts_secret_square(ctx):
    """Each relin pair satisfies k0 + k1*s = T^j * s^2 + noise."""
    s = ctx.secret_key.s
    s_squared = s * s
    factor = 1
    for k0, k1 in ctx.relin_key.pairs:
        lhs = k0 + k1 * s
        target = s_squared.scalar_mul(factor)
        noise = (lhs - target).to_centered_coeffs()
        bound = 8 * ctx.params.error_std
        assert max(abs(c) for c in noise) <= bound
        factor <<= ctx.params.decomp_bits


def test_galois_key_generated_lazily(ctx):
    g = ctx.encoder.galois_element_for_rotation(3)
    assert (g in ctx.galois_keys) or True
    ctx.generate_galois_key(g)
    assert g in ctx.galois_keys
    before = ctx.galois_keys.get(g)
    ctx.generate_galois_key(g)  # idempotent
    assert ctx.galois_keys.get(g) is before


def test_kswitch_key_caches_ntt_domain(ctx):
    key = ctx.relin_key
    assert isinstance(key, KSwitchKey)
    k, n = key.pairs[0][0].residues.shape
    for j, stack in enumerate((key._stack_0, key._stack_1)):
        assert stack.shape == (len(key.pairs), k, n)
        # each digit's row block is its key polynomial in the NTT domain
        assert np.array_equal(stack[0], key.pairs[0][j].eval_rows())


def test_relinearized_matches_unrelinearized(ctx):
    a = ctx.encrypt_vector([3, -2, 7])
    b = ctx.encrypt_vector([5, 4, -1])
    raw = ctx.multiply(a, b, relinearize=False)
    relin = ctx.relinearize(raw)
    assert np.array_equal(
        ctx.decrypt_vector(raw)[:3], ctx.decrypt_vector(relin)[:3]
    )


def test_relinearization_noise_cost_is_small(ctx):
    a = ctx.encrypt_vector([2, 2, 2])
    b = ctx.encrypt_vector([3, 3, 3])
    raw = ctx.multiply(a, b, relinearize=False)
    relin = ctx.relinearize(raw)
    # key switching costs only a few bits of budget
    assert ctx.noise_budget(relin) >= ctx.noise_budget(raw) - 6


def test_noise_budget_monotone_under_operations(ctx):
    """Additions cost little noise; multiplications cost a lot (2.2)."""
    a = ctx.encrypt_vector([5, 6])
    b = ctx.encrypt_vector([7, 8])
    fresh = ctx.noise_budget(a)
    after_add = ctx.noise_budget(ctx.add(a, b))
    after_rot = ctx.noise_budget(ctx.rotate_rows(a, 1))
    after_mul = ctx.noise_budget(ctx.multiply(a, b))
    assert after_add >= fresh - 2
    assert after_rot >= fresh - 20  # key-switch noise is additive
    assert after_mul <= fresh - 10  # multiplicative growth dominates
    assert after_mul < after_rot


def test_plain_multiply_cheaper_than_ct_multiply(ctx):
    a = ctx.encrypt_vector([4, 5, 6])
    pt = ctx.encode([3, 3, 3])
    ct = ctx.encrypt_vector([3, 3, 3])
    budget_plain = ctx.noise_budget(ctx.multiply_plain(a, pt))
    budget_ct = ctx.noise_budget(ctx.multiply(a, ct))
    assert budget_plain >= budget_ct


def test_rotation_composes_with_arithmetic(ctx):
    """rot(a) + rot(b) decrypts to the rotated sum (automorphism is a
    ring homomorphism)."""
    av = np.array([1, 2, 3, 4, 5])
    bv = np.array([9, 8, 7, 6, 5])
    a = ctx.encrypt_vector(av)
    b = ctx.encrypt_vector(bv)
    lhs = ctx.add(ctx.rotate_rows(a, 2), ctx.rotate_rows(b, 2))
    rhs = ctx.rotate_rows(ctx.add(a, b), 2)
    assert np.array_equal(
        ctx.decrypt_vector(lhs)[:3], ctx.decrypt_vector(rhs)[:3]
    )


def test_deterministic_keygen_with_seed():
    c1 = BFVContext(toy_params(), seed=5)
    c2 = BFVContext(toy_params(), seed=5)
    assert c1.secret_key.s.to_int_coeffs() == c2.secret_key.s.to_int_coeffs()
    c3 = BFVContext(toy_params(), seed=6)
    assert c1.secret_key.s.to_int_coeffs() != c3.secret_key.s.to_int_coeffs()


def test_cross_context_ciphertexts_do_not_decrypt():
    """A ciphertext decrypted under the wrong key yields garbage (or an
    exhausted budget), never silently the right answer."""
    c1 = BFVContext(toy_params(), seed=7)
    c2 = BFVContext(toy_params(), seed=8)
    ct = c1.encrypt_vector([42])
    from repro.he.errors import NoiseBudgetExhausted

    try:
        wrong = c2.decrypt_vector(ct)[0]
        assert wrong != 42
    except NoiseBudgetExhausted:
        pass
