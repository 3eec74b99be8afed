"""Tests for the negacyclic NTT against naive reference convolution, and
for the batched matrix NTT against the per-prime :class:`NTTContext`."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.he.arena import ExecCounters, ScratchArena, execution_scope
from repro.he.context import BFVContext
from repro.he.ntt import (
    BatchNTT,
    NTTContext,
    bit_reverse,
    naive_negacyclic_convolve,
)
from repro.he.params import large_params, small_params, toy_params
from repro.he.primes import find_ntt_primes

PRIME_64 = find_ntt_primes(1, 27, 128)[0]  # 1 mod 2*64


def test_bit_reverse():
    assert bit_reverse(0b001, 3) == 0b100
    assert bit_reverse(0b110, 3) == 0b011
    assert bit_reverse(5, 4) == 0b1010
    for v in range(16):
        assert bit_reverse(bit_reverse(v, 4), 4) == v


@pytest.mark.parametrize("n", [4, 8, 16, 64])
def test_forward_inverse_roundtrip(n):
    prime = find_ntt_primes(1, 27, 2 * n)[0]
    ntt = NTTContext(n, prime)
    rng = np.random.default_rng(0)
    a = rng.integers(0, prime, n)
    assert np.array_equal(ntt.inverse(ntt.forward(a)), a % prime)


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_convolution_matches_naive(n):
    prime = find_ntt_primes(1, 27, 2 * n)[0]
    ntt = NTTContext(n, prime)
    rng = np.random.default_rng(1)
    for _ in range(5):
        a = rng.integers(0, prime, n)
        b = rng.integers(0, prime, n)
        expected = naive_negacyclic_convolve(a, b, prime)
        assert np.array_equal(ntt.convolve(a, b), expected)


def test_negacyclic_wraparound_sign():
    # x^(n-1) * x = x^n = -1 in the negacyclic ring.
    n = 8
    prime = find_ntt_primes(1, 27, 2 * n)[0]
    ntt = NTTContext(n, prime)
    a = np.zeros(n, dtype=np.int64)
    b = np.zeros(n, dtype=np.int64)
    a[n - 1] = 1
    b[1] = 1
    out = ntt.convolve(a, b)
    expected = np.zeros(n, dtype=np.int64)
    expected[0] = prime - 1
    assert np.array_equal(out, expected)


def test_multiplication_by_one_is_identity():
    ntt = NTTContext(64, PRIME_64)
    rng = np.random.default_rng(2)
    a = rng.integers(0, PRIME_64, 64)
    one = np.zeros(64, dtype=np.int64)
    one[0] = 1
    assert np.array_equal(ntt.convolve(a, one), a)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, PRIME_64 - 1), min_size=64, max_size=64),
       st.lists(st.integers(0, PRIME_64 - 1), min_size=64, max_size=64))
def test_convolution_commutes(a, b):
    ntt = NTTContext(64, PRIME_64)
    a = np.array(a, dtype=np.int64)
    b = np.array(b, dtype=np.int64)
    assert np.array_equal(ntt.convolve(a, b), ntt.convolve(b, a))


def test_linearity_of_forward():
    ntt = NTTContext(32, find_ntt_primes(1, 27, 64)[0])
    rng = np.random.default_rng(3)
    p = ntt.prime
    a = rng.integers(0, p, 32)
    b = rng.integers(0, p, 32)
    lhs = ntt.forward((a + b) % p)
    rhs = (ntt.forward(a) + ntt.forward(b)) % p
    assert np.array_equal(lhs, rhs)


def test_evaluation_exponents_are_all_odd_and_distinct():
    n = 16
    prime = find_ntt_primes(1, 27, 2 * n)[0]
    ntt = NTTContext(n, prime)
    exps = ntt.evaluation_exponents()
    assert len(exps) == n
    assert len(set(exps)) == n
    assert all(e % 2 == 1 for e in exps)
    assert sorted(exps) == list(range(1, 2 * n, 2))


def test_evaluation_exponents_consistent_with_forward():
    # forward(f)[j] must equal f(psi^{e_j}) for a random polynomial.
    n = 16
    prime = find_ntt_primes(1, 27, 2 * n)[0]
    ntt = NTTContext(n, prime)
    exps = ntt.evaluation_exponents()
    rng = np.random.default_rng(4)
    f = rng.integers(0, prime, n)
    out = ntt.forward(f)
    for j, e in enumerate(exps):
        point = pow(ntt.psi, e, prime)
        value = sum(int(f[i]) * pow(point, i, prime) for i in range(n)) % prime
        assert value == int(out[j])


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        NTTContext(12, 97)  # not a power of two
    with pytest.raises(ValueError):
        NTTContext(8, 89)  # 89 != 1 mod 16
    with pytest.raises(ValueError):
        NTTContext(8, (1 << 33) + 17)  # too large even if 1 mod 16


# ---------------------------------------------------------------------------
# BatchNTT (four-step matrix transform) == per-prime NTTContext, on the
# rings the runtime actually builds
# ---------------------------------------------------------------------------

RINGS = {
    "n4096-q": (4096, small_params().coeff_primes),  # 27-bit x4
    "n8192-q": (8192, large_params().coeff_primes),  # 27-bit x8
    "n4096-ext": (4096, tuple(find_ntt_primes(10, 26, 8192))),
    "n8192-ext": (8192, tuple(find_ntt_primes(19, 26, 16384))),
    "toy-q": (1024, toy_params().coeff_primes),  # 30-bit x2
}


@lru_cache(maxsize=None)
def _ring(name):
    n, primes = RINGS[name]
    ntts = [NTTContext(n, p) for p in primes]
    return BatchNTT(ntts), ntts


def _stack(name, lead, fill, seed):
    n, primes = RINGS[name]
    col = np.array(primes, dtype=np.int64)[:, None]
    shape = lead + (len(primes), n)
    if fill == "zeros":
        return np.zeros(shape, dtype=np.int64)
    if fill == "max":
        return np.broadcast_to(col - 1, shape).copy()
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << 62, shape) % col


def _assert_matches_oracle(name, x):
    batch, ntts = _ring(name)
    forward = batch.forward(x, assume_reduced=True)
    inverse = batch.inverse(x, assume_reduced=True)
    for result in (forward, inverse):
        assert result.dtype == np.int64
        assert result.shape == x.shape
        assert result.flags.c_contiguous
    for j, ctx in enumerate(ntts):
        assert np.array_equal(forward[..., j, :], ctx.forward(x[..., j, :]))
        assert np.array_equal(inverse[..., j, :], ctx.inverse(x[..., j, :]))
    assert np.array_equal(batch.inverse(forward, assume_reduced=True), x)


def test_extension_rings_match_the_contexts():
    for params, name in ((small_params(), "n4096-ext"),
                         (large_params(), "n8192-ext")):
        ctx = BFVContext(params, seed=0)
        assert tuple(ctx._ext_ring.basis.primes) == RINGS[name][1]


LEADS = st.sampled_from([(), (3,), (2, 2)])  # (k,n), digits, batch x parts


@settings(max_examples=15, deadline=None)
@given(
    name=st.sampled_from(sorted(RINGS)),
    lead=LEADS,
    fill=st.sampled_from(["random", "zeros", "max"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_ntt_matches_per_prime_oracle(name, lead, fill, seed):
    _assert_matches_oracle(name, _stack(name, lead, fill, seed))


@pytest.mark.parametrize("name", sorted(RINGS))
@pytest.mark.parametrize("fill", ["zeros", "max"])
def test_batch_ntt_extreme_residues(name, fill):
    _assert_matches_oracle(name, _stack(name, (2,), fill, 0))


@pytest.mark.parametrize("name", ["n4096-ext", "n8192-ext"])
@pytest.mark.parametrize("fill", ["random", "max"])
def test_scaled_inverse_folds_its_scale_and_shares_tables(name, fill):
    """The tensor's inverse with CRT weights folded into ``iM1`` equals
    the plain inverse times the weights, and copies no other table."""
    batch, _ = _ring(name)
    col = batch.primes[:, None]
    scales = np.random.default_rng(5).integers(0, 1 << 62, len(col)) % col[:, 0]
    scaled = batch.scaled_inverse(scales)
    x = _stack(name, (3,), fill, 4)
    expected = batch.inverse(x, assume_reduced=True) * scales[:, None] % col
    assert np.array_equal(scaled.inverse(x, assume_reduced=True), expected)
    for table in ("_m1", "_m2t", "_im2t", "_t", "_it"):
        assert getattr(scaled, table) is getattr(batch, table)
    assert scaled._im1 is not batch._im1


def test_batch_ntt_reduces_unreduced_inputs():
    batch, ntts = _ring("toy-q")
    col = batch.primes[:, None]
    rng = np.random.default_rng(7)
    x = rng.integers(-(1 << 62), 1 << 62, (2, len(ntts), batch.n))
    assert np.array_equal(
        batch.forward(x), batch.forward(x % col, assume_reduced=True)
    )
    assert np.array_equal(
        batch.inverse(x), batch.inverse(x % col, assume_reduced=True)
    )


def test_batch_ntt_strided_inputs_and_out():
    """Broadcast and transposed inputs give the same C-contiguous
    result; ``out`` is written in place and shape-checked."""
    batch, ntts = _ring("n4096-q")
    k, n = len(ntts), batch.n
    digits = np.random.default_rng(3).integers(0, 1 << 24, (3, 1, n))
    spread = np.broadcast_to(digits, (3, k, n))
    dense = np.ascontiguousarray(spread)
    expected = batch.forward(dense, assume_reduced=True)
    assert np.array_equal(batch.forward(spread, assume_reduced=True), expected)
    swapped = np.ascontiguousarray(dense.transpose(1, 0, 2)).transpose(1, 0, 2)
    assert not swapped.flags.c_contiguous
    assert np.array_equal(
        batch.forward(swapped, assume_reduced=True), expected
    )
    out = np.empty_like(dense)
    assert batch.forward(dense, assume_reduced=True, out=out) is out
    assert np.array_equal(out, expected)
    with pytest.raises(ValueError):
        batch.forward(dense, out=np.empty((k, n), dtype=np.int64))
    with pytest.raises(ValueError):
        batch.forward(dense, out=np.empty_like(dense, order="F"))


def test_batch_ntt_results_never_alias_arena_buffers():
    batch, ntts = _ring("toy-q")
    arena = ScratchArena()
    x = _stack("toy-q", (2,), "random", 11)
    y = _stack("toy-q", (2,), "random", 12)
    with execution_scope(arena):
        first = batch.forward(x, assume_reduced=True)
        batch.forward(y, assume_reduced=True)  # reuses the same buffers
        again = batch.inverse(first, assume_reduced=True)
    assert arena.hits > 0
    assert np.array_equal(first, batch.forward(x, assume_reduced=True))
    assert np.array_equal(again, x)
    for buf in arena._buffers.values():
        assert not np.shares_memory(buf, first)


def test_batch_ntt_rejects_primes_beyond_the_exact_range():
    """31-bit primes at n=4096 would push gemm partial sums past 2^52."""
    n = 4096
    primes = find_ntt_primes(2, 31, 2 * n)
    ntts = [NTTContext(n, p) for p in primes]  # the oracle accepts them
    with pytest.raises(ValueError, match="exact"):
        BatchNTT(ntts)
    assert BatchNTT([NTTContext(n, p) for p in find_ntt_primes(2, 28, 2 * n)])


# the presets' coefficient rings with their key-switch digit widths
SHARED = {
    "toy-q": toy_params().decomp_bits,  # 20
    "n4096-q": small_params().decomp_bits,  # 24
    "n8192-q": large_params().decomp_bits,  # 32
}


@pytest.mark.parametrize("name", sorted(SHARED))
@pytest.mark.parametrize("fill", ["random", "max"])
def test_shared_rows_match_the_broadcast_reduced_stack(name, fill):
    """Digits transformed once for every prime equal ``forward`` of the
    digits broadcast over the primes and reduced, bit for bit, and count
    ``digits * k`` rows as the full stack does."""
    batch, ntts = _ring(name)
    width = SHARED[name]
    shape = (5, batch.n)
    if fill == "max":
        rows = np.full(shape, (1 << width) - 1, dtype=np.int64)
    else:
        rows = np.random.default_rng(6).integers(0, 1 << width, shape)
    stack = rows[:, None, :] % batch.primes[:, None]
    counters = ExecCounters()
    with execution_scope(ScratchArena(), counters):
        got = batch.forward(rows, width=width)
    assert counters.ntt_rows == 5 * len(ntts)
    assert got.shape == stack.shape and got.flags.c_contiguous
    assert np.array_equal(got, batch.forward(stack, assume_reduced=True))
    out = np.empty_like(stack)
    assert batch.forward(rows, out=out, width=width) is out
    assert np.array_equal(out, got)


def test_shared_rows_reject_widths_beyond_the_exact_range():
    """Rows wider than ``52 - s - log2 n1`` bits would push the stacked
    gemm's sums past 2^52: n8192's 32-bit digits sit on the bound."""
    batch, _ = _ring("n8192-q")
    assert batch.max_shared_width == 32
    rows = np.zeros((2, batch.n), np.int64)
    assert batch.forward(rows, width=32).shape == (2, len(batch.primes), batch.n)
    for width in (33, 0):
        with pytest.raises(ValueError, match="exact"):
            batch.forward(rows, width=width)
    with pytest.raises(ValueError):
        batch.forward(np.zeros((2, 3, batch.n), np.int64), width=32)
