"""One set of ring tables per parameter set, and keys that do not move.

Every :class:`BFVContext` of one parameter set serves its keys from the
same read-only tables (rings, NTTs, base conversions, rescale and
decrypt tables, the digit decomposer).  Sharing them must leave the key
stream untouched: the golden digests below were taken from contexts
that each built their own tables, and a context built second in the
process, after another of the same parameters, must still reproduce
them bit for bit.
"""

import hashlib

import numpy as np
import pytest

from repro.he import BFVContext
from repro.he.params import small_params, toy_params

# (secret, public, relin, one Galois key, one encryption) sha256 prefixes
# and the encryption's noise budget, for seed 1
GOLDEN = {
    "toy-insecure": (
        "9986f21f9453b5ad",
        "438c7115bd340bbd",
        "6e6d02ed9a91b685",
        "4a9a55758a66b16a",
        "eb43667fba12a2b8",
        32,
    ),
    "n4096-depth1": (
        "282d61cb61242732",
        "48a960e870879a41",
        "6f63a8ce1d0ea7dd",
        "3ef7ca75aa23a313",
        "0d2d618d227a1561",
        76,
    ),
}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


def _fingerprint(ctx: BFVContext) -> tuple:
    """Digests of every key and of one encryption, in RNG-stream order."""
    pk, rk = ctx.public_key, ctx.relin_key
    g = ctx.encoder.galois_element_for_rotation(1)
    ctx.generate_galois_key(g)
    gk = ctx.galois_keys.get(g)
    ct = ctx.encrypt_vector(np.arange(16) - 8)
    return (
        _digest(ctx.secret_key.s.residues),
        _digest(pk.p0.residues, pk.p1.residues),
        _digest(rk._stack_0, rk._stack_1),
        _digest(gk._stack_0, gk._stack_1),
        _digest(*(part.residues for part in ct.parts)),
        ctx.noise_budget(ct),
    )


@pytest.mark.parametrize("preset", [toy_params, small_params])
def test_keys_and_encryption_match_golden(preset):
    params = preset()
    BFVContext(params, seed=0)  # the tables exist before the pinned context
    assert _fingerprint(BFVContext(params, seed=1)) == GOLDEN[params.name]


def test_equal_parameter_sets_share_one_tables_object():
    a = BFVContext(toy_params(), seed=3)
    b = BFVContext(toy_params(), seed=4)  # an equal, separately built preset
    assert a.tables is b.tables
    assert a.ring is b.ring and a._ext_ring is b._ext_ring
    assert BFVContext(small_params(), seed=3).tables is not a.tables


def test_different_seeds_still_give_different_keys():
    a = BFVContext(toy_params(), seed=5)
    b = BFVContext(toy_params(), seed=6)
    assert a.secret_key.s != b.secret_key.s
    assert a.public_key.p1 != b.public_key.p1
    assert not np.array_equal(a.relin_key._stack_0, b.relin_key._stack_0)


def test_in_place_write_to_a_shared_table_raises():
    ctx = BFVContext(toy_params(), seed=7)
    ct = ctx.encrypt_vector([1, 2])
    ctx.multiply(ct, ct)  # builds the lazy tensor inverse
    tables = ctx.tables
    shared = [
        ctx.ring.batch_ntt._m1,
        ctx.ring.basis._primes_col,
        ctx.ring.ntts[0].psi_rev,
        ctx._ext_ring.batch_ntt._m2t[0],
        tables.tensor_inverse._im1[1],
        tables.conv_q_to_ext._w_hi_f,
        tables.sr_theta,
        tables.dec_omega_hi_f,
    ]
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1
