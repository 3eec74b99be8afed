"""The packed-monomial Poly against the dict-of-tuples oracle.

:mod:`tests.symbolic.oracle_poly` keeps the representation the packed
one replaced.  Every public operation must give the answer the oracle
gives; on top of that the packing has three properties of its own to
check: exponent headroom, pickling by name, and thread-safe variable
registration.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.symbolic import polynomial
from repro.symbolic.polynomial import (
    MAX_EXPONENT,
    ExponentOverflowError,
    Poly,
)
from tests.symbolic.oracle_poly import Poly as Oracle

# names that sort differently as strings and as registration order
NAMES = ("x", "y", "z", "w[0]", "w[10]", "w[2]")

monomials = st.dictionaries(
    st.sampled_from(NAMES), st.integers(1, 3), max_size=3
).map(lambda exps: tuple(sorted(exps.items())))
term_maps = st.dictionaries(monomials, st.integers(-5, 5), max_size=5)
ints = st.integers(-7, 7)


def pair(terms):
    return Poly(terms), Oracle(terms)


def assert_same(packed: Poly, oracle: Oracle) -> None:
    assert packed.terms == oracle.terms
    assert packed.variables() == oracle.variables()
    assert packed.degree() == oracle.degree()
    assert packed.is_zero() == oracle.is_zero()
    assert packed.is_constant() == oracle.is_constant()
    assert repr(packed) == repr(oracle)
    assert hash(packed) == hash(oracle)


@settings(max_examples=150, deadline=None)
@given(term_maps)
def test_construction_matches_oracle(terms):
    assert_same(*pair(terms))


@settings(max_examples=150, deadline=None)
@given(term_maps, term_maps, ints)
def test_ring_operations_match_oracle(a, b, k):
    (pa, oa), (pb, ob) = pair(a), pair(b)
    assert_same(pa + pb, oa + ob)
    assert_same(pa - pb, oa - ob)
    assert_same(-pa, -oa)
    assert_same(pa * pb, oa * ob)
    assert_same(k + pa, k + oa)
    assert_same(pa - k, oa - k)
    assert_same(k - pa, k - oa)
    assert_same(k * pa, k * oa)


@settings(max_examples=100, deadline=None)
@given(term_maps, st.integers(0, 4))
def test_powers_match_oracle(terms, exponent):
    packed, oracle = pair(terms)
    assert_same(packed**exponent, oracle**exponent)


@settings(max_examples=150, deadline=None)
@given(term_maps, term_maps, ints)
def test_equality_matches_oracle(a, b, k):
    (pa, oa), (pb, ob) = pair(a), pair(b)
    assert (pa == pb) == (oa == ob)
    assert (pa == pa + pb - pb) and (oa == oa + ob - ob)
    assert (pa == k) == (oa == k)
    if pa == pb:
        assert hash(pa) == hash(pb)


@settings(max_examples=150, deadline=None)
@given(
    term_maps,
    st.fixed_dictionaries({name: st.integers(-9, 9) for name in NAMES}),
)
def test_evaluate_matches_oracle(terms, env):
    packed, oracle = pair(terms)
    assert packed.evaluate(env) == oracle.evaluate(env)


@settings(max_examples=100, deadline=None)
@given(
    term_maps,
    st.dictionaries(
        st.sampled_from(NAMES), st.one_of(ints, term_maps), max_size=3
    ),
)
def test_substitute_matches_oracle(terms, replacements):
    packed, oracle = pair(terms)
    packed_env = {
        name: value if isinstance(value, int) else Poly(value)
        for name, value in replacements.items()
    }
    oracle_env = {
        name: value if isinstance(value, int) else Oracle(value)
        for name, value in replacements.items()
    }
    assert_same(packed.substitute(packed_env), oracle.substitute(oracle_env))


def test_constant_and_variable_constructors_match_oracle():
    assert_same(Poly.const(4), Oracle.const(4))
    assert_same(Poly.const(0), Oracle.const(0))
    assert_same(Poly.var("w[10]"), Oracle.var("w[10]"))
    assert_same(Poly.zero(), Oracle.zero())


# -- exponent headroom ----------------------------------------------------


def test_highest_exponent_is_exact():
    x = Poly.var("x")
    top = x**MAX_EXPONENT
    assert top.terms == {(("x", MAX_EXPONENT),): 1}
    assert (x ** (MAX_EXPONENT - 1)) * x == top
    assert top.degree() == MAX_EXPONENT


@pytest.mark.parametrize("name", ["x", "w[10]"])
def test_product_past_the_field_limit_raises(name):
    v = Poly.var(name)
    top = v**MAX_EXPONENT
    with pytest.raises(ExponentOverflowError):
        top * v
    with pytest.raises(ExponentOverflowError):
        (v + 1) ** (MAX_EXPONENT + 1)
    with pytest.raises(ExponentOverflowError):
        Poly({((name, MAX_EXPONENT + 1),): 1})


def test_full_field_never_aliases_the_next_variable():
    """A field at its limit stays in its field: no product of in-range
    monomials carries into a neighbour's exponent."""
    first, second = Poly.var("headroom_a"), Poly.var("headroom_b")
    top = first**MAX_EXPONENT
    assert top != second and top * second != second
    assert (top * second).terms == {
        (("headroom_a", MAX_EXPONENT), ("headroom_b", 1)): 1
    }
    with pytest.raises(ExponentOverflowError):
        top * first * second


def test_negative_exponent_is_rejected():
    with pytest.raises(ValueError):
        Poly({(("x", -1),): 1})


# -- pickling and concurrent registration ----------------------------------


def test_pickle_loads_in_a_fresh_interpreter():
    """A pickled Poly carries names: a process that registered other
    variables first (different indices) rebuilds the same polynomial."""
    x, w = Poly.var("x"), Poly.var("w[10]")
    poly = 3 * x**2 * w - w + 7
    src = Path(repro.__file__).resolve().parents[1]
    child = (
        "import pickle, sys\n"
        "from repro.symbolic.polynomial import Poly\n"
        "for i in range(50):\n"
        "    Poly.var(f'other[{i}]')\n"
        "poly = pickle.loads(sys.stdin.buffer.read())\n"
        "print(repr(poly))\n"
        "print(sorted(poly.terms.items()))\n"
        "print(poly.evaluate({'x': 2, 'w[10]': 5}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", child],
        input=pickle.dumps(poly),
        capture_output=True,
        env=env,
        check=True,
        timeout=60,
    ).stdout.decode().splitlines()
    assert out == [
        repr(poly),
        str(sorted(poly.terms.items())),
        str(poly.evaluate({"x": 2, "w[10]": 5})),
    ]
    assert pickle.loads(pickle.dumps(poly)) == poly


def test_eight_threads_register_variables_at_once():
    threads, per_thread = 8, 200
    barrier = threading.Barrier(threads)
    built: dict[int, list[Poly]] = {}
    errors: list[Exception] = []

    def register(worker: int) -> None:
        try:
            barrier.wait()
            polys = []
            for i in range(per_thread):
                own = Poly.var(f"thread{worker}[{i}]")
                shared = Poly.var(f"shared[{i}]")
                polys.append(own * shared + own)
            built[worker] = polys
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    workers = [
        threading.Thread(target=register, args=(k,)) for k in range(threads)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often: races show
    try:
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in workers)
    assert not errors and len(built) == threads
    for worker, polys in built.items():
        for i, poly in enumerate(polys):
            own, shared = f"thread{worker}[{i}]", f"shared[{i}]"
            assert poly.terms == {
                tuple(sorted(((own, 1), (shared, 1)))): 1,
                ((own, 1),): 1,
            }
    # every name has one index, and no two names share one
    names = [n for n in polynomial._NAMES if n.startswith(("thread", "shared["))]
    assert len(names) == len(set(names)) == threads * per_thread + per_thread
    assert all(polynomial._NAMES[polynomial._INDEX[n]] == n for n in names)
