"""Tests for symbolic program evaluation and equivalence checking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quill.builder import ProgramBuilder
from repro.quill.interpreter import evaluate
from repro.symbolic.polynomial import Poly
from repro.symbolic.symvec import (
    evaluate_outputs,
    evaluate_symbolic,
    symbolic_vector,
    zeros_vector,
)
from repro.symbolic.verify import (
    check_equivalence,
    find_counterexample,
)

from tests.strategies import (
    explicit_relin_programs,
    quill_programs,
    random_env,
)


def test_symbolic_vector_and_zeros():
    vec = symbolic_vector("x", 3)
    assert [p.variables() for p in vec] == [{"x[0]"}, {"x[1]"}, {"x[2]"}]
    assert all(p.is_zero() for p in zeros_vector(4))


def _shift(vec, amount):
    b = ProgramBuilder(vector_size=len(vec), name="shift")
    program = b.build(b.rotate(b.ct_input("x"), amount))
    return evaluate_symbolic(program, {"x": vec})


def test_shift_symbolic_matches_concrete_semantics():
    vec = symbolic_vector("x", 4)
    left = _shift(vec, 1)
    assert left[0] == Poly.var("x[1]")
    assert left[3].is_zero()
    right = _shift(vec, -2)
    assert right[0].is_zero() and right[1].is_zero()
    assert right[2] == Poly.var("x[0]")


def _dot_product_program(n=4):
    b = ProgramBuilder(vector_size=n, name="dot")
    x = b.ct_input("x")
    w = b.pt_input("w")
    prod = b.mul(x, w)
    s1 = b.add(prod, b.rotate(prod, 2))
    s2 = b.add(s1, b.rotate(s1, 1))
    return b.build(s2)


def test_symbolic_dot_product_slot_zero():
    program = _dot_product_program()
    ct_env = {"x": symbolic_vector("x", 4)}
    pt_env = {"w": symbolic_vector("w", 4)}
    out = evaluate_symbolic(program, ct_env, pt_env)
    expected = Poly.zero()
    for i in range(4):
        expected = expected + Poly.var(f"x[{i}]") * Poly.var(f"w[{i}]")
    assert out[0] == expected


@settings(max_examples=40, deadline=None)
@given(quill_programs(max_instructions=5))
def test_symbolic_agrees_with_concrete(program):
    """Plugging concrete inputs into symbolic output == concrete evaluation."""
    rng = np.random.default_rng(1)
    ct_env, pt_env = random_env(program, rng, lo=-5, hi=6)
    sym_ct = {n: symbolic_vector(n, program.vector_size) for n in program.ct_inputs}
    sym_pt = {n: symbolic_vector(n, program.vector_size) for n in program.pt_inputs}
    sym_out = evaluate_symbolic(program, sym_ct, sym_pt)
    env = {}
    for name, vec in {**ct_env, **pt_env}.items():
        for i, v in enumerate(vec):
            env[f"{name}[{i}]"] = int(v)
    concrete = evaluate(program, ct_env, pt_env)
    plugged = [p.evaluate(env) for p in sym_out]
    assert plugged == [int(v) for v in concrete]


def test_check_equivalence_accepts_identical_structures():
    p1 = _dot_product_program()
    # same computation, different reduction order
    b = ProgramBuilder(vector_size=4, name="dot2")
    x = b.ct_input("x")
    w = b.pt_input("w")
    prod = b.mul(x, w)
    s1 = b.add(b.rotate(prod, 1), prod)
    s2 = b.add(b.rotate(s1, 2), s1)
    p2 = b.build(s2)
    env_ct = {"x": symbolic_vector("x", 4)}
    env_pt = {"w": symbolic_vector("w", 4)}
    out1 = evaluate_symbolic(p1, env_ct, env_pt)
    out2 = evaluate_symbolic(p2, env_ct, env_pt)
    # equivalent on the reduction slot, not on every slot
    assert check_equivalence(out1, out2, slots=[0]).equivalent


def test_check_equivalence_detects_difference_with_witness():
    vec_a = symbolic_vector("x", 3)
    vec_b = [vec_a[0], vec_a[1] + 1, vec_a[2]]
    result = check_equivalence(vec_a, vec_b)
    assert not result.equivalent
    assert result.failing_slot == 1
    assert result.counterexample == {}  # constant difference needs no witness


def test_counterexample_satisfies_difference():
    x, y = Poly.var("x"), Poly.var("y")
    difference = x * y - 2 * x
    witness = find_counterexample(difference)
    assert difference.evaluate(witness) != 0


def test_counterexample_rejects_zero_poly():
    with pytest.raises(ValueError):
        find_counterexample(Poly.zero())


def test_check_equivalence_respects_slot_mask():
    vec_a = symbolic_vector("x", 3)
    vec_b = [vec_a[0], Poly.zero(), Poly.zero()]
    assert check_equivalence(vec_a, vec_b, slots=[0]).equivalent
    assert not check_equivalence(vec_a, vec_b, slots=[0, 1]).equivalent


def test_length_mismatch_raises():
    with pytest.raises(ValueError):
        check_equivalence(symbolic_vector("x", 2), symbolic_vector("x", 3))


def test_reference_lifting_through_numpy():
    """Plaintext reference code runs unchanged on arrays of Poly."""
    def reference(img):
        # 2x2 box blur on a 3x3 image, valid region 2x2
        out = np.empty((2, 2), dtype=object)
        for r in range(2):
            for c in range(2):
                out[r, c] = (
                    img[r, c] + img[r, c + 1]
                    + img[r + 1, c] + img[r + 1, c + 1]
                )
        return out

    img = np.array(
        [[Poly.var(f"img[{3 * r + c}]") for c in range(3)] for r in range(3)],
        dtype=object,
    )
    out = reference(img)
    expected = (
        Poly.var("img[0]") + Poly.var("img[1]")
        + Poly.var("img[3]") + Poly.var("img[4]")
    )
    assert out[0, 0] == expected


def _symbolic_env(program):
    n = program.vector_size
    ct_env = {name: symbolic_vector(name, n) for name in program.ct_inputs}
    pt_env = {name: symbolic_vector(name, n) for name in program.pt_inputs}
    return ct_env, pt_env


@st.composite
def _programs_and_slots(draw):
    program = draw(
        st.one_of(
            quill_programs(max_instructions=7, multi_output=True),
            explicit_relin_programs(max_instructions=5, multi_output=True),
        )
    )
    slots = draw(
        st.lists(st.integers(0, program.vector_size - 1), unique=True)
    )
    return program, slots


@settings(max_examples=80, deadline=None)
@given(_programs_and_slots())
def test_sliced_evaluation_equals_full_on_requested_slots(case):
    """The output cone computes exactly what a full evaluation does on
    the requested slots, for every output of multi-output programs."""
    program, slots = case
    ct_env, pt_env = _symbolic_env(program)
    full = evaluate_outputs(program, ct_env, pt_env)
    sliced = evaluate_outputs(program, ct_env, pt_env, slots=slots)
    assert len(sliced) == len(full) == len(program.outputs)
    for whole, cone in zip(full, sliced):
        assert all(p is not None for p in whole)
        assert [cone[s] for s in slots] == [whole[s] for s in slots]
    primary = evaluate_symbolic(program, ct_env, pt_env, slots=slots)
    assert [primary[s] for s in slots] == [full[0][s] for s in slots]


def test_slicing_skips_slots_outside_the_cone():
    program = _dot_product_program()  # slot 0 reads every product
    ct_env = {"x": symbolic_vector("x", 4)}
    pt_env = {"w": symbolic_vector("w", 4)}
    out = evaluate_symbolic(program, ct_env, pt_env, slots=[3])
    assert out[3] == Poly.var("x[3]") * Poly.var("w[3]")
    assert out[:3] == [None, None, None]


def test_slot_outside_the_vector_is_rejected():
    program = _dot_product_program()
    ct_env = {"x": symbolic_vector("x", 4)}
    pt_env = {"w": symbolic_vector("w", 4)}
    with pytest.raises(ValueError):
        evaluate_symbolic(program, ct_env, pt_env, slots=[4])


def test_reference_runs_once_per_spec():
    """The spec's polynomials are computed once, however many programs
    it verifies."""
    from dataclasses import replace

    from repro.baselines.handwritten import baseline_for
    from repro.spec.kernels import get_spec

    calls = []
    base = get_spec("gx")

    def reference(**inputs):
        calls.append(1)
        return base.reference(**inputs)

    spec = replace(base, reference=reference)
    program = baseline_for("gx")
    for _ in range(3):
        assert spec.verify_program(program).equivalent
    assert len(calls) == 1
    spec.expected_symbolic()
    spec.symbolic_env()
    assert len(calls) == 1
