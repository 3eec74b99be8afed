"""Tests for multi-step composition and SEAL code generation."""

import numpy as np
import pytest

from repro.baselines import (
    box_blur_baseline,
    gx_baseline,
    gy_baseline,
)
from repro.core.codegen import generate_seal_code, required_galois_rotations
from repro.core.multistep import (
    HARRIS_GRAPH,
    SOBEL_GRAPH,
    CompositionGraph,
    KernelStep,
    OpStep,
    compose,
)
from repro.quill.builder import ProgramBuilder
from repro.quill.interpreter import evaluate
from repro.quill.noise import multiplicative_depth
from repro.spec import get_spec


# Composition is independent of where the sub-kernels came from, so these
# tests compose the (already verified) baselines; the benchmarks compose
# the synthesized kernels.

def _sobel():
    return compose(SOBEL_GRAPH, {"gx": gx_baseline(), "gy": gy_baseline()})


def _harris():
    return compose(
        HARRIS_GRAPH,
        {
            "gx": gx_baseline(),
            "gy": gy_baseline(),
            "box_blur": box_blur_baseline(),
        },
    )


@pytest.fixture(scope="module")
def sobel_composed():
    return _sobel()


@pytest.fixture(scope="module")
def harris_composed():
    return _harris()


def test_sobel_composition_verifies(sobel_composed):
    assert get_spec("sobel").verify_program(sobel_composed).equivalent


def test_harris_composition_verifies(harris_composed):
    assert get_spec("harris").verify_program(harris_composed).equivalent


def test_composition_shares_rotations(sobel_composed):
    # gx and gy baselines share ±4 and ±6 rotations of the input image
    separate = gx_baseline().rotation_count() + gy_baseline().rotation_count()
    assert sobel_composed.rotation_count() < separate


def test_harris_depth(harris_composed):
    assert multiplicative_depth(harris_composed) == 3


def test_compose_splices_explicit_relin_programs():
    """Component RELINs drop at splice and are re-placed on the whole."""
    inner_builder = ProgramBuilder(8, name="square", relin_mode="explicit")
    x = inner_builder.ct_input("x")
    inner = inner_builder.build(
        inner_builder.relin(inner_builder.mul(x, x))
    )
    graph = CompositionGraph(
        name="square_plus",
        inputs=("img",),
        steps=(
            KernelStep("sq", "square", ("img",)),
            OpStep("out", "add", "sq", "img"),
        ),
        output="out",
    )
    program = compose(graph, {"square": inner})
    assert program.relin_count() == program.multiply_cc_count() == 1
    v = np.arange(8)
    assert np.array_equal(evaluate(program, {"img": v}), v * v + v)


def test_compose_rejects_mismatched_sizes():
    small = ProgramBuilder(vector_size=4)
    x = small.ct_input("img")
    tiny = small.build(small.add(x, x))
    with pytest.raises(ValueError):
        compose(SOBEL_GRAPH, {"gx": gx_baseline(), "gy": tiny})


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------

def test_seal_code_structure():
    code = generate_seal_code(gx_baseline())
    assert code.count("ev.rotate_rows") == gx_baseline().rotation_count()
    assert "seal::Evaluator &ev" in code
    assert "const seal::GaloisKeys &gal_keys" in code
    assert "const seal::Ciphertext &img" in code
    assert code.strip().endswith("}")


def test_seal_code_inserts_relinearization_after_ct_ct_multiply():
    program = _sobel()
    code = generate_seal_code(program)
    assert code.count("ev.relinearize_inplace") == program.multiply_cc_count()


def test_seal_code_plain_operands():
    from repro.baselines import dot_product_baseline, l2_baseline

    dot_code = generate_seal_code(dot_product_baseline())
    assert "ev.multiply_plain" in dot_code
    assert "const seal::Plaintext &w" in dot_code
    l2_code = generate_seal_code(l2_baseline())
    assert "const seal::Plaintext &mask" in l2_code


def test_required_galois_rotations():
    assert required_galois_rotations(box_blur_baseline()) == [1, 5, 6]
    gx_rotations = required_galois_rotations(gx_baseline())
    assert gx_rotations == [-6, -4, -1, 1, 4, 6]


def test_codegen_depth_comment():
    code = generate_seal_code(_harris())
    assert "multiplicative depth: 3" in code
