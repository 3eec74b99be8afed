"""Tests for the CEGIS synthesis engine on the fast kernels.

The slower kernels (gx, gy, roberts, l2) are exercised by the benchmark
suite; here we verify the algorithmic properties of Algorithm 1 on kernels
that synthesize in seconds.
"""

import numpy as np
import pytest

from repro.api import Porcupine
from repro.core.cegis import (
    SynthesisConfig,
    SynthesisError,
    synthesize,
)
from repro.core.sketch import ComponentChoice, CtHole, Sketch
from repro.core.sketches import default_sketch_for
from repro.quill.ir import Opcode
from repro.quill.noise import multiplicative_depth
from repro.spec import (
    box_blur_spec,
    dot_product_spec,
    hamming_spec,
    linear_regression_spec,
    polynomial_regression_spec,
)

FAST = SynthesisConfig(max_components=5, optimize_timeout=10.0)


@pytest.fixture(scope="module")
def box_blur_result():
    return synthesize(
        box_blur_spec(),
        default_sketch_for(box_blur_spec()),
        SynthesisConfig(max_components=3, optimize_timeout=10.0),
    )


def test_box_blur_finds_separable_solution(box_blur_result):
    """The headline Figure 5(a) result: 4 instructions instead of 6."""
    program = box_blur_result.program
    assert program.instruction_count() == 4
    assert program.rotation_count() == 2
    assert box_blur_result.components == 2
    assert box_blur_spec().verify_program(program).equivalent


def test_box_blur_beats_baseline_cost(box_blur_result):
    from repro.baselines import baseline_for
    from repro.quill.cost import program_cost

    baseline_cost = program_cost(baseline_for("box_blur"))
    assert box_blur_result.final_cost < baseline_cost


def test_synthesis_result_statistics(box_blur_result):
    result = box_blur_result
    assert result.spec_name == "box_blur"
    assert result.examples_used >= 1
    assert result.initial_time <= result.total_time
    assert result.final_cost <= result.initial_cost
    assert result.nodes > 0
    assert result.proof_complete  # tiny space: exhaustion is fast


def test_polynomial_regression_discovers_horner():
    """The paper's algebraic discovery: ax^2+bx = (ax+b)x saves a multiply."""
    spec = polynomial_regression_spec()
    result = synthesize(spec, default_sketch_for(spec), FAST)
    assert result.components == 4  # baseline needs 5 components
    assert result.program.multiply_cc_count() == 2  # baseline uses 3
    assert spec.verify_program(result.program).equivalent


def test_dot_product_matches_baseline_structure():
    spec = dot_product_spec()
    result = synthesize(spec, default_sketch_for(spec), FAST)
    assert result.program.instruction_count() == 7
    assert multiplicative_depth(result.program) == 1
    assert spec.verify_program(result.program).equivalent


def test_hamming_matches_baseline_structure():
    spec = hamming_spec()
    result = synthesize(spec, default_sketch_for(spec), FAST)
    assert result.program.instruction_count() == 6
    assert spec.verify_program(result.program).equivalent


def test_linear_regression_synthesis():
    spec = linear_regression_spec()
    result = synthesize(spec, default_sketch_for(spec), FAST)
    assert result.program.instruction_count() == 4
    assert spec.verify_program(result.program).equivalent


def test_minimal_component_count_is_found_first():
    # iterative deepening: box blur has no 1-component solution, so the
    # engine must have proven L=1 unsat before settling on L=2.
    spec = box_blur_spec()
    result = synthesize(
        spec,
        default_sketch_for(spec),
        SynthesisConfig(max_components=3, optimize=False),
    )
    assert result.components == 2


def test_unsatisfiable_sketch_raises():
    spec = hamming_spec()  # needs sub+mul; an add-only sketch cannot work
    sketch = Sketch(
        name="bad",
        choices=(ComponentChoice(Opcode.ADD_CC, CtHole(), CtHole()),),
        rotations=(),
    )
    with pytest.raises(SynthesisError):
        synthesize(spec, sketch, SynthesisConfig(max_components=3))


def test_compile_kernel_end_to_end():
    result = Porcupine().compile(box_blur_spec())
    assert result.name == "box_blur"
    assert "rotate_rows" in result.seal_code
    assert result.program.instruction_count() == 4
    assert "box_blur" in str(result)


def test_config_for_applies_kernel_settings():
    session = Porcupine()
    config = session.config_for("box_blur")
    assert config.max_components == 3
    config = session.config_for("box_blur", max_components=7, seed=5)
    assert config.max_components == 7
    assert config.seed == 5


def test_synthesis_deterministic_for_fixed_seed():
    spec = dot_product_spec()
    sketch = default_sketch_for(spec)
    r1 = synthesize(spec, sketch, FAST)
    r2 = synthesize(spec, sketch, FAST)
    assert r1.program == r2.program
    assert r1.components == r2.components
