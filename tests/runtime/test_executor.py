"""Tests for homomorphic execution of Quill kernels.

Fast tests use the toy (insecure, N=1024) parameter set; a couple of
`slow`-marked tests exercise the 128-bit-secure presets end to end.
"""

import numpy as np
import pytest

from repro.baselines import baseline_for
from repro.he.params import toy_params
from repro.quill.builder import ProgramBuilder
from repro.runtime.executor import (
    DisplacementError,
    HEExecutor,
    check_displacement,
    displacement_bounds,
)
from repro.runtime.profiler import format_latency_table, profile_instructions
from repro.spec import dot_product_spec, get_spec


@pytest.fixture(scope="module")
def dot_executor():
    return HEExecutor(dot_product_spec(), params=toy_params(), seed=11)


def _logical(spec, rng, bound=6):
    return {
        p.name: rng.integers(0, bound, p.shape) for p in spec.layout.inputs
    }


def test_dot_product_encrypted_run(dot_executor):
    spec = dot_product_spec()
    rng = np.random.default_rng(0)
    report = dot_executor.run(baseline_for("dot_product"), _logical(spec, rng))
    assert report.matches_reference
    assert report.output_noise_budget > 0
    assert report.wall_time > 0
    assert "mul-ct-pt" in report.instruction_seconds


@pytest.mark.parametrize("name", ["box_blur", "hamming", "linear_regression"])
def test_baselines_run_encrypted_on_toy_params(name):
    spec = get_spec(name)
    executor = HEExecutor(spec, params=toy_params(), seed=5)
    rng = np.random.default_rng(2)
    report = executor.run(baseline_for(name), _logical(spec, rng))
    assert report.matches_reference
    assert report.output_noise_budget > 0


def test_negative_values_roundtrip():
    spec = get_spec("gx")
    executor = HEExecutor(spec, params=toy_params(), seed=6)
    rng = np.random.default_rng(3)
    logical = {"img": rng.integers(0, 50, (4, 4))}
    report = executor.run(baseline_for("gx"), logical)
    assert report.matches_reference
    assert (report.logical_output < 0).any() or True  # gradients may be negative


def test_report_contains_model_window():
    spec = dot_product_spec()
    executor = HEExecutor(spec, params=toy_params(), seed=7)
    rng = np.random.default_rng(4)
    report = executor.run(baseline_for("dot_product"), _logical(spec, rng))
    assert report.model_output.shape == (spec.layout.vector_size,)
    origin = spec.layout.origin
    assert report.model_output[origin] == report.logical_output[0]


def test_sanity_check(dot_executor):
    """One encrypted run on random in-range inputs."""
    program = baseline_for("dot_product")
    report = dot_executor.run(
        program, dot_executor.spec.random_backend_inputs(0)
    )
    assert report.matches_reference
    assert report.output_noise_budget > 0


def test_multi_output_program_decrypts_extras(dot_executor):
    from dataclasses import replace

    from repro.quill.interpreter import evaluate
    from repro.quill.ir import Wire

    spec = dot_product_spec()
    # baselines are @cache-shared: copy before adding an output
    program = replace(
        baseline_for("dot_product"), extra_outputs=[Wire(0)]
    )  # the x*w product vector
    rng = np.random.default_rng(9)
    logical = _logical(spec, rng)
    report = dot_executor.run(program, logical)
    assert report.matches_reference
    assert len(report.extra_model_outputs) == 1
    ct_env, pt_env = spec.packed_env(logical)
    wires = evaluate(program, ct_env, pt_env, all_wires=True)
    assert np.array_equal(report.extra_model_outputs[0], wires[0])


def test_explicit_relin_tape_matches_eager(dot_executor):
    """The same kernel, eager vs lazily-relinearized, decrypts identically."""
    from repro.quill.rewrite import optimize_program

    spec = get_spec("roberts")
    program = baseline_for("roberts")
    explicit = optimize_program(program, spec=spec)
    assert explicit.is_explicit_relin
    assert explicit.relin_count() < program.relin_count()
    rng = np.random.default_rng(2)
    logical = {"img": rng.integers(0, 8, (4, 4))}
    # roberts' product exhausts the toy budget: use the spec's preset
    eager_report = HEExecutor(spec, seed=8).run(program, logical)
    lazy_report = HEExecutor(spec, seed=8).run(explicit, logical)
    assert eager_report.matches_reference and lazy_report.matches_reference
    assert np.array_equal(
        eager_report.model_output, lazy_report.model_output
    )
    assert "relin" in lazy_report.instruction_seconds


# ---------------------------------------------------------------------------
# Displacement safety
# ---------------------------------------------------------------------------

def test_displacement_bounds_tracks_chains():
    b = ProgramBuilder(vector_size=24)
    x = b.ct_input("x")
    r1 = b.rotate(x, 4)
    r2 = b.rotate(r1, 2)
    out = b.add(r2, b.rotate(x, -3))
    program = b.build(out)
    left, right = displacement_bounds(program)
    assert left == 6  # 4 then 2 leftward
    assert right == 3


def test_check_displacement_rejects_margin_overflow():
    spec = dot_product_spec()  # margin 8 on each side
    b = ProgramBuilder(vector_size=spec.layout.vector_size)
    x = b.ct_input("x")
    b.pt_input("w")
    v = x
    for _ in range(3):
        v = b.rotate(v, 4)  # cumulative left displacement 12 > margin 8
    program = b.build(b.add(v, v))
    with pytest.raises(DisplacementError):
        check_displacement(program, spec)


def test_executor_refuses_unsafe_programs():
    spec = dot_product_spec()
    executor = HEExecutor(spec, params=toy_params(), seed=8)
    b = ProgramBuilder(vector_size=spec.layout.vector_size)
    x = b.ct_input("x")
    b.pt_input("w")
    v = x
    for _ in range(5):
        v = b.rotate(v, 4)
    program = b.build(b.add(v, v))
    rng = np.random.default_rng(5)
    with pytest.raises(DisplacementError):
        executor.run(program, _logical(spec, rng))


def test_executor_rejects_oversized_model():
    spec = get_spec("gx")  # vector_size 67 > toy row 512? fits; fabricate
    from repro.spec.layout import vector_layout
    from repro.spec.reference import Spec

    big = Spec(
        name="big",
        layout=vector_layout([("x", "ct", 600)]),
        reference=lambda x: [x[0]],
    )
    with pytest.raises(ValueError):
        HEExecutor(big, params=toy_params())


# ---------------------------------------------------------------------------
# Profiler
# ---------------------------------------------------------------------------

def test_profiler_produces_sane_table():
    model = profile_instructions(toy_params(), repeats=2, seed=1)
    from repro.quill.ir import Opcode

    assert set(model.table) == set(Opcode)
    assert all(v > 0 for v in model.table.values())
    # multiplies dominate additions on every parameter set
    assert model.table[Opcode.MUL_CC] > model.table[Opcode.ADD_CC]
    text = format_latency_table(model)
    assert "Opcode.MUL_CC" in text


@pytest.mark.slow
def test_secure_preset_end_to_end():
    spec = get_spec("box_blur")
    executor = HEExecutor(spec, seed=9)  # n4096-depth1, 128-bit secure
    rng = np.random.default_rng(6)
    logical = {"img": rng.integers(0, 255, (4, 4))}
    report = executor.run(baseline_for("box_blur"), logical)
    assert report.matches_reference
    assert report.output_noise_budget > 20
