"""Cross-module integration tests: the full pipeline, end to end.

specification -> sketch -> CEGIS synthesis -> exact verification ->
SEAL codegen -> encrypted execution on the BFV backend.
"""

import numpy as np
import pytest

from repro.api import Porcupine
from repro.baselines import baseline_for
from repro.core import SynthesisConfig, compose_sobel, generate_seal_code
from repro.he.params import toy_params
from repro.quill.cost import program_cost
from repro.quill.latency import default_latency_model
from repro.quill.parser import parse_program
from repro.quill.printer import format_program
from repro.runtime import HEExecutor
from repro.spec import get_spec


@pytest.fixture(scope="module")
def compiled_box_blur():
    return Porcupine().compile("box_blur")


def test_full_pipeline_box_blur(compiled_box_blur):
    """Synthesize, verify, print, parse, and run encrypted — one flow."""
    spec = get_spec("box_blur")
    program = compiled_box_blur.program

    # exact verification already ran inside synthesis; do it again here
    assert spec.verify_program(program).equivalent

    # the textual form round-trips
    assert parse_program(format_program(program)) == program

    # SEAL code contains exactly the program's structure
    code = generate_seal_code(program)
    assert code.count("ev.rotate_rows") == program.rotation_count()

    # encrypted execution agrees with the plaintext reference
    executor = HEExecutor(spec, params=toy_params(), seed=21)
    rng = np.random.default_rng(0)
    report = executor.run(program, {"img": rng.integers(0, 50, (4, 4))})
    assert report.matches_reference
    assert report.output_noise_budget > 0


def test_synthesized_beats_or_ties_baseline_cost(compiled_box_blur):
    """Porcupine's guarantee: never worse than the baseline under its cost."""
    spec = get_spec("box_blur")
    model = default_latency_model(spec.params_name)
    assert program_cost(compiled_box_blur.program, model) <= program_cost(
        baseline_for("box_blur"), model
    )


def test_synthesized_and_baseline_agree_under_encryption(compiled_box_blur):
    """Both programs decrypt to identical outputs on identical inputs."""
    spec = get_spec("box_blur")
    executor = HEExecutor(spec, params=toy_params(), seed=22)
    rng = np.random.default_rng(1)
    logical = {"img": rng.integers(0, 60, (4, 4))}
    synth = executor.run(compiled_box_blur.program, logical)
    base = executor.run(baseline_for("box_blur"), logical)
    assert np.array_equal(synth.logical_output, base.logical_output)


def test_multistep_sobel_encrypted():
    """Multi-step composition runs correctly under encryption."""
    config = SynthesisConfig(max_components=4, optimize_timeout=5.0)
    session = Porcupine()
    gx = session.compile("gx", config=config).program
    gy = session.compile("gy", config=config).program
    sobel = compose_sobel(gx, gy)
    spec = get_spec("sobel")
    assert spec.verify_program(sobel).equivalent
    # depth-1 circuit: the toy preset's budget is too small, use the
    # 128-bit-secure depth-1 preset (this is also what the paper runs)
    executor = HEExecutor(spec, seed=23)
    rng = np.random.default_rng(2)
    report = executor.run(sobel, {"img": rng.integers(0, 5, (4, 4))})
    assert report.matches_reference
    assert report.output_noise_budget > 0


def test_counterexample_loop_is_exercised():
    """Single-output kernels force CEGIS to use multiple examples."""
    spec = get_spec("linear_regression")
    from repro.core.sketches import default_sketch_for
    from repro.core.cegis import synthesize

    result = synthesize(
        spec,
        default_sketch_for(spec),
        SynthesisConfig(max_components=4, optimize=False, seed=0),
    )
    # at least one verification counterexample was needed (goal is a
    # single slot, so spurious example-matching programs exist)
    assert result.examples_used >= 2
    assert spec.verify_program(result.program).equivalent


@pytest.mark.slow
def test_secure_parameters_full_run():
    """128-bit-secure end-to-end run of a synthesized kernel."""
    spec = get_spec("hamming")
    session = Porcupine()
    result = session.compile(
        "hamming", config=session.config_for("hamming", optimize_timeout=5.0)
    )
    executor = HEExecutor(spec, seed=24)
    report = executor.run(
        result.program,
        {"x": np.array([0, 1, 1, 0]), "y": np.array([1, 1, 0, 0])},
    )
    assert report.matches_reference
    assert report.logical_output[0] == 2
