"""Declarative composition graphs: validation and materialization."""

import numpy as np
import pytest

from repro.baselines import box_blur_baseline, gx_baseline, gy_baseline
from repro.core.multistep import (
    HARRIS_GRAPH,
    SOBEL_GRAPH,
    CompositionGraph,
    ConstStep,
    KernelStep,
    OpStep,
    compose,
)
from repro.quill.interpreter import evaluate
from repro.spec import get_spec


def test_builtin_graphs_validate():
    SOBEL_GRAPH.validate()
    HARRIS_GRAPH.validate()
    assert SOBEL_GRAPH.kernels == ("gx", "gy")
    assert HARRIS_GRAPH.kernels == ("gx", "gy", "box_blur")


def test_composed_harris_verifies_against_spec():
    program = compose(
        HARRIS_GRAPH,
        {
            "gx": gx_baseline(),
            "gy": gy_baseline(),
            "box_blur": box_blur_baseline(),
        },
    )
    assert get_spec("harris").verify_program(program).equivalent


def test_custom_graph_composes_and_evaluates():
    graph = CompositionGraph(
        name="gx_scaled",
        inputs=("img",),
        steps=(
            ConstStep("three", 3),
            KernelStep("grad", "gx", ("img",)),
            OpStep("scaled", "mul", "grad", "three"),
        ),
        output="scaled",
    )
    program = compose(graph, {"gx": gx_baseline()})
    spec = get_spec("gx")
    rng = np.random.default_rng(0)
    logical = spec.random_logical_inputs(rng)
    ct_env, pt_env = spec.packed_env(logical)
    composed_out = evaluate(program, ct_env, pt_env)
    plain_out = evaluate(gx_baseline(), ct_env, pt_env)
    assert np.array_equal(composed_out, 3 * plain_out)


def test_validate_rejects_unknown_reference():
    graph = CompositionGraph(
        name="broken",
        inputs=("img",),
        steps=(OpStep("out", "add", "img", "ghost"),),
        output="out",
    )
    with pytest.raises(ValueError, match="ghost"):
        graph.validate()


def test_validate_rejects_duplicate_ids():
    graph = CompositionGraph(
        name="broken",
        inputs=("img",),
        steps=(
            OpStep("x", "add", "img", "img"),
            OpStep("x", "mul", "img", "img"),
        ),
        output="x",
    )
    with pytest.raises(ValueError, match="duplicate"):
        graph.validate()


def test_validate_rejects_dangling_output():
    graph = CompositionGraph(
        name="broken",
        inputs=("img",),
        steps=(OpStep("x", "add", "img", "img"),),
        output="y",
    )
    with pytest.raises(ValueError, match="output"):
        graph.validate()


def test_compose_checks_missing_programs():
    with pytest.raises(KeyError, match="gy"):
        compose(SOBEL_GRAPH, {"gx": gx_baseline()})


def test_compose_checks_arity():
    graph = CompositionGraph(
        name="broken",
        inputs=("img",),
        steps=(KernelStep("grad", "gx", ("img", "img")),),
        output="grad",
    )
    with pytest.raises(ValueError, match="input"):
        compose(graph, {"gx": gx_baseline()})


def test_bad_op_rejected_eagerly():
    with pytest.raises(ValueError, match="unknown composition op"):
        OpStep("x", "div", "a", "b")
