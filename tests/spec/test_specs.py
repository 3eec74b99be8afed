"""Tests for kernel specifications: references, examples, symbolic lifting."""

import numpy as np
import pytest

from repro.spec import (
    ALL_SPECS,
    DIRECT_SPECS,
    box_blur_spec,
    dot_product_spec,
    get_spec,
    gx_spec,
    gy_spec,
    hamming_spec,
    harris_spec,
    l2_spec,
    linear_regression_spec,
    polynomial_regression_spec,
    roberts_spec,
)
from repro.symbolic.polynomial import Poly


def test_registry_covers_all_kernels():
    names = {factory().name for factory in ALL_SPECS}
    assert names == {
        "box_blur", "dot_product", "hamming", "l2", "linear_regression",
        "polynomial_regression", "gx", "gy", "roberts", "sobel", "harris",
    }
    assert len(DIRECT_SPECS) == 9


def test_get_spec_roundtrip():
    assert get_spec("gx") is gx_spec()
    with pytest.raises(KeyError):
        get_spec("nonexistent")


def test_box_blur_reference_values():
    img = np.arange(16).reshape(4, 4)
    out = box_blur_spec().reference_output({"img": img})
    # out(0,0) = 0+1+4+5 = 10, out(2,2) = 10+11+14+15 = 50
    assert out[0] == 10
    assert out[-1] == 50
    assert len(out) == 9


def test_gx_reference_on_vertical_edge():
    # image with a vertical step edge: gradient is constant across interior
    img = np.array([[0, 0, 2, 2]] * 4)
    out = gx_spec().reference_output({"img": img})
    # Gx = left column minus right column with [1,2,1] smoothing
    assert out == [-8, -8, -8, -8]


def test_gy_is_gx_transposed():
    rng = np.random.default_rng(0)
    img = rng.integers(0, 20, (4, 4))
    gx_out = gx_spec().reference_output({"img": img})
    gy_out = gy_spec().reference_output({"img": img.T})
    assert gx_out == [gy_out[i] for i in (0, 2, 1, 3)]


def test_roberts_reference():
    img = np.zeros((4, 4), dtype=np.int64)
    img[1, 1] = 5
    out = roberts_spec().reference_output({"img": img})
    # at (0,0): d1 = 0 - 5, d2 = 0 - 0 -> 25
    assert out[0] == 25


def test_dot_product_reference():
    spec = dot_product_spec()
    x = np.arange(8)
    w = np.arange(8)[::-1]
    assert spec.reference_output({"x": x, "w": w}) == [int(x @ w)]


def test_hamming_counts_disagreements_on_binary_vectors():
    spec = hamming_spec()
    x = np.array([0, 1, 1, 0])
    y = np.array([1, 1, 0, 0])
    assert spec.reference_output({"x": x, "y": y}) == [2]


def test_l2_output_is_masked():
    spec = l2_spec()
    x = np.arange(8)
    y = np.zeros(8, dtype=np.int64)
    out = spec.reference_output({"x": x, "y": y})
    origin = spec.layout.origin
    assert out[origin] == int((x**2).sum())
    assert all(v == 0 for i, v in enumerate(out) if i != origin)
    assert len(out) == spec.layout.vector_size


def test_linear_regression_reference():
    spec = linear_regression_spec()
    out = spec.reference_output(
        {"x": np.array([2, 3]), "w": np.array([10, 100]), "b": np.array([7])}
    )
    assert out == [327]


def test_polynomial_regression_reference():
    spec = polynomial_regression_spec()
    env = {
        "a": np.array([1, 2, 0, 1]),
        "b": np.array([0, 1, 3, -1]),
        "c": np.array([5, 0, 0, 2]),
        "x": np.array([2, 3, 4, -2]),
    }
    assert spec.reference_output(env) == [9, 21, 12, 8]


def test_harris_reference_is_scaled_response():
    spec = harris_spec()
    rng = np.random.default_rng(1)
    img = rng.integers(0, 2, (4, 4))
    (value,) = spec.reference_output({"img": img})
    # recompute independently
    def grad(taps, r, c):
        return sum(w * img[r + dr - 1, c + dc - 1] for dr, dc, w in taps)

    from repro.spec.kernels import GX_TAPS, GY_TAPS

    sxx = syy = sxy = 0
    for dr in (0, 1):
        for dc in (0, 1):
            gx = grad(GX_TAPS, 1 + dr, 1 + dc)
            gy = grad(GY_TAPS, 1 + dr, 1 + dc)
            sxx += gx * gx
            syy += gy * gy
            sxy += gx * gy
    assert value == 16 * (sxx * syy - sxy * sxy) - (sxx + syy) ** 2


def test_make_example_goal_matches_reference():
    rng = np.random.default_rng(2)
    for factory in DIRECT_SPECS:
        spec = factory()
        example = spec.make_example(rng)
        assert example.goal.shape == (len(spec.layout.output_slots),)
        for name in spec.layout.ct_names:
            assert example.ct_env[name].shape == (spec.layout.vector_size,)


def test_expected_symbolic_shapes():
    for factory in DIRECT_SPECS:
        spec = factory()
        polys = spec.expected_symbolic()
        assert len(polys) == len(spec.layout.output_slots)
        assert all(isinstance(p, Poly) for p in polys)


def test_expected_symbolic_evaluates_to_reference():
    rng = np.random.default_rng(3)
    for factory in DIRECT_SPECS:
        spec = factory()
        logical = spec.random_logical_inputs(rng)
        env = {}
        for name, arr in logical.items():
            for i, v in enumerate(np.asarray(arr).reshape(-1)):
                env[f"{name}[{i}]"] = int(v)
        symbolic = spec.expected_symbolic()
        concrete = spec.reference_output(logical)
        assert [p.evaluate(env) for p in symbolic] == [int(v) for v in concrete]


def test_example_from_witness_embeds_values():
    spec = dot_product_spec()
    rng = np.random.default_rng(4)
    witness = {"x[0]": 77, "w[3]": -5}
    example = spec.example_from_witness(witness, rng)
    origin = spec.layout.origin
    assert example.ct_env["x"][origin] == 77
    assert example.pt_env["w"][origin + 3] == -5


def test_verify_program_rejects_wrong_vector_size():
    from repro.quill.builder import ProgramBuilder

    spec = dot_product_spec()
    b = ProgramBuilder(vector_size=4)
    x = b.ct_input("x")
    program = b.build(b.add(x, x))
    with pytest.raises(ValueError):
        spec.verify_program(program)


@pytest.mark.parametrize("name", ["box_blur", "dot_product", "harris"])
def test_random_backend_inputs_are_pinned(name):
    """One generator per seed, one in-range int64 draw per input in layout
    order: the draw every random backend run (CLI, library, server) uses."""
    spec = get_spec(name)
    rng = np.random.default_rng(7)
    expected = [
        rng.integers(0, spec.backend_bound + 1, packed.shape, dtype=np.int64)
        for packed in spec.layout.inputs
    ]
    drawn = spec.random_backend_inputs(7)
    assert list(drawn) == [packed.name for packed in spec.layout.inputs]
    for value, want in zip(drawn.values(), expected):
        assert value.dtype == np.int64
        assert np.array_equal(value, want)
