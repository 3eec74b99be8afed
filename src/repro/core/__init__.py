"""Porcupine: the synthesizing compiler (the paper's primary contribution).

Pipeline (paper Figure 3): a kernel *specification* (reference program +
data layout, :mod:`repro.spec`) and a *sketch* (HE kernel template with
holes) go into a CEGIS synthesis engine that completes the sketch into a
verified Quill program, minimizes its cost, and emits SEAL code.

Exports resolve lazily (PEP 562).  This is load-bearing, not cosmetic:
:mod:`repro.solver.engine` imports :mod:`repro.core.sketch`, which
executes this package ``__init__`` — if it eagerly imported
:mod:`repro.core.cegis` (which imports the engine back), any
solver-first import would crash on the half-initialized module.
"""

from importlib import import_module

_EXPORTS = {
    "ComponentChoice": "repro.core.sketch",
    "CompositionGraph": "repro.core.multistep",
    "ConstStep": "repro.core.multistep",
    "CtHole": "repro.core.sketch",
    "CtRotHole": "repro.core.sketch",
    "HARRIS_GRAPH": "repro.core.multistep",
    "KernelStep": "repro.core.multistep",
    "OpStep": "repro.core.multistep",
    "ParallelSynthesis": "repro.core.parallel",
    "SOBEL_GRAPH": "repro.core.multistep",
    "Sketch": "repro.core.sketch",
    "SynthesisConfig": "repro.core.cegis",
    "SynthesisError": "repro.core.cegis",
    "SynthesisResult": "repro.core.cegis",
    "compose": "repro.core.multistep",
    "compose_harris": "repro.core.multistep",
    "compose_sobel": "repro.core.multistep",
    "default_sketch_for": "repro.core.sketches",
    "explicit_rotation_variant": "repro.core.sketches",
    "generate_seal_code": "repro.core.codegen",
    "inline_program": "repro.core.multistep",
    "sliding_window_rotations": "repro.core.restrictions",
    "synthesize": "repro.core.cegis",
    "tree_reduction_rotations": "repro.core.restrictions",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value  # cache: resolve each name once
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
