"""Reproduction of *Porcupine: A Synthesizing Compiler for Vectorized
Homomorphic Encryption* (Cowan et al., PLDI 2021).

The front door is the :class:`repro.api.Porcupine` session — kernel
registry, pass pipeline, compile cache, and execution backends in one
object::

    from repro.api import Porcupine

    session = Porcupine()
    compiled = session.compile("box_blur")        # synthesize (cached)
    report = session.run("box_blur", backend="he")  # execute encrypted

Subpackages:

* :mod:`repro.api` — the unified session API: kernel registry, the
  ``synthesize -> optimize -> compose -> lower -> codegen`` pass
  pipeline, the content-addressed compile cache, pluggable backends.
* :mod:`repro.core` — the Porcupine compiler: sketches, CEGIS synthesis,
  cost optimization, multi-step composition graphs, SEAL code generation.
* :mod:`repro.quill` — the Quill DSL: BFV instruction set with noise and
  latency semantics.
* :mod:`repro.spec` — kernel specifications (references + data layouts).
* :mod:`repro.symbolic` — exact polynomial verification substrate.
* :mod:`repro.solver` — the pruned backtracking search substrate.
* :mod:`repro.he` — a from-scratch BFV cryptosystem (the SEAL stand-in).
* :mod:`repro.runtime` — encrypted execution and latency profiling.
* :mod:`repro.baselines` — expert hand-written depth-minimized kernels.

Typical entry points::

    from repro.api import Porcupine          # the session API (preferred)
    from repro.runtime import HEExecutor     # low-level encrypted execution
    from repro.spec import get_spec          # raw kernel specifications
"""

__version__ = "1.1.0"
