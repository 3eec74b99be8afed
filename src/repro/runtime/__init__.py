"""Runtime: executing Quill kernels on the real BFV backend.

The executor plays the role of SEAL in the paper's toolchain: it encrypts
packed inputs, maps each Quill instruction onto the corresponding
homomorphic operation, decrypts the result, and checks it against the
plaintext reference — including that the noise budget never ran out.  The
profiler measures per-instruction latencies to (re)generate the latency
tables in :mod:`repro.quill.latency`.

Exports resolve lazily (PEP 562) so that synthesis-only users — e.g.
anything importing :mod:`repro.runtime.profiler` for
:class:`~repro.solver.engine.SearchStats` — never pay for the BFV
substrate the executor drags in.
"""

from importlib import import_module

_EXPORTS = {
    "ExecutionReport": "repro.runtime.executor",
    "HEExecutor": "repro.runtime.executor",
    "SchedulerStats": "repro.runtime.profiler",
    "SearchStats": "repro.runtime.profiler",
    "format_scheduler_table": "repro.runtime.profiler",
    "profile_instructions": "repro.runtime.profiler",
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
