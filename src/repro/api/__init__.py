"""The unified Porcupine front door.

Everything downstream of the compiler core — the CLI, benchmarks,
examples, and user code — goes through the :class:`Porcupine` session::

    from repro.api import Porcupine

    session = Porcupine()
    compiled = session.compile("box_blur")       # synthesize + cache
    session.run("box_blur", backend="he")        # execute encrypted
    session.compile_suite(["gx", "gy", "sobel"]) # concurrent batch

Building blocks, all replaceable per session:

* :class:`KernelRegistry` / :class:`KernelDefinition` — the kernel
  suite as runtime-extensible data (specs, sketches, baselines,
  composition graphs).
* :class:`PassPipeline` — ``synthesize -> optimize -> compose -> lower
  -> codegen`` as named, hookable, timed passes.
* :class:`CompileCache` — content-addressed results keyed on
  spec + sketch + config, optionally persisted on disk.
* execution backends — ``interpreter`` and ``he`` built in, more via
  :func:`register_backend`.
"""

from repro.api.backends import (
    BackendResult,
    BatchResult,
    ExecutionBackend,
    HEBackend,
    InterpreterBackend,
    backend_names,
    get_backend,
    register_backend,
)
from repro.api.cache import CacheEntry, CompileCache, compile_key
from repro.api.passes import (
    CompositionError,
    Pass,
    PassContext,
    PassPipeline,
    PassTiming,
)
from repro.api.registry import KernelDefinition, KernelRegistry
from repro.api.session import CompiledKernel, Porcupine
from repro.runtime.options import ExecOptions

__all__ = [
    "BackendResult",
    "BatchResult",
    "CacheEntry",
    "CompiledKernel",
    "CompileCache",
    "CompositionError",
    "ExecOptions",
    "ExecutionBackend",
    "HEBackend",
    "InterpreterBackend",
    "KernelDefinition",
    "KernelRegistry",
    "Pass",
    "PassContext",
    "PassPipeline",
    "PassTiming",
    "Porcupine",
    "backend_names",
    "compile_key",
    "get_backend",
    "register_backend",
]
