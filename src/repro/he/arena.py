"""Scratch-buffer arenas and hot-path instrumentation for HE execution.

The executor's steady state churns through large workspaces: every
batched NTT runs its matrix steps in float64 buffers the size of the
whole residue stack (``(k, N)``, or the ``(digits, k, N)`` key-switch
and ``(4, k, N)`` tensor stacks).  A :class:`ScratchArena` keeps one
reusable buffer per ``(tag, shape, dtype)`` key so replaying a tape
allocates no new workspace after the first pass.

Arena buffers back only *transient* workspaces.  :class:`RingElement`
caches its coefficient/evaluation forms persistently, so any array that
escapes into an element must be freshly allocated — handing out an arena
buffer as an op result would alias two live values (the classic reuse
bug the aliasing regression test pins).

Each thread owns one arena (:func:`thread_arena`), which every executor
that runs on the thread draws from, so two executions never share
buffers, even two runs of one executor.  A thread-local *scope* makes
the active arena (and transform counters) visible to the NTT layer
without threading parameters through every ring operation.

:func:`pin_allocator` keeps the freed workspaces of one op resident for
the next.  By default glibc returns large freed blocks to the kernel
(blocks above its dynamic mmap threshold, and free heap top past its
trim threshold), so every op faults the same pages in again.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager

import numpy as np

# glibc's mallopt parameters and the values pinned: blocks up to 32 MiB
# (glibc's largest mmap threshold on 64-bit) come from the heap, and up
# to 128 MiB of free heap top stays resident
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 128 << 20

_pin_lock = threading.Lock()
_pinned: bool | None = None  # None until the first call


class ExecCounters:
    """Mutable transform counters for one execution scope.

    ``ntt_rows`` counts length-``n`` row transforms (one ``(k, n)``
    element transform adds ``k``; a ``(digits, k, n)`` stack adds
    ``digits * k``), which makes planner predictions directly comparable
    to measurements: a plan's row count must equal the measured delta
    of one run.
    """

    __slots__ = ("ntt_rows",)

    def __init__(self):
        self.ntt_rows = 0


class ScratchArena:
    """Reusable workspace pool keyed by ``(tag, shape, dtype)``.

    ``take`` returns an *uninitialised* buffer (callers overwrite it
    fully); the same key always returns the same buffer, so steady-state
    tape replay performs zero large allocations.  The pool is bounded:
    past ``KEY_LIMIT`` distinct keys it is cleared wholesale, mirroring
    the executor's plaintext-cache policy.
    """

    KEY_LIMIT = 64

    __slots__ = ("_buffers", "hits", "misses")

    def __init__(self):
        self._buffers: dict[tuple, np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def take(self, tag: str, shape: tuple, dtype=np.int64) -> np.ndarray:
        key = (tag, shape, np.dtype(dtype))
        buf = self._buffers.get(key)
        if buf is None:
            if len(self._buffers) >= self.KEY_LIMIT:
                self._buffers.clear()
            buf = np.empty(shape, dtype=dtype)
            self._buffers[key] = buf
            self.misses += 1
        else:
            self.hits += 1
        return buf

    @property
    def bytes_held(self) -> int:
        return sum(buf.nbytes for buf in self._buffers.values())

    def clear(self) -> None:
        self._buffers.clear()


_scope = threading.local()


def thread_arena() -> ScratchArena:
    """The calling thread's arena, made on its first call on the thread.

    It lives as long as the thread, and its buffers go with it.
    """
    arena = getattr(_scope, "own_arena", None)
    if arena is None:
        arena = _scope.own_arena = ScratchArena()
    return arena


def current_arena() -> ScratchArena | None:
    """The arena of the innermost active scope on this thread, if any."""
    return getattr(_scope, "arena", None)


def count_ntt_rows(rows: int) -> None:
    """Record ``rows`` length-``n`` transforms against the active scope."""
    counters = getattr(_scope, "counters", None)
    if counters is not None:
        counters.ntt_rows += rows


@contextmanager
def execution_scope(
    arena: ScratchArena | None = None,
    counters: ExecCounters | None = None,
):
    """Make ``arena``/``counters`` visible to HE internals on this thread.

    Scopes nest: the innermost wins, and the previous scope is restored
    on exit (exception-safe), so instrumented regions can be as narrow
    as one tape replay.
    """
    prev_arena = getattr(_scope, "arena", None)
    prev_counters = getattr(_scope, "counters", None)
    _scope.arena = arena
    _scope.counters = counters
    try:
        yield
    finally:
        _scope.arena = prev_arena
        _scope.counters = prev_counters


def pin_allocator() -> bool:
    """Fix glibc's mmap and trim thresholds, once per process.

    Both are set together: setting either one turns glibc's dynamic
    thresholds off, and with only the trim threshold fixed, blocks above
    the static 128 KiB mmap threshold still go back to the kernel on
    every free.  Process-wide and idempotent; a no-op returning ``False``
    where the C library has no ``mallopt`` (non-glibc platforms).
    """
    global _pinned
    with _pin_lock:
        if _pinned is None:
            try:
                mallopt = ctypes.CDLL(None).mallopt
            except (AttributeError, OSError, TypeError):
                _pinned = False
            else:
                mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
                mallopt.restype = ctypes.c_int
                _pinned = bool(
                    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                    and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
                )
        return _pinned
