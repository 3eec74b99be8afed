"""Scratch-buffer arenas and hot-path instrumentation for HE execution.

The executor's steady state churns through large workspaces: every
batched NTT runs its matrix steps in float64 buffers the size of the
whole ``(batch, k, N)`` stack.  A :class:`ScratchArena` keeps one
reusable buffer per ``(tag, shape, dtype)`` key so replaying a tape
allocates no new workspace after the first pass.

Arena buffers back only *transient* workspaces.  :class:`RingElement`
caches its coefficient/evaluation forms persistently, so any array that
escapes into an element must be freshly allocated — handing out an arena
buffer as an op result would alias two live values (the classic reuse
bug the aliasing regression test pins).

A thread-local *scope* makes the active arena (and transform counters)
visible to the NTT layer without threading parameters through every ring
operation; each executor worker thread enters its own scope, so lockstep
shards never share buffers.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np


class ExecCounters:
    """Mutable transform counters for one execution scope.

    ``ntt_rows`` counts length-``n`` row transforms (one ``(k, n)``
    element transform adds ``k``; a ``(batch, k, n)`` stack adds
    ``batch * k``), which makes planner predictions directly comparable
    to measurements: a plan's per-element row count times the batch size
    must equal the measured delta.
    """

    __slots__ = ("ntt_rows",)

    def __init__(self):
        self.ntt_rows = 0

    def merge(self, other: "ExecCounters") -> None:
        self.ntt_rows += other.ntt_rows


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


def current_arena() -> ScratchArena | None:
    """The arena of the innermost active scope on this thread, if any."""
    return getattr(_scope, "arena", None)


def current_counters() -> ExecCounters | None:
    """The counters of the innermost active scope on this thread, if any."""
    return getattr(_scope, "counters", None)


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
