"""Deterministic fault injection for the serving stack.

Chaos testing a serving stack with real nondeterminism (random kills,
random delays) produces flaky tests; this module instead gives every
failure a *name* and a *site*, so a test arms exactly the faults it
wants and the serving code trips them at well-defined points:

``compile:<kernel>``
    Consulted by :class:`~repro.serve.compilepool.CompilePool` just
    before handing the kernel to a worker; the armed fault ships to the
    worker process and is applied there (so ``("kill",)`` really
    SIGKILLs a pool worker mid-compile, exercising the genuine
    ``BrokenProcessPool`` recovery path, not a simulation of it).

``execute:<kernel>``
    Consulted by the server's executor-thread runner before the
    tape pass; ``("raise", msg)`` poisons the execution thread (the
    supervisor must restart it), ``("sleep", s)`` makes the run slow
    (deadline propagation must fire).

``runtime:<kernel>``
    Consulted at the same point but *forwarded into the executor* as a
    one-shot mid-tape ciphertext corruption
    (:meth:`HEExecutor.arm_tape_fault`) rather than applied at the
    site: ``("bitflip", step, bit)`` XORs one bit of one NTT-domain
    residue point of the value produced at tape step ``step``;
    ``("poison", step)`` rotates a residue row wholesale.  Both model
    silent data corruption (a DRAM flip, a truncated page) that the
    noise-safety machinery must catch — the serve client must see a
    typed retryable ``NOISE_BUDGET`` error or a correct escalated
    result, never wrong plaintext.

Faults are **one-shot** by default: armed once, tripped once, then
gone — so "the worker dies, the pool respawns, and the *next* compile
succeeds" is a single test with no extra coordination.  Arm with
``times=n`` for repeated trips.

The injector is optional everywhere (``None`` means no faults, zero
overhead on the hot path) and thread-safe (the executor thread and the
event loop both consult it).

Fault tuples
------------

``("kill",)``
    ``os.kill(os.getpid(), SIGKILL)`` — the hosting process dies
    instantly.  Only meaningful inside a pool worker.

``("sleep", seconds)``
    Block the site for ``seconds`` before proceeding normally.

``("raise", message)``
    Raise ``RuntimeError(message)`` at the site.
"""

from __future__ import annotations

import os
import signal
import threading
import time


class FaultInjector:
    """Named one-shot faults, armed by tests, tripped by serving code."""

    def __init__(self):
        self._armed: dict[str, list[tuple]] = {}
        self._tripped: dict[str, int] = {}
        self._lock = threading.Lock()

    def arm(self, site: str, fault: tuple, times: int = 1) -> None:
        """Queue ``fault`` to trip the next ``times`` visits to ``site``."""
        if times < 1:
            raise ValueError("times must be >= 1")
        with self._lock:
            self._armed.setdefault(site, []).extend([fault] * times)

    def take(self, site: str) -> tuple | None:
        """Pop the next armed fault for ``site`` (None if unarmed).

        The serving code calls this at the site and applies whatever
        comes back; taking counts as tripping for :meth:`tripped`.
        """
        with self._lock:
            queue = self._armed.get(site)
            if not queue:
                return None
            fault = queue.pop(0)
            if not queue:
                del self._armed[site]
            self._tripped[site] = self._tripped.get(site, 0) + 1
            return fault

    def tripped(self, site: str) -> int:
        """How many times ``site``'s faults have fired (test assertions)."""
        with self._lock:
            return self._tripped.get(site, 0)

    def pending(self, site: str) -> int:
        """How many faults remain armed at ``site``."""
        with self._lock:
            return len(self._armed.get(site, ()))


def apply_fault(fault: tuple | None) -> None:
    """Execute a fault tuple at the current site (no-op for ``None``).

    Importable from pool worker processes — :func:`_compile_in_worker`
    ships the tuple across the process boundary and applies it there, so
    a ``("kill",)`` fault takes down a *real* worker.
    """
    if fault is None:
        return
    kind = fault[0]
    if kind == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif kind == "sleep":
        time.sleep(float(fault[1]))
    elif kind == "raise":
        raise RuntimeError(str(fault[1]) if len(fault) > 1 else
                           "injected fault")
    else:
        raise ValueError(f"unknown fault kind {kind!r}")
