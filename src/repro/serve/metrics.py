"""Per-kernel and per-tenant serving metrics.

Everything counts into :class:`~repro.runtime.profiler.SchedulerStats`,
the one metrics shape of online serving (the ``stats`` wire op and
``porcupine serve --timings``).  Latency samples are kept in a bounded sliding
window per scope so a long-lived server's memory stays flat; counters
are cumulative until ``snapshot(reset=True)``.
"""

from __future__ import annotations

import threading

from repro.runtime.profiler import SchedulerStats


class MetricsRegistry:
    """Thread-safe serving counters, scoped globally/per-kernel/per-tenant.

    The asyncio front-end mutates from the event loop and the execution
    thread reports guard trips and escalations, hence the lock; every
    operation is a few integer bumps, so contention is negligible next to
    an encrypted tape pass.
    """

    def __init__(self, latency_window: int = 4096):
        self.latency_window = latency_window
        self.overall = SchedulerStats()
        self.per_kernel: dict[str, SchedulerStats] = {}
        self.per_tenant: dict[str, SchedulerStats] = {}
        self.queue_depth: dict[str, int] = {}
        self._lock = threading.Lock()

    @staticmethod
    def _scope(table: dict, name: str) -> SchedulerStats:
        stats = table.get(name)
        if stats is None:
            stats = table[name] = SchedulerStats()
        return stats

    def _scopes(self, kernel: str | None, tenant: str | None) -> list:
        """The overall scope, then the kernel and tenant scopes named."""
        scopes = [self.overall]
        if kernel is not None:
            scopes.append(self._scope(self.per_kernel, kernel))
        if tenant is not None:
            scopes.append(self._scope(self.per_tenant, tenant))
        return scopes

    # -- recording ---------------------------------------------------------

    def bump(
        self,
        field: str,
        kernel: str | None = None,
        tenant: str | None = None,
        n: int = 1,
    ) -> None:
        """Add ``n`` to counter ``field`` overall, and in the kernel and
        tenant scopes that are named (``n <= 0`` records nothing)."""
        if n <= 0:
            return
        with self._lock:
            for stats in self._scopes(kernel, tenant):
                setattr(stats, field, getattr(stats, field) + n)

    def response(
        self, kernel: str, tenant: str, latency_s: float, ok: bool = True
    ) -> None:
        latency_ms = latency_s * 1e3
        with self._lock:
            for stats in self._scopes(kernel, tenant):
                if ok:
                    stats.responses += 1
                    stats.latency_ms.append(latency_ms)
                    if len(stats.latency_ms) > self.latency_window:
                        del stats.latency_ms[: -self.latency_window]
                else:
                    stats.errors += 1

    def error(self, kernel: str, tenant: str) -> None:
        self.response(kernel, tenant, 0.0, ok=False)

    def failure(self, kernel: str, tenant: str, code: str) -> None:
        """One typed failure: counts as an error plus its code bucket."""
        from repro.serve import errors as _errors

        bucket = {
            _errors.DEADLINE_EXCEEDED: "deadline_exceeded",
            _errors.OVERLOADED: "overloaded",
            _errors.NOISE_BUDGET: "noise_budget_errors",
        }.get(code)
        with self._lock:
            for stats in self._scopes(kernel, tenant):
                stats.errors += 1
                if bucket is not None:
                    setattr(stats, bucket, getattr(stats, bucket) + 1)

    def depth(self, kernel: str, depth: int) -> None:
        """Gauge update: requests currently queued for ``kernel``."""
        with self._lock:
            self.queue_depth[kernel] = depth
            kernel_stats = self._scope(self.per_kernel, kernel)
            kernel_stats.queue_peak = max(kernel_stats.queue_peak, depth)
            total = sum(self.queue_depth.values())
            self.overall.queue_peak = max(self.overall.queue_peak, total)

    def shadow_verify(self, kernel: str, ok: bool) -> None:
        """One sampled response was cross-checked against the
        interpreter backend (``ok=False`` means the ciphertext path
        disagreed with the plaintext model — silent corruption caught)."""
        with self._lock:
            for stats in self._scopes(kernel, None):
                stats.shadow_checks += 1
                if not ok:
                    stats.shadow_mismatches += 1

    # -- reporting ---------------------------------------------------------

    def snapshot(self, reset: bool = False) -> dict:
        """JSON-ready view of every scope (the ``stats`` op's payload)."""
        with self._lock:
            payload = {
                "scheduler": self.overall.summary(),
                "kernels": {
                    name: stats.summary()
                    for name, stats in sorted(self.per_kernel.items())
                },
                "tenants": {
                    name: stats.summary()
                    for name, stats in sorted(self.per_tenant.items())
                },
                "queue_depth": dict(sorted(self.queue_depth.items())),
            }
            if reset:
                self.overall = SchedulerStats()
                self.per_kernel = {}
                self.per_tenant = {}
            return payload

    def format_table(self) -> str:
        """The ``--timings`` rendering: one row per kernel, then all."""
        with self._lock:
            rows = dict(sorted(self.per_kernel.items()))
            rows["(all)"] = self.overall
            return SchedulerStats.timing_table("scheduler stats", rows)
