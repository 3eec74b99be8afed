"""Per-kernel and per-tenant serving metrics.

Everything counts into :class:`~repro.runtime.profiler.SchedulerStats`,
the one metrics shape of online serving (the ``stats`` wire op and
``porcupine serve --timings``).  Latency samples are kept in a bounded sliding
window per scope so a long-lived server's memory stays flat; counters
are cumulative until ``snapshot(reset=True)``.
"""

from __future__ import annotations

import threading

from repro.runtime.profiler import SchedulerStats, format_scheduler_table


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

    def _kernel(self, kernel: str) -> SchedulerStats:
        stats = self.per_kernel.get(kernel)
        if stats is None:
            stats = self.per_kernel[kernel] = SchedulerStats()
        return stats

    def _tenant(self, tenant: str) -> SchedulerStats:
        stats = self.per_tenant.get(tenant)
        if stats is None:
            stats = self.per_tenant[tenant] = SchedulerStats()
        return stats

    # -- recording ---------------------------------------------------------

    def request(self, kernel: str, tenant: str) -> None:
        with self._lock:
            for stats in (self.overall, self._kernel(kernel),
                          self._tenant(tenant)):
                stats.requests += 1

    def response(
        self, kernel: str, tenant: str, latency_s: float, ok: bool = True
    ) -> None:
        latency_ms = latency_s * 1e3
        with self._lock:
            for stats in (self.overall, self._kernel(kernel),
                          self._tenant(tenant)):
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

        with self._lock:
            scopes = (self.overall, self._kernel(kernel),
                      self._tenant(tenant))
            for stats in scopes:
                stats.errors += 1
                if code == _errors.DEADLINE_EXCEEDED:
                    stats.deadline_exceeded += 1
                elif code == _errors.OVERLOADED:
                    stats.overloaded += 1
                elif code == _errors.NOISE_BUDGET:
                    stats.noise_budget_errors += 1

    def retry(self, kernel: str, tenant: str) -> None:
        """A request arrived flagged as a client retry (``attempt`` > 1)."""
        with self._lock:
            for stats in (self.overall, self._kernel(kernel),
                          self._tenant(tenant)):
                stats.retried_requests += 1

    def pool_restart(self) -> None:
        """The compile pool was respawned after a worker crash."""
        with self._lock:
            self.overall.pool_restarts += 1

    def executor_restart(self) -> None:
        """The supervised execution thread was restarted."""
        with self._lock:
            self.overall.executor_restarts += 1

    def degraded_compile(self, kernel: str) -> None:
        """A compile ran in-process because the pool is unhealthy."""
        with self._lock:
            for stats in (self.overall, self._kernel(kernel)):
                stats.degraded_compiles += 1

    def depth(self, kernel: str, depth: int) -> None:
        """Gauge update: requests currently queued for ``kernel``."""
        with self._lock:
            self.queue_depth[kernel] = depth
            kernel_stats = self._kernel(kernel)
            kernel_stats.queue_peak = max(kernel_stats.queue_peak, depth)
            total = sum(self.queue_depth.values())
            self.overall.queue_peak = max(self.overall.queue_peak, total)

    def noise_escalations(self, kernel: str, count: int) -> None:
        """``count`` parameter escalations recovered requests for
        ``kernel`` (drained from the engine after each request)."""
        if count <= 0:
            return
        with self._lock:
            for stats in (self.overall, self._kernel(kernel)):
                stats.noise_escalations += count

    def guard_trip(self, kernel: str) -> None:
        """A runtime noise guard stopped a request mid-tape."""
        with self._lock:
            for stats in (self.overall, self._kernel(kernel)):
                stats.guard_trips += 1

    def shadow_verify(self, kernel: str, ok: bool) -> None:
        """One sampled response was cross-checked against the
        interpreter backend (``ok=False`` means the ciphertext path
        disagreed with the plaintext model — silent corruption caught)."""
        with self._lock:
            for stats in (self.overall, self._kernel(kernel)):
                stats.shadow_checks += 1
                if not ok:
                    stats.shadow_mismatches += 1

    def compile_result(self, kernel: str, hit: bool) -> None:
        with self._lock:
            for stats in (self.overall, self._kernel(kernel)):
                if hit:
                    stats.compile_hits += 1
                else:
                    stats.compile_misses += 1

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
        """The ``--timings`` rendering (shared with offline reports)."""
        with self._lock:
            return format_scheduler_table(self.overall, self.per_kernel)
