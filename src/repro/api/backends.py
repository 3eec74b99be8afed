"""Pluggable execution backends for compiled kernels.

Two ship built-in, selected by name:

* ``interpreter`` — Quill's behavioural model over plain numpy vectors
  (:mod:`repro.quill.interpreter`): instant, noiseless, ideal for
  functional checks and CI.
* ``he`` — real BFV encryption through
  :class:`repro.runtime.executor.HEExecutor`: the ground truth, with
  noise budgets and wall-clock latency.

Both accept *logical* inputs (one array per layout input), pack them
according to the kernel's layout, execute, unpack the output, and compare
against the plaintext reference — so backend parity is directly
checkable.  Third-party backends register through
:func:`register_backend`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from repro.he.errors import NoiseBudgetExhausted
from repro.quill.interpreter import evaluate
from repro.quill.ir import Program
from repro.runtime.options import ExecOptions
from repro.spec.reference import Spec


@dataclass
class BackendResult:
    """One execution: decrypted/evaluated output versus the reference."""

    backend: str
    kernel: str
    logical_output: np.ndarray
    expected_output: np.ndarray
    matches_reference: bool
    wall_time: float
    noise_budget: int | None = None
    details: dict = field(default_factory=dict)


@dataclass
class BatchResult:
    """Several executions of one kernel, in input order."""

    backend: str
    kernel: str
    results: list[BackendResult]
    batch_size: int
    total_seconds: float

    @property
    def all_match(self) -> bool:
        return all(r.matches_reference for r in self.results)


class ExecutionBackend(Protocol):
    """What the session needs from an execution backend."""

    name: str

    def execute(
        self, program: Program, spec: Spec, logical_env: dict[str, np.ndarray]
    ) -> BackendResult:
        ...  # pragma: no cover - protocol


def _expected(spec: Spec, logical_env: dict[str, np.ndarray]) -> np.ndarray:
    return np.array(
        spec.reference_output(logical_env), dtype=np.int64
    ).reshape(spec.layout.output_shape)


class InterpreterBackend:
    """Evaluate on plain integer vectors (no encryption, no noise)."""

    name = "interpreter"

    def execute(
        self, program: Program, spec: Spec, logical_env: dict[str, np.ndarray]
    ) -> BackendResult:
        ct_env, pt_env = spec.packed_env(logical_env)
        started = time.perf_counter()
        model_output = evaluate(program, ct_env, pt_env)
        wall = time.perf_counter() - started
        logical_output = spec.layout.unpack_output(model_output)
        expected = _expected(spec, logical_env)
        return BackendResult(
            backend=self.name,
            kernel=program.name,
            logical_output=logical_output,
            expected_output=expected,
            matches_reference=bool(np.array_equal(logical_output, expected)),
            wall_time=wall,
        )


class HEBackend:
    """Execute under real BFV encryption; executors are reused per spec.

    ``params`` overrides the spec's parameter preset by name
    (``"toy"``/``"small"``/``"large"``) — the serving tests run on toy
    parameters this way.

    ``options`` (:class:`~repro.runtime.options.ExecOptions`) sets the
    runtime noise guards and predictive admission of every executor the
    backend builds; with ``options.escalate`` (the default) a
    :class:`~repro.he.errors.NoiseBudgetExhausted` from either is
    recovered transparently by recompiling and re-running on the
    next-larger preset up the :data:`~repro.he.params.PRESET_LADDER`.
    """

    name = "he"

    def __init__(
        self,
        seed: int | None = None,
        params: str | None = None,
        options: ExecOptions | None = None,
    ):
        self.seed = seed
        self.params_preset = params
        self.options = options or ExecOptions()
        self._executors: dict[tuple[str, str], object] = {}
        # escalations not yet collected by drain_escalations() (the
        # serving tier folds them into its MetricsRegistry per request)
        self._unreported_escalations = 0
        # preset the most recent escalated run actually landed on
        self.last_escalation_params_name: str | None = None

    def _make_executor(self, spec: Spec, params):
        from repro.runtime.executor import HEExecutor

        return HEExecutor(
            spec,
            params=params,
            seed=self.seed,
            options=self.options,
        )

    def _executor_for(self, spec: Spec, params=None):
        """The cached executor for ``spec`` (per parameter set).

        ``params`` selects an explicit :class:`BFVParams` (the escalation
        path); by default the backend's preset override or the spec's own
        preset applies.
        """
        if params is None and self.params_preset is not None:
            from repro.he.errors import InvalidParameterError
            from repro.he.params import preset_params

            try:
                params = preset_params(self.params_preset)
            except InvalidParameterError:
                raise ValueError(
                    f"unknown params preset {self.params_preset!r}; "
                    "available: toy, small, large"
                ) from None
        key = (spec.name, params.name if params is not None else "")
        executor = self._executors.get(key)
        if executor is None:
            executor = self._make_executor(spec, params)
            self._executors[key] = executor
        return executor

    # -- graceful degradation -------------------------------------------

    def _escalation_ladder(self, spec: Spec, params) -> list:
        """Presets strictly above ``params`` whose rows fit the vector."""
        from repro.he.params import next_larger_params

        ladder = []
        current = params
        while True:
            current = next_larger_params(current)
            if current is None:
                break
            if spec.layout.vector_size <= current.row_size:
                ladder.append(current)
        return ladder

    def _run_escalated(self, spec: Spec, base_executor, attempt, error):
        """Walk the preset ladder until one attempt survives its guards."""
        for params in self._escalation_ladder(spec, base_executor.params):
            executor = self._executor_for(spec, params=params)
            executor.stats.noise_escalations += 1
            self._unreported_escalations += 1
            try:
                result = attempt(executor)
            except NoiseBudgetExhausted as next_error:
                error = next_error
                continue
            self.last_escalation_params_name = params.name
            return result
        raise error

    def drain_escalations(self) -> int:
        """Escalations since the last drain (serving metrics hook)."""
        count = self._unreported_escalations
        self._unreported_escalations = 0
        return count

    def arm_tape_fault(self, spec: Spec, fault: tuple | None) -> None:
        """Arm a one-shot runtime corruption on the spec's executor."""
        self._executor_for(spec).arm_tape_fault(fault)

    def executor_stats(self):
        """Merged :class:`~repro.runtime.profiler.ExecutorStats` across
        every executor this backend has built."""
        from repro.runtime.profiler import ExecutorStats

        merged = ExecutorStats()
        for executor in self._executors.values():
            merged = merged.merge(executor.stats)
        return merged

    def pin(self, program: Program, spec: Spec) -> None:
        """Keep a hot program's compiled tape resident across evictions."""
        self._executor_for(spec).pin(program)

    def _to_result(self, program: Program, report) -> BackendResult:
        return BackendResult(
            backend=self.name,
            kernel=program.name,
            logical_output=report.logical_output,
            expected_output=report.expected_output,
            matches_reference=report.matches_reference,
            wall_time=report.wall_time,
            noise_budget=report.output_noise_budget,
            details={"instruction_seconds": report.instruction_seconds},
        )

    def execute(
        self, program: Program, spec: Spec, logical_env: dict[str, np.ndarray]
    ) -> BackendResult:
        def attempt(executor) -> BackendResult:
            return self._to_result(program, executor.run(program, logical_env))

        executor = self._executor_for(spec)
        try:
            return attempt(executor)
        except NoiseBudgetExhausted as error:
            if not self.options.escalate:
                raise
            return self._run_escalated(spec, executor, attempt, error)


_BACKEND_FACTORIES: dict[str, Callable[..., ExecutionBackend]] = {
    "interpreter": InterpreterBackend,
    "he": HEBackend,
}


def register_backend(
    name: str, factory: Callable[..., ExecutionBackend]
) -> None:
    """Make ``name`` selectable in :meth:`Porcupine.run`."""
    _BACKEND_FACTORIES[name] = factory


def backend_names() -> list[str]:
    return list(_BACKEND_FACTORIES)


def get_backend(name: str, **kwargs) -> ExecutionBackend:
    """Instantiate a backend by name."""
    try:
        factory = _BACKEND_FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; available: {', '.join(backend_names())}"
        ) from None
    return factory(**kwargs)
