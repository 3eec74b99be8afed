"""Per-run HE execution settings, kept free of the BFV substrate.

:class:`ExecOptions` is the one configuration object every execution
layer passes down — the CLI, :class:`~repro.serve.server.ServeConfig`,
the :class:`~repro.api.Porcupine` session, :class:`~repro.api.HEBackend`,
and :class:`~repro.runtime.executor.HEExecutor`.  It is frozen and
hashable, so the session's backend cache keys on it directly.  Nothing
here imports :mod:`repro.he`, so the API layer can name the options
without loading the cryptosystem.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NoiseGuardPolicy:
    """Where and how an executor samples noise budgets at runtime.

    BFV noise exhaustion decrypts to garbage, not an error (paper section
    2.2), so without guards a dead ciphertext silently propagates to the
    caller.  Guards trade a budget measurement (one decrypt-cost pass per
    check) for a typed :class:`NoiseBudgetExhausted` naming the tape step
    the moment the budget bottoms out.

    Attributes:
        after_multiplies: sample after every ct-ct multiply, the only
            opcode with multiplicative noise growth.
        every_n_ops: additionally sample after every N tape steps.
        check_output: also gate the output decrypt on a positive budget
            instead of returning garbage.
        min_budget_bits: trip threshold; budgets at or below this raise.
    """

    after_multiplies: bool = False
    every_n_ops: int | None = None
    check_output: bool = True
    min_budget_bits: int = 0

    @classmethod
    def coerce(
        cls, guard: "NoiseGuardPolicy | str | int | None"
    ) -> "NoiseGuardPolicy | None":
        """Normalize the user-facing knob: off | output | mul | every-N."""
        if guard is None or guard == "off":
            return None
        if isinstance(guard, cls):
            return guard
        if guard == "output":
            return cls()
        if guard == "mul":
            return cls(after_multiplies=True)
        if isinstance(guard, int) and not isinstance(guard, bool):
            if guard < 1:
                raise ValueError("guard interval must be >= 1")
            return cls(every_n_ops=guard)
        raise ValueError(
            f"unknown noise guard {guard!r}; expected 'off', 'output', "
            "'mul', an op interval, or a NoiseGuardPolicy"
        )


@dataclass(frozen=True)
class ExecOptions:
    """How one HE execution guards and recovers its noise budget.

    Attributes:
        guard: runtime noise guards — ``None``/``"off"``, ``"output"``
            (gate the decrypted output), ``"mul"`` (after every ct-ct
            multiply), an every-N-ops int, or a :class:`NoiseGuardPolicy`.
        noise_margin_bits: predictive admission; tape compilation refuses
            programs whose estimated output budget falls below this many
            bits (``None`` disables admission).
        escalate: recover a :class:`~repro.he.errors.NoiseBudgetExhausted`
            from either check by re-running on the next-larger preset of
            :data:`~repro.he.params.PRESET_LADDER`.
    """

    guard: NoiseGuardPolicy | str | int | None = None
    noise_margin_bits: float | None = None
    escalate: bool = True

    def __post_init__(self):
        NoiseGuardPolicy.coerce(self.guard)  # reject unknown modes early
