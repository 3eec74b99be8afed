"""Exception hierarchy for the BFV substrate."""


class HEError(Exception):
    """Base class for all homomorphic-encryption errors."""


class InvalidParameterError(HEError):
    """Raised when BFV parameters are malformed or insecure without opt-in."""


class NoiseBudgetExhausted(HEError):
    """Raised when an operation would (or did) exhaust the noise budget.

    BFV ciphertexts carry noise that grows with every operation; once the
    invariant noise exceeds 1/2 the plaintext can no longer be recovered
    (paper section 2.2, "Noise").

    Structured fields let guards and escalation machinery report exactly
    where the budget died; all default to ``None`` so the exception stays
    constructible from a plain message.

    Attributes:
        min_budget: the worst (minimum) observed or predicted budget, bits.
        op_index: tape step at which a runtime guard tripped (``None`` for
            output-decrypt checks and compile-time admission rejections).
        params_name: name of the parameter preset that was in effect.
    """

    def __init__(
        self,
        message: str,
        *,
        min_budget: float | None = None,
        op_index: int | None = None,
        params_name: str | None = None,
    ):
        super().__init__(message)
        self.min_budget = min_budget
        self.op_index = op_index
        self.params_name = params_name


class DecryptionError(HEError):
    """Raised when decryption produces an inconsistent result."""


class KeyError_(HEError):
    """Raised when a required evaluation key (relin/Galois) is missing."""
