"""Structured serving errors, deadlines, and retry policy.

Production HE compilers treat failure handling as part of the compiler
contract (EVA's compile-service deployment, HEIR's pipeline-robustness
emphasis): a client must be able to tell *mechanically* whether an error
was its own fault (``PROTOCOL``), a transient server condition worth
retrying (``OVERLOADED``, ``WORKER_CRASHED``, ``EXECUTOR_CRASHED``,
``UNAVAILABLE``, ``NOISE_BUDGET``), a budget it set itself
(``DEADLINE_EXCEEDED``), or a bug (``INTERNAL``).  Every wire error therefore carries a ``code`` from
the closed taxonomy below plus a ``retryable`` hint, and every
:class:`ServeError` knows how to render itself as a wire response.

:class:`Deadline` is the request-budget primitive threaded through the
whole serving stack — the front-end stamps one at arrival
(``timeout_ms`` on the request, or the server default) and the compile
tier, admission queue, and executor all poll the same absolute
``time.perf_counter`` instant, so a request times out *once*, with one
typed error, no matter which tier it is stuck in.

:class:`RetryPolicy` is the client half of the contract: exponential
backoff with deterministic-seedable jitter, applied only to idempotent
operations (every serving op except ``shutdown`` is idempotent — a
``run`` is a pure function of the kernel, inputs, and server seed).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

# -- the closed error-code taxonomy -----------------------------------------

#: request could not be decoded into a well-formed operation (caller bug)
PROTOCOL = "PROTOCOL"
#: the request's deadline elapsed before a result was produced
DEADLINE_EXCEEDED = "DEADLINE_EXCEEDED"
#: admission control rejected the request (bounded backlog full)
OVERLOADED = "OVERLOADED"
#: a compile-pool worker process died mid-compile
WORKER_CRASHED = "WORKER_CRASHED"
#: the execution thread was poisoned mid-run and has been restarted
EXECUTOR_CRASHED = "EXECUTOR_CRASHED"
#: the transport died with requests outstanding (client-side only)
CONNECTION_LOST = "CONNECTION_LOST"
#: the server is shutting down or a required tier is unavailable
UNAVAILABLE = "UNAVAILABLE"
#: the noise budget was (or would be) exhausted and could not be
#: recovered by parameter escalation; the result was withheld rather
#: than risk returning corrupt plaintext
NOISE_BUDGET = "NOISE_BUDGET"
#: anything else (a bug: unexpected exception on the serving path)
INTERNAL = "INTERNAL"

ERROR_CODES = (
    PROTOCOL,
    DEADLINE_EXCEEDED,
    OVERLOADED,
    WORKER_CRASHED,
    EXECUTOR_CRASHED,
    CONNECTION_LOST,
    UNAVAILABLE,
    NOISE_BUDGET,
    INTERNAL,
)

#: codes a client may safely retry for idempotent operations
RETRYABLE_CODES = frozenset(
    {OVERLOADED, WORKER_CRASHED, EXECUTOR_CRASHED, CONNECTION_LOST,
     UNAVAILABLE, NOISE_BUDGET}
)


class ServeError(Exception):
    """Base class for typed serving failures.

    Subclasses pin ``code`` (and the default ``retryable`` flag); the
    server converts any raised :class:`ServeError` into a wire error
    response carrying both, and clients convert such responses back via
    :func:`error_from_response`.
    """

    code: str = INTERNAL
    retryable: bool = False

    def __init__(self, message: str, *, retryable: bool | None = None):
        super().__init__(message)
        if retryable is not None:
            self.retryable = retryable

    def response(self, request_id: Any) -> dict:
        """The wire shape of this error (id-echoing, typed)."""
        return {
            "id": request_id,
            "ok": False,
            "error": str(self),
            "code": self.code,
            "retryable": self.retryable,
        }


class DeadlineExceeded(ServeError):
    """The request's own time budget elapsed; retrying needs a new one."""

    code = DEADLINE_EXCEEDED
    retryable = False


class Overloaded(ServeError):
    """Admission control turned the request away; back off and retry."""

    code = OVERLOADED
    retryable = True


class WorkerCrashed(ServeError):
    """A compile worker process died; the pool respawns, retry is safe."""

    code = WORKER_CRASHED
    retryable = True


class ExecutorCrashed(ServeError):
    """The execution thread was poisoned; it restarts, retry is safe."""

    code = EXECUTOR_CRASHED
    retryable = True


class ConnectionLost(ServeError, ConnectionError):
    """The transport died with this request outstanding (client-side).

    Subclasses :class:`ConnectionError` too, so callers that predate the
    taxonomy (``except ConnectionError``) keep working.
    """

    code = CONNECTION_LOST
    retryable = True


class Unavailable(ServeError):
    """The server (or a tier it needs) is not accepting work right now."""

    code = UNAVAILABLE
    retryable = True


class NoiseBudgetError(ServeError):
    """The run tripped a noise guard (or failed shadow verification)
    and escalation could not recover it; the server withheld the output
    rather than return silently-corrupt plaintext.

    Retryable: the corruption is a transient runtime event (an injected
    or real bit-flip, a mis-sized request), not a property of the
    request itself — a fresh execution re-encrypts from scratch.
    """

    code = NOISE_BUDGET
    retryable = True


class InternalError(ServeError):
    """An unexpected exception escaped on the serving path."""

    code = INTERNAL
    retryable = False


_CODE_TO_CLASS: dict[str, type[ServeError]] = {
    DEADLINE_EXCEEDED: DeadlineExceeded,
    OVERLOADED: Overloaded,
    WORKER_CRASHED: WorkerCrashed,
    EXECUTOR_CRASHED: ExecutorCrashed,
    CONNECTION_LOST: ConnectionLost,
    UNAVAILABLE: Unavailable,
    NOISE_BUDGET: NoiseBudgetError,
    INTERNAL: InternalError,
}


def error_from_response(response: dict) -> ServeError:
    """Rehydrate a wire error response into its typed exception.

    Unknown or missing codes come back as :class:`InternalError` (a
    ``PROTOCOL`` error is the caller's own bug, never retryable, and has
    no dedicated exception class — it maps to a plain non-retryable
    :class:`ServeError` with the code preserved).
    """
    code = response.get("code", INTERNAL)
    message = str(response.get("error", "unknown error"))
    if code == PROTOCOL:
        error = ServeError(message, retryable=False)
        error.code = PROTOCOL
        return error
    cls = _CODE_TO_CLASS.get(code, InternalError)
    error = cls(message)
    if "retryable" in response:
        error.retryable = bool(response["retryable"])
    return error


# -- deadlines ---------------------------------------------------------------


@dataclass(frozen=True)
class Deadline:
    """An absolute ``time.perf_counter`` instant a request must beat.

    One deadline is stamped when a request arrives and polled by every
    tier it passes through — compile pool, admission queue, executor —
    so queueing time and execution time draw down the same budget.
    """

    at: float

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        return cls(time.perf_counter() + seconds)

    @classmethod
    def from_timeout_ms(
        cls, timeout_ms: float | None, default_ms: float | None = None
    ) -> "Deadline | None":
        """Deadline from a request's ``timeout_ms`` (or a server default).

        ``None`` (neither set) means the request runs unbounded, which is
        the pre-deadline wire behavior.
        """
        value = timeout_ms if timeout_ms is not None else default_ms
        if value is None:
            return None
        value = float(value)
        if value <= 0:
            raise ValueError("timeout_ms must be > 0")
        return cls.after(value / 1e3)

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self.at - time.perf_counter()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0


# -- client retry policy -----------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter for idempotent serving calls.

    ``attempts`` counts *tries*, not retries: the default of 3 means one
    initial call plus up to two retries.  Backoff for retry *i* (0-based)
    is ``base_s * multiplier**i`` capped at ``max_backoff_s``, then
    jittered by up to ``jitter`` of itself (full-jitter style, so
    coordinated clients decorrelate).  ``seed`` makes the jitter stream
    deterministic for tests.
    """

    attempts: int = 3
    base_s: float = 0.05
    multiplier: float = 2.0
    max_backoff_s: float = 2.0
    jitter: float = 0.5  # fraction of the backoff that is randomized
    seed: int | None = None
    _rng: random.Random = field(
        init=False, repr=False, compare=False, default=None  # type: ignore
    )

    def __post_init__(self):
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        object.__setattr__(self, "_rng", random.Random(self.seed))

    def backoff(self, retry_index: int) -> float:
        """Sleep before retry ``retry_index`` (0 for the first retry)."""
        base = min(
            self.base_s * (self.multiplier ** retry_index),
            self.max_backoff_s,
        )
        if self.jitter <= 0:
            return base
        spread = base * self.jitter
        return max(0.0, base - spread + self._rng.uniform(0, 2 * spread))

    def should_retry(self, error: Exception, attempt: int) -> bool:
        """Whether try number ``attempt`` (1-based) may be followed by
        another, given the failure it produced."""
        if attempt >= self.attempts:
            return False
        if isinstance(error, ServeError):
            return error.retryable
        # raw transport failures (reset, refused, EOF) are retryable for
        # idempotent operations
        return isinstance(error, (ConnectionError, OSError, EOFError))

    def schedule(self) -> Iterator[float]:
        """The full backoff schedule (one delay per allowed retry)."""
        for i in range(self.attempts - 1):
            yield self.backoff(i)


#: a policy that never retries (the default for non-idempotent ops)
NO_RETRY = RetryPolicy(attempts=1)
