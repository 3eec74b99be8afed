"""Wire protocol: newline-delimited JSON requests and responses.

One JSON object per line, UTF-8, at most :data:`MAX_LINE` bytes.  Every
request carries an ``op`` plus op-specific fields; every response echoes
the request's ``id`` (``null`` if the request was unparseable) and an
``ok`` flag.  The protocol is deliberately plain — any language with a
TCP socket and a JSON encoder is a client; no schema registry, no
framing beyond the newline.

Requests
--------

``{"op": "run", "id": "r1", "kernel": "gx", "tenant": "alice",
"inputs": {"img": [[...]]}, "seed": 0}``
    Compile (cached) and execute one kernel.  ``inputs`` maps logical
    input names to nested integer lists matching the spec's shapes;
    omit it to draw random in-range inputs from ``seed`` server-side.
    Each ``run`` is executed alone: one ciphertext per input, one pass
    of the tape.

``{"op": "compile", "kernel": "gx"}``
    Warm the compile cache without executing.

``{"op": "stats", "reset": false}``
    Scheduler/tenant/kernel counters (optionally reset after reading).

``{"op": "ping"}`` / ``{"op": "shutdown"}``
    Liveness probe / graceful stop (drain queues, then exit).

Responses
---------

``run`` replies carry the decrypted logical ``output`` (nested list) and
its ``shape``, ``matches_reference``, ``noise_budget`` (HE only),
``batched`` (always 1: requests are no longer stacked, and the field is
kept for wire compatibility), ``execute_s`` (the tape's wall time), and
``latency_s`` (arrival to completion, queueing included).
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from repro.spec.reference import Spec

#: Hard cap on one protocol line; ``asyncio.start_server(limit=...)`` and
#: the blocking client both enforce it.  Model vectors are tiny (tens of
#: slots), so 1 MiB leaves orders of magnitude of headroom.
MAX_LINE = 1 << 20


class ProtocolError(ValueError):
    """A request that cannot be decoded into a well-formed operation."""


def encode_message(payload: dict) -> bytes:
    """One wire line: compact JSON + newline."""
    line = json.dumps(payload, separators=(",", ":")).encode()
    if len(line) + 1 > MAX_LINE:
        raise ProtocolError(
            f"message of {len(line)} bytes exceeds the {MAX_LINE}-byte limit"
        )
    return line + b"\n"


def decode_message(line: bytes) -> dict:
    """Parse one wire line into a payload dict."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"invalid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("message must be a JSON object")
    return payload


def error_response(
    request_id: Any,
    message: str,
    code: str = "PROTOCOL",
    retryable: bool = False,
) -> dict:
    """A typed wire error: ``code`` from :mod:`repro.serve.errors`'
    taxonomy plus a ``retryable`` hint for client retry policies."""
    return {
        "id": request_id,
        "ok": False,
        "error": message,
        "code": code,
        "retryable": retryable,
    }


def decode_inputs(
    spec: Spec, payload: dict | None
) -> dict[str, np.ndarray]:
    """Validate and convert a request's ``inputs`` against the spec.

    Checked here, before the request is enqueued, so a malformed request
    fails at the front door instead of on the execution lane.
    """
    if payload is None:
        raise ProtocolError("missing 'inputs'")
    if not isinstance(payload, dict):
        raise ProtocolError("'inputs' must be an object of name -> array")
    expected = {p.name: p.shape for p in spec.layout.inputs}
    missing = sorted(set(expected) - set(payload))
    extra = sorted(set(payload) - set(expected))
    if missing or extra:
        problems = []
        if missing:
            problems.append(f"missing input(s) {missing}")
        if extra:
            problems.append(f"unexpected input(s) {extra}")
        raise ProtocolError(
            f"inputs for {spec.name!r} malformed: {'; '.join(problems)}"
        )
    env: dict[str, np.ndarray] = {}
    for name, shape in expected.items():
        try:
            array = np.asarray(payload[name], dtype=np.int64)
        except (TypeError, ValueError, OverflowError):
            raise ProtocolError(
                f"input {name!r} is not an integer array"
            ) from None
        if array.shape != tuple(shape):
            raise ProtocolError(
                f"input {name!r} expects shape {tuple(shape)}, "
                f"got {array.shape}"
            )
        env[name] = array
    return env
