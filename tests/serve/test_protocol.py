"""Tests for the serve wire protocol: framing and validation."""

import numpy as np
import pytest

from repro.serve.protocol import (
    MAX_LINE,
    ProtocolError,
    decode_inputs,
    decode_message,
    encode_message,
    error_response,
)
from repro.spec import get_spec


def test_encode_decode_roundtrip():
    payload = {"op": "run", "kernel": "gx", "inputs": {"img": [[1, 2]]}}
    line = encode_message(payload)
    assert line.endswith(b"\n")
    assert decode_message(line) == payload


def test_encode_rejects_oversized_messages():
    with pytest.raises(ProtocolError, match="exceeds"):
        encode_message({"blob": "x" * MAX_LINE})


def test_decode_rejects_non_objects_and_garbage():
    with pytest.raises(ProtocolError, match="JSON object"):
        decode_message(b"[1, 2, 3]\n")
    with pytest.raises(ProtocolError, match="invalid JSON"):
        decode_message(b"{nope\n")


def test_error_response_shape():
    response = error_response("r1", "boom")
    assert response == {
        "id": "r1",
        "ok": False,
        "error": "boom",
        "code": "PROTOCOL",
        "retryable": False,
    }
    typed = error_response("r2", "try later", code="OVERLOADED",
                           retryable=True)
    assert typed["code"] == "OVERLOADED"
    assert typed["retryable"] is True


def test_decode_inputs_accepts_exact_match():
    spec = get_spec("gx")
    env = spec.random_backend_inputs(0)
    decoded = decode_inputs(
        spec, {name: value.tolist() for name, value in env.items()}
    )
    for name, value in env.items():
        assert np.array_equal(decoded[name], value)
        assert decoded[name].dtype == np.int64


def test_decode_inputs_reports_missing_and_extra_names():
    spec = get_spec("gx")
    with pytest.raises(ProtocolError, match="missing input"):
        decode_inputs(spec, {})
    env = {name: value.tolist()
           for name, value in spec.random_backend_inputs(0).items()}
    env["bogus"] = [1]
    with pytest.raises(ProtocolError, match="unexpected input.*bogus"):
        decode_inputs(spec, env)


def test_decode_inputs_reports_bad_shape_and_type():
    spec = get_spec("gx")
    with pytest.raises(ProtocolError, match="expects shape"):
        decode_inputs(spec, {"img": [1, 2, 3]})
    with pytest.raises(ProtocolError, match="not an integer array"):
        decode_inputs(spec, {"img": "not numbers"})
