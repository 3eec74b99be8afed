"""Fault-injection harness: the server under chaos never hangs, never
returns a corrupt result, and every failure crosses the wire typed.

Faults are armed by site (``compile:<kernel>``, ``execute:<kernel>``)
through :class:`~repro.serve.faults.FaultInjector` and fire exactly the
armed number of times, so every test is deterministic: worker kills take
down a real process-pool worker, executor faults poison the real
execution thread, and transport chaos (malformed frames, half-open and
dropped connections) is played against a real TCP server.  The closing
property: with retrying clients, a request storm under injected chaos
still returns outputs byte-identical to serial ``session.run`` calls.
"""

import asyncio
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.api import ExecOptions, Porcupine
from repro.serve import (
    AsyncServeClient,
    ConnectionLost,
    PorcupineServer,
    RetryPolicy,
    ServeClient,
    ServeConfig,
)
from repro.serve.errors import (
    CONNECTION_LOST,
    DEADLINE_EXCEEDED,
    OVERLOADED,
    WORKER_CRASHED,
    DeadlineExceeded,
    ExecutorCrashed,
    error_from_response,
)
from repro.serve.faults import FaultInjector, apply_fault
from repro.serve.server import SupervisedExecutor

RETRY = RetryPolicy(attempts=4, base_s=0.01, max_backoff_s=0.05, seed=0)


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    cache = tmp_path_factory.mktemp("chaos-cache")
    return Porcupine(cache_dir=str(cache))


def _output(response: dict) -> np.ndarray:
    assert response.get("ok"), response.get("error")
    return np.asarray(response["output"], dtype=np.int64).reshape(
        response["shape"]
    )


async def _with_server(session, config, body, faults=None):
    server = PorcupineServer(session, config, faults=faults)
    await server.startup()
    try:
        return await body(server)
    finally:
        await server.stop()


# -- the injector itself -----------------------------------------------------


def test_fault_injector_arms_and_trips_deterministically():
    faults = FaultInjector()
    faults.arm("compile:gx", ("raise", "boom"), times=2)
    assert faults.pending("compile:gx") == 2
    assert faults.take("compile:gx") == ("raise", "boom")
    assert faults.take("compile:gx") == ("raise", "boom")
    assert faults.take("compile:gx") is None  # exhausted
    assert faults.tripped("compile:gx")
    assert faults.take("execute:gx") is None  # unarmed site
    with pytest.raises(RuntimeError, match="boom"):
        apply_fault(("raise", "boom"))
    with pytest.raises(ValueError):
        apply_fault(("warp-core-breach",))
    apply_fault(None)  # no-op


# -- the supervised execution thread -----------------------------------------


def _poison():
    raise RuntimeError("segfault-adjacent state corruption")


def test_supervised_executor_restarts_on_poison():
    exec_ = SupervisedExecutor()

    async def scenario():
        try:
            assert await exec_.run(lambda: 41 + 1) == 42
            with pytest.raises(ExecutorCrashed) as info:
                await exec_.run(_poison)
            assert info.value.retryable
            assert "thread restarted" in str(info.value)
            assert exec_.restarts == 1
            # the fresh thread serves the next job
            assert await exec_.run(lambda: "alive") == "alive"
        finally:
            exec_.shutdown()

    asyncio.run(scenario())


def test_supervised_executor_passes_typed_errors_through():
    exec_ = SupervisedExecutor()

    def typed():
        raise DeadlineExceeded("already typed")

    async def scenario():
        try:
            with pytest.raises(DeadlineExceeded):
                await exec_.run(typed)
            # a typed failure does not implicate the thread
            assert exec_.restarts == 0
        finally:
            exec_.shutdown()

    asyncio.run(scenario())


# -- compile-tier chaos through the full server ------------------------------


def test_worker_kill_surfaces_typed_then_server_recovers(session):
    """SIGKILL a real pool worker mid-compile: typed error, then service."""
    faults = FaultInjector()
    faults.arm("compile:box_blur", ("kill",))
    config = ServeConfig(
        backend="interpreter",
        compile_workers=1,
        cache_dir=str(session.cache.path),
    )
    spec = session.spec("box_blur")
    env = spec.random_backend_inputs(3)
    request = {
        "op": "run",
        "kernel": "box_blur",
        "inputs": {name: arr.tolist() for name, arr in env.items()},
    }

    async def body(server):
        first = await server.handle_request(dict(request, id="r1"))
        second = await server.handle_request(dict(request, id="r2"))
        stats = await server.handle_request({"op": "stats"})
        return first, second, stats

    first, second, stats = asyncio.run(
        _with_server(session, config, body, faults=faults)
    )
    assert first["ok"] is False
    assert first["code"] == WORKER_CRASHED
    assert first["retryable"] is True
    # the rehydrated client-side exception is typed too
    assert error_from_response(first).code == WORKER_CRASHED
    direct = session.run("box_blur", env, backend="interpreter")
    assert _output(second).tobytes() == direct.logical_output.tobytes()
    assert stats["health"]["pool_restarts"] == 1
    assert stats["health"]["pool_degraded"] is False


def test_slow_compile_hits_deadline_not_a_hang(session):
    faults = FaultInjector()
    faults.arm("compile:dot_product", ("sleep", 0.5))
    config = ServeConfig(backend="interpreter")

    async def body(server):
        start = time.perf_counter()
        response = await server.handle_request(
            {"id": "r1", "op": "run", "kernel": "dot_product",
             "timeout_ms": 60}
        )
        elapsed = time.perf_counter() - start
        # the abandoned compile keeps running and lands in the cache;
        # the retry is then served normally
        await asyncio.sleep(0.7)
        retry = await server.handle_request(
            {"id": "r2", "op": "run", "kernel": "dot_product",
             "attempt": 2}
        )
        return response, elapsed, retry

    response, elapsed, retry = asyncio.run(
        _with_server(session, config, body, faults=faults)
    )
    assert response["ok"] is False
    assert response["code"] == DEADLINE_EXCEEDED
    assert response["retryable"] is False
    assert elapsed < 0.4, f"deadline response took {elapsed:.3f}s"
    assert retry["ok"] is True


def test_slow_execute_hits_deadline_then_serves_identically(session):
    faults = FaultInjector()
    faults.arm("execute:gx", ("sleep", 0.5))
    config = ServeConfig(backend="interpreter", precompile=("gx",))
    spec = session.spec("gx")
    env = spec.random_backend_inputs(11)
    request = {
        "op": "run",
        "kernel": "gx",
        "inputs": {name: arr.tolist() for name, arr in env.items()},
    }

    async def body(server):
        start = time.perf_counter()
        slow = await server.handle_request(
            dict(request, id="r1", timeout_ms=50)
        )
        elapsed = time.perf_counter() - start
        ok = await server.handle_request(dict(request, id="r2"))
        stats = await server.handle_request({"op": "stats"})
        return slow, elapsed, ok, stats

    slow, elapsed, ok, stats = asyncio.run(
        _with_server(session, config, body, faults=faults)
    )
    assert slow["ok"] is False
    assert slow["code"] == DEADLINE_EXCEEDED
    assert elapsed < 0.4, f"deadline response took {elapsed:.3f}s"
    direct = session.run("gx", env, backend="interpreter")
    assert _output(ok).tobytes() == direct.logical_output.tobytes()
    assert stats["scheduler"]["deadline_exceeded"] == 1


def test_backlog_overflow_is_typed_overloaded(session):
    config = ServeConfig(
        backend="interpreter", precompile=("gx",), max_backlog=1,
    )
    spec = session.spec("gx")
    envs = [spec.random_backend_inputs(s) for s in range(4)]

    async def body(server):
        return await asyncio.gather(
            *(
                server.handle_request(
                    {
                        "id": f"r{i}",
                        "op": "run",
                        "kernel": "gx",
                        "inputs": {n: a.tolist() for n, a in env.items()},
                    }
                )
                for i, env in enumerate(envs)
            )
        )

    responses = asyncio.run(_with_server(session, config, body))
    accepted = [r for r in responses if r.get("ok")]
    rejected = [r for r in responses if not r.get("ok")]
    assert accepted and rejected, "expected a mix under a full backlog"
    for response in rejected:
        assert response["code"] == OVERLOADED
        assert response["retryable"] is True
        assert error_from_response(response).retryable
    for response in accepted:
        env = envs[int(response["id"][1:])]
        direct = session.run("gx", env, backend="interpreter")
        assert _output(response).tobytes() == direct.logical_output.tobytes()


# -- transport chaos over real TCP -------------------------------------------


async def _raw_exchange(host, port, frames):
    """Write raw frames, return one decoded response line per frame."""
    reader, writer = await asyncio.open_connection(host, port)
    responses = []
    try:
        for frame in frames:
            writer.write(frame)
            await writer.drain()
            responses.append(json.loads(await reader.readline()))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    return responses


def test_malformed_frames_answered_typed_connection_survives(session):
    config = ServeConfig(backend="interpreter", precompile=("gx",))

    async def body(server):
        host, port = await server.start()
        return await _raw_exchange(
            host,
            port,
            [
                b'{"op": }\n',  # undecodable JSON
                b"[1, 2, 3]\n",  # not an object
                b'{"op": "warp"}\n',  # unknown op
                b'{"op": "ping"}\n',  # ...and the connection still works
            ],
        )

    bad_json, bad_shape, bad_op, pong = asyncio.run(
        _with_server(session, config, body)
    )
    for response in (bad_json, bad_shape, bad_op):
        assert response["ok"] is False
        assert response["code"] == "PROTOCOL"
        assert response["retryable"] is False
    assert pong["pong"] is True


def test_half_open_and_dropped_connections_never_wedge_the_server(session):
    config = ServeConfig(backend="interpreter", precompile=("gx",))

    async def body(server):
        host, port = await server.start()
        # half-open: a partial frame, then EOF without a newline
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b'{"op": "pi')
        await writer.drain()
        writer.write_eof()
        # the server answers the truncated frame typed (or just hangs
        # up) and then closes its side — either way read() terminates
        tail = await reader.read()
        if tail:
            assert json.loads(tail)["code"] == "PROTOCOL"
        writer.close()
        # dropped mid-request: send a run, slam the connection shut
        # before the response can be written
        _, writer = await asyncio.open_connection(host, port)
        writer.write(b'{"op": "run", "kernel": "gx"}\n')
        await writer.drain()
        writer.close()
        await asyncio.sleep(0.05)  # let the orphaned request land
        # the server is still fully alive for the next client
        return await _raw_exchange(host, port, [b'{"op": "ping"}\n'])

    (pong,) = asyncio.run(_with_server(session, config, body))
    assert pong["pong"] is True


def test_async_client_fails_pending_typed_on_connection_loss():
    """Satellite: reader death fails every pending future typed."""

    async def scenario():
        accepted = asyncio.Event()

        async def handler(reader, writer):
            await reader.readline()  # swallow one request...
            accepted.set()
            writer.close()  # ...and hang up without answering

        server = await asyncio.start_server(handler, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        client = await AsyncServeClient.connect(host, port)
        try:
            with pytest.raises(ConnectionLost) as info:
                await client.submit({"op": "ping"})
            assert info.value.code == CONNECTION_LOST
            assert info.value.retryable
            # the client is marked dead: later submits fail fast
            # instead of waiting on a reader that will never run
            with pytest.raises(ConnectionLost):
                await client.submit({"op": "ping"})
        finally:
            await client.close()
            server.close()
            await server.wait_closed()
        assert accepted.is_set()

    asyncio.run(scenario())


def test_async_client_retry_reconnects_after_drop():
    """First connection dies mid-request; the retry opens a new one."""

    async def scenario():
        connections = 0
        seen_attempts = []

        async def handler(reader, writer):
            nonlocal connections
            connections += 1
            line = await reader.readline()
            request = json.loads(line)
            seen_attempts.append(request.get("attempt", 1))
            if connections == 1:
                writer.close()  # drop the first connection unanswered
                return
            response = {"id": request["id"], "ok": True, "pong": True}
            writer.write((json.dumps(response) + "\n").encode())
            await writer.drain()

        server = await asyncio.start_server(handler, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        client = await AsyncServeClient.connect(host, port, retry=RETRY)
        try:
            response = await client.submit({"op": "ping"})
        finally:
            await client.close()
            server.close()
            await server.wait_closed()
        return connections, seen_attempts, response

    connections, attempts, response = asyncio.run(scenario())
    assert response["ok"] is True
    assert connections == 2
    assert attempts == [1, 2]  # the retry announced itself


def _line_server(script):
    """A blocking TCP server: per connection, run ``script`` steps.

    Each step handles one request line: ``"drop"`` closes the
    connection, a callable maps the decoded request to a response dict.
    One connection per script entry, accepted sequentially.
    """
    listener = socket.create_server(("127.0.0.1", 0))
    host, port = listener.getsockname()[:2]

    def serve():
        for steps in script:
            conn, _ = listener.accept()
            with conn, conn.makefile("rwb") as stream:
                for step in steps:
                    line = stream.readline()
                    if not line:
                        break
                    request = json.loads(line)
                    if step == "drop":
                        break
                    response = step(request)
                    stream.write((json.dumps(response) + "\n").encode())
                    stream.flush()
        listener.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return host, port, thread


def test_sync_client_retries_retryable_wire_errors():
    def overloaded(request):
        return {
            "id": request["id"], "ok": False, "error": "backlog full",
            "code": OVERLOADED, "retryable": True,
        }

    def ok(request):
        return {"id": request["id"], "ok": True,
                "attempt": request.get("attempt", 1)}

    host, port, thread = _line_server([[overloaded, ok]])
    with ServeClient(host, port, timeout=5.0, retry=RETRY) as client:
        response = client.request({"op": "ping"})
    thread.join(timeout=5.0)
    assert response["ok"] is True
    assert response["attempt"] == 2  # server saw the retry flag


def test_sync_client_reconnects_after_server_drop():
    def ok(request):
        return {"id": request["id"], "ok": True,
                "attempt": request.get("attempt", 1)}

    host, port, thread = _line_server([["drop"], [ok]])
    with ServeClient(host, port, timeout=5.0, retry=RETRY) as client:
        response = client.request({"op": "ping"})
    thread.join(timeout=5.0)
    assert response["ok"] is True
    assert response["attempt"] == 2


def test_sync_client_without_retry_raises_typed():
    host, port, thread = _line_server([["drop"]])
    with ServeClient(host, port, timeout=5.0) as client:
        with pytest.raises(ConnectionLost) as info:
            client.request({"op": "ping"})
    thread.join(timeout=5.0)
    assert info.value.code == CONNECTION_LOST
    assert isinstance(info.value, ConnectionError)  # legacy handlers


# -- the closing property: chaos + retries == serial -------------------------


def test_request_storm_under_chaos_is_bit_identical_to_serial(session):
    """Executor poison + slow executions + retrying clients: every surviving
    response matches serial ``session.run`` byte-for-byte."""
    faults = FaultInjector()
    faults.arm("execute:gx", ("raise", "injected chaos"), times=1)
    faults.arm("execute:gx", ("sleep", 0.05), times=1)
    config = ServeConfig(backend="interpreter", precompile=("gx",))
    spec = session.spec("gx")
    envs = [spec.random_backend_inputs(s) for s in range(8)]

    async def body(server):
        host, port = await server.start()
        client = await AsyncServeClient.connect(host, port, retry=RETRY)
        try:
            responses = await asyncio.gather(
                *(
                    client.run("gx", env, tenant=f"t{i % 3}")
                    for i, env in enumerate(envs)
                )
            )
            stats = await client.submit({"op": "stats"})
        finally:
            await client.close()
        return responses, stats

    responses, stats = asyncio.run(
        _with_server(session, config, body, faults=faults)
    )
    for env, response in zip(envs, responses):
        direct = session.run("gx", env, backend="interpreter")
        assert _output(response).tobytes() == direct.logical_output.tobytes()
    assert faults.tripped("execute:gx")
    assert stats["health"]["executor_restarts"] >= 1
    assert stats["scheduler"]["retried_requests"] >= 1
    # the poisoned execution's failure crossed the wire typed
    assert stats["scheduler"]["errors"] >= 1


# -- noise chaos: silent corruption must never cross the wire ----------------
#
# BFV noise-budget exhaustion and mid-tape ciphertext corruption do not
# raise on their own — they decrypt to *wrong plaintext*.  These tests
# pin the no-silent-corruption contract: under an armed runtime fault or
# genuine exhaustion, a serve client gets either a typed retryable
# NOISE_BUDGET error or a correct escalated result — never a wrong
# answer.


def _quad_session():
    """A session with a registered depth-2 kernel that exhausts toy
    params (cache pre-seeded, so serving it never synthesizes)."""
    from repro.api.cache import CacheEntry
    from repro.core.sketch import ComponentChoice, CtHole, Sketch
    from repro.quill.builder import ProgramBuilder
    from repro.quill.ir import Opcode
    from repro.quill.printer import format_program
    from repro.spec.layout import vector_layout
    from repro.spec.reference import Spec

    n = 4
    base = vector_layout([("x", "ct", n)])
    layout = vector_layout(
        [("x", "ct", n)],
        output_slots=list(range(base.origin, base.origin + n)),
        output_shape=(n,),
    )
    spec = Spec(
        name="noise_quad", layout=layout,
        reference=lambda x: [int(v) ** 4 for v in x],
        description="x^4 per element (noise-exhaustion probe)",
    )
    sketch = Sketch(
        name="noise_quad",
        choices=(ComponentChoice(Opcode.MUL_CC, CtHole(), CtHole()),
                 ComponentChoice(Opcode.MUL_CC, CtHole(), CtHole())),
        rotations=(),
    )
    b = ProgramBuilder(vector_size=layout.vector_size, name="noise_quad")
    x = b.ct_input("x")
    sq = b.mul(x, x)
    program = b.build(b.mul(sq, sq))

    quad = Porcupine()
    definition = quad.register("noise_quad", spec, sketch=sketch)
    key = quad._cache_key(definition, spec, None, quad.config_for(definition))
    quad.cache.put(key, CacheEntry(
        program_text=format_program(program), seal_code=""))
    return quad


def test_runtime_bitflip_is_typed_noise_budget_then_retry_succeeds(session):
    """A mid-tape ciphertext bit-flip with escalation disabled: the
    output guard withholds the corrupt plaintext as a typed retryable
    NOISE_BUDGET error, and the (re-encrypted) retry is bit-identical
    to the interpreter reference."""
    from repro.serve.errors import NOISE_BUDGET

    faults = FaultInjector()
    faults.arm("runtime:gx", ("bitflip", 3, 11))
    config = ServeConfig(
        backend="he", params="toy", seed=7,
        exec_options=ExecOptions(guard="output", escalate=False),
    )
    request = {"op": "run", "kernel": "gx", "seed": 5}

    async def body(server):
        flipped = await server.handle_request(dict(request, id="r1"))
        retry = await server.handle_request(
            dict(request, id="r2", attempt=2)
        )
        stats = await server.handle_request({"op": "stats"})
        return flipped, retry, stats

    flipped, retry, stats = asyncio.run(
        _with_server(session, config, body, faults=faults)
    )
    assert flipped["ok"] is False
    assert flipped["code"] == NOISE_BUDGET
    assert flipped["retryable"] is True
    assert error_from_response(flipped).retryable
    assert "noise budget" in flipped["error"]
    assert retry["ok"] is True
    assert retry["matches_reference"] is True
    env = session.spec("gx").random_backend_inputs(5)
    direct = session.run("gx", env, backend="interpreter")
    assert _output(retry).tobytes() == direct.logical_output.tobytes()
    assert faults.tripped("runtime:gx") == 1
    assert stats["scheduler"]["noise_budget_errors"] == 1
    assert stats["scheduler"]["guard_trips"] == 1
    assert stats["scheduler"]["retried_requests"] == 1


def test_runtime_bitflip_recovers_transparently_via_escalation(session):
    """Same corruption with escalation on: the guard trips, the engine
    re-runs on the next-larger preset, and the client just gets the
    right answer (plus an escalation counter)."""
    faults = FaultInjector()
    faults.arm("runtime:gx", ("bitflip", 3, 11))
    config = ServeConfig(backend="he", params="toy", seed=7)
    request = {"op": "run", "kernel": "gx", "seed": 5}

    async def body(server):
        response = await server.handle_request(dict(request, id="r1"))
        stats = await server.handle_request({"op": "stats"})
        return response, stats

    response, stats = asyncio.run(
        _with_server(session, config, body, faults=faults)
    )
    assert response["ok"] is True
    assert response["matches_reference"] is True
    env = session.spec("gx").random_backend_inputs(5)
    direct = session.run("gx", env, backend="interpreter")
    assert _output(response).tobytes() == direct.logical_output.tobytes()
    assert stats["scheduler"]["noise_escalations"] == 1
    assert stats["scheduler"]["noise_budget_errors"] == 0


def test_genuine_exhaustion_escalates_to_correct_result():
    """A depth-2 kernel served on toy params genuinely exhausts the
    budget (no injected fault): the server recompiles on the larger
    preset and returns the exact plaintext answer."""
    quad = _quad_session()
    config = ServeConfig(backend="he", params="toy", seed=7)
    request = {"op": "run", "kernel": "noise_quad",
               "inputs": {"x": [1, 2, 3, 2]}}

    async def body(server):
        response = await server.handle_request(dict(request, id="r1"))
        stats = await server.handle_request({"op": "stats"})
        return response, stats

    response, stats = asyncio.run(_with_server(quad, config, body))
    assert response["ok"] is True
    assert response["matches_reference"] is True
    assert _output(response).tolist() == [1, 16, 81, 16]
    assert stats["scheduler"]["noise_escalations"] == 1


def test_genuine_exhaustion_without_escalation_is_typed():
    from repro.serve.errors import NOISE_BUDGET

    quad = _quad_session()
    config = ServeConfig(
        backend="he", params="toy", seed=7,
        exec_options=ExecOptions(guard="output", escalate=False),
    )
    request = {"op": "run", "kernel": "noise_quad",
               "inputs": {"x": [1, 2, 3, 2]}}

    async def body(server):
        return await server.handle_request(dict(request, id="r1"))

    response = asyncio.run(_with_server(quad, config, body))
    assert response["ok"] is False
    assert response["code"] == NOISE_BUDGET
    assert response["retryable"] is True


def test_shadow_verify_catches_corruption_with_guards_off(session):
    """Defense in depth: noise guards disabled, but shadow verification
    cross-checks the run against the interpreter and withholds the
    corrupt result typed — the client never sees wrong plaintext."""
    from repro.serve.errors import NOISE_BUDGET

    faults = FaultInjector()
    faults.arm("runtime:gx", ("bitflip", 3, 11))
    config = ServeConfig(
        backend="he", params="toy", seed=7,
        exec_options=ExecOptions(guard="off", escalate=False),
        shadow_verify=1.0,
    )
    request = {"op": "run", "kernel": "gx", "seed": 5}

    async def body(server):
        corrupt = await server.handle_request(dict(request, id="r1"))
        clean = await server.handle_request(dict(request, id="r2"))
        stats = await server.handle_request({"op": "stats"})
        return corrupt, clean, stats

    corrupt, clean, stats = asyncio.run(
        _with_server(session, config, body, faults=faults)
    )
    assert corrupt["ok"] is False
    assert corrupt["code"] == NOISE_BUDGET
    assert "shadow verification" in corrupt["error"]
    assert clean["ok"] is True
    assert clean["matches_reference"] is True
    assert stats["scheduler"]["shadow_checks"] == 2
    assert stats["scheduler"]["shadow_mismatches"] == 1
    assert stats["scheduler"]["noise_budget_errors"] == 1


def test_poison_fault_never_returns_wrong_plaintext(session):
    """The wholesale residue-poison fault: every configuration either
    errors typed or recovers — across guard modes, no response carries
    a wrong answer."""
    from repro.serve.errors import NOISE_BUDGET

    request = {"op": "run", "kernel": "gx", "seed": 5}
    env = session.spec("gx").random_backend_inputs(5)
    expected = session.run("gx", env, backend="interpreter").logical_output

    for escalate in (False, True):
        faults = FaultInjector()
        faults.arm("runtime:gx", ("poison", 2))
        config = ServeConfig(
            backend="he", params="toy", seed=7,
            exec_options=ExecOptions(guard="output", escalate=escalate),
        )

        async def body(server):
            return await server.handle_request(dict(request, id="r1"))

        response = asyncio.run(
            _with_server(session, config, body, faults=faults)
        )
        if response["ok"]:
            assert _output(response).tobytes() == expected.tobytes()
        else:
            assert response["code"] == NOISE_BUDGET
            assert response["retryable"] is True
