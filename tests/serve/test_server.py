"""End-to-end server tests: scheduling, TCP, and served-vs-serial identity.

The determinism property: any interleaving of k concurrent same-program
requests must return outputs byte-identical to k serial ``session.run``
calls.  Most tests drive the fast interpreter backend; one closes the
loop on real BFV execution with the toy parameter preset.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Porcupine
from repro.api.backends import HEBackend
from repro.serve import AsyncServeClient, PorcupineServer, ServeConfig


@pytest.fixture(scope="module")
def session():
    return Porcupine()


def _output(response: dict) -> np.ndarray:
    assert response.get("ok"), response.get("error")
    return np.asarray(response["output"], dtype=np.int64).reshape(
        response["shape"]
    )


async def _with_server(session, config, body):
    """startup → body(server) → stop, without TCP."""
    server = PorcupineServer(session, config)
    await server.startup()
    try:
        return await body(server)
    finally:
        await server.stop()


def test_run_matches_direct_session_run(session):
    config = ServeConfig(backend="interpreter", precompile=("gx",))
    spec = session.spec("gx")
    env = spec.random_backend_inputs(7)

    async def body(server):
        return await server.handle_request(
            {
                "id": "r1",
                "op": "run",
                "kernel": "gx",
                "inputs": {name: arr.tolist() for name, arr in env.items()},
            }
        )

    response = asyncio.run(_with_server(session, config, body))
    direct = session.run("gx", env, backend="interpreter")
    assert response["id"] == "r1"
    assert response["matches_reference"] is True
    assert response["batched"] == 1
    assert _output(response).tobytes() == direct.logical_output.tobytes()


def test_error_paths_return_clean_responses(session):
    config = ServeConfig(backend="interpreter")

    async def body(server):
        unknown_kernel = await server.handle_request(
            {"id": "e1", "op": "run", "kernel": "nope"}
        )
        unknown_op = await server.handle_request({"id": "e2", "op": "dance"})
        bad_shape = await server.handle_request(
            {"id": "e3", "op": "run", "kernel": "gx", "inputs": {"img": [1]}}
        )
        missing_kernel = await server.handle_request({"op": "run"})
        return unknown_kernel, unknown_op, bad_shape, missing_kernel

    unknown_kernel, unknown_op, bad_shape, missing_kernel = asyncio.run(
        _with_server(session, config, body)
    )
    assert not unknown_kernel["ok"] and "unknown kernel" in unknown_kernel["error"]
    assert unknown_kernel["id"] == "e1"
    assert not unknown_op["ok"] and "unknown op" in unknown_op["error"]
    assert not bad_shape["ok"] and "expects shape" in bad_shape["error"]
    assert not missing_kernel["ok"] and "kernel" in missing_kernel["error"]


def test_stats_op_reports_scheduler_counters(session):
    config = ServeConfig(backend="interpreter", precompile=("gx",))

    async def body(server):
        await asyncio.gather(
            *(
                server.handle_request(
                    {"op": "run", "kernel": "gx", "seed": s, "tenant": "acme"}
                )
                for s in range(2)
            )
        )
        await server.handle_request({"op": "run", "kernel": "nope"})
        return await server.handle_request({"op": "stats"})

    stats = asyncio.run(_with_server(session, config, body))
    assert stats["ok"]
    scheduler = stats["scheduler"]
    assert scheduler["requests"] == 2
    assert scheduler["responses"] == 2
    assert scheduler["errors"] == 0
    assert scheduler["queue_peak"] >= 0
    assert scheduler["deadline_exceeded"] == scheduler["overloaded"] == 0
    assert scheduler["compile_hits"] == 2  # hot-map hits, boot not counted
    assert stats["kernels"]["gx"]["responses"] == 2
    assert stats["tenants"]["acme"]["responses"] == 2
    assert stats["hot_kernels"] == ["gx"]
    assert {"runs", "ntts_performed"} <= set(stats["executor"])


def test_tcp_round_trip_with_pipelined_client(session):
    config = ServeConfig(backend="interpreter", precompile=("gx",))
    spec = session.spec("gx")
    envs = [spec.random_backend_inputs(s) for s in range(4)]

    async def scenario():
        server = PorcupineServer(session, config)
        host, port = await server.start()
        client = await AsyncServeClient.connect(host, port)
        try:
            pong = await client.submit({"op": "ping"})
            responses = await asyncio.gather(
                *(client.run("gx", env) for env in envs)
            )
            shutdown = await client.submit({"op": "shutdown"})
        finally:
            await client.close()
        await server.stop()
        return pong, responses, shutdown

    pong, responses, shutdown = asyncio.run(scenario())
    assert pong["pong"] and "gx" in pong["kernels"]
    assert shutdown["ok"] and shutdown["stopping"]
    assert [r["batched"] for r in responses] == [1, 1, 1, 1]
    for env, response in zip(envs, responses):
        direct = session.run("gx", env, backend="interpreter")
        assert _output(response).tobytes() == direct.logical_output.tobytes()


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seeds=st.lists(st.integers(0, 2**16), min_size=1, max_size=6),
    stagger=st.lists(st.sampled_from([0.0, 0.001]), min_size=6, max_size=6),
)
def test_property_any_interleaving_matches_serial(seeds, stagger):
    """k concurrent requests ≡ k serial runs, byte-for-byte."""
    session = Porcupine()
    spec = session.spec("gx")
    envs = [spec.random_backend_inputs(s) for s in seeds]
    config = ServeConfig(backend="interpreter", precompile=("gx",))

    async def body(server):
        async def one(i, env):
            await asyncio.sleep(stagger[i % len(stagger)])
            return await server.handle_request(
                {
                    "op": "run",
                    "kernel": "gx",
                    "tenant": f"t{i % 3}",
                    "inputs": {
                        name: arr.tolist() for name, arr in env.items()
                    },
                }
            )

        return await asyncio.gather(
            *(one(i, env) for i, env in enumerate(envs))
        )

    responses = asyncio.run(_with_server(session, config, body))
    for env, response in zip(envs, responses):
        direct = session.run("gx", env, backend="interpreter")
        assert _output(response).tobytes() == direct.logical_output.tobytes()


@pytest.mark.parametrize("kernel", ["gx", "box_blur"])
def test_he_batched_results_bit_identical_to_serial(session, kernel):
    """Concurrent HE requests pipelined on one connection each run alone
    (``batched == 1``) and decrypt to the exact ``session.execute``
    outputs."""
    config = ServeConfig(
        backend="he", params="toy", seed=0, precompile=(kernel,),
    )
    spec = session.spec(kernel)
    envs = [spec.random_backend_inputs(s) for s in range(4)]

    async def scenario():
        server = PorcupineServer(session, config)
        host, port = await server.start()
        client = await AsyncServeClient.connect(host, port)
        try:
            return await asyncio.gather(
                *(client.run(kernel, env) for env in envs)
            )
        finally:
            await client.close()
            await server.stop()

    responses = asyncio.run(scenario())
    assert [r["batched"] for r in responses] == [1, 1, 1, 1]
    compiled = session.compile(kernel)
    engine = HEBackend(seed=0, params="toy")
    for env, response in zip(envs, responses):
        direct = session.execute(compiled, env, backend=engine)
        assert response["matches_reference"] is True
        assert _output(response).tobytes() == direct.logical_output.tobytes()
