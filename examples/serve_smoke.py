"""Serving smoke test: boot ``porcupine serve``, work it, shut it down.

The CI job for the serving tier: launches the real CLI entry point as a
subprocess, parses the ``serving on HOST:PORT`` boot line, drives a
mixed-kernel workload (explicit inputs, server-drawn inputs for two
tenants, and an error path) through the blocking
:class:`~repro.serve.client.ServeClient`, then requests a clean shutdown
over the wire and asserts the process exits 0.

Run from the repository root::

    PYTHONPATH=src python examples/serve_smoke.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import Porcupine  # noqa: E402
from repro.serve import ServeClient  # noqa: E402

BOOT_TIMEOUT_S = 120.0


def launch_server() -> tuple[subprocess.Popen, str, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--backend", "interpreter",
            "--precompile", "gx,box_blur",
            "--timings",
        ],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    # the boot line is machine-parseable by contract: "serving on HOST:PORT"
    boot: list[str] = []
    timer = threading.Timer(BOOT_TIMEOUT_S, process.kill)
    timer.start()
    try:
        assert process.stdout is not None
        for line in process.stdout:
            print(f"  [server] {line.rstrip()}")
            if line.startswith("serving on "):
                boot.append(line.strip())
                break
    finally:
        timer.cancel()
    if not boot:
        process.kill()
        raise SystemExit("server never printed its boot line")
    host, _, port = boot[0].removeprefix("serving on ").rpartition(":")
    return process, host, int(port)


def drain_output(process: subprocess.Popen) -> str:
    assert process.stdout is not None
    tail = process.stdout.read()
    for line in tail.splitlines():
        print(f"  [server] {line}")
    return tail


def main() -> int:
    session = Porcupine()
    process, host, port = launch_server()
    try:
        with ServeClient(host, port) as client:
            pong = client.ping()
            assert pong["ok"] and pong["pong"], pong
            print(f"ping ok, {len(pong['kernels'])} kernels registered")

            # mixed-kernel workload: explicit inputs must round-trip
            # bit-identically to a direct library run
            for kernel in ("gx", "box_blur", "dot_product"):
                env = session.spec(kernel).random_backend_inputs(11)
                response = client.run(kernel, env)
                assert response["ok"], response.get("error")
                direct = session.run(kernel, env, backend="interpreter")
                assert np.array_equal(
                    client.output_array(response), direct.logical_output
                ), kernel
                print(f"{kernel}: output matches direct session.run")

            # server-drawn inputs and per-tenant bookkeeping
            for seed, tenant in ((1, "acme"), (2, "acme"), (3, "globex")):
                response = client.run("gx", seed=seed, tenant=tenant)
                assert response["ok"], response.get("error")

            # the error path stays on-protocol (no connection drop)
            bad = client.run("not_a_kernel")
            assert not bad["ok"] and "unknown kernel" in bad["error"], bad
            assert client.ping()["ok"]
            print("error path ok (connection survived)")

            stats = client.stats()
            scheduler = stats["scheduler"]
            assert scheduler["responses"] >= 6, scheduler
            assert stats["tenants"]["acme"]["responses"] == 2, stats["tenants"]
            assert set(stats["hot_kernels"]) >= {"gx", "box_blur"}, stats
            print(
                f"stats ok: {scheduler['responses']} responses, "
                f"queue peak {scheduler['queue_peak']}, "
                f"p50 {scheduler['p50_ms']}ms"
            )

            goodbye = client.shutdown()
            assert goodbye["ok"] and goodbye["stopping"], goodbye

        returncode = process.wait(timeout=60)
        tail = drain_output(process)
        assert "shutdown complete" in tail, tail
        assert returncode == 0, f"server exited {returncode}"
        print("clean shutdown, exit 0")
        return 0
    finally:
        if process.poll() is None:
            process.kill()


if __name__ == "__main__":
    sys.exit(main())
