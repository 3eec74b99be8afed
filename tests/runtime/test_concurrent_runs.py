"""Concurrent runs of one kernel through one backend stay correct.

Two threads replaying the same compiled tape share the executor, its
keys and its ring tables, but never a scratch buffer: each thread's
transforms run in that thread's own arena.  Sharing one arena between
them had the threads overwrite each other's NTT workspaces mid-gemm, and
most outputs came back wrong.  The first compile runs before the
threads start (concurrent first compiles are not covered).
"""

import threading

import numpy as np

from repro.api.backends import HEBackend
from repro.baselines import baseline_for
from repro.spec import get_spec

RUNS_PER_THREAD = 15


def _env(spec, rng):
    return {
        p.name: rng.integers(0, spec.backend_bound + 1, p.shape)
        for p in spec.layout.inputs
    }


def test_two_threads_running_gx_through_one_backend_are_correct():
    spec = get_spec("gx")  # the secure n4096 preset
    program = baseline_for("gx")
    backend = HEBackend(seed=1)
    warm = backend.execute(program, spec, _env(spec, np.random.default_rng(0)))
    assert warm.matches_reference  # keys, Galois keys, tape and tables built
    wrong: list[int] = []
    errors: list[BaseException] = []
    start = threading.Barrier(2)

    def worker(seed: int) -> None:
        rng = np.random.default_rng(seed)
        start.wait()
        try:
            for _ in range(RUNS_PER_THREAD):
                env = _env(spec, rng)
                result = backend.execute(program, spec, env)
                wrong.extend([seed] * (not result.matches_reference))
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(s,)) for s in (1, 2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert not wrong, f"{len(wrong)} of {2 * RUNS_PER_THREAD} outputs wrong"
