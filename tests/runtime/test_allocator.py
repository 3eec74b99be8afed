"""A warm tape keeps its workspaces resident: no page faults between ops.

By default glibc hands large freed blocks back to the kernel, so every op
of a replayed tape faulted the same workspaces in again (about 2,000
minor faults per warm n4096 gx run).  The first ``BFVContext`` of a
process fixes glibc's mmap and trim thresholds (``pin_allocator``).
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import baseline_for
from repro.he import arena
from repro.he.arena import pin_allocator
from repro.he.params import small_params
from repro.runtime.executor import HEExecutor
from repro.spec import get_spec

resource = pytest.importorskip("resource")

glibc_only = pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="the thresholds are glibc's"
)
SRC = Path(__file__).resolve().parents[2] / "src"


@glibc_only
def test_warm_runs_take_almost_no_page_faults():
    spec = get_spec("gx")
    program = baseline_for("gx")
    executor = HEExecutor(spec, params=small_params(), seed=3)
    assert arena._pinned is True  # by the context, not by this test
    rng = np.random.default_rng(0)
    envs = [
        {p.name: rng.integers(0, 5, p.shape) for p in spec.layout.inputs}
        for _ in range(3)
    ]
    for env in envs[:2]:
        executor.run(program, env)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    report = executor.run(program, envs[2])
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert report.matches_reference
    assert faults < 200, f"{faults} minor faults in a warm run"
    assert executor.stats.ntts_performed == executor.stats.ntts_planned > 0


def test_pin_allocator_is_idempotent(monkeypatch):
    first = pin_allocator()

    def no_second_call(*args, **kwargs):
        raise AssertionError("the pin reached the C library twice")

    monkeypatch.setattr(arena.ctypes, "CDLL", no_second_call)
    assert pin_allocator() is first
    if platform.libc_ver()[0] == "glibc":
        assert first is True


def test_import_leaves_the_allocator_alone():
    """Importing the package pins nothing; building a context does."""
    script = (
        "import repro.he as he, repro.he.arena as a\n"
        "print(a._pinned)\n"
        "he.BFVContext(he.toy_params(), seed=0)\n"
        "print(a._pinned is not None)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert result.stdout.split() == ["None", "True"]
