"""Crash-safe synthesis checkpoints: kill, resume, byte-identical.

The headline regression: a synthesis run killed mid-search — via a
deterministic power cut, a wrapped ``SynthesisCheckpoint.save`` that
``os._exit(137)``s the process right after its n-th checkpoint write
with no cleanup — and resumed from its checkpoint produces a
program byte-identical to an uninterrupted run.  Exercised end-to-end in
subprocesses on two registry kernels, including a multi-round CEGIS
search (dot_product @ seed 5 provably adds counterexamples, so the rng
stream and example set must survive the round trip too).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.cegis import SynthesisConfig, synthesize
from repro.core.checkpoint import (
    CheckpointState,
    SynthesisCheckpoint,
    checkpoint_key,
    example_from_json,
    example_to_json,
    restore_rng,
    rng_state,
)
from repro.core.sketches import default_sketch_for
from repro.quill.printer import format_program
from repro.spec import get_spec
from repro.spec.reference import Example

SRC = str(Path(__file__).resolve().parents[2] / "src")

_RUNNER = """
import os
import sys
from repro.core.cegis import SynthesisConfig, synthesize
from repro.core.checkpoint import SynthesisCheckpoint
from repro.core.sketches import default_sketch_for
from repro.quill.printer import format_program
from repro.spec import get_spec

name, seed, ckpt = sys.argv[1], int(sys.argv[2]), sys.argv[3]
crash_after = int(sys.argv[4])
if crash_after:
    real_save = SynthesisCheckpoint.save

    def save(self, state):
        real_save(self, state)
        self.saves = getattr(self, "saves", 0) + 1
        if self.saves == crash_after:
            # the deterministic power cut: no cleanup, no atexit, no
            # flushing: exactly what SIGKILL at this instant looks like
            os._exit(137)

    SynthesisCheckpoint.save = save
spec = get_spec(name)
config = SynthesisConfig(
    seed=seed, optimize_timeout=10.0, checkpoint_path=ckpt or None
)
result = synthesize(spec, default_sketch_for(spec), config)
sys.stdout.write(format_program(result.program))
"""


def _run_child(kernel, seed, checkpoint, crash_after=None):
    return subprocess.run(
        [sys.executable, "-c", _RUNNER, kernel, str(seed), checkpoint,
         str(crash_after or 0)],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=300,
    )


# -- the kill-and-resume regression (two registry kernels) -------------------


@pytest.mark.parametrize(
    "kernel,seed,crash_after",
    [
        ("box_blur", 0, 1),
        ("dot_product", 5, 1),  # multi-round: rng/examples must survive
        ("dot_product", 5, 2),
    ],
    ids=["box_blur@1", "dot_product@1", "dot_product@2"],
)
def test_kill_and_resume_is_byte_identical(
    tmp_path, kernel, seed, crash_after
):
    baseline = _run_child(kernel, seed, "")
    assert baseline.returncode == 0, baseline.stderr

    checkpoint = str(tmp_path / "run.ckpt")
    crashed = _run_child(kernel, seed, checkpoint, crash_after=crash_after)
    assert crashed.returncode == 137, (
        f"expected the deterministic power cut, got rc="
        f"{crashed.returncode}: {crashed.stderr}"
    )
    assert Path(checkpoint).exists(), "crash left no checkpoint behind"

    resumed = _run_child(kernel, seed, checkpoint)
    assert resumed.returncode == 0, resumed.stderr
    assert resumed.stdout == baseline.stdout, (
        "resumed program differs from the uninterrupted run"
    )


def test_completed_checkpoint_short_circuits_resynthesis(tmp_path):
    spec = get_spec("box_blur")
    sketch = default_sketch_for(spec)
    path = str(tmp_path / "done.ckpt")
    config = SynthesisConfig(
        max_components=3, optimize_timeout=10.0, checkpoint_path=path
    )
    first = synthesize(spec, sketch, config)
    again = synthesize(spec, sketch, config)
    assert format_program(again.program) == format_program(first.program)
    assert again.proof_complete
    # the rerun replayed nothing: it reconstructed the result instead
    assert again.nodes == 0
    assert again.total_time == 0.0


# -- serialization round-trips ----------------------------------------------


def test_example_round_trips_through_json():
    example = Example(
        ct_env={"img": np.arange(12, dtype=np.int64).reshape(3, 4)},
        pt_env={"w": np.asarray([1, -2, 3], dtype=np.int64)},
        goal=np.asarray([[7, -9]], dtype=np.int64),
    )
    back = example_from_json(json.loads(json.dumps(example_to_json(example))))
    for env, orig in (
        (back.ct_env, example.ct_env),
        (back.pt_env, example.pt_env),
    ):
        assert set(env) == set(orig)
        for name in orig:
            assert env[name].dtype == np.int64
            assert env[name].tobytes() == orig[name].tobytes()
            assert env[name].shape == orig[name].shape
    assert back.goal.tobytes() == example.goal.tobytes()
    assert back.goal.shape == example.goal.shape


def test_rng_state_round_trips_the_stream():
    rng = np.random.default_rng(42)
    rng.integers(0, 100, size=7)  # advance past the seed state
    state = json.loads(json.dumps(rng_state(rng)))
    expected = rng.integers(0, 2**31, size=16)
    replay = np.random.default_rng(0)
    restore_rng(replay, state)
    assert (replay.integers(0, 2**31, size=16) == expected).all()


def test_checkpoint_state_round_trips(tmp_path):
    spec = get_spec("box_blur")
    sketch = default_sketch_for(spec)
    config = SynthesisConfig(max_components=3)
    rng = np.random.default_rng(3)
    state = CheckpointState(
        phase="initial",
        length=4,
        resume_rank=17,
        examples=[
            Example(
                ct_env={"x": np.asarray([1, 2], dtype=np.int64)},
                pt_env={},
                goal=np.asarray([3], dtype=np.int64),
            )
        ],
        rng=rng_state(rng),
    )
    ckpt = SynthesisCheckpoint.for_run(tmp_path / "c.ckpt", spec, sketch, config)
    ckpt.save(state)
    loaded = ckpt.load()
    assert loaded is not None
    assert loaded.phase == "initial"
    assert loaded.length == 4
    assert loaded.resume_rank == 17
    assert len(loaded.examples) == 1
    assert loaded.examples[0].goal.tolist() == [3]
    assert loaded.rng == json.loads(json.dumps(state.rng))


# -- staleness and corruption degrade to a fresh run -------------------------


def test_stale_checkpoint_is_ignored(tmp_path):
    spec = get_spec("box_blur")
    sketch = default_sketch_for(spec)
    path = tmp_path / "c.ckpt"
    old = SynthesisCheckpoint.for_run(
        path, spec, sketch, SynthesisConfig(seed=0)
    )
    old.save(CheckpointState(phase="done", best_text="quill kernel \"x\""))
    # a different config is a different search: the key must mismatch
    new = SynthesisCheckpoint.for_run(
        path, spec, sketch, SynthesisConfig(seed=1)
    )
    assert new.key != old.key
    assert new.load() is None


def test_operational_fields_do_not_change_the_key(tmp_path):
    spec = get_spec("box_blur")
    sketch = default_sketch_for(spec)
    base = checkpoint_key(spec, sketch, SynthesisConfig(seed=0))
    moved = checkpoint_key(
        spec,
        sketch,
        SynthesisConfig(seed=0, checkpoint_path="/elsewhere", workers=4),
    )
    assert moved == base


def test_missing_and_corrupt_checkpoints_load_as_none(tmp_path):
    spec = get_spec("box_blur")
    sketch = default_sketch_for(spec)
    config = SynthesisConfig()
    path = tmp_path / "c.ckpt"
    ckpt = SynthesisCheckpoint.for_run(path, spec, sketch, config)
    assert ckpt.load() is None  # missing
    path.write_text("this is not json{")
    assert ckpt.load() is None  # corrupt
    path.write_text(json.dumps([1, 2, 3]))
    assert ckpt.load() is None  # wrong shape
    ckpt.save(CheckpointState())
    assert ckpt.load() is not None
    ckpt.clear()
    assert ckpt.load() is None
    ckpt.clear()  # idempotent


def test_save_is_atomic_no_temp_residue(tmp_path):
    spec = get_spec("box_blur")
    sketch = default_sketch_for(spec)
    ckpt = SynthesisCheckpoint.for_run(
        tmp_path / "deep" / "c.ckpt", spec, sketch, SynthesisConfig()
    )
    ckpt.save(CheckpointState(phase="initial", length=3))
    files = sorted(p.name for p in (tmp_path / "deep").iterdir())
    assert files == ["c.ckpt"], f"temp residue left behind: {files}"
