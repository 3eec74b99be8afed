"""Crash-safe CEGIS checkpoints: kill a synthesis run, resume it, get
the byte-identical program.

A long synthesis run (minutes of phase-1 search plus a phase-2
optimality proof) holds all of its progress in memory; a crash loses
hours.  This module serializes the run's *logical* state — the example
set, the counterexample rng stream, the current sketch size, the
cross-round resume rank, and the best verified program so far — to an
atomic on-disk JSON file at every round boundary, so a killed run
restarts from its last boundary instead of from scratch.

Byte-identical resume
---------------------

The checkpoint does **not** serialize engine internals (value stores,
caches).  It needs none: every CEGIS round builds a fresh
:class:`~repro.solver.engine.SketchSearch` from the full example set and
runs it with ``start_rank=resume_rank``, so a resumed round is the
interrupted round itself.  Round boundaries are deterministic given
``(examples, length, start_rank)`` and every random draw flows from the
checkpointed generator state, so a resumed phase 1 replays the
interrupted run candidate-for-candidate.
Phase 2 needs even less: verified accepted programs form a strictly
cost-decreasing sequence in canonical enumeration order, so restarting
the branch-and-bound from the checkpointed ``(best program, bound)``
yields the same final program as an uninterrupted proof.

Staleness
---------

A checkpoint is only resumable for the *same* search: the file carries a
content key over the spec, sketch, and synthesis config fingerprints
(the compile cache's own identity functions, minus fields that cannot
change results).  A key mismatch means the checkpoint is stale and is
silently ignored — resuming against edited specs must never replay the
wrong search.

The ``PORCUPINE_CHECKPOINT_CRASH_AFTER`` environment variable (set to
``n``) hard-kills the process (``os._exit(137)``) immediately after the
``n``-th successful checkpoint write — the deterministic "power cut" the
kill-and-resume regression tests are built on.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.spec.reference import Example

#: bump when the checkpoint layout changes (old files become stale)
CHECKPOINT_FORMAT = 3  # 3: the rank-range split fields dropped


# -- example / rng (de)serialization ----------------------------------------


def example_to_json(example: Example) -> dict:
    """One example as JSON-safe nested integer lists."""

    def env(mapping: dict) -> dict:
        return {
            name: {
                "shape": list(np.asarray(value).shape),
                "data": np.asarray(value).ravel().tolist(),
            }
            for name, value in mapping.items()
        }

    goal = np.asarray(example.goal)
    return {
        "ct_env": env(example.ct_env),
        "pt_env": env(example.pt_env),
        "goal": {"shape": list(goal.shape), "data": goal.ravel().tolist()},
    }


def example_from_json(payload: dict) -> Example:
    def env(mapping: dict) -> dict:
        return {
            name: np.asarray(value["data"], dtype=np.int64).reshape(
                value["shape"]
            )
            for name, value in mapping.items()
        }

    goal = payload["goal"]
    return Example(
        ct_env=env(payload["ct_env"]),
        pt_env=env(payload["pt_env"]),
        goal=np.asarray(goal["data"], dtype=np.int64).reshape(goal["shape"]),
    )


def rng_state(rng: np.random.Generator) -> dict:
    """The generator's full state (JSON-safe: plain ints and strings)."""
    return rng.bit_generator.state


def restore_rng(rng: np.random.Generator, state: dict) -> None:
    rng.bit_generator.state = state


# -- the checkpoint itself ---------------------------------------------------


@dataclass
class CheckpointState:
    """Everything a resumed run needs, one phase tag at a time.

    ``phase`` progresses ``initial`` → ``optimize`` → ``done``; each
    phase reads only the fields its resume path needs.
    """

    phase: str = "initial"
    # phase-1 frontier: resume the counterexample loop here
    length: int | None = None
    resume_rank: int = 0
    examples: list[Example] = field(default_factory=list)
    rng: dict | None = None
    # phase-1 outcome (set once phase >= optimize)
    components: int = 0
    initial_text: str | None = None
    initial_cost: float | None = None
    # phase-2 frontier / outcome
    best_text: str | None = None
    best_cost: float | None = None
    proof_complete: bool = False

    def to_json(self) -> dict:
        return {
            "phase": self.phase,
            "length": self.length,
            "resume_rank": self.resume_rank,
            "examples": [example_to_json(e) for e in self.examples],
            "rng": self.rng,
            "components": self.components,
            "initial_text": self.initial_text,
            "initial_cost": self.initial_cost,
            "best_text": self.best_text,
            "best_cost": self.best_cost,
            "proof_complete": self.proof_complete,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "CheckpointState":
        return cls(
            phase=str(payload["phase"]),
            length=payload.get("length"),
            resume_rank=int(payload.get("resume_rank", 0)),
            examples=[
                example_from_json(e) for e in payload.get("examples", [])
            ],
            rng=payload.get("rng"),
            components=int(payload.get("components", 0)),
            initial_text=payload.get("initial_text"),
            initial_cost=payload.get("initial_cost"),
            best_text=payload.get("best_text"),
            best_cost=payload.get("best_cost"),
            proof_complete=bool(payload.get("proof_complete", False)),
        )


def checkpoint_key(spec, sketch, config) -> str:
    """Content identity of one synthesis run (spec + sketch + config).

    Reuses the compile cache's fingerprint functions (imported lazily:
    :mod:`repro.api.cache` imports this package's CEGIS loop, so a
    module-level import would be circular).
    """
    import hashlib

    from repro.api.cache import (
        config_fingerprint,
        sketch_fingerprint,
        spec_fingerprint,
    )

    payload = {
        "format": CHECKPOINT_FORMAT,
        "spec": spec_fingerprint(spec),
        "sketch": sketch_fingerprint(sketch),
        "config": config_fingerprint(config),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class SynthesisCheckpoint:
    """Atomic on-disk checkpoint for one (spec, sketch, config) run."""

    def __init__(self, path: str | Path, key: str):
        self.path = Path(path)
        self.key = key
        self.saves = 0  # successful writes this process

    @classmethod
    def for_run(
        cls, path: str | Path, spec, sketch, config
    ) -> "SynthesisCheckpoint":
        return cls(path, checkpoint_key(spec, sketch, config))

    def load(self) -> CheckpointState | None:
        """The resumable state, or None (missing, stale, or corrupt).

        A half-written file cannot occur (writes are atomic), but a
        *foreign* or truncated-by-the-operator file can; any parse
        problem degrades to a from-scratch run rather than an error.
        """
        try:
            payload = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("key") != self.key:
            return None  # stale: different spec/sketch/config
        try:
            return CheckpointState.from_json(payload.get("state", {}))
        except (KeyError, TypeError, ValueError):
            return None

    def save(self, state: CheckpointState) -> None:
        """Atomically persist ``state`` (temp file + ``os.replace``)."""
        payload = {
            "format": CHECKPOINT_FORMAT,
            "key": self.key,
            "state": state.to_json(),
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(payload, separators=(",", ":")))
        os.replace(tmp, self.path)
        self.saves += 1
        crash_after = os.environ.get("PORCUPINE_CHECKPOINT_CRASH_AFTER")
        if crash_after is not None and self.saves == int(crash_after):
            # the deterministic power cut: no cleanup, no atexit, no
            # flushing — exactly what SIGKILL at this instant looks like
            os._exit(137)

    def clear(self) -> None:
        try:
            self.path.unlink()
        except OSError:
            pass
