"""Content-addressed compile cache for synthesized kernels.

Synthesis dominates Porcupine's compile time (minutes for the slow
kernels, as in Table 3), but its output is a pure function of the
specification, the sketch, and the synthesis configuration.  The cache
keys on a SHA-256 over canonical fingerprints of all three (plus the
package version), so *any* semantic change — a different rotation
restriction, a new ``max_components``, another seed — misses cleanly,
while re-running the same benchmark suite hits every kernel.

Entries live in memory; pass a directory for persistence across
processes (programs are stored in Quill's canonical text format and
re-parsed on load, so the cache files are human-auditable).  On-disk
writes are atomic (write-to-temp + ``os.replace``), so any number of
processes — the serving compile workers all share one cache directory —
can read and write concurrently without ever observing a torn entry.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import threading
from dataclasses import asdict as dataclass_asdict
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

from repro import __version__
from repro.core.cegis import SynthesisConfig, SynthesisResult
from repro.core.sketch import ComponentChoice, RotationChoice, Sketch
from repro.quill.parser import parse_program
from repro.quill.printer import format_program
from repro.spec.reference import Spec

_FORMAT = 2  # bump to invalidate every existing cache entry


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


def spec_fingerprint(spec: Spec) -> dict:
    """Canonical content summary of a specification.

    The reference implementation is fingerprinted by source text
    (best-effort: opaque callables fall back to their qualified name), so
    registering a same-named spec with different semantics misses.
    """
    try:
        reference = inspect.getsource(spec.reference)
    except (OSError, TypeError):
        reference = getattr(spec.reference, "__qualname__", repr(spec.reference))
    layout = spec.layout
    return {
        "name": spec.name,
        "layout": {
            "vector_size": layout.vector_size,
            "origin": layout.origin,
            "inputs": [
                [p.name, p.kind, list(p.shape), list(p.slots)]
                for p in layout.inputs
            ],
            "output_slots": list(layout.output_slots),
            "output_shape": list(layout.output_shape),
        },
        "reference": reference,
        "example_bound": spec.example_bound,
        "backend_bound": spec.backend_bound,
        "params_name": spec.params_name,
    }


def sketch_fingerprint(sketch: Sketch) -> dict:
    """Canonical content summary of a sketch."""
    choices = []
    for choice in sketch.choices:
        if isinstance(choice, RotationChoice):
            choices.append(["rot", choice.max_uses])
        else:
            assert isinstance(choice, ComponentChoice)
            choices.append(
                [
                    choice.opcode.value,
                    str(choice.operand1),
                    str(choice.operand2),
                    choice.max_uses,
                ]
            )
    return {
        "name": sketch.name,
        "style": sketch.style,
        "choices": choices,
        "rotations": list(sketch.rotations),
        "constants": {
            name: list(value) if isinstance(value, tuple) else value
            for name, value in sorted(sketch.constants.items())
        },
    }


def config_fingerprint(config: SynthesisConfig) -> dict:
    """Canonical content summary of a synthesis configuration."""
    summary = {}
    for f in fields(config):
        if f.name in ("workers", "checkpoint_path"):
            # parallel search is bit-identical to a serial search
            # whenever the search completes, so it may not split the
            # content-addressed cache.  (When optimize_timeout fires
            # mid-search, the cached best-effort program already depends
            # on machine speed — worker count is no different.)  The
            # checkpoint file location is pure operational plumbing — a
            # resumed run is byte-identical to an uninterrupted one.
            continue
        value = getattr(config, f.name)
        if f.name == "latency_model":
            value = value.name if value is not None else None
        elif f.name == "search_options":
            # pruning toggles are sound (identical programs), but the
            # ablation flags change which engine ran; keep them in the
            # key so ablation runs never alias the default entries
            value = dataclass_asdict(value) if value is not None else None
        summary[f.name] = value
    return summary


def graph_fingerprint(graph) -> dict:
    """Canonical content summary of a composition graph."""
    steps = []
    for step in graph.steps:
        kind = type(step).__name__
        if kind == "KernelStep":
            steps.append([kind, step.id, step.kernel, list(step.args)])
        elif kind == "OpStep":
            steps.append([kind, step.id, step.op, step.a, step.b])
        else:
            value = step.value
            steps.append(
                [kind, step.id, list(value) if isinstance(value, tuple) else value]
            )
    return {
        "name": graph.name,
        "inputs": list(graph.inputs),
        "steps": steps,
        "output": graph.output,
    }


def _digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def compile_key(
    spec: Spec, sketch: Sketch | None, config: SynthesisConfig
) -> str:
    """Content hash addressing one direct compilation."""
    return _digest(
        {
            "format": _FORMAT,
            "version": __version__,
            "spec": spec_fingerprint(spec),
            "sketch": sketch_fingerprint(sketch) if sketch is not None else None,
            "config": config_fingerprint(config),
        }
    )


def composed_key(
    spec: Spec,
    graph,
    component_keys: dict[str, str],
    config: SynthesisConfig | None = None,
) -> str:
    """Content hash addressing one multi-step composition.

    Includes each component's own compile key, so a change anywhere in a
    component's spec, sketch, or config invalidates the composition too
    — plus the composed kernel's *own* configuration, which gates the
    post-composition rewrite passes (``optimize``) even though it drives
    no synthesis of its own.
    """
    return _digest(
        {
            "format": _FORMAT,
            "version": __version__,
            "spec": spec_fingerprint(spec),
            "graph": graph_fingerprint(graph),
            "components": dict(sorted(component_keys.items())),
            "config": (
                config_fingerprint(config) if config is not None else None
            ),
        }
    )


# ---------------------------------------------------------------------------
# Entries
# ---------------------------------------------------------------------------


_STAT_FIELDS = (
    "spec_name",
    "components",
    "examples_used",
    "initial_time",
    "total_time",
    "initial_cost",
    "final_cost",
    "proof_complete",
    "nodes",
)


@dataclass
class CacheEntry:
    """One cached compilation: programs, SEAL code, synthesis statistics."""

    program_text: str
    seal_code: str
    stats: dict | None = None
    initial_program_text: str | None = None
    composed_from: list[str] | None = None
    synthesis_program_text: str | None = None

    @classmethod
    def from_synthesis(
        cls,
        result: SynthesisResult,
        seal_code: str,
        final_program=None,
    ) -> "CacheEntry":
        """Entry for a synthesized kernel.

        ``final_program`` is the program after post-synthesis rewrite
        passes; it is what a cache hit must return.  The raw synthesis
        output is preserved separately so a reconstructed
        :class:`SynthesisResult` describes the same program on a hit as
        on a miss (its stats — costs, node counts — are about that
        program, not the rewritten one).
        """
        return cls(
            program_text=format_program(
                result.program if final_program is None else final_program
            ),
            seal_code=seal_code,
            stats={name: getattr(result, name) for name in _STAT_FIELDS},
            initial_program_text=format_program(result.initial_program),
            synthesis_program_text=format_program(result.program),
        )

    @cached_property
    def program(self):
        """The cached program, parsed once per entry (Quill programs are
        immutable SSA, so repeated hits can safely share the object)."""
        return parse_program(self.program_text)

    @cached_property
    def initial_program(self):
        if not self.initial_program_text:
            return self.program
        return parse_program(self.initial_program_text)

    @cached_property
    def synthesis_program(self):
        """The raw (pre-rewrite) synthesis output, as synthesized."""
        if not self.synthesis_program_text:
            return self.program
        return parse_program(self.synthesis_program_text)

    def to_synthesis(self) -> SynthesisResult | None:
        """Rebuild the statistics object (examples are not persisted)."""
        if self.stats is None:
            return None
        return SynthesisResult(
            program=self.synthesis_program,
            initial_program=self.initial_program,
            **self.stats,
        )

    def to_json(self) -> dict:
        return {
            "program": self.program_text,
            "seal_code": self.seal_code,
            "stats": self.stats,
            "initial_program": self.initial_program_text,
            "composed_from": self.composed_from,
            "synthesis_program": self.synthesis_program_text,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "CacheEntry":
        return cls(
            program_text=payload["program"],
            seal_code=payload["seal_code"],
            stats=payload.get("stats"),
            initial_program_text=payload.get("initial_program"),
            composed_from=payload.get("composed_from"),
            synthesis_program_text=payload.get("synthesis_program"),
        )


class CompileCache:
    """Thread-safe in-memory cache with optional on-disk persistence.

    On-disk entries are integrity-checked: ``put`` embeds a SHA-256
    digest of the entry payload and ``get`` verifies it before trusting
    the bytes.  A truncated, bit-flipped, or otherwise corrupt file is
    *quarantined* (renamed to ``<key>.json.corrupt`` for post-mortem)
    and reported as a miss, so the caller transparently recompiles
    instead of crashing — or worse, executing a tampered program.  The
    ``quarantined`` counter records every such event.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._memory: dict[str, CacheEntry] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    def _file_for(self, key: str) -> Path:
        assert self.path is not None
        return self.path / f"{key}.json"

    def _quarantine(self, file: Path, reason: str) -> None:
        """Move a corrupt entry aside and count it (never raises)."""
        self.quarantined += 1
        try:
            os.replace(file, file.parent / f"{file.name}.corrupt")
        except OSError:
            pass  # already quarantined/removed by a concurrent reader
        import warnings

        warnings.warn(
            f"quarantined corrupt compile-cache entry {file.name} "
            f"({reason}); the kernel will be recompiled",
            RuntimeWarning,
            stacklevel=3,
        )

    def _load_entry(self, file: Path, payload: str) -> CacheEntry | None:
        """Parse + digest-verify one on-disk entry; quarantine on failure."""
        try:
            decoded = json.loads(payload)
            stored = decoded.pop("digest", None)
            if stored is not None and stored != _digest(decoded):
                self._quarantine(file, "digest mismatch")
                return None
            return CacheEntry.from_json(decoded)
        except (json.JSONDecodeError, KeyError, TypeError, AttributeError):
            self._quarantine(file, "unreadable payload")
            return None

    def get(self, key: str) -> CacheEntry | None:
        with self._lock:
            entry = self._memory.get(key)
            if entry is None and self.path is not None:
                file = self._file_for(key)
                try:
                    # read without an exists() pre-check: a concurrent
                    # clear() between check and read would crash, while
                    # a concurrent put() is invisible thanks to the
                    # atomic-replace write (old or new file, never torn)
                    payload = file.read_text()
                except OSError:
                    entry = None
                else:
                    entry = self._load_entry(file, payload)
                    if entry is not None:
                        self._memory[key] = entry
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
            return entry

    def put(self, key: str, entry: CacheEntry) -> None:
        with self._lock:
            self._memory[key] = entry
            if self.path is not None:
                self.path.mkdir(parents=True, exist_ok=True)
                target = self._file_for(key)
                # write-to-temp + atomic rename: concurrent readers (other
                # compile workers sharing this directory) see either the
                # complete old entry or the complete new one, never a
                # partial write; the temp name is per-process *and*
                # per-thread so two writers never collide on it either
                # (last replace wins, and both entries are identical by
                # content-addressing anyway)
                tmp = target.with_suffix(
                    f".tmp.{os.getpid()}.{threading.get_ident()}"
                )
                payload = entry.to_json()
                payload["digest"] = _digest(payload)
                tmp.write_text(json.dumps(payload, indent=2))
                os.replace(tmp, target)

    def clear(self) -> None:
        with self._lock:
            self._memory.clear()
            if self.path is not None and self.path.exists():
                for file in self.path.glob("*.json"):
                    file.unlink(missing_ok=True)
                for file in self.path.glob("*.json.corrupt"):
                    file.unlink(missing_ok=True)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from memory or disk (0.0 if none)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._memory)

    def __repr__(self) -> str:
        where = f"disk={self.path}" if self.path else "memory"
        return (
            f"CompileCache({where}, entries={len(self._memory)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
