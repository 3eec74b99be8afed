"""In-memory span tracer and the wrappers that feed it.

Spans are recorded at layer boundaries from the benchmark's own files:
:func:`install` replaces public functions of each layer (the session API,
the pass pipeline, verification, the HE executor, the BFV context, the
batched NTT and the digit decomposer) with wrappers that time the call.
Nothing in ``src/`` changes, and with the tracer disabled a wrapper costs
one attribute test.

A span is ``(id, parent, name, start, end, request, attrs)`` on
``time.perf_counter``; the request id is the id of the root span that
caused it, so every span of one compile, execution or batch shares it.
Spans stay in memory until :meth:`Tracer.dump` writes them as JSON lines.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Callable

#: BFV context operations timed per parameter preset
HE_OPS = (
    "rotate_rows",
    "multiply",
    "relinearize",
    "multiply_plain",
    "add",
    "sub",
    "add_plain",
    "encrypt_vector",
    "decrypt_with_budgets",
)
#: context calls outside the tape, grouped into executor phases
ENCRYPT_OPS = ("encrypt_vector", "encode", "encrypt")
DECRYPT_OPS = ("decrypt_with_budgets", "decrypt", "decode")
#: root spans that are one workload operation
OP_SPANS = ("api.compile", "api.execute", "api.execute_batch")


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self, process: str = "bench"):
        self.process = process
        self.enabled = False
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs, attrs_fn=None):
        """Run ``fn`` inside a span named ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            parent, request = stack[-1]
        else:
            parent, request = None, span_id
        stack.append((span_id, request))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        attrs = attrs_fn(args, result) if attrs_fn is not None else None
        self.spans.append((span_id, parent, name, start, end, request, attrs))
        return result

    def record(self, name: str, start: float, end: float, attrs=None) -> None:
        """Add a root span whose interval was measured elsewhere."""
        span_id = next(self._ids)
        self.spans.append((span_id, None, name, start, end, span_id, attrs))

    def wrap(
        self,
        owner,
        attr: str,
        name: str | Callable,
        attrs_fn: Callable | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a traced wrapper.

        ``name`` is a span name or a function of the call's arguments
        (the BFV context labels spans with its parameter preset).
        """
        original = getattr(owner, attr)
        tracer = self
        named = callable(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            label = name(args) if named else name
            return tracer.call(label, original, args, kwargs, attrs_fn)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped function."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def records(self) -> list[dict]:
        return [
            {
                "process": self.process,
                "id": span_id,
                "parent": parent,
                "name": name,
                "start": start,
                "end": end,
                "request": request,
                **({"attrs": attrs} if attrs else {}),
            }
            for span_id, parent, name, start, end, request, attrs in self.spans
        ]

    def dump(self, path: str | Path) -> None:
        with open(path, "w") as handle:
            for record in self.records():
                handle.write(json.dumps(record) + "\n")


def load(path: str | Path) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


def _preset(context) -> str:
    return context.params.name.split("-")[0]


def _compile_attrs(args, compiled) -> dict:
    metrics = compiled.pass_metrics or {}
    search = [
        metrics[phase]
        for phase in ("synthesize", "optimize")
        if isinstance(metrics.get(phase), dict)
    ]
    rewrite = metrics.get("rewrite") or {}
    removed = 0
    if rewrite:
        removed = rewrite.get("before", {}).get("executable_ops", 0) - (
            rewrite.get("after", {}).get("executable_ops", 0)
        )
    return {
        "kernel": compiled.name,
        "cache_hit": compiled.cache_hit,
        "passes": {t.name: t.seconds for t in compiled.pass_timings},
        "nodes": sum(s.get("nodes", 0) for s in search),
        "search_s": sum(s.get("seconds", 0.0) for s in search),
        "pruned": sum(sum((s.get("pruned") or {}).values()) for s in search),
        "ops_removed": removed,
    }


def _execute_attrs(args, result) -> dict:
    return {"kernel": result.kernel, "batch": 1, "tape_s": result.wall_time}


def _batch_attrs(args, batch) -> dict:
    return {
        "kernel": batch.kernel,
        "batch": batch.batch_size,
        "tape_s": sum(r.wall_time for r in batch.results),
    }


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary; call once per process."""
    from repro.api.passes import PassPipeline
    from repro.api.session import Porcupine
    from repro.he.context import BFVContext
    from repro.he.ntt import BatchNTT
    from repro.he.rns import DigitDecomposer
    from repro.runtime.executor import HEExecutor
    from repro.spec.reference import Spec

    tracer.wrap(Porcupine, "compile", "api.compile", _compile_attrs)
    tracer.wrap(Porcupine, "execute", "api.execute", _execute_attrs)
    tracer.wrap(Porcupine, "execute_batch", "api.execute_batch", _batch_attrs)
    tracer.wrap(PassPipeline, "run", "api.pipeline")
    tracer.wrap(Spec, "verify_program", "symbolic.verify")
    tracer.wrap(Spec, "example_from_witness", "core.cegis.counterexample")
    tracer.wrap(Spec, "reference_output", "runtime.check.reference_output")
    tracer.wrap(Spec, "packed_env", "runtime.check.packed_env")
    tracer.wrap(HEExecutor, "compile", "runtime.executor.compile")
    for op in set(HE_OPS) | set(ENCRYPT_OPS) | set(DECRYPT_OPS):
        tracer.wrap(
            BFVContext,
            op,
            lambda args, op=op: f"he.context.{_preset(args[0])}.{op}",
        )
    tracer.wrap(BatchNTT, "forward", "he.ntt.forward")
    tracer.wrap(BatchNTT, "inverse", "he.ntt.inverse")
    tracer.wrap(DigitDecomposer, "digits", "he.rns.digits")


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def children_of(spans: list[dict]) -> dict[tuple, list[dict]]:
    """(process, parent id) -> direct child spans."""
    index: dict[tuple, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            index.setdefault((span["process"], span["parent"]), []).append(span)
    return index


def self_time(span: dict, children: dict[tuple, list[dict]]) -> float:
    """A span's duration minus the part its direct children cover."""
    kids = children.get((span["process"], span["id"]), [])
    return (span["end"] - span["start"]) - covered(
        [(k["start"], k["end"]) for k in kids], span["start"], span["end"]
    )
