"""The :class:`Porcupine` session: one front door to the whole system.

A session owns a kernel registry, a pass pipeline, a compile cache, and
a set of execution backends, and exposes the operations everything else
(CLI, benchmarks, examples, tests) builds on::

    from repro.api import Porcupine

    session = Porcupine()
    compiled = session.compile("box_blur")          # CEGIS, cached
    result = session.run("box_blur", backend="he")  # encrypted execution
    suite = session.compile_suite(["gx", "gy", "sobel"])

Compilation is content-addressed: a second ``compile`` of the same
kernel with the same configuration returns the cached program without
re-running synthesis (pass ``force=True`` to bypass).  Sessions are
independent — registering kernels or editing the pipeline in one never
leaks into another.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.api.backends import (
    BackendResult,
    BatchResult,
    ExecutionBackend,
    get_backend,
)
from repro.api.cache import (
    CacheEntry,
    CompileCache,
    compile_key,
    composed_key,
)
from repro.api.passes import PassContext, PassPipeline, PassTiming
from repro.api.registry import KernelDefinition, KernelRegistry
from repro.core.cegis import (
    SynthesisConfig,
    SynthesisResult,
    driver_fits,
    driver_scope,
)
from repro.core.parallel import ParallelSynthesis
from repro.core.sketch import Sketch
from repro.quill.ir import Program
from repro.quill.noise import multiplicative_depth
from repro.runtime.options import ExecOptions
from repro.solver.engine import SearchStats
from repro.spec.reference import Spec


@dataclass
class CompiledKernel:
    """Everything one ``Porcupine.compile`` call produced."""

    name: str
    program: Program
    seal_code: str
    synthesis: SynthesisResult | None
    cache_hit: bool
    cache_key: str
    pass_timings: list[PassTiming] = field(default_factory=list)
    pass_metrics: dict[str, dict] = field(default_factory=dict)
    components: dict[str, Program] = field(default_factory=dict)
    composed_from: tuple[str, ...] = ()

    @property
    def is_composed(self) -> bool:
        return self.synthesis is None

    def summary(self) -> dict:
        """Machine-readable stats (the CLI's ``--json`` payload)."""
        payload = {
            "kernel": self.name,
            "instructions": self.program.instruction_count(),
            "rotations": self.program.rotation_count(),
            "relins": self.program.relin_count(),
            "galois_keys": self.program.galois_key_count(),
            "relin_mode": self.program.relin_mode,
            "depth": self.program.critical_depth(),
            "multiplicative_depth": multiplicative_depth(self.program),
            "cache": {"hit": self.cache_hit, "key": self.cache_key},
            "pass_seconds": {
                t.name: round(t.seconds, 6) for t in self.pass_timings
            },
        }
        if self.synthesis is not None:
            payload["synthesis"] = {
                "components": self.synthesis.components,
                "examples": self.synthesis.examples_used,
                "initial_time": self.synthesis.initial_time,
                "total_time": self.synthesis.total_time,
                "initial_cost": self.synthesis.initial_cost,
                "final_cost": self.synthesis.final_cost,
                "proof_complete": self.synthesis.proof_complete,
                "nodes": self.synthesis.nodes,
            }
            if self.synthesis.search_stats is not None:
                payload["synthesis"]["profile"] = (
                    self.synthesis.search_stats.summary()
                )
        if self.pass_metrics:
            payload["pass_metrics"] = self.pass_metrics
        if self.composed_from:
            payload["composed_from"] = list(self.composed_from)
        return payload

    def timing_report(self) -> str:
        """Human-readable per-pass timing (and engine throughput) table."""
        lines = [f"pass timings for {self.name}:"]
        if not self.pass_timings:
            lines.append("  (cache hit: no passes ran)")
        for timing in self.pass_timings:
            ms = timing.seconds * 1e3
            lines.append(f"  {timing.name:12s} {ms:10.2f} ms")
            profile = self.pass_metrics.get(timing.name)
            if profile and "nodes" in profile:
                lines += SearchStats.timing_lines(
                    profile, detail=True, indent="    "
                )
        rewrite = self.pass_metrics.get("rewrite")
        if rewrite:
            before, after = rewrite.get("before", {}), rewrite.get("after", {})
            lines.append(
                "  optimizer: "
                f"{before.get('executable_ops', '?')} -> "
                f"{after.get('executable_ops', '?')} ops "
                f"({before.get('rotations', '?')} -> "
                f"{after.get('rotations', '?')} rot, "
                f"{before.get('relins', '?')} -> "
                f"{after.get('relins', '?')} relin), "
                f"verified={rewrite.get('verified')}"
            )
            for entry in rewrite.get("passes", []):
                if not entry.get("changed"):
                    continue
                delta = entry.get("delta", {})
                delta_text = (
                    ", ".join(
                        f"{key} {value:+d}" for key, value in delta.items()
                    )
                    or "mode change"
                )
                lines.append(
                    f"    {entry['name']:14s} {entry['seconds'] * 1e3:8.2f} ms"
                    f"  {delta_text}"
                )
        lower = self.pass_metrics.get("lower")
        if lower:
            lines.append(
                f"  displacement: {lower['max_left']} left / "
                f"{lower['max_right']} right "
                f"(budget {lower['budget_left']} / {lower['budget_right']})"
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        origin = "cache" if self.cache_hit else "synthesis"
        return (
            f"CompiledKernel({self.name}: "
            f"{self.program.instruction_count()} instructions, {origin})"
        )


class Porcupine:
    """A compiler session: registry + pipeline + cache + backends."""

    def __init__(
        self,
        registry: KernelRegistry | None = None,
        *,
        cache: CompileCache | None = None,
        cache_dir: str | Path | None = None,
        pipeline: PassPipeline | None = None,
        seed: int | None = None,
        synthesis_defaults: dict | None = None,
        workers: int | None = None,
        default_backend: str = "interpreter",
        dump_ir: bool = False,
    ):
        if cache is not None and cache_dir is not None:
            raise ValueError("pass either cache or cache_dir, not both")
        self.registry = registry if registry is not None else KernelRegistry.builtin()
        self.cache = cache if cache is not None else CompileCache(cache_dir)
        self.pipeline = pipeline if pipeline is not None else PassPipeline.default()
        self.seed = seed
        self.synthesis_defaults = dict(synthesis_defaults or {})
        if workers is not None:
            self.synthesis_defaults["workers"] = workers
        self.default_backend = default_backend
        self.dump_ir = dump_ir  # print IR after each rewrite pass (stderr)
        self._backends: dict[tuple, ExecutionBackend] = {}
        self._key_locks: dict[str, threading.Lock] = {}
        self._key_locks_guard = threading.Lock()

    # -- registry conveniences -------------------------------------------

    def kernels(self) -> list[str]:
        return self.registry.names()

    def definition(self, kernel: str) -> KernelDefinition:
        return self.registry.get(kernel)

    def spec(self, kernel: str) -> Spec:
        return self.registry.spec(kernel)

    def register(self, *args, **kwargs) -> KernelDefinition:
        """Register a kernel on this session's registry.

        Accepts either a ready :class:`KernelDefinition` (plus optional
        ``override=``) or the keyword form of
        :meth:`KernelRegistry.register_kernel`.
        """
        if len(args) == 1 and isinstance(args[0], KernelDefinition):
            return self.registry.register(args[0], **kwargs)
        return self.registry.register_kernel(*args, **kwargs)

    def baseline(self, kernel: str) -> Program:
        definition = self.registry.get(kernel)
        if definition.baseline is None:
            raise KeyError(f"kernel {kernel!r} has no hand-written baseline")
        return definition.baseline()

    # -- configuration ----------------------------------------------------

    def config_for(
        self, kernel: str | KernelDefinition, **overrides
    ) -> SynthesisConfig:
        """Per-kernel synthesis configuration with session defaults applied.

        Precedence (lowest to highest): kernel ``synth_settings``,
        session ``synthesis_defaults``, session ``seed``, explicit
        ``overrides``.
        """
        definition = (
            kernel
            if isinstance(kernel, KernelDefinition)
            else self.registry.get(kernel)
        )
        settings = dict(definition.synth_settings)
        settings.update(self.synthesis_defaults)
        if self.seed is not None:
            settings["seed"] = self.seed
        settings.update(overrides)
        return SynthesisConfig(**settings)

    def _resolve(
        self, kernel: str | Spec | KernelDefinition
    ) -> KernelDefinition:
        if isinstance(kernel, KernelDefinition):
            return kernel
        if isinstance(kernel, Spec):
            if kernel.name in self.registry:
                registered = self.registry.get(kernel.name)
                if registered.spec() is kernel:
                    return registered
            from repro.core.sketches import default_sketch_for

            return KernelDefinition(
                name=kernel.name,
                spec=lambda spec=kernel: spec,
                sketch=default_sketch_for,
                description=kernel.description,
            )
        return self.registry.get(kernel)

    def _cache_key(
        self,
        definition: KernelDefinition,
        spec: Spec,
        sketch: Sketch | None,
        config: SynthesisConfig,
    ) -> str:
        if definition.composition is None:
            resolved = sketch or (
                definition.sketch(spec) if definition.sketch else None
            )
            return compile_key(spec, resolved, config)
        component_keys = {}
        for name in definition.composition.kernels:
            sub = self.registry.get(name)
            sub_spec = sub.spec()
            component_keys[name] = self._cache_key(
                sub, sub_spec, None, self.config_for(sub)
            )
        return composed_key(
            spec, definition.composition, component_keys, config
        )

    def _lock_for(self, key: str) -> threading.Lock:
        with self._key_locks_guard:
            lock = self._key_locks.get(key)
            if lock is None:
                lock = self._key_locks[key] = threading.Lock()
            return lock

    # -- compilation ------------------------------------------------------

    def compile(
        self,
        kernel: str | Spec | KernelDefinition,
        *,
        sketch: Sketch | None = None,
        config: SynthesisConfig | None = None,
        seed: int | None = None,
        force: bool = False,
        use_cache: bool = True,
    ) -> CompiledKernel:
        """Compile one kernel through the pass pipeline, cache-aware.

        Args:
            kernel: registered name, a :class:`Spec`, or a full
                :class:`KernelDefinition`.
            sketch: override the definition's sketch.
            config: override the synthesis configuration entirely.
            seed: shorthand for overriding just the synthesis seed.
            force: recompile even on a cache hit (the result is stored
                back, refreshing the entry).
            use_cache: disable both lookup and store for this call.
        """
        return self._compile(
            kernel,
            sketch=sketch,
            config=config,
            seed=seed,
            force=force,
            use_cache=use_cache,
        )

    def _compile(
        self,
        kernel: str | Spec | KernelDefinition,
        *,
        sketch: Sketch | None = None,
        config: SynthesisConfig | None = None,
        seed: int | None = None,
        force: bool = False,
        use_cache: bool = True,
        driver: ParallelSynthesis | None = None,
    ) -> CompiledKernel:
        """:meth:`compile`, reusing ``driver`` where its settings fit.

        A composed kernel compiles its components through here with its
        own search driver, so one compile forks at most one pool.
        """
        definition = self._resolve(kernel)
        spec = definition.spec()
        if definition.is_composed and (
            sketch is not None or config is not None or seed is not None
        ):
            raise ValueError(
                f"kernel {definition.name!r} is composed: it has no sketch "
                "or synthesis config of its own. Override its component "
                "definitions (registry.override) or the session's "
                "seed/synthesis_defaults instead."
            )
        if config is None:
            overrides = {} if seed is None else {"seed": seed}
            config = self.config_for(definition, **overrides)
        elif seed is not None:
            from dataclasses import replace

            config = replace(config, seed=seed)
        key = self._cache_key(definition, spec, sketch, config)

        with self._lock_for(key):
            if use_cache and not force:
                entry = self.cache.get(key)
                if entry is not None:
                    return CompiledKernel(
                        name=definition.name,
                        program=entry.program,
                        seal_code=entry.seal_code,
                        synthesis=entry.to_synthesis(),
                        cache_hit=True,
                        cache_key=key,
                        composed_from=tuple(entry.composed_from or ()),
                    )
            # one search driver for both synthesis phases (and for every
            # component of a composed kernel): with workers > 1 a compile
            # forks one pool, not one per phase or component
            if driver is not None and not driver_fits(driver, config):
                driver = None
            with driver_scope(config, driver) as driver:
                ctx = PassContext(
                    session=self,
                    definition=definition,
                    spec=spec,
                    config=config,
                    sketch=sketch,
                    driver=driver,
                )
                self.pipeline.run(ctx)
            program = ctx.require_program("compile")
            seal_code = ctx.seal_code or ""
            composed_from = tuple(sorted(ctx.components))
            compiled = CompiledKernel(
                name=definition.name,
                program=program,
                seal_code=seal_code,
                synthesis=ctx.synthesis,
                cache_hit=False,
                cache_key=key,
                pass_timings=list(ctx.timings),
                pass_metrics=dict(ctx.metrics),
                components=dict(ctx.components),
                composed_from=composed_from,
            )
            if use_cache:
                if ctx.synthesis is not None:
                    entry = CacheEntry.from_synthesis(
                        ctx.synthesis, seal_code, final_program=program
                    )
                else:
                    from repro.quill.printer import format_program

                    entry = CacheEntry(
                        program_text=format_program(program),
                        seal_code=seal_code,
                        composed_from=list(composed_from) or None,
                    )
                self.cache.put(key, entry)
            return compiled

    def compile_suite(
        self,
        kernels: Sequence[str] | None = None,
        *,
        max_workers: int | None = None,
        **compile_kwargs,
    ) -> dict[str, CompiledKernel]:
        """Compile many kernels concurrently (``concurrent.futures``).

        Results preserve the requested order; the per-key locks make
        concurrent compilations of shared components (e.g. ``gx`` under
        both ``sobel`` and ``harris``) synthesize once.
        """
        names = list(kernels) if kernels is not None else self.kernels()
        with ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="porcupine"
        ) as pool:
            futures = {
                name: pool.submit(self.compile, name, **compile_kwargs)
                for name in names
            }
            return {name: future.result() for name, future in futures.items()}

    # -- execution --------------------------------------------------------

    def backend(
        self,
        name: str | None = None,
        *,
        seed: int | None = None,
        options: ExecOptions | None = None,
        **kwargs,
    ) -> ExecutionBackend:
        """The session's backend instance for ``name``.

        Instances are cached per ``(name, seed, options)`` plus any
        other construction kwargs (e.g. an HE ``params`` preset), so HE
        backends with different seeds or execution options never alias
        each other.  ``seed`` and ``options`` configure the ``he``
        backend only; other backends receive just ``kwargs``.
        """
        name = name or self.default_backend
        if name == "he":
            kwargs.update(seed=seed, options=options or ExecOptions())
        key = (name, tuple(sorted(kwargs.items())))
        instance = self._backends.get(key)
        if instance is None:
            instance = get_backend(name, **kwargs)
            self._backends[key] = instance
        return instance

    def run(
        self,
        kernel: str | Spec | KernelDefinition,
        inputs: dict[str, np.ndarray] | None = None,
        *,
        backend: str | ExecutionBackend | None = None,
        seed: int = 0,
        options: ExecOptions | None = None,
        **compile_kwargs,
    ) -> BackendResult:
        """Compile (cached) and execute a kernel on a named backend.

        Without explicit ``inputs``, random in-range inputs are drawn
        from ``seed`` (bounded by the spec's backend bound so nothing
        overflows the plaintext modulus).  ``options`` sets the HE
        backend's noise guards, admission margin, and escalation (see
        :class:`~repro.runtime.options.ExecOptions`).
        """
        compiled = self.compile(kernel, **compile_kwargs)
        spec = self._resolve(kernel).spec()
        if inputs is None:
            inputs = spec.random_backend_inputs(seed)
        return self.execute(
            compiled, inputs, backend=backend, seed=seed, spec=spec,
            options=options,
        )

    def execute(
        self,
        compiled: CompiledKernel,
        inputs: dict[str, np.ndarray],
        *,
        backend: str | ExecutionBackend | None = None,
        seed: int = 0,
        spec: Spec | None = None,
        options: ExecOptions | None = None,
    ) -> BackendResult:
        """Execute an already-compiled kernel (no compile step).

        Takes the :class:`CompiledKernel` directly instead of
        re-resolving through :meth:`compile`, for callers that compile
        and execute in separate stages (the server compiles in worker
        processes against the shared cache).  ``spec`` is only needed
        for ad-hoc kernels not in the registry.
        """
        if spec is None:
            spec = self.spec(compiled.name)
        engine = self._resolve_backend(backend, seed, options)
        return engine.execute(compiled.program, spec, inputs)

    def execute_batch(
        self,
        compiled: CompiledKernel,
        envs: Sequence[dict[str, np.ndarray]],
        *,
        backend: str | ExecutionBackend | None = None,
        seed: int = 0,
        spec: Spec | None = None,
        options: ExecOptions | None = None,
    ) -> BatchResult:
        """Execute one compiled kernel once per environment, in order.

        A plain loop of single executions: each environment is its own
        encrypted request.  The server dispatches every request through
        here as a one-element list.
        """
        if spec is None:
            spec = self.spec(compiled.name)
        engine = self._resolve_backend(backend, seed, options)
        started = time.perf_counter()
        results = [
            engine.execute(compiled.program, spec, env) for env in envs
        ]
        return BatchResult(
            backend=getattr(engine, "name", "custom"),
            kernel=compiled.program.name,
            results=results,
            batch_size=len(results),
            total_seconds=time.perf_counter() - started,
        )

    def _resolve_backend(
        self,
        backend: str | ExecutionBackend | None,
        seed: int,
        options: ExecOptions | None,
    ) -> ExecutionBackend:
        """Name-or-instance backend dispatch shared by the run methods."""
        if isinstance(backend, str) or backend is None:
            return self.backend(backend, seed=seed, options=options)
        return backend

    def executor_stats(self):
        """Merged HE :class:`~repro.runtime.profiler.ExecutorStats`
        across every backend this session has built (NTT rows performed
        and elided, arena high-water bytes, guard counters)."""
        from repro.runtime.profiler import ExecutorStats

        merged = ExecutorStats()
        for engine in self._backends.values():
            stats_fn = getattr(engine, "executor_stats", None)
            if stats_fn is not None:
                merged = merged.merge(stats_fn())
        return merged

    def __repr__(self) -> str:
        return (
            f"Porcupine(kernels={len(self.registry)}, "
            f"pipeline={self.pipeline.pass_names}, cache={self.cache!r})"
        )
