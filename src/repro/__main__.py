"""Command-line interface: ``python -m repro <command>`` (or ``porcupine``).

Commands:

* ``list``                     — the kernel suite with descriptions
* ``compile <kernel>``         — synthesize and print Quill + SEAL code
* ``baseline <kernel>``        — print the hand-written baseline
* ``run <kernel>``             — synthesize, then execute on a backend
* ``serve``                    — long-lived multi-tenant compile-and-run
  service (JSON over TCP; one admission queue, fair-share across
  tenants, see :mod:`repro.serve`)
* ``profile``                  — measure per-instruction latencies

``list``, ``compile``, and ``run`` accept ``--json`` for
machine-readable output (instruction counts, depths, synthesis times,
cache hit/miss).  All compilation goes through the
:class:`repro.api.Porcupine` session, under the library's
:class:`~repro.core.cegis.SynthesisConfig` defaults unless a flag
overrides one; ``--cache-dir`` persists compiled kernels across
invocations; ``compile --checkpoint FILE`` persists the search state
at every round boundary, and rerunning the same command resumes a
killed run with a byte-identical result; ``--dump-ir`` prints the Quill
IR after each program-changing optimizer pass and ``--timings``
includes the optimizer's op-count deltas and the displacement check.
``--prune-rules=a,b,...`` enables just those search pruning rules
(``--prune-rules ""`` enables none; programs are identical either way,
only the searched-node count changes).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np


def _session(args):
    from repro.api import Porcupine

    defaults = {}
    if getattr(args, "opt_timeout", None) is not None:
        defaults["optimize_timeout"] = args.opt_timeout
    if getattr(args, "no_optimize", False):
        defaults["optimize"] = False
    if getattr(args, "prune_rules", None) is not None:
        from repro.solver import SearchOptions

        defaults["search_options"] = SearchOptions.from_rules(args.prune_rules)
    if getattr(args, "checkpoint", None) is not None:
        defaults["checkpoint_path"] = args.checkpoint
    return Porcupine(
        cache_dir=getattr(args, "cache_dir", None),
        seed=getattr(args, "seed", None),
        synthesis_defaults=defaults,
        workers=getattr(args, "workers", None),
        dump_ir=getattr(args, "dump_ir", False),
    )


def _cmd_list(args) -> int:
    session = _session(args)
    if args.json:
        payload = []
        for definition in session.registry:
            baseline = definition.baseline() if definition.baseline else None
            payload.append(
                {
                    "kernel": definition.name,
                    "multi_step": definition.is_composed,
                    "baseline_instructions": (
                        baseline.instruction_count() if baseline else None
                    ),
                    "description": definition.describe(),
                }
            )
        print(json.dumps(payload, indent=2))
        return 0
    print(f"{'kernel':24s} {'baseline':>9s}  description")
    for definition in session.registry:
        baseline = definition.baseline()
        print(
            f"{definition.name:24s} {baseline.instruction_count():6d} in  "
            f"{definition.describe()}"
        )
    return 0


def _cmd_compile(args) -> int:
    session = _session(args)
    definition = session.definition(args.kernel)
    if args.checkpoint is not None and definition.is_composed:
        print(
            f"{args.kernel!r} is a composed kernel; its components "
            "synthesize separately and would clobber one checkpoint "
            "file — compile each component instead "
            f"(e.g. {', '.join(session.registry.direct_names())})",
            file=sys.stderr,
        )
        return 2
    result = session.compile(args.kernel)
    if args.timings:
        print(result.timing_report(), file=sys.stderr)
    if args.json:
        payload = result.summary()
        payload["quill"] = str(result.program)
        print(json.dumps(payload, indent=2))
    else:
        stats = result.synthesis
        if stats is not None:
            print(
                f"# synthesized {result.program.instruction_count()} instructions "
                f"in {stats.total_time:.2f}s (initial {stats.initial_time:.2f}s, "
                f"{stats.examples_used} example(s), "
                f"{'optimal' if stats.proof_complete else 'best-effort'}"
                f"{', cached' if result.cache_hit else ''})",
                file=sys.stderr,
            )
        else:
            print(
                f"# composed {result.program.instruction_count()} instructions "
                f"from {', '.join(result.composed_from) or 'components'}"
                f"{' (cached)' if result.cache_hit else ''}",
                file=sys.stderr,
            )
        print(result.program)
    if args.seal:
        with open(args.seal, "w") as handle:
            handle.write(result.seal_code + "\n")
        print(f"# SEAL code written to {args.seal}", file=sys.stderr)
    elif not args.json:
        print()
        print(result.seal_code)
    return 0


def _cmd_baseline(args) -> int:
    from repro.quill.noise import multiplicative_depth

    session = _session(args)
    program = session.baseline(args.kernel)
    print(
        f"# {program.instruction_count()} instructions, depth "
        f"{program.critical_depth()}, multiplicative depth "
        f"{multiplicative_depth(program)}",
        file=sys.stderr,
    )
    print(program)
    return 0


def _print_executor_timings(session) -> None:
    """``run``/``serve --timings``: the executor's NTT/arena counters."""
    print(session.executor_stats().report("executor stats"), file=sys.stderr)


def _exec_options(args, escalate: bool):
    """``--noise-guard`` (off/output/mul or an every-N-ops int) and
    ``--noise-margin-bits`` as the one HE execution config."""
    from repro.api import ExecOptions

    guard = args.noise_guard
    try:
        guard = int(guard)
    except (TypeError, ValueError):
        pass
    return ExecOptions(
        guard=guard,
        noise_margin_bits=args.noise_margin_bits,
        escalate=escalate,
    )


def _cmd_run(args) -> int:
    session = _session(args)
    spec = session.spec(args.kernel)
    compiled = session.compile(args.kernel)
    logical = spec.random_backend_inputs(args.seed)
    options = _exec_options(args, escalate=not args.no_escalate)
    report = session.run(
        args.kernel, logical, backend=args.backend, seed=args.seed,
        options=options,
    )
    if args.timings:
        _print_executor_timings(session)
    if args.json:
        payload = compiled.summary()
        payload["execution"] = {
            "backend": report.backend,
            "matches_reference": report.matches_reference,
            "wall_time": report.wall_time,
            "noise_budget": report.noise_budget,
            "output": np.asarray(report.logical_output).ravel().tolist(),
            "expected": np.asarray(report.expected_output).ravel().tolist(),
        }
        print(json.dumps(payload, indent=2))
        return 0 if report.matches_reference else 1
    for name, value in logical.items():
        print(f"input {name} = {np.asarray(value).ravel().tolist()}")
    print(f"output (decrypted) = {np.asarray(report.logical_output).ravel().tolist()}")
    print(f"reference          = {np.asarray(report.expected_output).ravel().tolist()}")
    print(f"matches reference: {report.matches_reference}")
    if report.backend == "he":
        from repro.runtime.estimator import estimate_noise_budget

        engine = session.backend("he", seed=args.seed, options=options)
        executor = engine._executor_for(spec)
        predicted = estimate_noise_budget(compiled.program, executor.params)
        print(
            f"noise budget: {report.noise_budget} bits measured, "
            f">= {predicted:.0f} bits predicted"
        )
        escalations = engine.drain_escalations()
        ran_on = executor.params.name
        if escalations:
            ran_on = engine.last_escalation_params_name or ran_on
            print(
                f"noise escalations: {escalations} (re-ran on a larger "
                "parameter preset after a noise guard tripped)"
            )
        print(f"evaluation time: {report.wall_time:.2f}s on {ran_on}")
    else:
        print(f"evaluation time: {report.wall_time:.4f}s on {report.backend}")
    return 0 if report.matches_reference else 1


def _cmd_serve(args) -> int:
    """``porcupine serve``: run the compile-and-run service until stopped."""
    import asyncio

    from repro.serve import PorcupineServer, ServeConfig

    config = ServeConfig(
        host=args.host,
        port=args.port,
        backend=args.backend,
        params=args.params,
        seed=args.seed,
        compile_workers=args.compile_workers,
        cache_dir=args.cache_dir,
        precompile=tuple(
            name for name in (args.precompile or "").split(",") if name
        ),
        default_timeout_ms=args.default_timeout_ms,
        max_backlog=args.max_backlog if args.max_backlog > 0 else None,
        pool_max_restarts=args.pool_max_restarts,
        exec_options=_exec_options(
            args, escalate=not args.no_noise_escalation
        ),
        shadow_verify=args.shadow_verify,
    )
    server = PorcupineServer(config=config)

    async def _serve() -> None:
        host, port = await server.start()
        # machine-parseable boot line: smoke scripts read the port from it
        print(f"serving on {host}:{port}", flush=True)
        if config.precompile:
            print(
                f"precompiled: {', '.join(sorted(server._hot))}",
                file=sys.stderr,
                flush=True,
            )
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    if args.timings:
        print(server.metrics.format_table(), file=sys.stderr)
        if config.backend == "he":
            _print_executor_timings(server.session)
    print("shutdown complete", flush=True)
    return 0


def _cmd_profile(args) -> int:
    from repro.he.params import large_params, small_params, toy_params
    from repro.runtime.profiler import format_latency_table, profile_instructions

    presets = {
        "toy": toy_params,
        "small": small_params,
        "large": large_params,
    }
    params = presets[args.preset]()
    model = profile_instructions(params, repeats=args.repeats)
    print(format_latency_table(model))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="porcupine",
        description="Porcupine reproduction: synthesizing HE kernels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser("list", help="list the kernel suite")
    list_cmd.add_argument("--json", action="store_true",
                          help="machine-readable output")

    for verb, helptext in (
        ("compile", "synthesize a kernel and emit Quill + SEAL code"),
        ("run", "synthesize a kernel and execute it on a backend"),
    ):
        cmd = sub.add_parser(verb, help=helptext)
        cmd.add_argument("kernel")
        cmd.add_argument("--opt-timeout", type=float, default=None,
                         help="cost-minimization budget in seconds "
                              "(default: the library's, 120)")
        cmd.add_argument("--no-optimize", action="store_true",
                         help="stop after the initial solution")
        cmd.add_argument("--seed", type=int, default=0,
                         help="synthesis/example seed (reproducible runs)")
        cmd.add_argument("--workers", type=int, default=None, metavar="N",
                         help="parallel search processes (results are "
                              "bit-identical to --workers 1)")
        cmd.add_argument("--prune-rules", metavar="RULES",
                         help="enable exactly this comma-separated subset "
                              "of pruning rules for ablation runs (\"\" "
                              "enables none: the ablation baseline); "
                              "available: dedup, commutative, adjacent, "
                              "dead_value, rotation_collapse, zero_elide, "
                              "cost_bound")
        cmd.add_argument("--json", action="store_true",
                         help="machine-readable output")
        cmd.add_argument("--cache-dir", metavar="DIR",
                         help="persist compiled kernels here across runs")
        cmd.add_argument("--dump-ir", action="store_true",
                         help="print the Quill IR after each optimizer "
                              "pass that changes the program (stderr)")
        if verb == "compile":
            cmd.add_argument("--seal", metavar="FILE",
                             help="write SEAL C++ here instead of stdout")
            cmd.add_argument("--checkpoint", metavar="FILE",
                             help="crash-safe search checkpoint, written "
                                  "at every round boundary; a rerun with "
                                  "the same settings resumes from it "
                                  "(direct kernels only)")
            cmd.add_argument("--timings", action="store_true",
                             help="print the per-pass timing report "
                                  "(includes the optimizer's op-count "
                                  "deltas and displacement check)")
        else:
            cmd.add_argument("--backend", choices=("he", "interpreter"),
                             default="he",
                             help="execution backend (default: he)")
            cmd.add_argument("--timings", action="store_true",
                             help="print the executor's NTT/arena counter "
                                  "table (NTT rows performed and elided, "
                                  "arena high-water bytes, guard checks/"
                                  "trips, min output budget) to stderr")
            cmd.add_argument("--noise-guard", metavar="MODE", default=None,
                             help="runtime noise guards: 'output' (check "
                                  "the decrypted output budget), 'mul' "
                                  "(after every ciphertext multiply), or "
                                  "an integer N (every N tape ops); "
                                  "default: off")
            cmd.add_argument("--noise-margin-bits", type=float, default=None,
                             metavar="BITS",
                             help="predictive admission: refuse to run "
                                  "programs whose estimated output noise "
                                  "budget is below BITS (escalates to a "
                                  "larger preset unless --no-escalate)")
            cmd.add_argument("--no-escalate", action="store_true",
                             help="fail with NoiseBudgetExhausted instead "
                                  "of transparently re-running on the "
                                  "next-larger parameter preset")

    baseline = sub.add_parser("baseline", help="print a hand-written baseline")
    baseline.add_argument("kernel")

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant compile-and-run service "
             "(JSON-lines over TCP, fair-share admission queue)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7707,
                       help="TCP port (0 picks a free one; the bound port "
                            "is printed as 'serving on HOST:PORT')")
    serve.add_argument("--backend", choices=("he", "interpreter"),
                       default="he",
                       help="default execution backend (default: he)")
    serve.add_argument("--params", choices=("toy", "small", "large"),
                       default=None,
                       help="override the HE parameter preset (the spec's "
                            "own preset otherwise)")
    serve.add_argument("--seed", type=int, default=0,
                       help="execution-backend key seed")
    serve.add_argument("--compile-workers", type=int, default=0, metavar="N",
                       help="compile worker processes sharing the on-disk "
                            "cache (0: compile inline; requires --cache-dir "
                            "when > 0)")
    serve.add_argument("--cache-dir", metavar="DIR",
                       help="shared on-disk compile cache directory")
    serve.add_argument("--precompile", metavar="K1,K2|all",
                       help="registry kernels to compile (and pin) at boot")
    serve.add_argument("--timings", action="store_true",
                       help="print the scheduler stats table on shutdown "
                            "(requests, errors, cache hit rate, p50/p99)")
    serve.add_argument("--default-timeout-ms", type=float, default=None,
                       metavar="MS",
                       help="deadline for requests that carry no "
                            "timeout_ms of their own (default: unbounded)")
    serve.add_argument("--max-backlog", type=int, default=1024, metavar="N",
                       help="reject new requests (typed OVERLOADED) "
                            "beyond this many pending; 0 disables "
                            "admission control")
    serve.add_argument("--pool-max-restarts", type=int, default=3,
                       metavar="N",
                       help="compile-pool respawns after worker crashes "
                            "before degrading to in-process compiles")
    serve.add_argument("--noise-guard", metavar="MODE", default="output",
                       help="HE runtime noise guards: 'off', 'output' "
                            "(default; free — output budgets are measured "
                            "anyway), 'mul', or an integer N (every N "
                            "tape ops)")
    serve.add_argument("--noise-margin-bits", type=float, default=None,
                       metavar="BITS",
                       help="predictive admission margin in bits for "
                            "served HE kernels")
    serve.add_argument("--no-noise-escalation", action="store_true",
                       help="surface noise-budget exhaustion as a typed "
                            "retryable NOISE_BUDGET error instead of "
                            "re-running on the next-larger preset")
    serve.add_argument("--shadow-verify", type=float, default=0.0,
                       metavar="FRACTION",
                       help="cross-check this fraction of HE runs "
                            "against the interpreter backend; mismatches "
                            "are withheld as NOISE_BUDGET errors "
                            "(deterministic sampling; 0 disables)")

    profile = sub.add_parser("profile", help="profile instruction latencies")
    profile.add_argument("--preset", choices=("toy", "small", "large"),
                         default="toy")
    profile.add_argument("--repeats", type=int, default=3)

    args = parser.parse_args(argv)
    if getattr(args, "prune_rules", None) is not None:
        from repro.solver import SearchOptions

        try:
            SearchOptions.from_rules(args.prune_rules)
        except ValueError as error:
            parser.error(str(error))
    handlers = {
        "list": _cmd_list,
        "compile": _cmd_compile,
        "baseline": _cmd_baseline,
        "run": _cmd_run,
        "serve": _cmd_serve,
        "profile": _cmd_profile,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
