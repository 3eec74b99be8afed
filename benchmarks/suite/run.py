"""End-to-end benchmark for the Porcupine reproduction.

Run one workload (its result is the last line of stdout, as JSON)::

    python3 benchmarks/suite/run.py --workload he-exec --seed 1 --seconds 20 --trace 0

Run every workload, each in a fresh process, one after another::

    python3 benchmarks/suite/run.py [--seed S] [--seconds T] [--trace]

Measure run-to-run spread (the basis of every bound in BENCHMARK.json)::

    python3 benchmarks/suite/run.py spread --runs 10

Compare two sets of runs made alternately on a parent and a change::

    python3 benchmarks/suite/run.py compare PARENT_DIR CHANGE_DIR

The package is imported from ``src/`` of the checkout this file sits in;
no installation is needed.  Outputs go under ``--out`` (default
``benchmarks/suite/out``): one JSON file per run in ``runs/``, the
compile cache the workloads build once in ``cache/``, and in a traced
run the spans in ``trace-<workload>.jsonl``.  See README.md for the
workloads, the metrics and how to read the trace.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
DEFAULT_OUT = HERE / "out"
DEFAULT_SECONDS = 20
#: set-up runs this many times per run; setup_s is the median
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("synth-cold", "he-exec", "serve-steady", "serve-burst")


def require_source() -> None:
    """Put ``src/`` on the path, or exit nonzero if the checkout lacks it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"run.py: no 'repro' package under {SRC}; the benchmark runs "
            "from a full checkout of the repository",
            file=sys.stderr,
        )
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_meta(args) -> dict:
    import numpy

    return {
        "time": datetime.now(timezone.utc).isoformat(),
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "workload": args.workload,
    }


# ---------------------------------------------------------------------------
# One workload in this process
# ---------------------------------------------------------------------------


def run_workload(args) -> int:
    require_source()
    Path(args.out).mkdir(parents=True, exist_ok=True)
    from report import END_TO_END, details, end_to_end, per_layer, per_layer_metrics
    from tracing import Tracer, install, load
    from workloads import WORKLOADS, RunContext, WrongOutput

    out = Path(args.out)
    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    ctx = RunContext(seed=args.seed, out_dir=out, smoke=args.smoke, tracer=tracer)
    workload = WORKLOADS[args.workload](ctx)
    repeats = 1 if args.smoke else SETUP_REPEATS
    setups: list[float] = []
    try:
        workload.build()
        for repeat in range(repeats):
            if repeat:
                workload.teardown()
            # the last set-up is the one the run uses; trace only that one
            if tracer is not None and repeat == repeats - 1:
                tracer.enabled = True
            gc.collect()
            started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - started)
            if tracer is not None:
                tracer.enabled = False
        workload.warm_up()
        wall_s = workload.measure(args.seconds)
        workload.finish()
    except WrongOutput as error:
        print(f"run.py: wrong output: {error}", file=sys.stderr)
        return 3
    finally:
        workload.teardown()

    if tracer is not None:
        tracer.uninstall()
        spans = tracer.records()
        server_spans = getattr(workload, "spans_path", None)
        if server_spans is not None and server_spans.exists():
            spans += load(server_spans)
            server_spans.unlink()
        with open(out / f"trace-{args.workload}.jsonl", "w") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
        units = {name: unit for name, (unit, _) in per_layer_metrics().items()}
        values = per_layer(workload, spans)
    else:
        units = {name: unit for name, unit, _ in END_TO_END}
        values = end_to_end(workload, setups, wall_s)
    failed = sum(workload.failures.values())
    result = {
        "correct": True,
        "attempted": len(workload.ops) + failed,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    info = details(workload, setups)
    record = {"meta": run_meta(args), "details": info, "result": result}
    runs = out / "runs"
    runs.mkdir(exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%f")
    path = runs / f"{stamp}-{args.workload}-s{args.seed}-t{int(bool(args.trace))}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    if not info["valid"]:
        print(
            f"run.py: run marked invalid: load generator p99 lateness "
            f"{info['loadgen']['late_ms_p99']:.1f} ms > 10 ms",
            file=sys.stderr,
        )
    for name, metric in result["metrics"].items():
        print(f"{args.workload:13s} {name:44s} {metric['value']:14.4f} {metric['unit']}")
    print(f"details {json.dumps(info)}")
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# The suite: every workload in its own process
# ---------------------------------------------------------------------------


def run_suite(args) -> dict[str, dict]:
    """Run each workload in a fresh child process; results by workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(int(bool(args.trace))),
            "--out", str(args.out),
        ] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(command, capture_output=True, text=True, cwd=REPO)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise SystemExit(f"run.py: workload {name} failed ({done.returncode})")
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    return results


# ---------------------------------------------------------------------------
# Spread and comparison
# ---------------------------------------------------------------------------


def benchmark_spec() -> dict:
    with open(REPO / "BENCHMARK.json") as handle:
        return json.load(handle)


def spread(args) -> int:
    """Run the untraced suite ``--runs`` times; report each metric's spread."""
    from measures import quartiles, spread as iqr_share

    bounds = {m["name"]: m["bound"] for m in benchmark_spec()["end_to_end"]}
    samples: dict[tuple[str, str], list[float]] = {}
    base_seed = args.seed
    args.trace = 0
    for index in range(args.runs):
        args.seed = base_seed + index
        for workload, result in run_suite(args).items():
            for name, metric in result["metrics"].items():
                samples.setdefault((workload, name), []).append(metric["value"])
    rows = []
    for (workload, name), values in samples.items():
        q1, median, q3 = quartiles(values)
        share = iqr_share(values)
        rows.append({
            "workload": workload,
            "metric": name,
            "min": min(values),
            "median": median,
            "max": max(values),
            "q1": q1,
            "q3": q3,
            "spread": share,
            "bound": bounds.get(name),
            "values": values,
        })
        print(
            f"{workload:13s} {name:16s} min {min(values):12.4f} "
            f"median {median:12.4f} max {max(values):12.4f} "
            f"spread {share:7.4f} (bound {bounds.get(name)})"
        )
    out = Path(args.out)
    (out / "spread.json").write_text(json.dumps(rows, indent=1) + "\n")
    return 0


def _load_runs(directory: str) -> dict[str, list[dict]]:
    root = Path(directory)
    paths = sorted(root.glob("runs/*.json")) or sorted(root.glob("*.json"))
    runs: dict[str, list[dict]] = {}
    for path in paths:
        record = json.loads(path.read_text())
        meta = record.get("meta", {})
        if meta.get("trace") or meta.get("smoke"):
            continue
        if not record.get("details", {}).get("valid", True):
            continue
        runs.setdefault(meta["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["meta"]["time"])
    return runs


def compare(args) -> int:
    """Print one verdict per (metric, workload) row."""
    from measures import quartiles, verdict

    metrics = benchmark_spec()["end_to_end"]
    parent, change = _load_runs(args.parent), _load_runs(args.change)
    print(
        f"{'workload':13s} {'metric':16s} {'pairs':>5s} {'parent median':>14s} "
        f"{'change median':>14s}  verdict"
    )
    for workload in sorted(set(parent) & set(change)):
        pairs = min(len(parent[workload]), len(change[workload]))
        for metric in metrics:
            name = metric["name"]

            def values(records):
                return [r["result"]["metrics"][name]["value"] for r in records[:pairs]]

            p, c = values(parent[workload]), values(change[workload])
            row = verdict(p, c, metric["better"], metric["bound"])
            p_q1, p_med, p_q3 = quartiles(p)
            c_q1, c_med, c_q3 = quartiles(c)
            print(
                f"{workload:13s} {name:16s} {pairs:5d} {p_med:14.4f} "
                f"{c_med:14.4f}  {row}  (parent IQR {p_q1:.4f}-{p_q3:.4f}, "
                f"change IQR {c_q1:.4f}-{c_q3:.4f})"
            )
    return 0


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def _trace_flag(value: str) -> int:
    if value not in ("0", "1"):
        raise argparse.ArgumentTypeError("--trace takes 0 or 1")
    return int(value)


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed: inputs, kernel mix, arrivals")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured time per run")
    parser.add_argument("--out", default=str(DEFAULT_OUT),
                        help="directory for run files, cache and traces")
    parser.add_argument("--smoke", action="store_true",
                        help="one kernel per workload, one set-up: a "
                             "seconds-long check that everything runs")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("parent", help="--out directory of the parent runs")
        parser.add_argument("change", help="--out directory of the change runs")
        return compare(parser.parse_args(argv[1:]))
    if argv[:1] == ["spread"]:
        parser = argparse.ArgumentParser(prog="run.py spread")
        parser.add_argument("--runs", type=int, default=10)
        _common(parser)
        args = parser.parse_args(argv[1:])
        Path(args.out).mkdir(parents=True, exist_ok=True)
        return spread(args)
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run only this workload, in this process "
                             "(default: every workload, each in a child)")
    parser.add_argument("--trace", type=_trace_flag, nargs="?", const=1,
                        default=0, help="traced run: report the per-layer ledger")
    _common(parser)
    args = parser.parse_args(argv)
    if args.workload:
        return run_workload(args)
    run_suite(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
