"""Checks of the benchmark itself: its statistics, span arithmetic and
seeded determinism, plus a seconds-long smoke pass of every workload
whose output must name every metric in BENCHMARK.json.

Run with the rest of the tier-1 suite::

    PYTHONPATH=src python -m pytest -q benchmarks/suite/test_suite.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
for path in (str(HERE), str(REPO / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from measures import geomean, percentile, quartiles, spearman, tail_level, verdict  # noqa: E402
from tracing import Tracer, children_of, covered, self_time  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    RunContext,
    ServeSteady,
    WrongOutput,
    check_output,
)

BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())


# -- statistics ---------------------------------------------------------------


def test_tail_level_needs_ten_samples_beyond():
    assert tail_level(19) is None
    assert tail_level(20) == 50.0
    assert tail_level(99) == 50.0
    assert tail_level(100) == 90.0
    assert tail_level(199) == 90.0
    assert tail_level(200) == 95.0
    assert tail_level(1000) == 99.0
    assert tail_level(10_000) == 99.9


def test_percentile_interpolates_like_numpy():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    for q in (0, 10, 25, 50, 90, 99, 100):
        assert percentile(values, q) == pytest.approx(np.percentile(values, q))
    with pytest.raises(ValueError):
        percentile([], 50)


def test_geomean():
    assert geomean([1.0, 100.0]) == pytest.approx(10.0)
    assert geomean([3.0]) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        geomean([])
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])


def test_spearman():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert spearman(xs, [10.0, 20.0, 30.0, 40.0]) == pytest.approx(1.0)
    assert spearman(xs, [4.0, 3.0, 2.0, 1.0]) == pytest.approx(-1.0)
    # ties take their average rank: ranks (1, 2.5, 2.5, 4) against (1..4)
    assert spearman(xs, [1.0, 2.0, 2.0, 3.0]) == pytest.approx(0.9486833)
    assert spearman(xs, [5.0] * 4) == 0.0
    assert spearman([1.0], [2.0]) == 0.0


def test_quartiles_match_statistics_module():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
    import statistics

    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))


def test_verdict_rule():
    parent = [100.0 + i for i in range(10)]
    # the change wins every pair by more than the parent's IQR
    assert verdict(parent, [p - 20 for p in parent], "lower", 0.1) == "improved"
    # 8 of 10 wins is not enough to claim a gain
    mixed = [p - 20 for p in parent[:8]] + [p + 1 for p in parent[8:]]
    assert verdict(parent, mixed, "lower", 0.1) == "no regression"
    # fewer than ten pairs never claims a gain
    assert verdict(parent[:9], [p - 20 for p in parent[:9]], "lower", 0.1) != "improved"
    assert verdict(parent, [p * 1.2 for p in parent], "lower", 0.1) == "regressed"
    assert verdict(parent, [p * 1.2 for p in parent], "higher", 0.1) == "improved"
    noisy = [50.0, 150.0] * 5
    assert verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.1) == "unresolved"


# -- tracing ------------------------------------------------------------------


def test_span_self_time_subtracts_the_union_of_children():
    spans = [
        {"process": "p", "id": 1, "parent": None, "name": "root", "start": 0.0, "end": 10.0},
        {"process": "p", "id": 2, "parent": 1, "name": "a", "start": 1.0, "end": 3.0},
        {"process": "p", "id": 3, "parent": 1, "name": "b", "start": 2.0, "end": 5.0},
        {"process": "p", "id": 4, "parent": 1, "name": "c", "start": 8.0, "end": 12.0},
        {"process": "p", "id": 5, "parent": 2, "name": "grandchild", "start": 1.0, "end": 2.0},
    ]
    children = children_of(spans)
    # children cover 1-5 and 8-10 of the root; the grandchild is inside a
    assert covered([(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)], 0.0, 10.0) == 6.0
    assert self_time(spans[0], children) == pytest.approx(4.0)
    assert self_time(spans[1], children) == pytest.approx(1.0)
    assert self_time(spans[2], children) == pytest.approx(3.0)


def test_tracer_records_nesting_and_restores_wrapped_functions():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Layer.inner
    tracer = Tracer()
    tracer.wrap(Layer, "outer", "layer.outer")
    tracer.wrap(Layer, "inner", "layer.inner")
    assert Layer().outer() == 2
    assert tracer.spans == []  # disabled: no spans
    tracer.enabled = True
    Layer().outer()
    records = {r["name"]: r for r in tracer.records()}
    outer, inner = records["layer.outer"], records["layer.inner"]
    assert outer["parent"] is None and inner["parent"] == outer["id"]
    assert inner["request"] == outer["request"] == outer["id"]
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    tracer.uninstall()
    assert Layer.inner is original


# -- workloads ------------------------------------------------------------------


def test_seeded_schedule_is_deterministic(tmp_path):
    def schedule(seed):
        workload = ServeSteady(RunContext(seed=seed, out_dir=tmp_path))
        return workload.arrivals(3.0)

    first, again, other = schedule(5), schedule(5), schedule(6)
    assert len(first) == len(again) > 0
    for (t1, (k1, env1, ref1, _)), (t2, (k2, env2, ref2, _)) in zip(first, again):
        assert t1 == t2 and k1 == k2
        assert all(np.array_equal(env1[n], env2[n]) for n in env1)
        assert np.array_equal(ref1, ref2)
    assert [t for t, _ in first] != [t for t, _ in other]


def test_wrong_output_names_kernel_and_input():
    expected = np.array([[1, 2], [3, 4]])
    check_output("gx", 3, [[1, 2], [3, 4]], expected)
    with pytest.raises(WrongOutput, match=r"'gx', input #7"):
        check_output("gx", 7, [[1, 2], [3, 5]], expected)
    with pytest.raises(WrongOutput):
        check_output("gx", 7, [1, 2, 3, 4], expected)


def _run(args, cwd=REPO, timeout=240):
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_names_every_metric(workload, trace, tmp_path):
    done = _run([
        "benchmarks/suite/run.py", "--workload", workload, "--smoke",
        "--seconds", "1", "--seed", "2", "--trace", str(trace),
        "--out", str(tmp_path),
    ])
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert workload in {w["name"] for w in BENCHMARK["workloads"]}


def test_benchmark_names_every_workload():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)


def test_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and the benchmark's files, exit nonzero
    without printing a result."""
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    for rel in BENCHMARK["paths"]:
        shutil.copytree(
            REPO / rel, tmp_path / rel,
            ignore=shutil.ignore_patterns("out", "__pycache__"),
        )
    done = _run([*BENCHMARK["command"][1:], "--workload", "he-exec", "--seed",
                 "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
