"""Ablation of the synthesis-scaling optimizations (paper section 6).

Measures how much each pruning rule contributes to search speed by
exhausting a fixed sketch size with individual rules disabled:

* observational-equivalence deduplication,
* symmetry breaking (commutative operand order + adjacent independent
  instruction order, section 6.2),
* dead-value bounds,
* rotation restrictions (section 6.1) — widened rotation sets instead of
  the sliding-window set.

All rules are sound, so every variant finds the same programs; only the
node count and wall time change.
"""

import time

import numpy as np
import pytest

from conftest import write_report

from repro.analysis.tables import render_table
from repro.core.restrictions import sliding_window_rotations
from repro.core.sketch import Sketch
from repro.core.sketches import default_sketch_for
from repro.quill.latency import default_latency_model
from repro.solver.engine import SearchOptions, SketchSearch
from repro.spec import get_spec

MODEL = default_latency_model()

_rows: list[list] = []


def _exhaust(name, sketch, length, options, examples=2, seed=3):
    spec = get_spec(name)
    rng = np.random.default_rng(seed)
    example_set = [spec.make_example(rng) for _ in range(examples)]
    search = SketchSearch(
        sketch, spec.layout, example_set, MODEL, length, options=options
    )
    start = time.monotonic()
    outcome = search.run(lambda a: (False, None))
    elapsed = time.monotonic() - start
    assert outcome.status == "exhausted"
    return outcome, elapsed


CONFIGS = [
    ("all optimizations", SearchOptions()),
    ("no OE dedup", SearchOptions(dedup=False)),
    ("no symmetry breaking", SearchOptions().without("commutative", "adjacent")),
    ("no dead-value bound", SearchOptions(dead_value=False)),
    ("no pruning at all", SearchOptions.no_prune()),
]


@pytest.mark.parametrize("label,options", CONFIGS, ids=[c[0] for c in CONFIGS])
def test_bench_hamming_exhaustion(benchmark, label, options):
    sketch = default_sketch_for(get_spec("hamming"))
    outcome, elapsed = benchmark.pedantic(
        _exhaust, args=("hamming", sketch, 4, options), rounds=1, iterations=1
    )
    benchmark.extra_info["nodes"] = outcome.nodes
    _rows.append([f"hamming L=4: {label}", outcome.nodes, f"{elapsed:.2f}"])


def test_bench_rotation_restriction(benchmark):
    """Section 6.1: widening the rotation set inflates the search space."""
    spec = get_spec("box_blur")
    restricted = default_sketch_for(spec)
    widened_set = set(sliding_window_rotations(5, 2, 2))
    widened_set.update(sliding_window_rotations(5, 3, 3, centered=True))
    widened_set.update((2, -2, 10, -10))  # amounts no window needs
    widened = Sketch(
        name="box_blur-wide",
        choices=restricted.choices,
        rotations=tuple(sorted(widened_set, key=abs)),
        constants=dict(restricted.constants),
    )
    out_restricted, t_restricted = _exhaust("box_blur", restricted, 2, SearchOptions())
    out_widened, t_widened = benchmark.pedantic(
        _exhaust, args=("box_blur", widened, 2, SearchOptions()),
        rounds=1, iterations=1,
    )
    _rows.append(
        ["box blur L=2: window rotations", out_restricted.nodes, f"{t_restricted:.2f}"]
    )
    _rows.append(
        ["box blur L=2: widened rotations", out_widened.nodes, f"{t_widened:.2f}"]
    )
    assert out_widened.nodes > out_restricted.nodes


def test_optimization_ablation_report(benchmark):
    assert len(_rows) >= 6
    text = benchmark(
        lambda: render_table(
            ["configuration", "search nodes", "time (s)"],
            _rows,
            title="Section 6 ablation: effect of each search optimization",
        )
    )
    write_report("optimization_ablation.txt", text)

    by_label = {row[0]: row[1] for row in _rows}
    base = by_label["hamming L=4: all optimizations"]
    assert by_label["hamming L=4: no OE dedup"] > base
    assert by_label["hamming L=4: no symmetry breaking"] > base
