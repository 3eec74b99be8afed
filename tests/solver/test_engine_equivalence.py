"""Batched engine vs the scalar oracle (``tests/solver/scalar_engine.py``).

The scalar engine evaluates one candidate at a time through the shift
cache; the batched engine stacks every fill of a prefix into one gather
of rotation-block rows.  These tests pin both to the same canonical
enumeration: identical node counts, per-rule prune counters, candidate
sequences, and the same minimal verified program on registry kernels.
"""

import numpy as np
import pytest

from repro.core.sketches import default_sketch_for
from repro.quill.latency import default_latency_model
from repro.quill.parser import parse_program
from repro.quill.printer import format_program
from repro.solver.engine import SketchSearch, materialize_assignment
from repro.spec import get_spec
from tests.solver.scalar_engine import ScalarSketchSearch

MODEL = default_latency_model()

#: (kernel, length, root ranks): gy's full length-3 space is ~30M nodes,
#: so its case searches one root branch (~0.5M nodes, 4 candidates)
CASES = [
    ("box_blur", 3, None),
    ("dot_product", 4, None),
    ("hamming", 4, None),
    ("l2", 3, None),
    ("linear_regression", 3, None),
    ("gy", 3, {6}),
]

ENGINES = (("batched", SketchSearch), ("scalar", ScalarSketchSearch))


def _search(engine, name, length, examples=2, seed=3):
    spec = get_spec(name)
    sketch = default_sketch_for(spec)
    rng = np.random.default_rng(seed)
    example_set = [spec.make_example(rng) for _ in range(examples)]
    return engine(sketch, spec.layout, example_set, MODEL, length)


def _exhaust(engine, name, length, root_ranks=None):
    search = _search(engine, name, length)
    programs = []

    def on_candidate(assignment):
        programs.append(
            format_program(
                materialize_assignment(
                    search.sketch, search.layout, assignment
                )
            )
        )
        return False, None

    outcome = search.run(on_candidate, root_ranks=root_ranks)
    assert outcome.status == "exhausted"
    return outcome, programs


@pytest.mark.parametrize(
    "name,length,ranks", CASES, ids=[c[0] for c in CASES]
)
def test_batched_matches_scalar_path(name, length, ranks):
    batched_outcome, batched_programs = _exhaust(
        SketchSearch, name, length, ranks
    )
    scalar_outcome, scalar_programs = _exhaust(
        ScalarSketchSearch, name, length, ranks
    )
    # same canonical enumeration: node-for-node, rule-for-rule,
    # candidate-for-candidate
    assert batched_outcome.nodes == scalar_outcome.nodes
    assert batched_outcome.pruned == scalar_outcome.pruned
    assert batched_outcome.candidates == scalar_outcome.candidates
    assert batched_programs == scalar_programs


@pytest.mark.parametrize(
    "name,length", [("box_blur", 3), ("dot_product", 4), ("hamming", 4)]
)
def test_minimal_verified_program_identical(name, length):
    """The first verified candidate — the minimal program phase 1 accepts —
    is the same program under both evaluation paths."""
    spec = get_spec(name)
    firsts = {}
    for label, engine in ENGINES:
        _, programs = _exhaust(engine, name, length)
        firsts[label] = next(
            (
                text
                for text in programs
                if spec.verify_program(parse_program(text)).equivalent
            ),
            None,
        )
    assert firsts["batched"] is not None
    assert firsts["batched"] == firsts["scalar"]


def test_stopped_run_node_counts_match():
    """Early stop (phase-1 style) keeps node accounting path-identical."""
    nodes = {}
    for label, engine in ENGINES:
        search = _search(engine, "dot_product", 4)
        outcome = search.run(lambda a: (True, None))  # stop at first match
        assert outcome.status == "stopped"
        nodes[label] = outcome.nodes
    assert nodes["batched"] == nodes["scalar"]


def test_batched_dedup_hits_reported():
    outcome, _ = _exhaust(SketchSearch, "dot_product", 4)
    assert outcome.dedup_hits > 0
    assert outcome.batches > 0
    assert outcome.seconds > 0
    assert outcome.nodes_per_sec > 0
