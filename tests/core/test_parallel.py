"""Tests for the process-parallel synthesis driver.

The contract under test: ``workers=N`` synthesis is *bit-identical* to
``workers=1`` for the same seed — same program, same cost, same proof
status — because the driver partitions the root slot deterministically
and replays the merged candidate stream in canonical enumeration order.
"""

import numpy as np
import pytest

import repro.core.parallel as parallel
from repro.api import Porcupine
from repro.core.cegis import (
    SynthesisConfig,
    minimize_cost,
    synthesize,
    synthesize_initial,
)
from repro.core.parallel import ParallelSynthesis
from repro.core.sketch import ComponentChoice, CtHole, CtRotHole, Sketch
from repro.core.sketches import default_sketch_for
from repro.quill.ir import Opcode
from repro.quill.latency import default_latency_model
from repro.quill.parser import parse_program
from repro.quill.printer import format_program
from repro.solver.engine import SketchSearch, materialize_assignment
from repro.spec import box_blur_spec, dot_product_spec, get_spec
from repro.spec.layout import vector_layout
from repro.spec.reference import Spec

MODEL = default_latency_model()


def test_rank_count_cached_across_rounds():
    spec = get_spec("box_blur")
    sketch = default_sketch_for(spec)
    rng = np.random.default_rng(0)
    examples = [spec.make_example(rng)]
    driver = ParallelSynthesis(workers=2)
    total = driver.rank_count(sketch, spec.layout, examples, MODEL, 2)
    reference = SketchSearch(
        sketch, spec.layout, examples, MODEL, 2
    ).root_choice_count()
    assert total == reference > 0
    # second round with a grown example set reuses the cached universe
    examples.append(spec.make_example(rng))
    assert driver.rank_count(sketch, spec.layout, examples, MODEL, 2) == total


def test_parallel_minimize_matches_serial_best():
    spec = get_spec("dot_product")
    sketch = default_sketch_for(spec)
    config = dict(max_components=5, optimize=False)
    initial = synthesize(spec, sketch, SynthesisConfig(**config, workers=1))
    serial = minimize_cost(
        spec, sketch, initial,
        SynthesisConfig(**config, optimize_timeout=20.0, workers=1),
    )
    parallel = minimize_cost(
        spec, sketch, initial,
        SynthesisConfig(**config, optimize_timeout=20.0, workers=3),
    )
    assert format_program(serial.program) == format_program(parallel.program)
    assert serial.final_cost == parallel.final_cost
    assert serial.proof_complete == parallel.proof_complete


def test_root_choice_count_matches_enumeration():
    spec = get_spec("box_blur")
    sketch = default_sketch_for(spec)
    rng = np.random.default_rng(0)
    examples = [spec.make_example(rng)]
    search = SketchSearch(sketch, spec.layout, examples, MODEL, 2)
    total = search.root_choice_count()
    assert total > 0
    seen = []

    def on_candidate(assignment):
        seen.append(search.current_root_rank)
        return False, None

    search.run(on_candidate)
    assert search._root_rank == total - 1  # every branch was numbered
    assert all(0 <= rank < total for rank in seen)


def test_root_ranks_restrict_and_cover():
    """Rank-restricted searches together find exactly the unrestricted
    candidates."""
    spec = get_spec("box_blur")
    sketch = default_sketch_for(spec)
    rng = np.random.default_rng(1)
    examples = [spec.make_example(rng) for _ in range(2)]

    def run(ranks):
        search = SketchSearch(sketch, spec.layout, examples, MODEL, 3)
        found = []

        def on_candidate(assignment):
            found.append(
                (
                    search.current_root_rank,
                    format_program(
                        materialize_assignment(sketch, spec.layout, assignment)
                    ),
                )
            )
            return False, None

        search.run(on_candidate, root_ranks=ranks)
        return search.root_choice_count(), found

    total, all_found = run(None)
    parts = [frozenset(range(k, total, 3)) for k in range(3)]
    restricted = []
    for ranks in parts:
        _, found = run(ranks)
        for rank, _ in found:
            assert rank in ranks
        restricted.extend(found)
    assert sorted(restricted) == sorted(all_found)
    assert len(all_found) > 0


def test_run_serial_first_mode_reports_lowest_rank_match():
    spec = get_spec("box_blur")
    sketch = default_sketch_for(spec)
    rng = np.random.default_rng(1)
    examples = [spec.make_example(rng) for _ in range(2)]
    driver = ParallelSynthesis(workers=1)
    outcome, text = driver.find_first(
        sketch, spec.layout, examples, MODEL, 2, name="t"
    )
    assert outcome.status == "stopped"
    assert driver.last_match_rank >= 0 and "add" in text

    # the match is the first one a full in-process enumeration reaches
    search = SketchSearch(sketch, spec.layout, examples, MODEL, 2)
    first = []

    def stop_on_first(assignment):
        first.append((search.current_root_rank, format_program(
            materialize_assignment(sketch, spec.layout, assignment, name="t")
        )))
        return True, None

    search.run(stop_on_first)
    assert first == [(driver.last_match_rank, text)]


def test_single_worker_driver_forks_nothing(monkeypatch):
    """workers=1 runs every round in process: a full synthesis creates no
    pool and no shared state."""

    def forbidden(*args, **kwargs):
        raise AssertionError("workers=1 must not create shared state")

    for factory in ("Event", "Value", "Queue"):
        monkeypatch.setattr(parallel.multiprocessing, factory, forbidden)
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", forbidden)
    spec = get_spec("dot_product")
    sketch = default_sketch_for(spec)
    config = SynthesisConfig(seed=5, optimize_timeout=20.0)  # multi-round
    with ParallelSynthesis(workers=1) as driver:
        initial = synthesize_initial(spec, sketch, config, driver=driver)
        result = minimize_cost(spec, sketch, initial, config, driver=driver)
        assert driver._pool is None
        assert not hasattr(driver, "_results")
    assert result.examples_used >= 2 and result.proof_complete
    reference = synthesize(spec, sketch, config)
    assert format_program(result.program) == format_program(reference.program)
    assert result.final_cost == reference.final_cost
    assert result.nodes == reference.nodes


def _power_query(power: int, length: int):
    """An elementwise ``x**power`` spec and a multiply sketch searched at
    ``length``: length 1 with local rotations, or a single root rank."""
    layout = vector_layout([("x", "ct", 4)], output_slots=[4, 5, 6, 7])
    spec = Spec(
        name=f"pow{power}",
        layout=layout,
        reference=lambda x: [v**power for v in np.asarray(x).reshape(-1)],
    )
    if length == 1:
        choices = tuple(
            ComponentChoice(op, CtRotHole(), CtRotHole())
            for op in (Opcode.MUL_CC, Opcode.ADD_CC)
        )
        sketch = Sketch(name="pow", choices=choices, rotations=(1,))
    else:
        choices = (ComponentChoice(Opcode.MUL_CC, CtHole(), CtHole()),)
        sketch = Sketch(name="pow", choices=choices, rotations=())
    examples = [spec.make_example(np.random.default_rng(0))]
    return spec, sketch, examples


@pytest.mark.parametrize("power,length", [(2, 1), (4, 2)])
def test_in_process_minimize_same_for_any_worker_count(power, length):
    """A length-1 or single-rank phase-2 query runs in process whatever
    the worker count: same program, cost and node count."""
    spec, sketch, examples = _power_query(power, length)

    def verify(text):
        return spec.verify_program(parse_program(text)).equivalent

    results = []
    for workers in (1, 2):
        with ParallelSynthesis(workers=workers) as driver:
            if length == 2:
                assert driver.rank_count(
                    sketch, spec.layout, examples, MODEL, length
                ) == 1
            outcome, text, cost = driver.minimize(
                sketch, spec.layout, examples, MODEL, length,
                cost_bound=float("inf"), verify=verify,
            )
            assert driver._pool is None
        results.append((text, cost, outcome.nodes, outcome.status))
    assert results[0] == results[1]
    text, cost, nodes, status = results[0]
    assert text is not None and status == "exhausted" and nodes > 0


@pytest.mark.parametrize("spec_factory", [box_blur_spec, dot_product_spec])
def test_parallel_synthesis_bit_identical(spec_factory):
    spec = spec_factory()
    sketch = default_sketch_for(spec)
    config = dict(max_components=5, optimize_timeout=20.0)
    serial = synthesize(spec, sketch, SynthesisConfig(**config, workers=1))
    parallel = synthesize(spec, sketch, SynthesisConfig(**config, workers=4))
    assert format_program(serial.program) == format_program(parallel.program)
    assert serial.components == parallel.components
    assert serial.final_cost == parallel.final_cost
    assert serial.initial_cost == parallel.initial_cost
    assert serial.proof_complete == parallel.proof_complete
    assert serial.examples_used == parallel.examples_used


def test_parallel_find_first_matches_serial_first_candidate():
    spec = get_spec("dot_product")
    sketch = default_sketch_for(spec)
    rng = np.random.default_rng(7)
    examples = [spec.make_example(rng) for _ in range(2)]

    search = SketchSearch(sketch, spec.layout, examples, MODEL, 4)
    first_serial = {}

    def stop_on_first(assignment):
        first_serial["text"] = format_program(
            materialize_assignment(
                sketch, spec.layout, assignment, name="synthesized"
            )
        )
        return True, None

    search.run(stop_on_first)

    with ParallelSynthesis(workers=3) as driver:
        outcome, text = driver.find_first(
            sketch, spec.layout, examples, MODEL, 4
        )
    assert outcome.status == "stopped"
    assert text == first_serial["text"]


@pytest.mark.parametrize("kernel", ["gx", "box_blur"])
def test_workers_mid_round_bound_sharing_bit_identical(kernel):
    """Satellite regression: workers=2 — with the shared mid-round cost
    bound and the work-stealing chunk queue live — is bit-identical to
    serial on gx and box_blur, proof status and costs included."""
    spec = get_spec(kernel)
    sketch = default_sketch_for(spec)
    config = dict(optimize_timeout=60.0)
    serial = synthesize(spec, sketch, SynthesisConfig(**config, workers=1))
    parallel = synthesize(spec, sketch, SynthesisConfig(**config, workers=2))
    assert format_program(serial.program) == format_program(parallel.program)
    assert serial.final_cost == parallel.final_cost
    assert serial.initial_cost == parallel.initial_cost
    assert serial.proof_complete and parallel.proof_complete
    assert serial.examples_used == parallel.examples_used


def test_parallel_outcome_reports_chunks_and_steals():
    spec = get_spec("dot_product")
    sketch = default_sketch_for(spec)
    result = synthesize(
        spec,
        sketch,
        SynthesisConfig(max_components=5, optimize_timeout=20.0, workers=3),
    )
    stats = result.search_stats
    assert stats.chunks > 0  # the work-stealing queue actually ran
    assert stats.steals >= 0
    summary = stats.summary()
    assert summary["chunks"] == stats.chunks
    assert "steals" in summary and "bound_updates" in summary


def test_multi_round_parallel_resume_matches_serial():
    """Counterexample rounds + rank-frontier resume under workers=2."""
    spec = get_spec("dot_product")
    sketch = default_sketch_for(spec)
    base = dict(seed=5, optimize_timeout=20.0)  # seed 5 is multi-round
    serial = synthesize(spec, sketch, SynthesisConfig(**base, workers=1))
    parallel = synthesize(spec, sketch, SynthesisConfig(**base, workers=2))
    assert serial.examples_used >= 2
    assert serial.examples_used == parallel.examples_used
    assert format_program(serial.program) == format_program(parallel.program)
    assert serial.final_cost == parallel.final_cost


def test_session_workers_shares_cache_key():
    """workers must not split the compile cache: identical results."""
    serial = Porcupine(seed=0)
    parallel = Porcupine(seed=0, workers=2)
    a = serial.compile("box_blur")
    b = parallel.compile("box_blur")
    assert a.cache_key == b.cache_key
    assert format_program(a.program) == format_program(b.program)
    assert parallel.config_for("box_blur").workers == 2


def test_synthesis_result_carries_search_stats():
    spec = box_blur_spec()
    result = synthesize(
        spec,
        default_sketch_for(spec),
        SynthesisConfig(max_components=3, optimize_timeout=10.0),
    )
    stats = result.search_stats
    assert stats is not None
    assert stats.nodes == result.nodes
    assert stats.runs >= 2  # at least one run per phase
    assert stats.seconds > 0
    assert stats.nodes_per_sec > 0
    summary = stats.summary()
    assert summary["nodes"] == result.nodes
    assert "nodes_per_sec" in summary
