"""The cross-round frontier: resumed CEGIS rounds skip matchless branches.

Every counterexample round builds a fresh search over the full example
list and resumes at the root branch where the failed candidate was found
(``run(start_rank=...)``): every lower branch was exhausted without an
example match, and example sets only grow.  The seeds below are chosen
so phase 1 really does go through counterexample rounds (multi-round
CEGIS), not just length increments.
"""

import numpy as np
import pytest

from repro.core.cegis import SynthesisConfig, synthesize
from repro.core.sketches import default_sketch_for
from repro.quill.latency import default_latency_model
from repro.quill.printer import format_program
from repro.solver.engine import SketchSearch
from repro.spec import get_spec

MODEL = default_latency_model()

# (kernel, seed) pairs whose phase 1 provably adds counterexamples
MULTI_ROUND = [("dot_product", 5), ("linear_regression", 0), ("hamming", 1)]


#: receipts of the multi-round seeds: the synthesized program, its cost,
#: the example count and the nodes searched (pinned when the search was
#: still carried across rounds, and unchanged by a fresh search per round)
RECEIPTS = {
    "dot_product": (
        'quill kernel "dot_product_synth"\nvec 24\nct x\npt w\n'
        "c1 = mul-ct-pt x $w\nc2 = rot c1 4\nc3 = add-ct-ct c1 c2\n"
        "c4 = rot c3 2\nc5 = add-ct-ct c3 c4\nc6 = rot c5 1\n"
        "c7 = add-ct-ct c5 c6\nout c7",
        433860.0, 3, 14016,
    ),
    "linear_regression": (
        'quill kernel "linear_regression_synth"\nvec 10\nct x\nct b\n'
        "pt w\nc1 = mul-ct-pt x $w\nc2 = rot c1 1\nc3 = add-ct-ct c1 c2\n"
        "c4 = add-ct-ct c3 b\nout c4",
        173240.0, 2, 724,
    ),
    "hamming": (
        'quill kernel "hamming_synth"\nvec 12\nct x\nct y\n'
        "c1 = sub-ct-ct y x\nc2 = mul-ct-ct c1 c1\nc3 = rot c2 2\n"
        "c4 = add-ct-ct c2 c3\nc5 = rot c4 1\nc6 = add-ct-ct c4 c5\nout c6",
        913860.0, 2, 123662,
    ),
}


@pytest.mark.parametrize("name,seed", MULTI_ROUND, ids=[c[0] for c in MULTI_ROUND])
def test_multi_round_receipts(name, seed):
    spec = get_spec(name)
    sketch = default_sketch_for(spec)
    result = synthesize(
        spec, sketch, SynthesisConfig(seed=seed, optimize_timeout=20.0)
    )
    program, cost, examples_used, nodes = RECEIPTS[name]
    assert format_program(result.program) == program
    assert result.final_cost == cost
    assert result.proof_complete
    assert result.examples_used == examples_used
    assert result.nodes == nodes
    # the counterexample rounds resumed past proven-matchless branches
    assert result.search_stats.ranks_skipped > 0


def test_start_rank_resume_skips_matchless_prefix():
    spec = get_spec("linear_regression")
    sketch = default_sketch_for(spec)
    rng = np.random.default_rng(0)
    examples = [spec.make_example(rng) for _ in range(2)]
    search = SketchSearch(sketch, spec.layout, examples, MODEL, 3)

    first = {}

    def stop_on_first(assignment):
        first["rank"] = search.current_root_rank
        return True, None

    full = search.run(stop_on_first)
    assert full.status == "stopped"
    match_rank = first["rank"]
    assert match_rank > 0

    resumed = search.run(stop_on_first, start_rank=match_rank)
    assert resumed.status == "stopped"
    assert first["rank"] == match_rank  # same branch found again
    assert resumed.ranks_skipped == match_rank
    assert resumed.nodes < full.nodes  # the skipped prefix was real work


def test_timeout_unwinds_persistent_store():
    spec = get_spec("hamming")
    sketch = default_sketch_for(spec)
    rng = np.random.default_rng(0)
    examples = [spec.make_example(rng) for _ in range(2)]
    search = SketchSearch(sketch, spec.layout, examples, MODEL, 4)
    import time as time_module

    outcome = search.run(
        lambda a: (False, None),
        deadline=time_module.perf_counter() - 1.0,  # already expired
    )
    assert outcome.status == "timeout"
    assert len(search.store) == search.store.base_count
    # the search object stays usable for the next round
    follow_up = search.run(lambda a: (True, None))
    assert follow_up.status in ("stopped", "exhausted")
