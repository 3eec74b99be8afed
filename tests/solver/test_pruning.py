"""The declarative pruning-rule table: toggles, counters, and soundness.

The load-bearing property (satellite of the incremental-CEGIS work): for
random small specs, the pruned search finds a program iff the unpruned
search does — at the same minimal length — and ``minimize_cost`` returns
the same minimal latency.  Rule soundness arguments live in the
``repro.solver`` package docstring; these tests check them empirically.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cegis import (
    SynthesisConfig,
    SynthesisError,
    minimize_cost,
    synthesize,
    synthesize_initial,
)
from repro.core.sketch import (
    ComponentChoice,
    CtHole,
    CtRotHole,
    RotationChoice,
    Sketch,
)
from repro.core.sketches import default_sketch_for
from repro.quill.interpreter import evaluate
from repro.quill.ir import CtInput, Instruction, Opcode, Program, Wire
from repro.quill.latency import default_latency_model
from repro.quill.printer import format_program
from repro.solver.engine import (
    PRUNE_RULES,
    SearchOptions,
    SketchSearch,
    materialize_assignment,
)
from repro.spec import get_spec
from repro.spec.layout import vector_layout
from repro.spec.reference import Spec

MODEL = default_latency_model()


# -- the rule table ----------------------------------------------------------


def test_catalog_matches_options_fields():
    option_fields = {f for f in SearchOptions.__dataclass_fields__}
    # every option is a pruning rule
    assert option_fields == set(PRUNE_RULES)


def test_no_prune_disables_every_rule():
    options = SearchOptions.no_prune()
    assert options.enabled_rules() == ()
    assert SearchOptions().enabled_rules() == tuple(PRUNE_RULES)


def test_from_rules_and_without():
    options = SearchOptions.from_rules("dedup, commutative")
    assert options.enabled_rules() == ("dedup", "commutative")
    options = SearchOptions().without("dedup")
    assert "dedup" not in options.enabled_rules()
    with pytest.raises(ValueError, match="bogus"):
        SearchOptions.from_rules("bogus")
    with pytest.raises(ValueError, match="nope"):
        SearchOptions().without("nope")


# -- counters and node accounting -------------------------------------------


def _exhaust(name, length, options, examples=2, seed=3):
    spec = get_spec(name)
    sketch = default_sketch_for(spec)
    rng = np.random.default_rng(seed)
    example_set = [spec.make_example(rng) for _ in range(examples)]
    search = SketchSearch(
        sketch, spec.layout, example_set, MODEL, length, options=options
    )
    programs = []

    def on_candidate(assignment):
        programs.append(
            format_program(
                materialize_assignment(sketch, spec.layout, assignment)
            )
        )
        return False, None

    outcome = search.run(on_candidate)
    assert outcome.status == "exhausted"
    return outcome, programs


def test_per_rule_counters_populated():
    outcome, _ = _exhaust("dot_product", 4, SearchOptions())
    assert set(outcome.pruned) == set(PRUNE_RULES)
    assert outcome.pruned["commutative"] > 0
    assert outcome.pruned["adjacent"] > 0
    assert outcome.pruned["dedup"] == outcome.dedup_hits > 0


def test_disabling_a_rule_grows_the_search():
    base, _ = _exhaust("dot_product", 4, SearchOptions())
    for rule in ("dedup", "commutative", "adjacent"):
        grown, _ = _exhaust("dot_product", 4, SearchOptions().without(rule))
        assert grown.nodes > base.nodes, rule
        assert grown.pruned[rule] == 0


def test_no_prune_counters_all_zero():
    outcome, _ = _exhaust("box_blur", 3, SearchOptions.no_prune())
    assert all(count == 0 for count in outcome.pruned.values())


def test_zero_elide_is_a_pure_dedup_fast_path():
    """With dedup on, zero_elide changes node counts but never the
    candidate stream (every elided push would have been rejected)."""
    with_rule, programs_with = _exhaust("gx", 2, SearchOptions())
    without, programs_without = _exhaust(
        "gx", 2, SearchOptions().without("zero_elide")
    )
    assert programs_with == programs_without
    assert with_rule.nodes <= without.nodes


# -- rotation_collapse on explicit sketches ----------------------------------


def _explicit_sketch(rotations=(1, 2, 3, -1)):
    return Sketch(
        name="explicit",
        choices=(
            RotationChoice(),
            ComponentChoice(Opcode.ADD_CC, CtHole(), CtHole()),
            ComponentChoice(Opcode.SUB_CC, CtHole(), CtHole()),
        ),
        rotations=rotations,
        style="explicit",
    )


def _tiny_spec(program, layout):
    def reference(x):
        flat = np.asarray(x).reshape(-1)
        if flat.dtype == object:
            from repro.symbolic.polynomial import Poly
            from repro.symbolic.symvec import evaluate_symbolic

            vec = [Poly.zero()] * layout.vector_size
            for i, slot in enumerate(layout.input("x").slots):
                vec[slot] = flat[i]
            out = evaluate_symbolic(program, {"x": vec})
        else:
            out = evaluate(program, {"x": layout.pack("x", x)})
        return [out[s] for s in layout.output_slots]

    return Spec(name="tiny", layout=layout, reference=reference)


def _chain_spec(n=6):
    """Target: rot(x, 3) + x — reachable as rot(rot(x,1),2)+x too."""
    layout = vector_layout([("x", "ct", n)])
    program = Program(
        vector_size=layout.vector_size,
        ct_inputs=["x"],
        instructions=[
            Instruction(Opcode.ROTATE, (CtInput("x"),), 3),
            Instruction(Opcode.ADD_CC, (Wire(0), CtInput("x"))),
        ],
        output=Wire(1),
        name="chain",
    )
    return _tiny_spec(program, layout)


def test_rotation_collapse_prunes_explicit_chains():
    spec = _chain_spec()
    sketch = _explicit_sketch()
    config = dict(max_components=3, optimize_timeout=10.0)
    pruned = synthesize(
        spec, sketch, SynthesisConfig(**config)
    )
    unpruned = synthesize(
        spec,
        sketch,
        SynthesisConfig(
            **config, search_options=SearchOptions().without("rotation_collapse")
        ),
    )
    # same minimal size and cost either way (the rule is sound) ...
    assert pruned.components == unpruned.components
    assert pruned.final_cost == unpruned.final_cost
    assert spec.verify_program(pruned.program).equivalent
    # ... but the collapse actually fired and shrank the search
    assert pruned.search_stats.pruned["rotation_collapse"] > 0
    assert pruned.nodes < unpruned.nodes


# -- the soundness property (hypothesis) -------------------------------------

N = 4
ROTS = (1, -1, 2)
OPS = [Opcode.ADD_CC, Opcode.SUB_CC, Opcode.MUL_CC]


@st.composite
def secret_programs(draw):
    """A random 1-3 instruction program over one input, rotations allowed."""
    layout = vector_layout([("x", "ct", N)])
    count = draw(st.integers(1, 3))
    instructions = []
    x = CtInput("x")
    rotation_wires: set[int] = set()

    def ct_refs(i, allow_rotations=True):
        return [x] + [
            Wire(j)
            for j in range(i)
            if allow_rotations or j not in rotation_wires
        ]

    for i in range(count):
        if draw(st.booleans()) and i < count - 1:
            amount = draw(st.sampled_from(ROTS))
            operand = draw(st.sampled_from(ct_refs(i, allow_rotations=False)))
            instructions.append(Instruction(Opcode.ROTATE, (operand,), amount))
            rotation_wires.add(i)
        else:
            opcode = draw(st.sampled_from(OPS))
            a = draw(st.sampled_from(ct_refs(i)))
            b = draw(st.sampled_from(ct_refs(i)))
            instructions.append(Instruction(opcode, (a, b)))
    program = Program(
        vector_size=layout.vector_size,
        ct_inputs=["x"],
        instructions=instructions,
        output=Wire(count - 1),
        name="secret",
    )
    return layout, program


@settings(max_examples=20, deadline=None)
@given(secret_programs(), st.sampled_from(list(PRUNE_RULES) + ["all"]))
def test_pruning_rules_are_sound(layout_program, ablation):
    """Pruned search finds a program iff unpruned does, at the same
    minimal component count, and minimize_cost reaches the same minimal
    latency — for each single-rule ablation and for all rules at once."""
    layout, secret = layout_program
    spec = _tiny_spec(secret, layout)
    sketch = Sketch(
        name="secret",
        choices=tuple(
            ComponentChoice(op, CtRotHole(), CtRotHole()) for op in OPS
        ),
        rotations=ROTS,
    )
    ablated = (
        SearchOptions.no_prune()
        if ablation == "all"
        else SearchOptions().without(ablation)
    )
    results = {}
    for label, options in (("pruned", SearchOptions()), ("ablated", ablated)):
        config = SynthesisConfig(
            max_components=3,
            optimize_timeout=20.0,
            search_options=options,
        )
        try:
            initial = synthesize_initial(spec, sketch, config)
        except SynthesisError:
            results[label] = None
            continue
        final = minimize_cost(spec, sketch, initial, config)
        results[label] = (initial.components, final.final_cost)
    if results["pruned"] is None:
        assert results["ablated"] is None
    else:
        assert results["ablated"] is not None
        assert results["pruned"] == results["ablated"]
