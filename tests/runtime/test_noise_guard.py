"""Noise-safety tests: predictive admission, runtime guards, escalation.

BFV noise crossing the budget does not raise — it decrypts to garbage.
These tests pin the three defense layers that turn that silent hazard
into typed, recoverable failures:

* predictive admission (``noise_margin_bits``) refuses to compile a
  tape whose estimated output budget is under the margin;
* runtime guards (:class:`~repro.runtime.executor.NoiseGuardPolicy`)
  sample ``noise_budgets`` mid-tape and at the output and raise a
  structured :class:`~repro.he.errors.NoiseBudgetExhausted`;
* the HE backend catches that error and transparently recompiles and
  re-runs on the next-larger preset up the ladder, with the recovered
  output bit-identical to the interpreter reference.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.backends import HEBackend, InterpreterBackend
from repro.baselines import baseline_for
from repro.he.context import BFVContext
from repro.he.errors import NoiseBudgetExhausted
from repro.he.params import (
    PRESET_LADDER,
    next_larger_params,
    preset_params,
    small_params,
    toy_params,
)
from repro.quill.builder import ProgramBuilder
from repro.runtime.executor import HEExecutor
from repro.runtime.options import ExecOptions, NoiseGuardPolicy
from repro.spec import get_spec
from repro.spec.layout import vector_layout
from repro.spec.reference import Spec


def quad_spec(n: int = 4) -> Spec:
    """x^4 per element: depth 2, exhausts toy params, fits n4096."""
    base = vector_layout([("x", "ct", n)])
    layout = vector_layout(
        [("x", "ct", n)],
        output_slots=list(range(base.origin, base.origin + n)),
        output_shape=(n,),
    )
    return Spec(
        name="noise_quad",
        layout=layout,
        reference=lambda x: [int(v) ** 4 for v in x],
        description="x^4 per element (noise-exhaustion probe)",
    )


def quad_program(spec: Spec):
    b = ProgramBuilder(vector_size=spec.layout.vector_size,
                       name="noise_quad")
    x = b.ct_input("x")
    sq = b.mul(x, x)
    return b.build(b.mul(sq, sq))


QUAD_ENV = {"x": np.array([1, 2, 3, 2])}


# -- the preset ladder -------------------------------------------------------


def test_preset_ladder_is_ordered_and_complete():
    degrees = [preset_params(name).poly_degree for name in PRESET_LADDER]
    assert degrees == sorted(degrees)
    assert next_larger_params(toy_params()).name == "n4096-depth1"
    assert next_larger_params(small_params()).name == "n8192-depth3"
    assert next_larger_params(preset_params("large")) is None


def test_ladder_accepts_aliases():
    assert preset_params("toy").name == "toy-insecure"
    assert preset_params("n4096-depth1").name == "n4096-depth1"
    with pytest.raises(Exception, match="unknown parameter preset"):
        preset_params("gargantuan")


# -- guard policy coercion ---------------------------------------------------


def test_guard_policy_coercion():
    assert NoiseGuardPolicy.coerce(None) is None
    assert NoiseGuardPolicy.coerce("off") is None
    output = NoiseGuardPolicy.coerce("output")
    assert output.check_output and not output.after_multiplies
    mul = NoiseGuardPolicy.coerce("mul")
    assert mul.after_multiplies
    every = NoiseGuardPolicy.coerce(4)
    assert every.every_n_ops == 4
    policy = NoiseGuardPolicy(after_multiplies=True, min_budget_bits=2)
    assert NoiseGuardPolicy.coerce(policy) is policy
    with pytest.raises(ValueError):
        NoiseGuardPolicy.coerce("sometimes")


# -- satellite: the decrypt-time error names its batch element ---------------


def test_decrypt_error_names_budget_and_batch_element():
    ctx = BFVContext(toy_params(), seed=3)
    ct = ctx.encrypt_vector([1, 2, 3])
    deep = ctx.multiply(ct, ct)
    deep = ctx.multiply(deep, deep)  # depth 2 exhausts toy
    with pytest.raises(NoiseBudgetExhausted) as info:
        ctx.decrypt_with_budgets(deep, check_budget=True)
    message = str(info.value)
    assert "batch element" in message
    assert "minimum budget" in message
    assert info.value.min_budget is not None
    assert info.value.batch_index is not None
    assert info.value.params_name == "toy-insecure"


# -- runtime guards ----------------------------------------------------------


def test_mul_guard_trips_mid_tape_with_structured_fields():
    spec = quad_spec()
    executor = HEExecutor(spec, params=toy_params(), seed=31,
                          options=ExecOptions(guard="mul"))
    with pytest.raises(NoiseBudgetExhausted) as info:
        executor.run(quad_program(spec), QUAD_ENV)
    error = info.value
    assert error.op_index is not None  # mid-tape, not at the output
    assert error.batch_index == 0
    assert error.min_budget <= 0
    assert error.params_name == "toy-insecure"
    assert executor.stats.guard_trips == 1
    assert executor.stats.guard_checks >= 1


def test_output_guard_trips_after_decrypt():
    spec = quad_spec()
    executor = HEExecutor(spec, params=toy_params(), seed=31,
                          options=ExecOptions(guard="output"))
    with pytest.raises(NoiseBudgetExhausted) as info:
        executor.run(quad_program(spec), QUAD_ENV)
    assert info.value.op_index is None  # the output check, not mid-tape
    assert executor.stats.guard_trips == 1
    assert executor.stats.min_output_budget <= 0


def test_unguarded_run_documents_the_silent_hazard():
    """Without guards, exhaustion yields a wrong answer, not an error —
    the behavior the guard layers exist to prevent."""
    spec = quad_spec()
    executor = HEExecutor(spec, params=toy_params(), seed=31)
    report = executor.run(quad_program(spec), QUAD_ENV)
    assert report.output_noise_budget <= 0
    assert not report.matches_reference


def test_bitflip_fault_lands_on_a_fortran_ordered_eval_form():
    """The injected flip must reach the ciphertext whatever the memory
    order of its cached evaluation form (a flattening reshape of an
    F-ordered copy is a copy, and a flip written there is lost)."""
    executor = HEExecutor(quad_spec(), params=toy_params(), seed=5)
    ctx = executor.ctx
    ct = ctx.encrypt_vector([1, 2, 3])
    part = ct.parts[0]
    part._eval = np.asfortranarray(part.eval_rows())
    assert not part._eval.flags.c_contiguous
    assert ctx.noise_budget(ct) > 0
    flipped = executor._corrupt_ciphertext(ct, ("bitflip", 0, 11))
    assert ctx.noise_budget(flipped) <= 0


def test_guard_passes_clean_runs_and_records_low_water():
    spec = quad_spec()
    executor = HEExecutor(spec, params=small_params(), seed=31,
                          options=ExecOptions(guard="mul"))
    report = executor.run(quad_program(spec), QUAD_ENV)
    assert report.matches_reference
    assert executor.stats.guard_trips == 0
    assert executor.stats.guard_checks >= 2  # one per ct-ct multiply
    assert executor.stats.min_output_budget > 0


def test_sharded_batch_rebases_the_batch_index():
    spec = quad_spec()
    executor = HEExecutor(spec, params=toy_params(), seed=31,
                          options=ExecOptions(guard="mul"))
    envs = [{"x": np.array([1, 1, 1, 1])}, {"x": np.array([1, 2, 3, 2])},
            {"x": np.array([2, 2, 2, 2])}]
    with pytest.raises(NoiseBudgetExhausted) as info:
        executor.run_many(quad_program(spec), envs, workers=2)
    # the index is rebased into whole-batch coordinates and the message
    # names the shard that tripped
    assert info.value.batch_index in range(len(envs))
    assert "shard covering batch elements" in str(info.value)


def test_guard_trips_in_every_shard_are_counted_on_the_caller():
    """Both shards trip at their first multiply; the counts are exact and
    the raised error names the element one unsharded pass would name.
    All-zero inputs encode to the zero polynomial and keep the most
    budget, so the worst element sits in the second shard."""
    spec = quad_spec()
    always = ExecOptions(guard=NoiseGuardPolicy(after_multiplies=True,
                                                min_budget_bits=10_000))
    envs = [{"x": np.array([0, 0, 0, 0])}, {"x": np.array([0, 0, 0, 0])},
            {"x": np.array([1, 2, 3, 2])}, {"x": np.array([3, 0, 1, 2])}]
    single = HEExecutor(spec, params=toy_params(), seed=31, options=always)
    sharded = HEExecutor(spec, params=toy_params(), seed=31, options=always)
    with pytest.raises(NoiseBudgetExhausted) as one_pass:
        single.run_many(quad_program(spec), envs, workers=1)
    with pytest.raises(NoiseBudgetExhausted) as two_shards:
        sharded.run_many(quad_program(spec), envs, workers=2)
    assert (single.stats.guard_checks, single.stats.guard_trips) == (1, 1)
    assert (sharded.stats.guard_checks, sharded.stats.guard_trips) == (2, 2)
    assert sharded.stats.runs == 0  # a tripped batch is not a run
    error = two_shards.value
    assert error.op_index == one_pass.value.op_index == 0
    assert error.min_budget == one_pass.value.min_budget
    assert error.batch_index == one_pass.value.batch_index == 2
    assert "shard covering batch elements 2:4" in str(error)


def test_guard_counts_survive_concurrent_shard_trips():
    """More shards than cores, a tiny switch interval: every shard trips
    on every run, and no count is lost to a racing update."""
    spec = quad_spec()
    always = ExecOptions(guard=NoiseGuardPolicy(after_multiplies=True,
                                                min_budget_bits=10_000))
    executor = HEExecutor(spec, params=toy_params(), seed=31, options=always)
    envs = [{"x": np.array([i % 4, 1, 2, 3])} for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            with pytest.raises(NoiseBudgetExhausted):
                executor.run_many(quad_program(spec), envs, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert executor.stats.guard_checks == 5 * 8
    assert executor.stats.guard_trips == 5 * 8


# -- predictive admission ----------------------------------------------------


def test_admission_rejects_predicted_exhaustion_at_compile_time():
    spec = quad_spec()
    executor = HEExecutor(spec, params=toy_params(), seed=31,
                          options=ExecOptions(noise_margin_bits=5.0))
    with pytest.raises(NoiseBudgetExhausted) as info:
        executor.compile(quad_program(spec))
    assert info.value.min_budget < 5.0  # the prediction, not a measurement
    assert info.value.params_name == "toy-insecure"


def test_admission_attaches_prediction_to_accepted_programs():
    spec = quad_spec()
    executor = HEExecutor(spec, params=small_params(), seed=31,
                          options=ExecOptions(noise_margin_bits=5.0))
    compiled = executor.compile(quad_program(spec))
    assert compiled.predicted_noise_budget is not None
    assert compiled.predicted_noise_budget >= 5.0


def test_harris_is_refused_admission_on_toy_params():
    spec = get_spec("harris")
    executor = HEExecutor(spec, params=toy_params(), seed=31,
                          options=ExecOptions(noise_margin_bits=0.0))
    with pytest.raises(NoiseBudgetExhausted):
        executor.compile(baseline_for("harris"))


# -- graceful escalation -----------------------------------------------------


def test_backend_escalates_and_matches_the_interpreter():
    spec = quad_spec()
    program = quad_program(spec)
    backend = HEBackend(seed=31, params="toy",
                        options=ExecOptions(guard="output"))
    result = backend.execute(program, spec, QUAD_ENV)
    assert result.matches_reference
    assert result.noise_budget > 0
    assert backend.drain_escalations() == 1
    assert backend.drain_escalations() == 0  # drained
    reference = InterpreterBackend().execute(program, spec, QUAD_ENV)
    assert np.array_equal(result.logical_output, reference.logical_output)


def test_backend_escalates_batches_in_lockstep():
    spec = quad_spec()
    program = quad_program(spec)
    backend = HEBackend(seed=31, params="toy",
                        options=ExecOptions(guard="output"))
    envs = [{"x": np.array([1, 2, 3, 2])}, {"x": np.array([3, 1, 0, 2])}]
    batch = backend.execute_many(program, spec, envs)
    assert batch.all_match
    assert backend.drain_escalations() == 1  # one escalation per batch
    interp = InterpreterBackend()
    for env, result in zip(envs, batch.results):
        reference = interp.execute(program, spec, env)
        assert np.array_equal(result.logical_output,
                              reference.logical_output)


def test_backend_escalates_admission_rejections_too():
    spec = quad_spec()
    backend = HEBackend(seed=31, params="toy",
                        options=ExecOptions(noise_margin_bits=5.0))
    result = backend.execute(quad_program(spec), spec, QUAD_ENV)
    assert result.matches_reference
    assert backend.drain_escalations() == 1


def test_escalation_disabled_surfaces_the_typed_error():
    spec = quad_spec()
    backend = HEBackend(seed=31, params="toy",
                        options=ExecOptions(guard="output", escalate=False))
    with pytest.raises(NoiseBudgetExhausted):
        backend.execute(quad_program(spec), spec, QUAD_ENV)
    assert backend.drain_escalations() == 0


def test_exhausted_ladder_reraises_the_last_error():
    """A margin no preset can satisfy climbs the whole ladder, then
    surfaces the typed error instead of looping or silently passing."""
    spec = quad_spec()
    backend = HEBackend(seed=31, params="toy",
                        options=ExecOptions(noise_margin_bits=10_000.0))
    with pytest.raises(NoiseBudgetExhausted):
        backend.execute(quad_program(spec), spec, QUAD_ENV)
    # every larger preset was tried and rejected
    assert backend.drain_escalations() == len(PRESET_LADDER) - 1


def quad_sketch():
    """A nominal sketch (never searched: the compile cache is pre-seeded)."""
    from repro.core.sketch import ComponentChoice, CtHole, Sketch
    from repro.quill.ir import Opcode

    return Sketch(
        name="noise_quad",
        choices=(ComponentChoice(Opcode.MUL_CC, CtHole(), CtHole()),
                 ComponentChoice(Opcode.MUL_CC, CtHole(), CtHole())),
        rotations=(),
    )


def test_session_run_escalates_transparently():
    from repro.api import Porcupine

    session = Porcupine()
    spec = quad_spec()
    program = quad_program(spec)
    session.register("noise_quad", spec, sketch=quad_sketch())
    definition = session.definition("noise_quad")
    compiled = _compiled_stub(session, definition, program)
    engine = HEBackend(seed=31, params="toy",
                        options=ExecOptions(guard="output"))
    result = session.execute(compiled, QUAD_ENV, backend=engine)
    assert result.matches_reference
    assert engine.drain_escalations() == 1


def _compiled_stub(session, definition, program):
    """A CompiledKernel for a hand-built program (no synthesis)."""
    from repro.api.cache import CacheEntry
    from repro.quill.printer import format_program

    spec = definition.spec()
    key = session._cache_key(definition, spec, None,
                             session.config_for(definition))
    session.cache.put(key, CacheEntry(
        program_text=format_program(program), seal_code=""))
    return session.compile(definition)


# -- property: registry kernels never trip guards at registry presets --------


_EXECUTORS: dict[str, HEExecutor] = {}
_GUARDED = ("dot_product", "box_blur", "hamming", "l2", "gx")


def _guarded_executor(name: str) -> HEExecutor:
    executor = _EXECUTORS.get(name)
    if executor is None:
        spec = get_spec(name)
        executor = HEExecutor(
            spec, params=preset_params(spec.params_name), seed=31,
            options=ExecOptions(guard=NoiseGuardPolicy(
                after_multiplies=True, every_n_ops=3)),
        )
        _EXECUTORS[name] = executor
    return executor


@settings(max_examples=10, deadline=None)
@given(name=st.sampled_from(_GUARDED), seed=st.integers(0, 2**16))
def test_registry_kernels_never_trip_guards_at_registry_presets(name, seed):
    """The presets assigned in repro.spec leave real headroom: random
    in-range inputs never trip a mid-tape or output guard."""
    executor = _guarded_executor(name)
    spec = get_spec(name)
    rng = np.random.default_rng(seed)
    logical = {
        p.name: rng.integers(0, spec.backend_bound + 1, p.shape)
        for p in spec.layout.inputs
    }
    report = executor.run(baseline_for(name), logical)
    assert report.matches_reference
    assert executor.stats.guard_trips == 0
