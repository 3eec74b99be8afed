"""Tests for the compiled instruction tape and program execution.

Covers one-time program compilation (displacement check, Galois keys,
constants, liveness slots), input validation before encryption, the
bounded/frozen plaintext cache, the session's ``execute_batch`` loop,
and the requirement that the RNS executor decrypts bit-identically to
the big-integer oracle executor (:mod:`tests.he.reference_bfv`) on every
seed kernel.
"""

import numpy as np
import pytest

from repro.api import Porcupine
from repro.baselines import BASELINE_BUILDERS, baseline_for
from repro.he.params import toy_params
from repro.quill.builder import ProgramBuilder
from repro.quill.ir import Opcode
from repro.runtime.executor import HEExecutor
from repro.spec import get_spec
from tests.he.reference_bfv import reference_executor

# every seed kernel whose baseline fits the toy parameter set's noise
# budget (l2/roberts need the larger presets; their ops are covered by
# the op-level equivalence suite in tests/he/test_rns_native.py)
SEED_KERNELS = [
    "box_blur",
    "dot_product",
    "hamming",
    "linear_regression",
    "gx",
    "gy",
]


def _logical(spec, rng, bound=5):
    return {
        p.name: rng.integers(0, bound, p.shape) for p in spec.layout.inputs
    }


# ---------------------------------------------------------------------------
# Compiled tape
# ---------------------------------------------------------------------------

def test_compile_is_cached_and_hoists_galois_keys():
    spec = get_spec("box_blur")
    executor = HEExecutor(spec, params=toy_params(), seed=3)
    program = baseline_for("box_blur")
    compiled = executor.compile(program)
    assert executor.compile(program) is compiled  # cached per program
    # every rotation's key exists before any run
    for g in compiled.galois_elements:
        assert g in executor.ctx.galois_keys
    rotations = {
        executor.ctx.encoder.galois_element_for_rotation(i.amount)
        for i in program.instructions
        if i.opcode is Opcode.ROTATE
    }
    assert set(compiled.galois_elements) == rotations


def test_liveness_reuses_wire_slots():
    spec = get_spec("box_blur")
    executor = HEExecutor(spec, params=toy_params(), seed=3)
    program = baseline_for("box_blur")
    compiled = executor.compile(program)
    # a straight-line kernel with dead-after-use intermediates needs far
    # fewer live slots than instructions
    assert compiled.slot_count < program.instruction_count()
    # executing through the tape still matches the reference
    rng = np.random.default_rng(0)
    report = executor.run(program, _logical(spec, rng))
    assert report.matches_reference


def test_long_rotation_chain_uses_constant_slots():
    spec = get_spec("dot_product")
    executor = HEExecutor(spec, params=toy_params(), seed=3)
    b = ProgramBuilder(vector_size=spec.layout.vector_size)
    x = b.ct_input("x")
    b.pt_input("w")
    v = x
    for _ in range(6):
        v = b.rotate(v, 1)  # each intermediate dies immediately
    program = b.build(v)
    compiled = executor.compile(program)
    assert compiled.slot_count == 1


def test_unsafe_programs_rejected_at_compile_time():
    from repro.runtime.executor import DisplacementError

    spec = get_spec("dot_product")
    executor = HEExecutor(spec, params=toy_params(), seed=3)
    b = ProgramBuilder(vector_size=spec.layout.vector_size)
    x = b.ct_input("x")
    b.pt_input("w")
    v = x
    for _ in range(5):
        v = b.rotate(v, 4)
    program = b.build(b.add(v, v))
    with pytest.raises(DisplacementError):
        executor.compile(program)


# ---------------------------------------------------------------------------
# Input validation
# ---------------------------------------------------------------------------

def test_run_names_missing_and_extra_inputs_before_encrypting(monkeypatch):
    spec = get_spec("box_blur")
    executor = HEExecutor(spec, params=toy_params(), seed=4)
    program = baseline_for("box_blur")
    good = _logical(spec, np.random.default_rng(7))

    def refuse(*args, **kwargs):
        raise AssertionError("encrypted before the environment was checked")

    monkeypatch.setattr(executor.ctx, "encrypt_vector", refuse)
    with pytest.raises(ValueError, match=r"missing input\(s\) \['img'\]"):
        executor.run(program, {})
    renamed = {"image": good["img"]}
    with pytest.raises(ValueError) as excinfo:
        executor.run(program, renamed)
    # the error names both problems and the expected inputs
    assert "'img'" in str(excinfo.value) and "'image'" in str(excinfo.value)
    extra = {**good, "stray": np.zeros(4, dtype=np.int64)}
    with pytest.raises(ValueError, match=r"unexpected input\(s\) \['stray'\]"):
        executor.run(program, extra)
    assert executor.stats.runs == 0


# ---------------------------------------------------------------------------
# RNS executor == big-integer oracle executor on every seed kernel
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", SEED_KERNELS)
def test_seed_kernels_bit_identical_to_reference(name):
    assert name in BASELINE_BUILDERS
    spec = get_spec(name)
    program = baseline_for(name)
    rng = np.random.default_rng(hash(name) % 2**32)
    env = _logical(spec, rng)
    fast = HEExecutor(spec, params=toy_params(), seed=21)
    slow = reference_executor(spec, params=toy_params(), seed=21)
    fast_report = fast.run(program, env)
    slow_report = slow.run(program, env)
    assert fast_report.matches_reference
    assert slow_report.matches_reference
    assert np.array_equal(
        fast_report.logical_output, slow_report.logical_output
    )
    assert np.array_equal(fast_report.model_output, slow_report.model_output)
    assert (
        fast_report.output_noise_budget == slow_report.output_noise_budget
    )


# ---------------------------------------------------------------------------
# Plaintext cache policy
# ---------------------------------------------------------------------------

def test_plaintext_cache_entries_are_frozen():
    spec = get_spec("dot_product")
    executor = HEExecutor(spec, params=toy_params(), seed=5)
    pt = executor._encode_cached(np.arange(8, dtype=np.int64))
    with pytest.raises(ValueError):
        pt.coeffs[0] = 99


def test_plaintext_cache_is_bounded():
    spec = get_spec("dot_product")
    executor = HEExecutor(spec, params=toy_params(), seed=5)
    limit = executor.PLAINTEXT_CACHE_LIMIT
    for i in range(limit + 10):
        executor._encode_cached(
            np.full(4, i % 300 - 150, dtype=np.int64)
        )
    assert len(executor._plaintext_cache) <= limit


def test_plaintext_cache_hits_return_same_object():
    spec = get_spec("dot_product")
    executor = HEExecutor(spec, params=toy_params(), seed=5)
    vec = np.arange(6, dtype=np.int64)
    assert executor._encode_cached(vec) is executor._encode_cached(vec.copy())


# ---------------------------------------------------------------------------
# Session wiring and tape pinning
# ---------------------------------------------------------------------------

def test_session_execute_batch_loops_over_execute():
    session = Porcupine(seed=0)
    compiled = session.compile("dot_product")
    spec = session.spec("dot_product")
    rng = np.random.default_rng(3)
    envs = [_logical(spec, rng) for _ in range(3)]
    batch = session.execute_batch(compiled, envs, backend="interpreter")
    assert batch.backend == "interpreter"
    assert batch.batch_size == 3
    assert batch.all_match
    for env, result in zip(envs, batch.results):
        single = session.execute(compiled, env, backend="interpreter")
        assert np.array_equal(result.logical_output, single.logical_output)


def test_pinned_tapes_survive_cache_eviction():
    spec = get_spec("box_blur")
    executor = HEExecutor(spec, params=toy_params(), seed=4)
    hot = baseline_for("box_blur")
    compiled = executor.pin(hot)
    # flood the per-program tape cache past its bound with cold programs
    cold = []
    for _ in range(40):
        program = baseline_for("box_blur")
        cold.append(program)  # keep alive: ids must stay distinct
        executor.compile(program)
    assert executor.compile(hot) is compiled  # pinned: never evicted
    executor.unpin(hot)
    for program in cold:
        executor.compile(program)
    rng = np.random.default_rng(8)
    report = executor.run(hot, _logical(spec, rng))
    assert report.matches_reference
