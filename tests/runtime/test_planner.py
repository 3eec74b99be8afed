"""Property tests for the executor's always-on performance paths: the
tape-level NTT-domain plan and scratch-buffer arenas must leave every
result as the textbook big-integer BFV computes it — same decrypted
outputs, same model vectors, same noise budgets.  The reference is an
executor whose context is the oracle of :mod:`tests.he.reference_bfv`:
it compiles the same tape and plan and replays it with the plan's hints
ignored, on big-integer multiply, rescale, key switch and decryption.
These are the tape-level oracle checks, so CI also runs them at two BLAS
thread counts.

The planner's counters are also checked *exactly*: the plan is built by
simulating the executor's domain-state machine, so the predicted NTT row
counts must equal the measured ones on every run, not just bound them.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Porcupine
from repro.baselines import BASELINE_BUILDERS, baseline_for
from repro.he import BFVContext, Ciphertext
from repro.he.arena import thread_arena
from repro.he.params import small_params, toy_params
from repro.runtime.executor import HEExecutor
from repro.spec import get_spec
from tests.he.reference_bfv import reference_executor

# every registry kernel with a hand-written baseline; l2/roberts/harris
# overrun the toy noise budget, but BFV decryption stays deterministic,
# so bit-identity (outputs and budgets) is still a meaningful property
ALL_KERNELS = sorted(BASELINE_BUILDERS)
FAST_KERNELS = ["box_blur", "dot_product", "gx", "hamming"]


def _env(spec, seed, bound=5):
    rng = np.random.default_rng(seed)
    return {
        p.name: rng.integers(0, bound, p.shape) for p in spec.layout.inputs
    }


class _UnplannedBFV(BFVContext):
    """The runtime context with the plan's hints dropped: every step takes
    the ring layer's lazy policy and rotations take the hoisted routing,
    as the planner's ``ntts_lazy`` simulation assumes."""

    def add(self, ct1, ct2, out_domain=None):
        return super().add(ct1, ct2)

    def sub(self, ct1, ct2, out_domain=None):
        return super().sub(ct1, ct2)

    def add_plain(self, ct, pt, out_domain=None):
        return super().add_plain(ct, pt)

    def sub_plain(self, ct, pt, out_domain=None):
        return super().sub_plain(ct, pt)

    def multiply(self, ct1, ct2, relinearize=True, out_domain=None):
        return super().multiply(ct1, ct2, relinearize)

    def relinearize(self, ct, out_domain=None):
        return super().relinearize(ct)

    def rotate_rows(self, ct, steps):
        # the hoist: c0's NTT form is materialised on the *input*
        # ciphertext, so repeated rotations of it permute cached rows
        steps %= self.encoder.row_size
        if steps == 0:
            return ct.copy()
        g = self.encoder.galois_element_for_rotation(steps)
        self.generate_galois_key(g)
        ct.parts[0].eval_rows()
        d0, d1 = self._key_switch(
            ct.parts[1].automorphism(g), self.galois_keys.get(g)
        )
        return Ciphertext([ct.parts[0].automorphism(g) + d0, d1])


def _assert_reports_identical(a, b):
    assert np.array_equal(a.model_output, b.model_output)
    assert np.array_equal(a.logical_output, b.logical_output)
    assert a.output_noise_budget == b.output_noise_budget
    assert len(a.extra_model_outputs) == len(b.extra_model_outputs)
    for x, y in zip(a.extra_model_outputs, b.extra_model_outputs):
        assert np.array_equal(x, y)


# ---------------------------------------------------------------------------
# Planned RNS tape == big-integer oracle, bit for bit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_KERNELS)
def test_planner_bit_identical_single_run(name):
    spec = get_spec(name)
    program = baseline_for(name)
    env = _env(spec, seed=hash(name) % 2**32)
    # fresh executors at identical RNG positions: same keys, same
    # encryption randomness, so budgets are comparable too
    oracle = reference_executor(spec, params=toy_params(), seed=11)
    planned = HEExecutor(spec, params=toy_params(), seed=11)
    _assert_reports_identical(
        oracle.run(program, env), planned.run(program, env)
    )


@pytest.mark.parametrize("name", ["gx", "hamming"])
def test_planner_bit_identical_on_n4096(name):
    """The secure preset's wider basis and 2-digit key switch: gx's six
    rotations, and hamming's ct-ct multiply with its relinearization."""
    spec = get_spec(name)
    program = baseline_for(name)
    env = _env(spec, seed=3)
    oracle = reference_executor(spec, params=small_params(), seed=12)
    planned = HEExecutor(spec, params=small_params(), seed=12)
    expected = oracle.run(program, env)
    assert expected.matches_reference
    _assert_reports_identical(expected, planned.run(program, env))


@given(
    name=st.sampled_from(FAST_KERNELS),
    seed=st.integers(0, 2**16),
)
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_inputs_bit_identical_across_configs(name, seed):
    spec = get_spec(name)
    program = baseline_for(name)
    env = _env(spec, seed=seed)
    oracle = reference_executor(spec, params=toy_params(), seed=7)
    planned = HEExecutor(spec, params=toy_params(), seed=7)
    _assert_reports_identical(
        oracle.run(program, env), planned.run(program, env)
    )


# ---------------------------------------------------------------------------
# The plan's NTT row counts are exact, not just upper bounds
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_KERNELS)
def test_ntt_counts_match_plan_exactly(name):
    spec = get_spec(name)
    program = baseline_for(name)
    env = _env(spec, seed=5)

    planned = HEExecutor(spec, params=toy_params(), seed=13)
    plan = planned.compile(program).plan
    assert plan is not None
    assert plan.ntts_planned <= plan.ntts_lazy  # planning never regresses
    assert plan.ntts_elided == plan.ntts_lazy - plan.ntts_planned

    planned.run(program, env)
    assert planned.stats.ntts_performed == plan.ntts_planned
    assert planned.stats.ntts_elided == plan.ntts_elided

    # the plan's baseline: the same tape with every hint dropped
    lazy = HEExecutor(spec, params=toy_params(), seed=13)
    unplanned = _UnplannedBFV.__new__(_UnplannedBFV)
    unplanned.__dict__.update(lazy.ctx.__dict__)
    lazy.ctx = unplanned
    lazy.run(program, env)
    assert lazy.stats.ntts_performed == plan.ntts_lazy


@pytest.mark.parametrize("name", ["box_blur", "harris", "l2", "dot_product"])
def test_ntt_counts_match_plan_on_every_run(name):
    """Cached plaintexts (program constants, and dot_product's weight
    vector held fixed across runs) keep their lift between runs; the plan
    must hold on the runs that reuse them as on the first."""
    spec = get_spec(name)
    program = baseline_for(name)
    executor = HEExecutor(spec, params=toy_params(), seed=14)
    plan = executor.compile(program).plan
    weights = np.arange(8) % 5
    for runs in range(1, 5):
        env = _env(spec, seed=runs)
        if name == "dot_product":
            env["w"] = weights
        executor.run(program, env)
        assert executor.stats.runs == runs
        assert executor.stats.ntts_performed == runs * plan.ntts_planned
        assert executor.stats.ntts_elided == runs * plan.ntts_elided


# ---------------------------------------------------------------------------
# Scratch arenas: buffers are reused, never aliased into results
# ---------------------------------------------------------------------------

def test_arena_reuse_does_not_alias_results():
    """Back-to-back runs reuse arena buffers; a later run must never
    corrupt an earlier run's decrypted output (the aliasing regression
    the out= NTT path could introduce)."""
    spec = get_spec("gx")
    program = baseline_for("gx")
    executor = HEExecutor(spec, params=toy_params(), seed=9)
    env1, env2 = _env(spec, 1), _env(spec, 2)
    arena = thread_arena()
    hits = arena.hits
    first = executor.run(program, env1)
    out1 = first.model_output.copy()
    logical1 = first.logical_output.copy()
    executor.run(program, env2)  # steady state: same buffers, new data
    again = executor.run(program, env1)
    # encryption randomness differs (the RNG advanced), but BFV decrypts
    # exactly: identical inputs must decrypt to identical outputs
    assert np.array_equal(again.model_output, out1)
    assert np.array_equal(again.logical_output, logical1)
    assert arena.hits > hits  # the thread's arena actually served reuses
    assert executor.stats.arena_bytes > 0


# ---------------------------------------------------------------------------
# Counters surface through the executor stats and the session
# ---------------------------------------------------------------------------

def test_executor_stats_summary_shape():
    spec = get_spec("dot_product")
    executor = HEExecutor(spec, params=toy_params(), seed=15)
    executor.run(baseline_for("dot_product"), _env(spec, 6))
    summary = executor.stats.summary()
    for key in (
        "runs",
        "ntts_performed",
        "ntts_planned",
        "ntts_elided",
        "arena_bytes",
    ):
        assert key in summary
    assert summary["runs"] == 1
    assert summary["ntts_performed"] > 0


def test_session_flags_are_bit_identical_and_surfaced():
    """Session runs match a direct executor run, and the counters reach
    the session."""
    session = Porcupine(seed=0)
    spec = session.spec("box_blur")
    env = _env(spec, seed=0)
    result = session.run("box_blur", env, backend="he", seed=0)
    program = session.compile("box_blur").program
    reference = HEExecutor(spec, seed=0).run(program, env)
    assert np.array_equal(reference.logical_output, result.logical_output)
    assert reference.output_noise_budget == result.noise_budget
    stats = session.executor_stats()
    assert stats.runs == 1
    assert stats.ntts_performed == stats.ntts_planned > 0
