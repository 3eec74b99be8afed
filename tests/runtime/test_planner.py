"""Property tests for the executor's always-on performance paths: the
tape-level NTT-domain plan and scratch-buffer arenas must be
bit-identical to lazy execution — same decrypted outputs, same model
vectors, same noise budgets.  The lazy reference is the
``slow_reference`` oracle, which has no plan.

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
from repro.he.params import toy_params
from repro.runtime.executor import HEExecutor
from repro.spec import get_spec

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


def _assert_reports_identical(a, b):
    assert np.array_equal(a.model_output, b.model_output)
    assert np.array_equal(a.logical_output, b.logical_output)
    assert a.output_noise_budget == b.output_noise_budget
    assert len(a.extra_model_outputs) == len(b.extra_model_outputs)
    for x, y in zip(a.extra_model_outputs, b.extra_model_outputs):
        assert np.array_equal(x, y)


# ---------------------------------------------------------------------------
# Planned == lazy, bit for bit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_KERNELS)
def test_planner_bit_identical_single_run(name):
    spec = get_spec(name)
    program = baseline_for(name)
    env = _env(spec, seed=hash(name) % 2**32)
    # fresh executors at identical RNG positions: same keys, same
    # encryption randomness, so budgets are comparable too
    lazy = HEExecutor(spec, params=toy_params(), seed=11, slow_reference=True)
    planned = HEExecutor(spec, params=toy_params(), seed=11)
    assert lazy.compile(program).plan is None
    assert planned.compile(program).plan is not None
    _assert_reports_identical(lazy.run(program, env), planned.run(program, env))


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
    lazy = HEExecutor(spec, params=toy_params(), seed=7, slow_reference=True)
    planned = HEExecutor(spec, params=toy_params(), seed=7)
    _assert_reports_identical(lazy.run(program, env), planned.run(program, env))


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

    # a tape without a plan replays lazily, as on the oracle
    lazy = HEExecutor(spec, params=toy_params(), seed=13)
    lazy.compile(program).plan = None
    lazy.run(program, env)
    assert lazy.stats.ntts_performed == plan.ntts_lazy
    assert lazy.stats.ntts_elided == 0  # nothing planned, nothing claimed


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
    first = executor.run(program, env1)
    out1 = first.model_output.copy()
    logical1 = first.logical_output.copy()
    executor.run(program, env2)  # steady state: same buffers, new data
    again = executor.run(program, env1)
    # encryption randomness differs (the RNG advanced), but BFV decrypts
    # exactly: identical inputs must decrypt to identical outputs
    assert np.array_equal(again.model_output, out1)
    assert np.array_equal(again.logical_output, logical1)
    assert executor._arena.hits > 0  # the arena actually served reuses
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
