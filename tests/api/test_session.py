"""The Porcupine session: pipeline, cache hits, suites, composition."""

import json

import pytest

from repro.api import Pass, Porcupine
from repro.core.cegis import SynthesisConfig

FAST = {"optimize_timeout": 2.0}


@pytest.fixture
def session():
    return Porcupine(synthesis_defaults=FAST)


def test_compile_runs_the_six_default_passes(session):
    compiled = session.compile("box_blur")
    assert [t.name for t in compiled.pass_timings] == [
        "synthesize",
        "optimize",
        "compose",
        "rewrite",
        "lower",
        "codegen",
    ]
    assert compiled.program.instruction_count() == 4
    assert "ev.rotate_rows" in compiled.seal_code


def test_second_compile_is_a_cache_hit_and_skips_synthesis(session):
    ran = []
    session.pipeline.on_pass_start(lambda name, ctx: ran.append(name))

    first = session.compile("box_blur")
    assert not first.cache_hit
    assert ran.count("synthesize") == 1

    second = session.compile("box_blur")
    assert second.cache_hit
    # the pipeline (and with it the synthesis pass) did not run again
    assert ran.count("synthesize") == 1
    assert str(second.program) == str(first.program)


def test_force_recompiles_despite_cache(session):
    session.compile("box_blur")
    forced = session.compile("box_blur", force=True)
    assert not forced.cache_hit


def test_explicit_config_overrides_session_defaults(session):
    config = SynthesisConfig(max_components=3, optimize=False)
    compiled = session.compile("box_blur", config=config)
    assert compiled.synthesis.final_cost == compiled.synthesis.initial_cost


def test_compile_suite_preserves_order_and_caches(session):
    names = ["dot_product", "hamming", "box_blur"]
    suite = session.compile_suite(names, max_workers=3)
    assert list(suite) == names
    assert all(not c.cache_hit for c in suite.values())
    again = session.compile_suite(names)
    assert all(c.cache_hit for c in again.values())


def test_composed_kernel_compiles_components_once(session):
    compiled = session.compile("sobel")
    assert compiled.is_composed
    assert set(compiled.components) == {"gx", "gy"}
    # components landed in the shared cache
    assert session.compile("gx").cache_hit
    # and the composition itself is cached
    assert session.compile("sobel").cache_hit


def test_composed_cache_invalidates_when_component_config_changes(session):
    key_before = session.compile("sobel").cache_key
    session.registry.override(
        "gx", synth_settings={"max_components": 5}
    )
    key_after = session._cache_key(
        session.definition("sobel"),
        session.spec("sobel"),
        None,
        session.config_for("sobel"),
    )
    assert key_after != key_before


def test_pipeline_is_editable(session):
    seen = {}

    def audit(ctx):
        seen["program"] = ctx.program

    session.pipeline.insert_after("optimize", Pass("audit", audit))
    compiled = session.compile("dot_product")
    assert "audit" in [t.name for t in compiled.pass_timings]
    assert seen["program"] is not None

    session.pipeline.remove("audit")
    assert "audit" not in session.pipeline.pass_names
    with pytest.raises(KeyError):
        session.pipeline.remove("audit")


def test_pass_end_hook_sees_timings(session):
    observed = []
    session.pipeline.on_pass_end(
        lambda name, ctx, seconds: observed.append((name, seconds))
    )
    session.compile("hamming")
    names = [name for name, _ in observed]
    assert names == [
        "synthesize",
        "optimize",
        "compose",
        "rewrite",
        "lower",
        "codegen",
    ]
    assert all(seconds >= 0 for _, seconds in observed)


def test_summary_is_json_serializable(session):
    compiled = session.compile("dot_product")
    payload = json.loads(json.dumps(compiled.summary()))
    assert payload["kernel"] == "dot_product"
    assert payload["instructions"] == compiled.program.instruction_count()
    assert payload["cache"] == {"hit": False, "key": compiled.cache_key}
    assert payload["synthesis"]["proof_complete"] in (True, False)


def test_run_defaults_to_interpreter_backend(session):
    report = session.run("hamming", seed=3)
    assert report.backend == "interpreter"
    assert report.matches_reference


def test_baseline_lookup(session):
    assert session.baseline("gx").instruction_count() == 12
    session.register(
        "no_baseline",
        session.spec("hamming"),
        sketch=lambda spec: None,
    )
    with pytest.raises(KeyError, match="baseline"):
        session.baseline("no_baseline")


def test_sessions_do_not_share_state():
    a = Porcupine(synthesis_defaults=FAST)
    b = Porcupine(synthesis_defaults=FAST)
    a.compile("box_blur")
    assert not b.compile("box_blur").cache_hit


def test_composed_kernels_reject_per_call_overrides(session):
    with pytest.raises(ValueError, match="composed"):
        session.compile("sobel", seed=7)
    with pytest.raises(ValueError, match="composed"):
        session.compile("harris", config=SynthesisConfig())


def test_register_definition_with_override(session):
    definition = session.definition("box_blur")
    replaced = session.register(definition, override=True)
    assert replaced is definition
    with pytest.raises(ValueError, match="already registered"):
        session.register(definition)


def test_he_backends_with_different_seeds_do_not_alias(session):
    a = session.backend("he", seed=3)
    b = session.backend("he", seed=4)
    assert a is not b
    assert session.backend("he", seed=3) is a


def test_cache_hits_share_one_parsed_program(session):
    session.compile("box_blur")
    first = session.compile("box_blur")
    second = session.compile("box_blur")
    assert first.cache_hit and second.cache_hit
    # the entry memoizes the parse; repeated hits reuse the same Program
    assert first.program is second.program


@pytest.mark.parametrize("kernel", ["dot_product", "box_blur"])
def test_parallel_compile_forks_one_pool(monkeypatch, kernel):
    """Both synthesis phases of one compile share one search driver, so
    ``workers=2`` forks one worker pool per compile, not one per phase."""
    from repro.core import parallel

    pools = []

    class CountingPool(parallel.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", CountingPool)
    compiled = Porcupine(workers=2).compile(kernel)
    assert len(pools) == 1
    serial = Porcupine(workers=1).compile(kernel)
    assert str(compiled.program) == str(serial.program)
