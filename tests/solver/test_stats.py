"""Counter aggregation: totals, per-rule dicts, clamped minus, and the
fold laws every declared counter class obeys.

Satellite of the incremental-CEGIS work: all engine/CEGIS wall-clock
measurement uses ``time.perf_counter`` and ``merge``/``minus`` stay
total-order safe when one side recorded zero seconds — the per-phase
shares feed exact floor checks, so clock granularity must never produce
negative fields.
"""

from dataclasses import fields

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.runtime.profiler import ExecutorStats, SchedulerStats
from repro.serve.metrics import MetricsRegistry
from repro.solver.engine import SearchOutcome, SearchStats


def _outcome(**overrides):
    base = dict(
        status="exhausted",
        nodes=100,
        candidates=2,
        seconds=0.5,
        batches=10,
        dedup_hits=3,
        pruned={"dedup": 3, "commutative": 7},
        ranks_skipped=2,
        shift_cache_peak=9,
        bound_updates=1,
        steals=1,
        chunks=5,
    )
    base.update(overrides)
    return SearchOutcome(**base)


def test_record_folds_every_field():
    stats = SearchStats()
    stats.record(_outcome())
    stats.record(_outcome(shift_cache_peak=4, pruned={"dedup": 1}))
    assert stats.runs == 2
    assert stats.nodes == 200
    assert stats.pruned == {"dedup": 4, "commutative": 7}
    assert stats.ranks_skipped == 4
    assert stats.shift_cache_peak == 9  # a high-water mark, not a sum
    assert stats.bound_updates == 2
    assert stats.steals == 2
    assert stats.chunks == 10


def test_merge_is_commutative_on_totals():
    a, b = SearchStats(), SearchStats()
    a.record(_outcome())
    b.record(_outcome(nodes=50, seconds=0.25, pruned={"adjacent": 2}))
    ab, ba = a.merge(b), b.merge(a)
    assert ab.nodes == ba.nodes == 150
    assert ab.seconds == ba.seconds
    assert ab.pruned == ba.pruned
    assert ab.shift_cache_peak == ba.shift_cache_peak == 9
    assert a.merge(None).nodes == a.nodes


def test_minus_recovers_phase_share():
    phase1 = SearchStats()
    phase1.record(_outcome())
    both = phase1.merge(None)
    both.record(_outcome(nodes=40, seconds=0.125, pruned={"dedup": 2}))
    share = both.minus(phase1)
    assert share.runs == 1
    assert share.nodes == 40
    assert share.seconds == 0.125
    assert share.pruned["dedup"] == 2
    assert share.pruned.get("commutative", 0) == 0


def test_minus_clamps_when_one_side_has_zero_seconds():
    """Clock granularity can report 0.0 seconds for a fast phase; the
    difference of a copied snapshot must never go negative anywhere."""
    fast = SearchStats()
    fast.record(_outcome(seconds=0.0))
    snapshot = fast.merge(None)
    # a snapshot taken *after* more work, subtracted the wrong way round,
    # still yields non-negative fields
    snapshot.record(_outcome(seconds=0.0, nodes=10))
    share = fast.minus(snapshot)
    assert share.seconds == 0.0
    assert share.nodes == 0
    assert share.runs == 0
    assert all(count >= 0 for count in share.pruned.values())
    assert share.nodes_per_sec == 0.0  # zero seconds never divides


def test_summary_schema_is_stable():
    stats = SearchStats()
    stats.record(_outcome())
    summary = stats.summary()
    for key in (
        "runs", "nodes", "candidates", "seconds", "nodes_per_sec",
        "batches", "dedup_hits", "pruned", "ranks_skipped",
        "shift_cache_peak", "bound_updates", "steals", "chunks",
    ):
        assert key in summary
    assert summary["pruned"] == {"commutative": 7, "dedup": 3}


# ---------------------------------------------------------------------------
# Fold laws of every declared counter class, derived from its fields
# ---------------------------------------------------------------------------

COUNTER_CLASSES = (SchedulerStats, ExecutorStats, SearchStats)
_counts = st.integers(0, 10**6)
# no explain phase: on a failure it spends minutes on these many-field
# draws before reporting; the shrunk counterexample is report enough
_laws = settings(
    max_examples=40,
    deadline=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink],
)


def _field_strategy(f):
    fold = f.metadata["fold"]
    if fold == "keyed":
        return st.dictionaries(st.sampled_from(("dedup", "adjacent")), _counts)
    if fold == "samples":
        return st.lists(st.integers(0, 10**4).map(lambda k: k / 8), max_size=5)
    if fold == "min":
        return st.none() | _counts
    if isinstance(f.default, float):
        # dyadic seconds: float sums are exact, so the laws hold with ==
        return _counts.map(lambda k: k / 1024)
    return _counts


def _instances(cls):
    return st.builds(cls, **{f.name: _field_strategy(f) for f in fields(cls)})


def _canonical(stats) -> dict:
    """Field values, with sample order ignored (merge concatenates)."""
    return {
        f.name: sorted(v) if isinstance(v, list) else v
        for f in fields(stats)
        for v in [getattr(stats, f.name)]
    }


def _sums(stats) -> dict:
    values = {}
    for f in fields(stats):
        value = getattr(stats, f.name)
        if f.metadata["fold"] == "sum":
            values[f.name] = value
        elif f.metadata["fold"] == "keyed":
            values[f.name] = {k: v for k, v in value.items() if v}
    return values


@pytest.mark.parametrize("cls", COUNTER_CLASSES, ids=lambda c: c.__name__)
@given(data=st.data())
@_laws
def test_merge_is_a_commutative_monoid(cls, data):
    a, b, c = (data.draw(_instances(cls)) for _ in range(3))
    assert _canonical(a.merge(b)) == _canonical(b.merge(a))
    assert a.merge(b).merge(c) == a.merge(b.merge(c))
    assert cls().merge(a) == a == a.merge(cls())
    assert a.merge(None) == a and a.merge(None) is not a


@pytest.mark.parametrize("cls", COUNTER_CLASSES, ids=lambda c: c.__name__)
@given(data=st.data())
@_laws
def test_minus_undoes_merge_on_sums(cls, data):
    a, b = data.draw(_instances(cls)), data.draw(_instances(cls))
    share = a.merge(b).minus(b)
    assert _sums(share) == _sums(a)
    for name in ("queue_peak", "arena_bytes", "shift_cache_peak",
                 "min_output_budget", "latency_ms"):
        if hasattr(a, name):  # marks and samples are the minuend's
            assert getattr(share, name) == getattr(a.merge(b), name)


@given(
    a=_instances(ExecutorStats),
    budget=st.none() | _counts,
)
@_laws
def test_min_output_budget_ignores_none_on_either_side(a, budget):
    b = ExecutorStats(min_output_budget=budget)
    known = [x for x in (a.min_output_budget, budget) if x is not None]
    expected = min(known) if known else None
    assert a.merge(b).min_output_budget == expected
    assert b.merge(a).min_output_budget == expected


@pytest.mark.parametrize("cls, name", [
    (SchedulerStats, "queue_peak"),
    (ExecutorStats, "arena_bytes"),
    (SearchStats, "shift_cache_peak"),
])
@given(data=st.data())
@_laws
def test_high_water_marks_fold_by_max(cls, name, data):
    a, b = data.draw(_instances(cls)), data.draw(_instances(cls))
    assert getattr(a.merge(b), name) == max(getattr(a, name), getattr(b, name))
    assert getattr(a.minus(b), name) == getattr(a, name)


@given(
    a=_instances(SchedulerStats),
    b=_instances(SchedulerStats),
    window=st.integers(1, 6),
    latencies=st.lists(st.integers(0, 1000), max_size=12),
)
@_laws
def test_latency_samples_concatenate_and_the_registry_trims(
    a, b, window, latencies
):
    assert a.merge(b).latency_ms == a.latency_ms + b.latency_ms
    registry = MetricsRegistry(latency_window=window)
    for ms in latencies:
        registry.response("gx", "acme", ms / 1e3)
    kept = [ms / 1e3 * 1e3 for ms in latencies][-window:]
    for scope in (registry.overall, registry.per_kernel.get("gx"),
                  registry.per_tenant.get("acme")):
        assert (scope.latency_ms if scope else []) == kept
