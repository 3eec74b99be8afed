"""The persistent lemma store: cross-kernel synthesis reuse, soundly.

The contract under test has two halves.  *Performance*: a search warmed
by its own prior run replays the recorded candidate (0 nodes), and a
search warmed by a sibling kernel over the same sketch family (gx
warming gy) skips equivalence classes the sibling already proved
matchless — strictly fewer nodes.  *Soundness*: none of that reuse may
ever change the synthesized program; every warmed or merged run must
produce bytes identical to a cold serial run.

The store itself is exercised directly too: atomic writes, corrupt
files degrading to empty, merge-on-save unioning concurrent writers,
and the cache-key audit — operational fields (store path, shard
descriptors) must never split the compile cache.
"""

import json

import numpy as np
import pytest

from repro.api.cache import compile_key, config_fingerprint
from repro.core.cegis import SynthesisConfig, synthesize
from repro.core.lemmas import (
    FINALS_CAP,
    LemmaStore,
    LemmaTap,
    chain_key,
    covered_prefix,
    finals_key,
    marker_key,
)
from repro.core.sketches import default_sketch_for
from repro.quill.printer import format_program
from repro.solver.values import signature_block
from repro.spec import get_spec


def _synth(kernel, **overrides):
    spec = get_spec(kernel)
    sketch = default_sketch_for(spec)
    config = SynthesisConfig(optimize_timeout=10.0, **overrides)
    return synthesize(spec, sketch, config)


# -- store round-trips and durability ----------------------------------------


def test_store_round_trips_every_section(tmp_path):
    path = tmp_path / "lemmas.json"
    store = LemmaStore(path)
    fkey = finals_key("fam", "inp", 2)
    ckey = chain_key("fam", "chain", 2)
    mkey = marker_key("fam", "chain")
    store.record_finals(fkey, [3, 1, 2])
    store.record_instr("inp", "add|0:1|2:0", np.zeros((2, 4), dtype=np.int64))
    store.record_matchless(ckey, 0, 10)
    store.record_matchless(ckey, 10, 15)  # adjacent: must coalesce
    store.record_candidate(ckey, 15, 'quill kernel "k"')
    store.record_phase2(
        ckey, bound=99.0, start=0, end=None, best_text="text", best_cost=42.0
    )
    store.record_marker(mkey, 2, 42.0)
    store.record_shard(mkey, index=0, count=2, start=0, end=8, rank_count=16)
    store.flush()

    loaded = LemmaStore(path)
    assert loaded.matchless_ranges(ckey) == [[0, 15]]
    assert covered_prefix(loaded.matchless_ranges(ckey), 0) == 15
    assert loaded.candidate_after(ckey, 0) == (15, 'quill kernel "k"')
    assert loaded.phase2_full(ckey, 99.0) is not None
    assert loaded.phase2_full(ckey, 100.0) is None  # looser than recorded
    assert loaded.marker(mkey) == {"length": 2, "cost": 42.0}
    status = loaded.shard_status(mkey)
    assert status["count"] == 2
    assert status["completed"] == {"0": [0, 8]}
    assert "add|0:1|2:0" in loaded.instr_values("inp")


def test_finals_skip_only_fires_on_absent_signature(tmp_path):
    store = LemmaStore(tmp_path / "l.json")
    fkey = finals_key("fam", "inp", 1)
    assert not store.finals_skip(fkey, 7)  # no record: never skip
    store.record_finals(fkey, [1, 2, 3])
    assert store.finals_skip(fkey, 7)  # goal provably unreachable
    assert not store.finals_skip(fkey, 2)  # goal present: must search


def test_save_is_atomic_and_corrupt_files_load_empty(tmp_path):
    path = tmp_path / "deep" / "lemmas.json"
    store = LemmaStore(path)
    store.record_matchless(chain_key("f", "c", 2), 0, 5)
    store.flush()
    assert sorted(p.name for p in path.parent.iterdir()) == ["lemmas.json"]
    path.write_text("not json{")
    recovered = LemmaStore(path)  # corruption degrades to a cold store
    assert recovered.matchless_ranges(chain_key("f", "c", 2)) == []


def test_flush_merges_with_concurrent_writers(tmp_path):
    path = tmp_path / "lemmas.json"
    ckey = chain_key("f", "c", 2)
    a, b = LemmaStore(path), LemmaStore(path)
    a.record_matchless(ckey, 0, 5)
    b.record_matchless(ckey, 20, 30)
    a.flush()
    b.flush()  # must re-read a's flush and union, not overwrite it
    merged = LemmaStore(path)
    assert merged.matchless_ranges(ckey) == [[0, 5], [20, 30]]


def test_signature_block_is_deterministic_and_shape_sensitive():
    values = np.arange(24, dtype=np.int64).reshape(2, 3, 4)
    first = signature_block(values)
    assert first.dtype == np.uint64
    assert first.shape == (2,)
    assert np.array_equal(first, signature_block(values.copy()))
    assert not np.array_equal(
        signature_block(values[0][np.newaxis]),
        signature_block(values[1][np.newaxis]),
    )


def test_tap_overflow_invalidates_finals(tmp_path):
    store = LemmaStore(tmp_path / "l.json")
    tap = LemmaTap(store, "inp", collect_finals=True)
    tap.record_final_block(
        np.zeros((FINALS_CAP + 1, 1, 4), dtype=np.int64)
    )
    assert tap.finals_overflow
    assert tap.final_sigs == []


# -- warm starts: fewer nodes, identical bytes -------------------------------


def test_same_kernel_rerun_replays_the_candidate(tmp_path):
    store = str(tmp_path / "lemmas.json")
    cold = _synth("box_blur", lemma_path=store)
    warm = _synth("box_blur", lemma_path=store)
    assert format_program(warm.program) == format_program(cold.program)
    assert cold.nodes > 0
    assert warm.nodes == 0  # candidate + phase-2 record replayed
    assert warm.search_stats.lemma_skips > 0


def test_gx_warms_gy_strictly_fewer_nodes(tmp_path):
    cold = _synth("gy", optimize=False)
    store = str(tmp_path / "lemmas.json")
    _synth("gx", optimize=False, lemma_path=store)
    warm = _synth("gy", optimize=False, lemma_path=store)
    assert format_program(warm.program) == format_program(cold.program)
    assert warm.nodes < cold.nodes, (
        f"gx-warmed gy searched {warm.nodes} nodes, not strictly fewer "
        f"than the cold run's {cold.nodes}"
    )
    assert warm.search_stats.lemma_hits > 0


def test_empty_store_changes_nothing(tmp_path):
    bare = _synth("box_blur")
    stored = _synth("box_blur", lemma_path=str(tmp_path / "l.json"))
    assert format_program(stored.program) == format_program(bare.program)
    assert stored.nodes == bare.nodes


# -- the cache-key audit ------------------------------------------------------

# every operational (non-semantic) SynthesisConfig field: these steer
# *how* a search runs, never *what* it synthesizes, so none of them may
# appear in a compile-cache key.  Adding a field here requires the
# byte-identity receipt that justifies the exclusion.
OPERATIONAL_FIELDS = {
    "workers": 4,
    "checkpoint_path": "/elsewhere/run.ckpt",
    "lemma_path": "/elsewhere/lemmas.json",
    "shard": (1, 4),
}


@pytest.mark.parametrize("field,value", sorted(
    OPERATIONAL_FIELDS.items(), key=lambda kv: kv[0]
))
def test_operational_fields_never_change_the_compile_key(field, value):
    spec = get_spec("box_blur")
    sketch = default_sketch_for(spec)
    base = compile_key(spec, sketch, SynthesisConfig())
    moved = compile_key(
        spec, sketch, SynthesisConfig(**{field: value})
    )
    assert moved == base, f"{field} leaked into the compile-cache key"


def test_cache_exclusion_list_is_exactly_the_operational_set():
    """A new config field must be triaged: semantic (keyed) or listed."""
    fingerprint = config_fingerprint(SynthesisConfig())
    assert set(fingerprint) & set(OPERATIONAL_FIELDS) == set()
    from dataclasses import fields

    all_fields = {f.name for f in fields(SynthesisConfig)}
    assert set(fingerprint) | set(OPERATIONAL_FIELDS) == all_fields


# -- counters surface through SearchStats ------------------------------------


def test_lemma_counters_fold_into_search_stats(tmp_path):
    store = str(tmp_path / "lemmas.json")
    first = _synth("box_blur", lemma_path=store)
    summary = first.search_stats.summary()
    for key in ("lemma_hits", "lemma_misses", "lemma_skips"):
        assert key in summary
    second = _synth("box_blur", lemma_path=store)
    assert second.search_stats.summary()["lemma_skips"] > 0
