"""Compile cache: key stability, invalidation, and disk persistence."""

import json
from dataclasses import fields

import pytest

from repro.api import CacheEntry, CompileCache, Porcupine, compile_key
from repro.api.cache import config_fingerprint
from repro.core.cegis import SynthesisConfig
from repro.core.sketches import default_sketch_for, explicit_rotation_variant
from repro.spec import get_spec

FAST = {"optimize_timeout": 2.0}


def _key(config: SynthesisConfig) -> str:
    spec = get_spec("box_blur")
    return compile_key(spec, default_sketch_for(spec), config)


def test_key_is_deterministic():
    assert _key(SynthesisConfig(seed=7)) == _key(SynthesisConfig(seed=7))



def test_default_key_is_pinned():
    # on-disk caches and checkpoints are addressed by this digest: a
    # change that drops or renames a config field must not move it
    assert _key(SynthesisConfig()) == (
        "95123e7bba9edd083de0118de96eacb7539d5d533ee48784636ba053d1a17cdf"
    )

def test_key_changes_with_config():
    base = _key(SynthesisConfig())
    assert _key(SynthesisConfig(seed=1)) != base
    assert _key(SynthesisConfig(max_components=7)) != base
    assert _key(SynthesisConfig(optimize=False)) != base


# every operational (non-semantic) SynthesisConfig field: these steer
# *how* a search runs, never *what* it synthesizes, so none of them may
# appear in a compile-cache key.  Adding a field here requires the
# byte-identity receipt that justifies the exclusion.
OPERATIONAL_FIELDS = {
    "workers": 4,
    "checkpoint_path": "/elsewhere/run.ckpt",
}


@pytest.mark.parametrize("field,value", sorted(
    OPERATIONAL_FIELDS.items(), key=lambda kv: kv[0]
))
def test_operational_fields_never_change_the_compile_key(field, value):
    assert _key(SynthesisConfig(**{field: value})) == _key(SynthesisConfig()), (
        f"{field} leaked into the compile-cache key"
    )


def test_cache_exclusion_list_is_exactly_the_operational_set():
    """A new config field must be triaged: semantic (keyed) or listed."""
    fingerprint = config_fingerprint(SynthesisConfig())
    assert set(fingerprint) & set(OPERATIONAL_FIELDS) == set()
    all_fields = {f.name for f in fields(SynthesisConfig)}
    assert set(fingerprint) | set(OPERATIONAL_FIELDS) == all_fields


def test_key_changes_with_sketch():
    spec = get_spec("box_blur")
    sketch = default_sketch_for(spec)
    config = SynthesisConfig()
    assert compile_key(spec, sketch, config) != compile_key(
        spec, explicit_rotation_variant(sketch), config
    )


def test_key_changes_with_spec():
    config = SynthesisConfig()
    gx = get_spec("gx")
    gy = get_spec("gy")
    sketch = default_sketch_for(gx)
    assert compile_key(gx, sketch, config) != compile_key(gy, sketch, config)


def test_cache_miss_then_hit_in_memory():
    cache = CompileCache()
    assert cache.get("k") is None
    cache.put("k", CacheEntry(program_text="", seal_code=""))
    assert cache.get("k") is not None
    assert cache.misses == 1 and cache.hits == 1


def test_disk_persistence_across_cache_objects(tmp_path):
    session = Porcupine(cache_dir=tmp_path, synthesis_defaults=FAST)
    first = session.compile("box_blur")
    assert not first.cache_hit
    assert len(list(tmp_path.glob("*.json"))) == 1

    fresh = Porcupine(cache_dir=tmp_path, synthesis_defaults=FAST)
    second = fresh.compile("box_blur")
    assert second.cache_hit
    assert str(second.program) == str(first.program)
    assert second.seal_code == first.seal_code
    stats = second.synthesis
    assert stats is not None
    assert stats.components == first.synthesis.components
    assert stats.final_cost == first.synthesis.final_cost


def test_config_change_invalidates_disk_entry(tmp_path):
    session = Porcupine(cache_dir=tmp_path, synthesis_defaults=FAST)
    session.compile("box_blur")
    reseeded = session.compile("box_blur", seed=99)
    assert not reseeded.cache_hit
    assert len(list(tmp_path.glob("*.json"))) == 2


def test_corrupt_disk_entry_is_a_miss(tmp_path):
    session = Porcupine(cache_dir=tmp_path, synthesis_defaults=FAST)
    compiled = session.compile("box_blur")
    path = tmp_path / f"{compiled.cache_key}.json"
    path.write_text("{not json")
    fresh = Porcupine(cache_dir=tmp_path, synthesis_defaults=FAST)
    recompiled = fresh.compile("box_blur")
    assert not recompiled.cache_hit
    # the recompile repaired the entry on disk
    assert json.loads(path.read_text())["program"]


def test_clear_empties_memory_and_disk(tmp_path):
    session = Porcupine(cache_dir=tmp_path, synthesis_defaults=FAST)
    session.compile("box_blur")
    session.cache.clear()
    assert len(session.cache) == 0
    assert list(tmp_path.glob("*.json")) == []
    assert not session.compile("box_blur").cache_hit


def test_same_seed_reproduces_identical_program(tmp_path):
    a = Porcupine(synthesis_defaults=FAST).compile("box_blur", seed=5)
    b = Porcupine(synthesis_defaults=FAST).compile("box_blur", seed=5)
    assert a.cache_key == b.cache_key
    assert str(a.program) == str(b.program)


# ---------------------------------------------------------------------------
# Atomic on-disk writes and multi-process sharing
# ---------------------------------------------------------------------------

def _entry(tag: str) -> CacheEntry:
    return CacheEntry(program_text=f"program {tag}", seal_code=f"seal {tag}")


def test_put_leaves_no_temp_files(tmp_path):
    cache = CompileCache(tmp_path)
    cache.put("k", _entry("a"))
    assert [p.name for p in tmp_path.iterdir()] == ["k.json"]
    # the landed file is complete, valid JSON
    assert json.loads((tmp_path / "k.json").read_text())["program"]


def test_concurrent_writers_readers_never_see_torn_entries(tmp_path):
    """N caches over one directory model the serving compile workers:
    every read must return a complete entry some writer put, never a
    partial or interleaved write."""
    import threading

    keys = [f"k{i}" for i in range(4)]
    valid = {f"program w{w} r{r}" for w in range(3) for r in range(20)}
    errors = []

    def writer(w):
        cache = CompileCache(tmp_path)
        for r in range(20):
            for key in keys:
                cache.put(key, _entry(f"w{w} r{r}"))

    def reader():
        cache = CompileCache(tmp_path)
        for _ in range(50):
            for key in keys:
                cache._memory.clear()  # force the disk path every time
                entry = cache.get(key)
                if entry is not None and entry.program_text not in valid:
                    errors.append(entry.program_text)

    threads = [threading.Thread(target=writer, args=(w,)) for w in range(3)]
    threads += [threading.Thread(target=reader) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{k}.json" for k in keys
    )


def test_get_survives_concurrent_clear(tmp_path):
    """A reader racing clear() sees a miss, not an exception."""
    import threading

    stop = threading.Event()
    errors = []

    def churn():
        cache = CompileCache(tmp_path)
        while not stop.is_set():
            cache.put("k", _entry("x"))
            cache.clear()

    def read():
        cache = CompileCache(tmp_path)
        try:
            for _ in range(300):
                cache._memory.clear()
                cache.get("k")  # hit or miss, never a crash
        except Exception as error:  # noqa: BLE001 - the assertion target
            errors.append(error)
        finally:
            stop.set()

    writer = threading.Thread(target=churn)
    reader = threading.Thread(target=read)
    writer.start()
    reader.start()
    reader.join()
    writer.join()
    assert errors == []


def test_entry_vanishing_between_lookup_and_read_is_a_miss(
    tmp_path, monkeypatch
):
    """The deterministic version of the clear() race: the entry file
    disappears exactly between the lookup deciding to read it and the
    read itself — a miss (and a recompile), never a crash."""
    from pathlib import Path

    cache = CompileCache(tmp_path)
    cache.put("k", _entry("a"))
    cache._memory.clear()  # force the disk path
    real = Path.read_text

    def vanished(self, *args, **kwargs):
        if self.name == "k.json":
            raise FileNotFoundError(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", vanished)
    misses_before = cache.misses
    assert cache.get("k") is None
    assert cache.misses == misses_before + 1
    monkeypatch.undo()
    # the file was never actually gone: the next lookup hits normally
    entry = cache.get("k")
    assert entry is not None and entry.program_text == "program a"


def test_hit_rate_property():
    cache = CompileCache()
    assert cache.hit_rate == 0.0
    cache.get("k")
    cache.put("k", _entry("a"))
    cache.get("k")
    assert cache.hits == 1 and cache.misses == 1
    assert cache.hit_rate == 0.5


# ---------------------------------------------------------------------------
# Integrity: content digests and quarantine of tampered entries
# ---------------------------------------------------------------------------

def test_entries_carry_a_content_digest(tmp_path):
    cache = CompileCache(tmp_path)
    cache.put("k", _entry("a"))
    payload = json.loads((tmp_path / "k.json").read_text())
    assert payload["digest"]
    # a fresh cache verifies and serves the intact entry silently
    assert CompileCache(tmp_path).get("k").program_text == "program a"


def test_bit_flipped_entry_is_quarantined_not_served(tmp_path):
    import pytest

    cache = CompileCache(tmp_path)
    cache.put("k", _entry("a"))
    file = tmp_path / "k.json"
    payload = json.loads(file.read_text())
    payload["program"] = "program TAMPERED"  # digest no longer matches
    file.write_text(json.dumps(payload))
    fresh = CompileCache(tmp_path)
    with pytest.warns(RuntimeWarning, match="quarantined corrupt"):
        assert fresh.get("k") is None  # a miss, never the tampered text
    assert fresh.quarantined == 1
    assert not file.exists()
    assert (tmp_path / "k.json.corrupt").exists()  # kept for forensics


def test_legacy_digestless_entries_still_load(tmp_path):
    cache = CompileCache(tmp_path)
    cache.put("k", _entry("a"))
    file = tmp_path / "k.json"
    payload = json.loads(file.read_text())
    del payload["digest"]  # an entry written before digests existed
    file.write_text(json.dumps(payload))
    fresh = CompileCache(tmp_path)
    assert fresh.get("k").program_text == "program a"
    assert fresh.quarantined == 0


def test_clear_removes_quarantined_files(tmp_path):
    import pytest

    cache = CompileCache(tmp_path)
    cache.put("k", _entry("a"))
    file = tmp_path / "k.json"
    file.write_text(file.read_text().replace("program a", "program x"))
    with pytest.warns(RuntimeWarning):
        assert CompileCache(tmp_path).get("k") is None
    survivor = CompileCache(tmp_path)
    survivor.clear()
    assert list(tmp_path.iterdir()) == []


def test_tampered_entry_triggers_recompile_and_repair(tmp_path):
    """Satellite regression: a corrupted compile-cache entry is
    quarantined and the kernel recompiles to an identical program —
    never executes a tampered tape."""
    import pytest

    session = Porcupine(cache_dir=tmp_path, synthesis_defaults=FAST)
    compiled = session.compile("box_blur")
    path = tmp_path / f"{compiled.cache_key}.json"
    payload = json.loads(path.read_text())
    payload["seal_code"] = payload["seal_code"] + "/* flipped */"
    path.write_text(json.dumps(payload))
    fresh = Porcupine(cache_dir=tmp_path, synthesis_defaults=FAST)
    with pytest.warns(RuntimeWarning, match="quarantined"):
        recompiled = fresh.compile("box_blur")
    assert not recompiled.cache_hit
    assert str(recompiled.program) == str(compiled.program)
    assert fresh.cache.quarantined == 1
    # the recompile repaired the entry on disk: the next session hits
    third = Porcupine(cache_dir=tmp_path, synthesis_defaults=FAST)
    assert third.compile("box_blur").cache_hit
