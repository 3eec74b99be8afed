"""Tests for the search value store and shift caching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solver.values import ValueStore, shift_matrix


def _mat(*rows):
    return np.array(rows, dtype=np.int64)


def test_shift_matrix_left_right():
    m = _mat([1, 2, 3, 4], [5, 6, 7, 8])
    assert shift_matrix(m, 1).tolist() == [[2, 3, 4, 0], [6, 7, 8, 0]]
    assert shift_matrix(m, -2).tolist() == [[0, 0, 1, 2], [0, 0, 5, 6]]
    assert shift_matrix(m, 0).tolist() == m.tolist()
    assert shift_matrix(m, 9).tolist() == [[0] * 4] * 2


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-99, 99), min_size=6, max_size=6),
    st.integers(-5, 5),
)
def test_shift_matrix_matches_interpreter_semantics(values, amount):
    from repro.quill.interpreter import shift_vector

    row = np.array(values, dtype=np.int64)
    assert shift_matrix(row[None, :], amount)[0].tolist() == shift_vector(
        row, amount
    ).tolist()


def test_store_dedup_and_pop():
    store = ValueStore([_mat([1, 2]), _mat([3, 4])])
    assert len(store) == 2
    assert store.base_count == 2
    assert store.try_push(_mat([4, 6]), depth=1)
    assert not store.try_push(_mat([4, 6]), depth=0)  # duplicate
    assert store.depths == [0, 0, 1]
    store.pop()
    assert len(store) == 2
    assert store.try_push(_mat([4, 6]), depth=2)  # free again after pop


def test_store_rejects_duplicate_inputs():
    with pytest.raises(ValueError):
        ValueStore([_mat([1, 2]), _mat([1, 2])])


def test_store_cannot_pop_inputs():
    store = ValueStore([_mat([1, 2])])
    with pytest.raises(IndexError):
        store.pop()


def test_shifted_caching_returns_same_object():
    store = ValueStore([_mat([1, 2, 3])])
    first = store.shifted(0, 1)
    second = store.shifted(0, 1)
    assert first is second
    assert first.tolist() == [[2, 3, 0]]
    assert store.shifted(0, 0) is store.vectors[0]


def test_shift_cache_cleared_on_pop():
    store = ValueStore([_mat([1, 2, 3])])
    store.try_push(_mat([9, 9, 9]), 0)
    store.shifted(1, 1)
    store.pop()
    store.try_push(_mat([7, 7, 7]), 0)
    assert store.shifted(1, 1).tolist() == [[7, 7, 0]]


# -- shift_matrix edge cases ------------------------------------------------


def test_shift_matrix_amount_at_least_width():
    m = _mat([1, 2, 3], [4, 5, 6])
    assert shift_matrix(m, 3).tolist() == [[0] * 3] * 2
    assert shift_matrix(m, 100).tolist() == [[0] * 3] * 2
    assert shift_matrix(m, -3).tolist() == [[0] * 3] * 2
    assert shift_matrix(m, -100).tolist() == [[0] * 3] * 2


def test_shift_matrix_negative_amounts():
    m = _mat([1, 2, 3, 4])
    assert shift_matrix(m, -1).tolist() == [[0, 1, 2, 3]]
    assert shift_matrix(m, -3).tolist() == [[0, 0, 0, 1]]


def test_shift_matrix_zero_width():
    m = np.zeros((2, 0), dtype=np.int64)
    assert shift_matrix(m, 0).shape == (2, 0)
    assert shift_matrix(m, 1).shape == (2, 0)
    assert shift_matrix(m, -1).shape == (2, 0)


# -- hash-based dedup -------------------------------------------------------


def test_value_hash_matches_hash_block():
    store = ValueStore([_mat([1, 2, 3])])
    stack = np.stack([_mat([4, 5, 6]), _mat([-7, 8, 9]), _mat([1, 2, 3])])
    block = store.hash_block(stack)
    assert block.dtype == np.uint64
    assert [int(h) for h in block] == [
        store.value_hash(stack[k]) for k in range(3)
    ]


def test_try_push_precomputed_hash_dedups():
    store = ValueStore([_mat([1, 2])])
    vec = _mat([5, 6])
    assert store.try_push(vec, 0, key_hash=store.value_hash(vec))
    assert not store.try_push(vec.copy(), 0, key_hash=store.value_hash(vec))
    assert store.dedup_hits == 1


def test_hash_collision_falls_back_to_exact_bytes():
    # simulate a 64-bit collision: two distinct values, same key hash
    store = ValueStore([_mat([1, 2])])
    assert store.try_push(_mat([3, 4]), 0, key_hash=42)
    assert store.try_push(_mat([5, 6]), 0, key_hash=42)  # collision: kept
    assert len(store) == 3
    # a true duplicate under the colliding hash is still rejected
    assert not store.try_push(_mat([3, 4]), 0, key_hash=42)
    store.pop()  # collision entry unwinds cleanly
    store.pop()
    assert store.try_push(_mat([3, 4]), 0, key_hash=42)


def test_try_push_force_serial_key_dedup_path():
    store = ValueStore([_mat([1, 2])])
    vec = _mat([9, 9])
    assert store.try_push(vec, 0)
    # force admits observational duplicates under unique serial keys
    assert store.try_push(vec.copy(), 1, force=True)
    assert store.try_push(vec.copy(), 2, force=True)
    assert len(store) == 4
    assert store.dedup_hits == 0
    # each forced entry unwinds independently
    store.pop()
    store.pop()
    assert len(store) == 2
    assert not store.try_push(vec.copy(), 0)  # original copy still indexed
    store.pop()
    assert store.try_push(vec.copy(), 0)  # free again after the last pop


# -- read-only views and cache bounding ------------------------------------


def test_shifted_views_are_read_only():
    store = ValueStore([_mat([1, 2, 3])])
    view = store.shifted(0, 1)
    with pytest.raises(ValueError):
        view[0, 0] = 99
    assert store.shifted(0, 1).tolist() == [[2, 3, 0]]


def test_shift_cache_hard_bound_on_insert():
    store = ValueStore([_mat([1, 2, 3])], shift_cache_limit=2)
    store.try_push(_mat([4, 5, 6]), 0)
    store.shifted(0, 1)
    store.shifted(0, 2)
    assert store.shift_cache_size == 2
    store.shifted(0, -1)  # at the limit: wholesale clear, then insert
    assert store.shift_cache_size == 1
    # entries are rebuilt on demand with the same contents
    assert store.shifted(0, 1).tolist() == [[2, 3, 0]]
    assert store.shift_cache_size == 2
    store.pop()  # pop releases the popped value's entries too
    assert store.shift_cache_size <= store.shift_cache_limit


def test_shift_cache_peak_never_exceeds_bound():
    store = ValueStore([_mat([1, 2, 3, 4])], shift_cache_limit=2)
    store.try_push(_mat([4, 5, 6, 7]), 0)
    for amount in (1, 2, -1, 3, -2):
        store.shifted(0, amount)
        store.shifted(1, amount)
        assert store.shift_cache_size <= store.shift_cache_limit
    assert store.shift_cache_peak == store.shift_cache_limit
    store.pop()
    assert store.shift_cache_peak <= store.shift_cache_limit


# -- cross-round persistence (append_example) --------------------------------


def test_append_example_extends_values_and_rehashes():
    store = ValueStore([_mat([1, 2]), _mat([3, 4])])
    store.append_example([np.array([5, 6]), np.array([7, 8])])
    assert store.vectors[0].tolist() == [[1, 2], [5, 6]]
    assert store.vectors[1].tolist() == [[3, 4], [7, 8]]
    assert store.appended_examples == 1
    assert store.reused_values == 2
    # dedup works against the extended values
    assert not store.try_push(_mat([1, 2], [5, 6]), 0)
    assert store.try_push(_mat([1, 2], [5, 7]), 0)  # differs on the new row


def test_append_example_requires_backtracked_store():
    store = ValueStore([_mat([1, 2])])
    store.try_push(_mat([9, 9]), 0)
    with pytest.raises(ValueError, match="backtracked"):
        store.append_example([np.array([5, 6])])
    store.pop()
    with pytest.raises(ValueError, match="rows"):
        store.append_example([np.array([5, 6]), np.array([7, 8])])


def test_append_example_extends_rotation_block_in_place():
    store = ValueStore(
        [_mat([1, 2, 3, 4])], amounts=(0, 1, -2), out_slots=[0, 2], capacity=4
    )
    store.append_example([np.array([5, 6, 7, 8])])
    _assert_block_matches_shift_matrix(store)
    rows = store.rows([(0, 1), (0, -2)])
    gathered = store.gather(rows)
    assert gathered.shape == (2, 2, 4)
    out = store.gather_out(rows)
    assert out.tolist() == gathered[:, :, [0, 2]].reshape(2, -1).tolist()
    # pushes after the append land in the grown block
    assert store.try_push(_mat([0, 1, 0, 0], [0, 0, 2, 0]), 1)
    assert store.rotated(1, 1).tolist() == [[1, 0, 0, 0], [0, 2, 0, 0]]
    _assert_block_matches_shift_matrix(store)


def test_append_example_clears_stale_shift_cache():
    store = ValueStore([_mat([1, 2, 3])])
    store.shifted(0, 1)
    assert store.shift_cache_size == 1
    store.append_example([np.array([4, 5, 6])])
    assert store.shift_cache_size == 0
    assert store.shifted(0, 1).tolist() == [[2, 3, 0], [5, 6, 0]]


# -- zero-support tracking (zero_elide) --------------------------------------


def test_supports_and_zero_rotation_detection():
    store = ValueStore([_mat([0, 7, 8, 0])])
    assert store.supports[0] == (1, 3)
    assert not store.has_zero()
    assert store.is_zero_rotated(0, 3)  # support shifted off the left edge
    assert store.is_zero_rotated(0, -3)
    assert not store.is_zero_rotated(0, 2)
    assert not store.is_zero_rotated(0, -1)
    store.try_push(_mat([0, 0, 0, 0]), 0)
    assert store.has_zero()
    assert store.is_zero_rotated(1, 0)
    store.pop()
    assert not store.has_zero()


def test_supports_recomputed_on_append_example():
    store = ValueStore([_mat([0, 7, 0, 0])])
    assert store.supports[0] == (1, 2)
    store.append_example([np.array([0, 0, 0, 9])])
    assert store.supports[0] == (1, 4)
    assert not store.is_zero_rotated(0, 3)


def test_rotation_block_matches_shift_cache():
    store = ValueStore(
        [_mat([1, 2, 3, 4])], amounts=(0, 1, -2), out_slots=[0, 2], capacity=4
    )
    store.try_push(_mat([5, 6, 7, 8]), 0)
    for index in range(2):
        for amount in (0, 1, -2):
            expected = shift_matrix(store.vectors[index], amount)
            assert store.rotated(index, amount).tolist() == expected.tolist()
    rows = store.rows([(1, 1), (0, -2), (1, 0)])
    gathered = store.gather(rows)
    assert gathered.shape == (3, 1, 4)
    assert gathered[0].tolist() == shift_matrix(store.vectors[1], 1).tolist()
    out = store.gather_out(rows)
    assert out.tolist() == gathered[:, :, [0, 2]].reshape(3, -1).tolist()


# -- the rotation block against shift_matrix --------------------------------

#: every sign, the identity, and amounts at and beyond the width (5)
WIDE_AMOUNTS = (0, 1, -1, 4, -4, 5, -5, 7, -9)
OUT_SLOTS = [0, 3, 4]


def _assert_block_matches_shift_matrix(store):
    """Every live row of the block (and of its output-column companion)
    equals ``shift_matrix`` of the stored value."""
    amounts = store._amounts
    out_slots = store._out_idx
    for index, vec in enumerate(store.vectors):
        rows = store.rows([(index, amount) for amount in amounts])
        gathered = store.gather(rows)
        out = store.gather_out(rows)
        for k, amount in enumerate(amounts):
            expected = shift_matrix(vec, amount)
            assert store.rotated(index, amount).tolist() == expected.tolist()
            assert gathered[k].tolist() == expected.tolist()
            assert out[k].tolist() == expected[:, out_slots].ravel().tolist()
        # the output block is exactly the full rows' out_slots columns
        assert np.array_equal(
            store._block_out[index], store._block[index][:, :, out_slots]
        )


def _wide_store(capacity):
    return ValueStore(
        [_mat([1, 2, 3, 4, 5], [6, 7, 8, 9, 10])],
        amounts=WIDE_AMOUNTS,
        out_slots=OUT_SLOTS,
        capacity=capacity,
    )


def test_rotation_block_rows_match_shift_matrix_for_every_amount():
    store = _wide_store(capacity=4)
    assert store.try_push(_mat([0, -3, 0, 0, 11], [12, 0, 0, 0, 0]), 1)
    _assert_block_matches_shift_matrix(store)


def test_rotation_block_rows_survive_capacity_growth():
    store = _wide_store(capacity=1)
    for k in range(6):  # grows 1 -> 2 -> 4 -> 8
        assert store.try_push(_mat([k, 1, 2, 3, -k], [4, k, 5, 6, 7]), 1)
    assert store._block.shape[0] == 8
    _assert_block_matches_shift_matrix(store)
    # popped rows are refilled by the next push
    store.pop()
    store.pop()
    assert store.try_push(_mat([9, 9, 0, 9, 9], [1, 0, 1, 0, 1]), 1)
    _assert_block_matches_shift_matrix(store)


def test_rotation_block_rows_after_append_example():
    store = _wide_store(capacity=1)
    store.append_example([np.array([11, 12, 13, 14, 15])])
    _assert_block_matches_shift_matrix(store)
    # a push after the append grows the block with three-example rows
    for k in range(3):
        value = _mat([k, 0, 0, 0, 1], [0, 0, k, 0, 0], [1, 2, 3, 4, k])
        assert store.try_push(value, 1)
    _assert_block_matches_shift_matrix(store)
    for _ in range(3):
        store.pop()
    store.append_example([np.array([0, 0, 0, 0, -1])])
    value = _mat([1, 0, 0, 0, 0], [0] * 5, [0] * 5, [0, 0, 0, 0, 2])
    assert store.try_push(value, 1)
    _assert_block_matches_shift_matrix(store)


def test_supports_edge_columns():
    assert ValueStore._support(_mat([5, 0, 0, 0])) == (0, 1)  # column 0
    assert ValueStore._support(_mat([0, 0, 0, 5])) == (3, 4)  # last column
    assert ValueStore._support(_mat([5, 0, 0, 7])) == (0, 4)
    assert ValueStore._support(_mat([0, 0], [0, 5])) == (1, 2)
    # a single column
    assert ValueStore._support(_mat([3])) == (0, 1)
    assert ValueStore._support(_mat([0], [4])) == (0, 1)
    assert ValueStore._support(_mat([0], [0])) == (0, 0)
    assert ValueStore._support(_mat([0, 0, 0])) == (0, 0)


def test_out_only_push_fills_the_output_row_alone():
    store = _wide_store(capacity=4)
    value = _mat([0, 1, 2, 3, 4], [5, 0, 0, 6, 0])
    assert store.try_push(value, 1, out_only=True)
    rows = store.rows([(1, amount) for amount in WIDE_AMOUNTS])
    out = store.gather_out(rows)
    for k, amount in enumerate(WIDE_AMOUNTS):
        expected = shift_matrix(value, amount)
        assert out[k].tolist() == expected[:, OUT_SLOTS].ravel().tolist()
        # no full block row: rotated() serves the shift cache instead
        assert store.rotated(1, amount).tolist() == expected.tolist()
    store.pop()
    # the next push at that index fills its full row again
    assert store.try_push(value, 1)
    _assert_block_matches_shift_matrix(store)
