"""Concrete value tracking for the synthesis search.

Every available ciphertext (packed inputs, then one per chosen component)
is an ``(E, n)`` int64 matrix: one row per CEGIS example.  The store keeps

* a hash index for observational-equivalence deduplication — a cheap
  64-bit multiplicative hash over the int64 view, with an exact
  element-wise comparison only on hash collision (full ``tobytes()``
  keys, hashed by the dict on every probe, dominated the old profile),
* a per-value cache of rotated (shifted) variants, since the same operand
  rotation is probed many times across the search tree; cached rotations
  are handed out as read-only views and the cache is hard-bounded at
  ``shift_cache_limit`` entries (cleared wholesale before the insert that
  would overflow it),
* with ``amounts``, a *rotation block* of every legal rotation of every
  live value, filled with one gather per push through a cached
  source-index table (no per-amount shifts), plus its restriction to the
  output columns, which the final slot reads as flat rows,
* the multiplicative depth of each value for cost lower bounds,
* the nonzero-column support of each value, so the ``zero_elide`` pruning
  rule can decide "this rotation is the all-zero vector" in O(1) without
  materializing it.

Stores are *persistent across CEGIS rounds*: when a counterexample
arrives, :meth:`ValueStore.append_example` extends every live value with
the new example's column in place — copying the already-evaluated
``(K, E)`` rotation blocks and gathering only the new column's rotations
— instead of rebuilding the store and re-rotating all ``E`` examples
from scratch.  The reuse counters (``appended_examples``,
``reused_values``) feed the engine's :class:`SearchOutcome`.
"""

from __future__ import annotations

import numpy as np

#: Seed for the hash weight vector.  Fixed so hashes are reproducible
#: across runs and across the processes of a parallel search.
_HASH_SEED = 0x9E3779B97F4A7C15

#: Default cap on live shift-cache entries before a wholesale clear.
DEFAULT_SHIFT_CACHE_LIMIT = 4096


def shift_matrix(matrix: np.ndarray, amount: int) -> np.ndarray:
    """Row-wise shift with zero fill (Quill rotation semantics, per example)."""
    _, n = matrix.shape
    out = np.zeros_like(matrix)
    if amount >= 0:
        if amount < n:
            out[:, : n - amount] = matrix[:, amount:]
    else:
        if -amount < n:
            out[:, -amount:] = matrix[:, : n + amount]
    return out


def _hash_weights(count: int) -> np.ndarray:
    """Odd uint64 multipliers, deterministic in the element count."""
    rng = np.random.default_rng(_HASH_SEED + count)
    weights = rng.integers(0, 2**64, size=count, dtype=np.uint64)
    return weights | np.uint64(1)


_SIGNATURE_WEIGHTS: dict[int, np.ndarray] = {}


def signature_block(values: np.ndarray) -> np.ndarray:
    """Store-independent 64-bit signatures for a ``(K, E, S)`` value stack.

    The same multiplicative hash as :meth:`ValueStore.hash_block`, but
    computed from the deterministic weight vector alone — no store
    instance — so two searches in different processes (or for different
    kernels) assign identical signatures to identical value matrices.
    This is what the lemma store records as a length's reachable
    final-value set; determinism across runs is what makes the recorded
    set consultable at all.
    """
    k = values.shape[0]
    flat = np.ascontiguousarray(values).view(np.uint64).reshape(k, -1)
    weights = _SIGNATURE_WEIGHTS.get(flat.shape[1])
    if weights is None:
        weights = _hash_weights(flat.shape[1])
        _SIGNATURE_WEIGHTS[flat.shape[1]] = weights
    return (flat * weights).sum(axis=1, dtype=np.uint64)


class ValueStore:
    """Stack of available ciphertext values with dedup and shift caching.

    With ``amounts`` given, the store additionally keeps a *rotation
    block*: a ``(capacity, len(amounts), E, n)`` tensor holding every
    legal rotation of every live value.  Each push fills its block row
    with one gather through a cached source-index table (out-of-range
    positions read an appended zero column), so rotating a value costs
    one copy and one ``take`` whatever the number of amounts.  Batched
    enumeration then materializes a whole candidate operand stack with a
    single :meth:`gather` of flat block rows (see :meth:`rows`) instead of
    one ``np.stack`` over K cached views; ``out_slots`` adds a companion
    block restricted to the output columns, which :meth:`gather_out`
    hands to the final slot's goal check as flat ``(K, E*|out|)`` rows.
    """

    def __init__(
        self,
        base_vectors: list[np.ndarray],
        shift_cache_limit: int = DEFAULT_SHIFT_CACHE_LIMIT,
        amounts: tuple[int, ...] | None = None,
        out_slots: list[int] | tuple[int, ...] | None = None,
        capacity: int | None = None,
    ):
        self.vectors: list[np.ndarray] = []
        self.depths: list[int] = []
        # hash key (or serial key under force) -> ascending store indices
        self._buckets: dict[object, list[int]] = {}
        self._keys: list[object] = []  # per value, its bucket key
        self._shift_cache: list[dict[int, np.ndarray]] = []
        self._shift_entries = 0
        self._shift_entries_peak = 0
        self.shift_cache_limit = shift_cache_limit
        self._serial = 0
        self._weights: np.ndarray | None = None
        self.dedup_hits = 0
        # nonzero-column support [lo, hi) per value; lo == hi means all-zero
        self.supports: list[tuple[int, int]] = []
        self._zero_live = 0
        # cross-round reuse counters (see append_example)
        self.appended_examples = 0
        self.reused_values = 0
        self._amounts = tuple(amounts) if amounts is not None else None
        self.rot_pos = (
            {amount: j for j, amount in enumerate(self._amounts)}
            if self._amounts is not None
            else {}
        )
        self._out_idx = (
            np.asarray(out_slots, dtype=np.intp)
            if out_slots is not None
            else None
        )
        self._capacity = capacity or max(len(base_vectors) * 2, 8)
        self._block: np.ndarray | None = None
        self._block_out: np.ndarray | None = None
        # flat (capacity * len(amounts), E * columns) views of the blocks
        self._block_rows: np.ndarray | None = None
        self._block_out_rows: np.ndarray | None = None
        # (len(amounts), n) source column of each rotated position; n
        # names the zero column appended to the fill buffer
        self._src: np.ndarray | None = None
        self._fill_buf: np.ndarray | None = None  # (E, n + 1), last col 0
        self._fill_idx: np.ndarray | None = None  # flat buf index per cell
        self._fill_idx_out: np.ndarray | None = None
        self._out_only: set[int] = set()  # live values without a full row
        for vec in base_vectors:
            contiguous = np.ascontiguousarray(vec, dtype=np.int64)
            if contiguous is vec:
                # don't freeze the caller's own array (try_push marks
                # stored values read-only)
                contiguous = contiguous.copy()
            added = self.try_push(contiguous, 0)
            if not added:
                raise ValueError(
                    "duplicate input values; inputs must be distinguishable "
                    "on the example set"
                )
        self.base_count = len(self.vectors)

    def __len__(self) -> int:
        return len(self.vectors)

    # -- hashing -----------------------------------------------------------

    def _weights_for(self, count: int) -> np.ndarray:
        if self._weights is None or self._weights.size != count:
            self._weights = _hash_weights(count)
        return self._weights

    def value_hash(self, vec: np.ndarray) -> int:
        """The 64-bit content hash of one ``(E, n)`` value."""
        flat = np.ascontiguousarray(vec).view(np.uint64).ravel()
        weights = self._weights_for(flat.size)
        return int((flat * weights).sum(dtype=np.uint64))

    def hash_block(self, values: np.ndarray) -> np.ndarray:
        """Content hashes for a ``(K, E, n)`` stack of candidate values.

        One vectorized pass replaces K separate ``tobytes()`` walks; the
        result feeds :meth:`try_push` via ``key_hash`` so dedup never
        rehashes a batched candidate.
        """
        k = values.shape[0]
        flat = np.ascontiguousarray(values).view(np.uint64).reshape(k, -1)
        weights = self._weights_for(flat.shape[1])
        return (flat * weights).sum(axis=1, dtype=np.uint64)

    # -- stack operations --------------------------------------------------

    def try_push(
        self,
        vec: np.ndarray,
        depth: int,
        force: bool = False,
        key_hash: int | None = None,
        out_only: bool = False,
    ) -> bool:
        """Add a value unless it duplicates an existing one.

        Returns False (and adds nothing) on duplicates: any minimal program
        computing the same value twice could drop the second computation,
        so such candidates cannot be part of a minimum-size solution.
        ``force`` admits duplicates under a unique serial key (used only by
        the deduplication-ablation benchmark).  ``key_hash`` supplies a
        precomputed :meth:`value_hash`/:meth:`hash_block` result.

        ``out_only`` fills only the value's output-column block row, for a
        value that nothing but a goal check reads (:meth:`gather_out`).
        Its full rotation-block row is left unfilled: :meth:`rotated`
        serves it from the shift cache, and :meth:`gather` must not name
        it.
        """
        key: object = (
            key_hash if key_hash is not None else self.value_hash(vec)
        )
        bucket = self._buckets.get(key)
        if bucket is not None:
            raw = vec.tobytes()
            for index in bucket:
                # exact check: only reached on a hash hit, so the byte
                # comparison runs on true duplicates and rare collisions
                if raw == self.vectors[index].tobytes():
                    if not force:
                        self.dedup_hits += 1
                        return False
                    self._serial += 1
                    key = ("serial", self._serial)
                    bucket = None
                    break
        if bucket is None:
            bucket = self._buckets.setdefault(key, [])
        if vec.base is not None:
            # batched candidates arrive as views into a whole (K, E, n)
            # evaluation stack; storing the view would pin that stack in
            # memory for the lifetime of the branch — keep only our rows
            vec = vec.copy()
        # stored values are frozen: shifted(index, 0) hands them out, and
        # an in-place mutation would silently diverge from the hash index
        # and the rotation block filled below
        vec.flags.writeable = False
        index = len(self.vectors)
        bucket.append(index)
        self._keys.append(key)
        self.vectors.append(vec)
        self.depths.append(depth)
        self._shift_cache.append({})
        support = self._support(vec)
        self.supports.append(support)
        if support[0] == support[1]:
            self._zero_live += 1
        if self._amounts is not None:
            self._fill_block(index, vec, out_only)
            if out_only:
                self._out_only.add(index)
        return True

    @staticmethod
    def _support(vec: np.ndarray) -> tuple[int, int]:
        """Smallest ``[lo, hi)`` column range containing every nonzero."""
        columns = vec.any(axis=0)
        lo = int(columns.argmax())
        if not columns[lo]:
            return (0, 0)
        return (lo, columns.size - int(columns[::-1].argmax()))

    def is_zero_rotated(self, index: int, amount: int) -> bool:
        """True when ``rotated(index, amount)`` is the all-zero vector.

        Decided from the cached support bounds: a zero-fill shift erases
        the value exactly when it pushes the whole support off the edge.
        """
        lo, hi = self.supports[index]
        if lo == hi:
            return True
        if amount >= 0:
            return amount >= hi
        return -amount >= self.vectors[index].shape[1] - lo

    def has_zero(self) -> bool:
        """True when some live value is the all-zero vector."""
        return self._zero_live > 0

    def _fill_tables(self, examples: int, n: int) -> None:
        """Gather tables for ``(examples, n)`` values (rebuilt when a
        counterexample column changes ``examples``)."""
        if self._src is None:
            src = np.arange(n)[None, :] + np.array(self._amounts)[:, None]
            self._src = np.where((src >= 0) & (src < n), src, n)
        offsets = (np.arange(examples) * (n + 1))[None, :, None]
        self._fill_idx = offsets + self._src[:, None, :]
        self._fill_buf = np.zeros((examples, n + 1), dtype=np.int64)
        if self._out_idx is not None:
            self._fill_idx_out = np.ascontiguousarray(
                self._fill_idx[:, :, self._out_idx]
            )

    def _set_blocks(self, block: np.ndarray, block_out) -> None:
        self._block = block
        capacity, amounts, examples, n = block.shape
        self._block_rows = block.reshape(capacity * amounts, examples * n)
        self._block_out = block_out
        if block_out is not None:
            self._block_out_rows = block_out.reshape(
                capacity * amounts, examples * block_out.shape[3]
            )

    def _fill_block(self, index: int, vec: np.ndarray, out_only: bool) -> None:
        if self._block is None:
            rows, n = vec.shape
            self._fill_tables(rows, n)
            shape = (self._capacity, len(self._amounts), rows, n)
            self._set_blocks(
                np.empty(shape, dtype=np.int64),
                None
                if self._out_idx is None
                else np.empty(shape[:3] + (self._out_idx.size,), np.int64),
            )
        elif index >= self._block.shape[0]:
            self._set_blocks(
                np.concatenate([self._block, np.empty_like(self._block)]),
                None
                if self._block_out is None
                else np.concatenate(
                    [self._block_out, np.empty_like(self._block_out)]
                ),
            )
        # one copy into the zero-padded buffer, one gather per block
        # (mode="clip" skips numpy's bounds-check buffering; every table
        # entry is in range)
        buf = self._fill_buf
        buf[:, :-1] = vec
        if not out_only:
            buf.take(self._fill_idx, out=self._block[index], mode="clip")
        if self._block_out is not None:
            buf.take(
                self._fill_idx_out, out=self._block_out[index], mode="clip"
            )

    def rows(self, pairs) -> np.ndarray:
        """Flat rotation-block row numbers ``index * len(amounts) + j``
        of ``(index, amount)`` pairs, for :meth:`gather`/:meth:`gather_out`."""
        width = len(self._amounts)
        rot_pos = self.rot_pos
        return np.array(
            [index * width + rot_pos[amount] for index, amount in pairs],
            dtype=np.intp,
        )

    def gather(self, rows: np.ndarray) -> np.ndarray:
        """Stack the rotated values named by :meth:`rows` as (K, E, n)."""
        _, _, examples, n = self._block.shape
        return self._block_rows.take(rows, axis=0).reshape(
            rows.size, examples, n
        )

    def gather_out(self, rows: np.ndarray) -> np.ndarray:
        """Like :meth:`gather`, restricted to the output-slot columns and
        flat: one ``(K, E * |out_slots|)`` row per rotated value."""
        return self._block_out_rows.take(rows, axis=0)

    def rotated(self, index: int, amount: int) -> np.ndarray:
        """The value at ``index`` rotated by ``amount`` (read-only).

        Served from the rotation block when one is maintained (no cache
        churn), else from the per-value shift cache.  Like
        :meth:`shifted`, the view is read-only: writing through it would
        corrupt the block entry for every later :meth:`gather`.
        (:meth:`gather`/:meth:`gather_out` return fancy-indexed copies,
        so those are safe to hand out writable.)
        """
        if (
            self._block is not None
            and amount in self.rot_pos
            and index not in self._out_only
        ):
            view = self._block[index, self.rot_pos[amount]]
            view.flags.writeable = False
            return view
        return self.shifted(index, amount)

    def pop(self) -> None:
        """Remove the most recent value (backtracking)."""
        if len(self.vectors) <= self.base_count:
            raise IndexError("cannot pop base input values")
        self.vectors.pop()
        self._out_only.discard(len(self.vectors))
        self.depths.pop()
        lo, hi = self.supports.pop()
        if lo == hi:
            self._zero_live -= 1
        self._shift_entries -= len(self._shift_cache.pop())
        key = self._keys.pop()
        bucket = self._buckets[key]
        bucket.pop()  # indices are ascending, so ours is last
        if not bucket:
            del self._buckets[key]

    def clear_shift_cache(self) -> None:
        """Drop every cached rotation (they are rebuilt on demand)."""
        for cache in self._shift_cache:
            cache.clear()
        self._shift_entries = 0

    @property
    def shift_cache_size(self) -> int:
        return self._shift_entries

    @property
    def shift_cache_peak(self) -> int:
        """High-water mark of live shift-cache entries (bound telemetry)."""
        return self._shift_entries_peak

    def shifted(self, index: int, amount: int) -> np.ndarray:
        """The value at ``index`` rotated by ``amount`` (cached, read-only)."""
        if amount == 0:
            return self.vectors[index]
        cache = self._shift_cache[index]
        hit = cache.get(amount)
        if hit is None:
            if self._shift_entries >= self.shift_cache_limit:
                # hard bound: the cache is shared across CEGIS rounds now
                # that stores persist, so it must never outgrow its limit
                self.clear_shift_cache()
                cache = self._shift_cache[index]
            hit = shift_matrix(self.vectors[index], amount)
            hit.flags.writeable = False
            cache[amount] = hit
            self._shift_entries += 1
            if self._shift_entries > self._shift_entries_peak:
                self._shift_entries_peak = self._shift_entries
        return hit

    # -- cross-round persistence -------------------------------------------

    def append_example(self, rows: list[np.ndarray]) -> None:
        """Extend every live value with one new example column (CEGIS reuse).

        ``rows[i]`` is the new example's vector for base value ``i``.  The
        store must be fully backtracked (only base values live), which is
        exactly the state a search leaves it in between CEGIS rounds.  The
        already-evaluated rotation blocks are *copied*, not recomputed:
        only the new column's rotations are evaluated, then every live
        value is re-hashed for the new element count.  The shift cache is
        dropped wholesale (its entries have the old row count).
        """
        if len(self.vectors) != self.base_count:
            raise ValueError(
                "append_example requires a fully backtracked store "
                f"({len(self.vectors)} live, {self.base_count} base)"
            )
        if len(rows) != self.base_count:
            raise ValueError(
                f"expected {self.base_count} rows, got {len(rows)}"
            )
        grown_vectors: list[np.ndarray] = []
        for vec, row in zip(self.vectors, rows):
            row = np.ascontiguousarray(row, dtype=np.int64).reshape(1, -1)
            if row.shape[1] != vec.shape[1]:
                raise ValueError("new example row has the wrong width")
            grown = np.concatenate([vec, row])
            grown.flags.writeable = False
            grown_vectors.append(grown)
        self.vectors = grown_vectors
        # re-hash under the new element count (distinct values stay
        # distinct when extended, so base uniqueness is preserved)
        self._buckets.clear()
        self._keys = []
        for index, vec in enumerate(self.vectors):
            key = self.value_hash(vec)
            self._buckets.setdefault(key, []).append(index)
            self._keys.append(key)
        self._zero_live = 0
        self.supports = []
        for vec in self.vectors:
            support = self._support(vec)
            self.supports.append(support)
            if support[0] == support[1]:
                self._zero_live += 1
        self.clear_shift_cache()
        if self._block is not None:
            shape = self._block.shape
            examples = shape[2]
            block = np.empty(
                (shape[0], shape[1], examples + 1, shape[3]), dtype=np.int64
            )
            # carry the evaluated (K, E) columns forward untouched ...
            block[:, :, :examples, :] = self._block
            # ... and evaluate only the new column's rotations: one gather
            # of the zero-padded new rows through the source-index table
            live = len(self.vectors)
            padded = np.zeros((live, shape[3] + 1), dtype=np.int64)
            for index, vec in enumerate(self.vectors):
                padded[index, :-1] = vec[-1]
            block[:live, :, examples, :] = padded[:, self._src]
            block_out = None
            if self._block_out is not None:
                out_shape = self._block_out.shape
                block_out = np.empty(
                    (out_shape[0], out_shape[1], examples + 1, out_shape[3]),
                    dtype=np.int64,
                )
                block_out[:, :, :examples, :] = self._block_out
                block_out[:live, :, examples, :] = padded[
                    :, self._src[:, self._out_idx]
                ]
            self._set_blocks(block, block_out)
            self._fill_tables(examples + 1, shape[3])
        self.appended_examples += 1
        self.reused_values += len(self.vectors)
