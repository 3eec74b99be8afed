"""Declared counters: each field states how it folds; the rest is derived.

Every profile the system reports is a dataclass of :func:`counter`
fields on the :class:`Counters` mixin: the serving and executor profiles
in :mod:`repro.runtime.profiler` and the synthesis profiles in
:mod:`repro.solver.engine`.  A field declares its fold:

* ``"sum"`` — merged by addition; ``minus`` subtracts and clamps at zero;
* ``"max"`` — a high-water mark, merged by ``max``;
* ``"min"`` — a low-water mark, merged by ``min`` ignoring ``None``;
* ``"keyed"`` — a ``{key: count}`` dict summed per key (``pruned``);
* ``"samples"`` — a list of raw samples, concatenated (``latency_ms``).
  Samples stay out of the summary; declare their statistics as
  :class:`derived` entries.

``merge``, ``minus``, ``absorb``, ``summary()`` and the ``--timings``
text all follow from the declarations; ``minus`` differences sums and
keyed counts and keeps the minuend's marks and samples.  Summary keys
come in declaration order, :class:`derived` entries (``cache_hit_rate``,
``nodes_per_sec``) included, each rounded to its declared ``digits``.
A field's ``show`` places it in the ``--timings`` text: ``"always"``,
``"nonzero"`` (only when non-zero), ``"detail"`` (non-zero, and only in
a per-pass report), or ``None`` for JSON only.  Every number the text
prints is the summary's value, so the JSON and the text cannot drift.

So a new counter is one field line plus one ``+=`` (or
:meth:`~repro.serve.metrics.MetricsRegistry.bump`) where it happens.
The module imports nothing beyond the standard library, so the
synthesis path uses it without the HE substrate.
"""

from __future__ import annotations

import copy
import functools
import itertools
import operator
from dataclasses import field, fields, replace
from typing import Any, Callable

_declared = itertools.count()  # one order for fields and derived entries


def _min_of_known(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _add_keyed(a: dict, b: dict) -> dict:
    total = dict(a)
    for key, count in b.items():
        total[key] = total.get(key, 0) + count
    return total


_MERGE: dict[str, Callable[[Any, Any], Any]] = {
    "sum": operator.add,
    "max": max,
    "min": _min_of_known,
    "keyed": _add_keyed,
    "samples": operator.add,
}


def counter(
    fold: str = "sum",
    *,
    default: Any = 0,
    digits: int | None = None,
    show: str | None = None,
    fmt: str = "{}",
):
    """A dataclass field that folds by ``fold`` (see the module doc).

    ``digits`` rounds the summary value; ``fmt`` formats it in the
    ``--timings`` line, which the field's name labels.
    """
    if fold not in _MERGE:
        raise ValueError(f"unknown fold {fold!r}; one of {list(_MERGE)}")
    meta = {"fold": fold, "digits": digits, "show": show, "fmt": fmt,
            "order": next(_declared)}
    if fold == "keyed":
        return field(default_factory=dict, metadata=meta)
    if fold == "samples":
        return field(default_factory=list, repr=False, metadata=meta)
    return field(default=default, metadata=meta)


class derived:
    """A summary entry computed from the counters, listed where declared.

    Reading it on an instance gives the unrounded value; the summary
    rounds it to ``digits``.  ``label`` overrides the name in the
    ``--timings`` text.
    """

    def __init__(
        self,
        compute: Callable[[Any], Any],
        *,
        digits: int | None = None,
        show: str | None = None,
        label: str | None = None,
        fmt: str = "{}",
    ):
        self.compute = compute
        self.meta = {"digits": digits, "show": show, "label": label,
                     "fmt": fmt, "order": next(_declared)}

    def __get__(self, obj, owner=None):
        return self if obj is None else self.compute(obj)


@functools.cache
def _counted(cls) -> tuple:
    return tuple(f for f in fields(cls) if "fold" in f.metadata)


@functools.cache
def _schema(cls) -> tuple:
    """``(name, meta)`` of every summary entry, in declaration order."""
    entries = [(f.name, f.metadata) for f in _counted(cls)
               if f.metadata["fold"] != "samples"]
    entries += [(name, value.meta) for name, value in vars(cls).items()
                if isinstance(value, derived)]
    return tuple(sorted(entries, key=lambda entry: entry[1]["order"]))


def _label(name: str, meta) -> str:
    return meta.get("label") or name.replace("_", " ")


def _text(value, fmt: str) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, dict):
        return ", ".join(f"{key}={count}" for key, count in value.items()
                         if count)
    return fmt.format(value)


class Counters:
    """Mixin deriving the folds, the summary and ``--timings`` text of a
    dataclass from its :func:`counter` and :class:`derived` declarations."""

    def absorb(self, other: "Counters") -> None:
        """Fold ``other`` in place, over the counters both declare."""
        theirs = {f.name for f in _counted(type(other))}
        for f in _counted(type(self)):
            if f.name in theirs:
                merge = _MERGE[f.metadata["fold"]]
                setattr(self, f.name,
                        merge(getattr(self, f.name), getattr(other, f.name)))

    def _copy(self):
        return replace(self, **{
            f.name: copy.copy(getattr(self, f.name))
            for f in _counted(type(self))
            if f.metadata["fold"] in ("keyed", "samples")
        })

    def merge(self, other: "Counters | None" = None):
        """A new instance combining ``self`` with ``other`` (if any)."""
        merged = self._copy()
        if other is not None:
            merged.absorb(other)
        return merged

    def minus(self, other: "Counters | None" = None):
        """What accrued after ``other`` was captured (a per-phase share).

        Sums clamp at zero: clock granularity or a snapshot taken the
        wrong way round never yields a negative share.  High-water marks
        and samples are the minuend's.
        """
        share = self._copy()
        if other is None:
            return share
        for f in _counted(type(self)):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if f.metadata["fold"] == "sum":
                setattr(share, f.name, max(f.default, mine - theirs))
            elif f.metadata["fold"] == "keyed":
                setattr(share, f.name, {
                    key: max(0, count - theirs.get(key, 0))
                    for key, count in mine.items()
                })
        return share

    def summary(self) -> dict:
        """JSON-ready snapshot: every entry in declaration order."""
        payload = {}
        for name, meta in _schema(type(self)):
            value = getattr(self, name)
            if isinstance(value, dict):
                value = dict(sorted(value.items()))
            elif meta["digits"] is not None and value is not None:
                value = round(value, meta["digits"])
            payload[name] = value
        return payload

    @classmethod
    def timing_lines(
        cls, summary: dict, *, detail: bool = False, indent: str = "  "
    ) -> list[str]:
        """``--timings`` lines of a ``summary()`` dict, one per shown entry."""
        lines = []
        for name, meta in _schema(cls):
            show, value = meta["show"], summary.get(name)
            if show is None or (show == "detail" and not detail):
                continue
            if show != "always" and not (
                any(value.values()) if isinstance(value, dict) else value
            ):
                continue
            label = _label(name, meta) + ":"
            lines.append(f"{indent}{label:20s}{_text(value, meta['fmt'])}")
        return lines

    def report(self, title: str) -> str:
        """The ``--timings`` block: ``title:`` then :meth:`timing_lines`."""
        return "\n".join([f"{title}:", *self.timing_lines(self.summary())])

    @classmethod
    def timing_table(cls, title: str, rows: dict[str, "Counters"]) -> str:
        """``--timings`` table: one row per scope, a column per entry
        shown ``"always"``."""
        columns = [(name, meta) for name, meta in _schema(cls)
                   if meta["show"] == "always"]
        cells = [["", *(_label(name, meta) for name, meta in columns)]]
        for scope, stats in rows.items():
            summary = stats.summary()
            cells.append([scope, *(_text(summary[name], meta["fmt"])
                                   for name, meta in columns)])
        first, *widths = (max(map(len, column)) for column in zip(*cells))
        lines = [f"{title}:"]
        for scope, *row in cells:
            lines.append("  ".join([
                "  " + scope.ljust(first),
                *(cell.rjust(width) for cell, width in zip(row, widths)),
            ]))
        return "\n".join(lines)
