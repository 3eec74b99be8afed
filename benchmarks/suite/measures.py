"""Statistics the suite reports: percentiles, geomean, rank correlation,
quartile spreads, and the parent-vs-change verdict rule.

Pure functions over lists of floats, so the unit tests can pin each rule
without running a workload.
"""

from __future__ import annotations

import math
import statistics

#: percentile levels considered for the reported tail, highest last
TAIL_LEVELS = (50.0, 90.0, 95.0, 99.0, 99.9)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_level(count: int) -> float | None:
    """Highest level in :data:`TAIL_LEVELS` with >= 10 samples beyond it.

    A percentile is only reported when at least ten samples lie above it;
    with fewer the value is one or two outliers, not a tail.
    """
    best = None
    for level in TAIL_LEVELS:
        # rounded: 100 - 99.9 is not exactly 0.1 in binary floating point
        if round(count * (100.0 - level) / 100.0, 9) >= 10.0:
            best = level
    return best


def geomean(values: list[float]) -> float:
    """Geometric mean of positive values."""
    if not values:
        raise ValueError("geomean of an empty sample")
    if any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _ranks(values: list[float]) -> list[float]:
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):  # ties share their average rank
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(xs: list[float], ys: list[float]) -> float:
    """Spearman rank correlation (Pearson over average ranks).

    Returns 0.0 when either side is constant or fewer than two pairs
    exist: no ordering, no correlation.
    """
    if len(xs) != len(ys):
        raise ValueError("spearman needs equal-length samples")
    if len(xs) < 2:
        return 0.0
    rx, ry = _ranks(xs), _ranks(ys)
    mx, my = statistics.fmean(rx), statistics.fmean(ry)
    sxy = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    sxx = sum((a - mx) ** 2 for a in rx)
    syy = sum((b - my) ** 2 for b in ry)
    if sxx == 0 or syy == 0:
        return 0.0
    return sxy / math.sqrt(sxx * syy)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = values[0]
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)


def verdict(
    parent: list[float], change: list[float], better: str, bound: float
) -> str:
    """One (metric, workload) row of a parent-vs-change comparison.

    ``parent[i]`` and ``change[i]`` are the i-th alternating pair.

    - *improved*: at least ten pairs, the change wins at least nine tenths
      of them (ties count for neither side), and the medians differ by
      more than the parent's inter-quartile distance;
    - *regressed*: the change's median is worse than the parent's by more
      than ``bound`` (a share of the parent's median);
    - *unresolved*: the parent's own spread exceeds the bound and the
      change does not read better on every run than the parent on every
      run — the difference cannot be told from noise;
    - *no regression*: otherwise.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    pairs = list(zip(parent, change))
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    q1, parent_median, q3 = quartiles(parent)
    change_median = statistics.median(change)
    if (
        len(pairs) >= 10
        and wins >= 0.9 * len(pairs)
        and abs(change_median - parent_median) > q3 - q1
    ):
        return "improved"
    scale = abs(parent_median) if parent_median else 1.0
    worse_by = sign * (change_median - parent_median) / scale
    if worse_by > bound:
        return "regressed"
    all_better = all(
        sign * (p - c) > 0 for p in parent for c in change
    )
    if spread(parent) > bound and not all_better:
        return "unresolved"
    return "no regression"
