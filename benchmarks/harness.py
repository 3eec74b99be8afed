"""Shared floor-check plumbing for the ``bench_*.py`` scripts.

Every benchmark keeps a committed floor file under ``benchmarks/`` and
exposes the same CLI contract: ``--check-floor`` compares this run
against the committed numbers and fails CI on a regression,
``--update-floor`` rewrites the file from this run's measurements.
The four scripts used to carry parallel copies of the load / compare /
report / save skeleton; it lives here now, with :func:`write_report`,
which writes a result file without letting a ``--quick`` run clobber a
committed full-mode record.

Two kinds of committed numbers exist, and the distinction matters for
CI stability:

* **timing tripwires** (nodes/sec, opcode latency, batching speedup)
  are noisy on shared runners, so they are checked with generous slack
  (``fraction`` of the floor, or ``slack`` times the ceiling);
* **exact ceilings** (searched-node counts, op counts, NTT rows) are
  deterministic functions of the code, so they are checked with no
  slack at all — any growth is a real regression and fails
  deterministically instead of via flaky timing.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def write_report(report: dict, output: Path | None, default: Path) -> bool:
    """Write ``report`` as JSON to ``output``, or to ``default`` if none.

    The default is a committed full-mode ``BENCH_*.json``.  A quick
    report written there would replace it with toy-preset numbers, so
    it is skipped unless the caller named ``output`` explicitly.
    Returns whether the file was written.
    """
    target = output if output is not None else default
    if (
        output is None
        and report.get("mode") == "quick"
        and target.exists()
        and json.loads(target.read_text()).get("mode") == "full"
    ):
        print(
            f"not replacing the full-mode record {target} with a quick "
            "report; pass --output FILE to keep it",
            file=sys.stderr,
        )
        return False
    target.write_text(json.dumps(report, indent=2) + "\n")
    print(f"written to {target}")
    return True


def load_floors(floor_file: Path) -> dict | None:
    """The committed floor dict, or ``None`` (with a notice) if absent.

    A missing floor file is not an error: a fresh checkout or a brand-new
    benchmark section has nothing to regress against yet.
    """
    if not floor_file.exists():
        print(f"floor file {floor_file} missing; nothing to check")
        return None
    return json.loads(floor_file.read_text())


def save_floors(floor_file: Path, floors: dict, *, merge: bool = False) -> None:
    """Write the floor file (sorted keys, trailing newline).

    With ``merge=True`` the new entries are laid over the existing
    top-level keys, so a ``--quick`` run refreshes only what it measured
    and keeps the full-mode entries intact.  Callers with nested
    sections merge those themselves before calling.
    """
    if merge and floor_file.exists():
        merged = json.loads(floor_file.read_text())
        merged.update(floors)
        floors = merged
    floor_file.write_text(json.dumps(floors, indent=2, sort_keys=True) + "\n")
    print(f"floor refreshed: {floor_file}")


def floor_failure(
    key: str,
    measured: float,
    floor: float,
    *,
    fraction: float,
    unit: str = "",
    detail: str = "",
) -> str | None:
    """Timing tripwire: fail when ``measured < floor * fraction``.

    ``fraction`` is deliberately loose (e.g. 0.2 for "within 5x", 0.3
    for "within 30%") so the check survives noisy CI machines while
    still catching order-of-magnitude collapses.
    """
    if measured >= floor * fraction:
        return None
    return (
        f"{key}: {measured:,.2f}{unit} is below {fraction:g}x the "
        f"checked-in floor of {floor:,.2f}{unit}{detail}"
    )


def ceiling_failure(
    key: str,
    measured: float,
    ceiling: float,
    *,
    slack: float = 1.0,
    unit: str = "",
    detail: str = "",
) -> str | None:
    """Fail when ``measured > ceiling * slack``.

    With the default ``slack=1.0`` this is an *exact* ceiling — use it
    only for deterministic counts (searched nodes, op counts, NTT
    rows), never for wall-clock numbers.
    """
    if measured <= ceiling * slack:
        return None
    bound = "exact ceiling" if slack == 1.0 else f"{slack:g}x the floor"
    return (
        f"{key}: {measured:,.0f}{unit} is above the {bound} of "
        f"{ceiling:,.0f}{unit}{detail}"
    )


def report_failures(failures: list[str]) -> int:
    """Print violations and return the process exit code."""
    for failure in failures:
        print(f"FLOOR REGRESSION: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("floor check passed")
    return 0
