"""Golden programs: cold compiles of the synth-cold kernel set.

``golden_programs.json`` pins, for each kernel, the compiled program
text and the search counters of each synthesis pass (``nodes``,
``batches``, ``candidates`` and every ``pruned`` rule counter).  An
engine change that claims to enumerate the same candidates in the same
order must leave all of them untouched.

Every counter here is deterministic: the default configuration has no
lemma store and both synthesis phases finish well inside their
timeouts, so a cold compile does not depend on the machine or on the
order kernels are compiled in.  After an intentional change to the
search, regenerate the file with::

    PYTHONPATH=src python tests/solver/test_golden_programs.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden_programs.json"

#: kernels synthesized directly, then the composed ones (which reuse the
#: session's compiled components)
DIRECT = (
    "box_blur",
    "dot_product",
    "hamming",
    "linear_regression",
    "polynomial_regression",
    "gx",
    "gy",
)
COMPOSED = ("sobel", "harris")
COUNTERS = ("nodes", "batches", "candidates", "pruned")


def compile_cold() -> dict[str, dict]:
    """Program text and per-pass search counters of each kernel."""
    from repro.api import Porcupine
    from repro.quill.printer import format_program

    session = Porcupine()
    golden = {}
    for kernel in DIRECT + COMPOSED:
        compiled = session.compile(kernel)
        assert not compiled.cache_hit
        golden[kernel] = {
            "program": format_program(compiled.program),
            "passes": {
                name: {key: metrics[key] for key in COUNTERS}
                for name, metrics in compiled.pass_metrics.items()
                if name in ("synthesize", "optimize")
            },
        }
    return golden


@pytest.fixture(scope="module")
def compiled():
    return compile_cold()


@pytest.mark.parametrize("kernel", DIRECT + COMPOSED)
def test_cold_compile_matches_golden(compiled, kernel):
    expected = json.loads(GOLDEN.read_text())[kernel]
    assert compiled[kernel]["program"] == expected["program"]
    assert compiled[kernel]["passes"] == expected["passes"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    GOLDEN.write_text(json.dumps(compile_cold(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
