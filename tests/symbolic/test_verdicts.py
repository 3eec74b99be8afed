"""Verification verdicts on the 11 registry kernels, pinned.

``verdicts.json`` holds, for every registry kernel, a synthesized
program and the hand-written baseline, each with a one-instruction
mutant and the verdict exact verification gave that mutant before
verification evaluated only the output cone: the failing slot and the
counterexample.  Slicing must leave every verdict as it was.

Regenerate after an intentional change to verification with::

    PYTHONPATH=src python tests/symbolic/test_verdicts.py --write
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.quill.interpreter import evaluate
from repro.quill.ir import Opcode, Program, Wire
from repro.quill.parser import parse_program
from repro.quill.printer import format_program
from repro.spec.kernels import ALL_SPECS, get_spec

VERDICTS = Path(__file__).resolve().parent / "verdicts.json"
KERNELS = tuple(factory().name for factory in ALL_SPECS)

#: the opcode a mutant puts in place of an arithmetic instruction's
_MUTANT = {
    Opcode.ADD_CC: Opcode.SUB_CC,
    Opcode.SUB_CC: Opcode.ADD_CC,
    Opcode.MUL_CC: Opcode.ADD_CC,
    Opcode.ADD_CP: Opcode.SUB_CP,
    Opcode.SUB_CP: Opcode.ADD_CP,
    Opcode.MUL_CP: Opcode.ADD_CP,
}


def mutate(program: Program, index: int) -> Program:
    """``program`` with instruction ``index`` given its mutant opcode."""
    instructions = list(program.instructions)
    instr = instructions[index]
    instructions[index] = replace(instr, opcode=_MUTANT[instr.opcode])
    return replace(program, instructions=instructions)


def live_arithmetic(program: Program) -> list[int]:
    """Arithmetic instructions the primary output reads, latest first."""
    live = set()
    if isinstance(program.output, Wire):
        live.add(program.output.index)
    for index in range(len(program.instructions) - 1, -1, -1):
        if index in live:
            for ref in program.instructions[index].operands:
                if isinstance(ref, Wire):
                    live.add(ref.index)
    return [
        index
        for index in sorted(live, reverse=True)
        if program.instructions[index].opcode in _MUTANT
    ]


def pin_verdicts(programs: dict[str, dict[str, str]]) -> dict:
    """Each program's first failing mutant (latest live arithmetic first)
    and the verdict verification gives it."""
    pinned = {}
    for kernel, texts in programs.items():
        spec = get_spec(kernel)
        pinned[kernel] = {}
        for kind, text in texts.items():
            program = parse_program(text)
            for index in live_arithmetic(program):
                verdict = spec.verify_program(mutate(program, index))
                if not verdict.equivalent:
                    break
            else:
                raise AssertionError(f"{kernel} {kind}: no failing mutant")
            pinned[kernel][kind] = {
                "program": text,
                "mutated_instruction": index,
                "failing_slot": verdict.failing_slot,
                "counterexample": verdict.counterexample,
            }
    return pinned


def _cases():
    return [
        (kernel, kind)
        for kernel in KERNELS
        for kind in ("synthesized", "baseline")
    ]


@pytest.fixture(scope="module")
def verdicts():
    return json.loads(VERDICTS.read_text())


def test_every_registry_kernel_is_pinned(verdicts):
    assert set(verdicts) == set(KERNELS)


@pytest.mark.parametrize("kernel, kind", _cases())
def test_program_verifies(verdicts, kernel, kind):
    program = parse_program(verdicts[kernel][kind]["program"])
    assert get_spec(kernel).verify_program(program).equivalent


@pytest.mark.parametrize("kernel, kind", _cases())
def test_mutant_fails_on_the_pinned_slot_with_a_real_counterexample(
    verdicts, kernel, kind
):
    pinned = verdicts[kernel][kind]
    spec = get_spec(kernel)
    program = parse_program(pinned["program"])
    mutant = mutate(program, pinned["mutated_instruction"])
    verdict = spec.verify_program(mutant)
    assert not verdict.equivalent
    assert verdict.failing_slot == pinned["failing_slot"]
    assert verdict.counterexample == pinned["counterexample"]
    # the witness is a real disagreement: run mutant and reference on it
    example = spec.example_from_witness(
        verdict.counterexample, np.random.default_rng(0)
    )
    got = evaluate(mutant, example.ct_env, example.pt_env)
    position = list(spec.layout.output_slots).index(verdict.failing_slot)
    assert int(got[verdict.failing_slot]) != int(example.goal[position])


def test_baselines_and_pinned_programs_agree(verdicts):
    from repro.baselines.handwritten import BASELINE_BUILDERS

    for kernel in KERNELS:
        baseline = format_program(BASELINE_BUILDERS[kernel]())
        assert verdicts[kernel]["baseline"]["program"] == baseline


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    from repro.api import Porcupine
    from repro.baselines.handwritten import BASELINE_BUILDERS

    golden = json.loads(
        (VERDICTS.parent.parent / "solver" / "golden_programs.json").read_text()
    )
    # l2 and roberts are not golden (their phase 2 ends on a timeout):
    # pin their phase-1 programs, which are deterministic
    phase1 = Porcupine(synthesis_defaults={"optimize": False})
    programs = {}
    for kernel in KERNELS:
        synthesized = (
            golden[kernel]["program"]
            if kernel in golden
            else format_program(phase1.compile(kernel).program)
        )
        programs[kernel] = {
            "synthesized": synthesized,
            "baseline": format_program(BASELINE_BUILDERS[kernel]()),
        }
    VERDICTS.write_text(json.dumps(pin_verdicts(programs), indent=1) + "\n")
    print(f"wrote {VERDICTS}")
