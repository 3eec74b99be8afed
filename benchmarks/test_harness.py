"""``write_report``: a ``--quick`` run never replaces a full-mode record
at the default path, and writes wherever it is told to."""

import json

from harness import write_report

FULL = {"schema": 3, "mode": "full", "params": "n4096-depth1"}
QUICK = {"schema": 3, "mode": "quick", "params": "toy-insecure"}


def test_quick_report_leaves_the_full_record_alone(tmp_path):
    default = tmp_path / "BENCH_runtime.json"
    default.write_text(json.dumps(FULL))
    assert not write_report(QUICK, None, default)
    assert json.loads(default.read_text()) == FULL


def test_explicit_output_is_always_written(tmp_path):
    default = tmp_path / "BENCH_runtime.json"
    default.write_text(json.dumps(FULL))
    assert write_report(QUICK, default, default)
    assert json.loads(default.read_text()) == QUICK

    elsewhere = tmp_path / "bench_smoke.json"
    assert write_report(QUICK, elsewhere, default)
    assert json.loads(elsewhere.read_text()) == QUICK


def test_default_path_takes_full_reports_and_a_first_quick_one(tmp_path):
    default = tmp_path / "BENCH_runtime.json"
    assert write_report(QUICK, None, default)  # nothing to protect yet
    assert json.loads(default.read_text()) == QUICK
    assert write_report(FULL, None, default)
    assert json.loads(default.read_text()) == FULL
    assert not write_report(QUICK, None, default)
    assert json.loads(default.read_text()) == FULL
