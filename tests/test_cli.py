"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("box_blur", "dot_product", "harris"):
        assert name in out


def test_baseline_command(capsys):
    assert main(["baseline", "gx"]) == 0
    captured = capsys.readouterr()
    assert 'quill kernel "gx_baseline"' in captured.out
    assert "12 instructions" in captured.err


def test_baseline_unknown_kernel():
    with pytest.raises(KeyError):
        main(["baseline", "fft"])


def test_compile_command(capsys):
    assert main(["compile", "box_blur", "--opt-timeout", "5"]) == 0
    captured = capsys.readouterr()
    assert 'quill kernel "box_blur_synth"' in captured.out
    assert "ev.rotate_rows" in captured.out
    assert "synthesized 4 instructions" in captured.err


def test_compile_to_file(tmp_path, capsys):
    target = tmp_path / "blur.cpp"
    assert main(
        ["compile", "box_blur", "--opt-timeout", "5", "--seal", str(target)]
    ) == 0
    assert "seal/seal.h" in target.read_text()
    assert "ev.rotate_rows" not in capsys.readouterr().out


def test_compile_workers_flag(capsys):
    assert main(
        ["compile", "box_blur", "--opt-timeout", "5", "--workers", "2"]
    ) == 0
    captured = capsys.readouterr()
    assert 'quill kernel "box_blur_synth"' in captured.out
    assert "synthesized 4 instructions" in captured.err


def test_compile_timings_flag(capsys):
    assert main(
        ["compile", "box_blur", "--opt-timeout", "5", "--timings"]
    ) == 0
    captured = capsys.readouterr()
    assert "pass timings for box_blur" in captured.err
    assert "synthesize" in captured.err
    assert "nodes/s" in captured.err


def test_compile_no_prune_flag(capsys):
    """Ablation baseline (``--prune-rules ""``, no rule enabled):
    identical program, every rule counter zero."""
    assert main(
        ["compile", "box_blur", "--opt-timeout", "5", "--prune-rules", "",
         "--timings"]
    ) == 0
    captured = capsys.readouterr()
    assert 'quill kernel "box_blur_synth"' in captured.out
    assert "synthesized 4 instructions" in captured.err
    assert "pruned:" not in captured.err  # nothing was pruned


def test_compile_prune_rules_subset(capsys):
    assert main(
        ["compile", "box_blur", "--opt-timeout", "5",
         "--prune-rules", "dedup,commutative", "--timings"]
    ) == 0
    captured = capsys.readouterr()
    assert 'quill kernel "box_blur_synth"' in captured.out
    assert "pruned:" in captured.err
    assert "commutative=" in captured.err


def test_prune_rules_rejects_unknown_rule(capsys):
    with pytest.raises(SystemExit):
        main(["compile", "box_blur", "--prune-rules", "bogus"])
    assert "unknown pruning rule" in capsys.readouterr().err


def test_profile_command(capsys):
    assert main(["profile", "--preset", "toy", "--repeats", "1"]) == 0
    out = capsys.readouterr().out
    assert "Opcode.MUL_CC" in out
    assert "Opcode.ROTATE" in out


def test_run_command(capsys):
    assert main(["run", "hamming", "--opt-timeout", "2", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "matches reference: True" in out
    assert "noise budget" in out


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_list_json(capsys):
    import json

    assert main(["list", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    by_name = {entry["kernel"]: entry for entry in payload}
    assert by_name["gx"]["baseline_instructions"] == 12
    assert by_name["sobel"]["multi_step"] is True
    assert by_name["box_blur"]["multi_step"] is False


def test_compile_json_reports_cache_state(tmp_path, capsys):
    import json

    cache = str(tmp_path / "cache")
    args = ["compile", "box_blur", "--opt-timeout", "2", "--json",
            "--cache-dir", cache]
    assert main(args) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["cache"]["hit"] is False
    assert first["instructions"] == 4
    assert first["synthesis"]["examples"] >= 1
    assert "synthesize" in first["pass_seconds"]
    assert 'quill kernel "box_blur_synth"' in first["quill"]

    assert main(args) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["cache"]["hit"] is True
    assert second["cache"]["key"] == first["cache"]["key"]


def test_run_json_interpreter_backend(capsys):
    import json

    assert main(["run", "dot_product", "--opt-timeout", "2", "--json",
                 "--backend", "interpreter"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["execution"]["matches_reference"] is True
    assert payload["execution"]["backend"] == "interpreter"
    assert payload["execution"]["noise_budget"] is None
    assert payload["execution"]["output"] == payload["execution"]["expected"]


def test_run_interpreter_plaintext_output(capsys):
    assert main(["run", "hamming", "--opt-timeout", "2",
                 "--backend", "interpreter"]) == 0
    out = capsys.readouterr().out
    assert "matches reference: True" in out
    assert "interpreter" in out


def test_cli_warmed_cache_is_a_library_hit(tmp_path, capsys):
    """The CLI compiles under the library's synthesis defaults, so a cache
    it warms serves ``Porcupine(cache_dir=...)`` (and ``serve``)."""
    from repro.api import Porcupine

    cache = str(tmp_path / "cache")
    assert main(["compile", "box_blur", "--cache-dir", cache]) == 0
    capsys.readouterr()
    assert Porcupine(cache_dir=cache).compile("box_blur").cache_hit is True


def test_compile_checkpoint_resumes_to_the_same_program(tmp_path, capsys):
    import json

    args = ["compile", "box_blur", "--json",
            "--checkpoint", str(tmp_path / "box_blur.ckpt")]
    assert main(args) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["synthesis"]["nodes"] > 0
    assert main(args) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["synthesis"]["nodes"] == 0  # resumed from the checkpoint
    assert second["quill"] == first["quill"]
    assert second["cache"]["key"] == first["cache"]["key"]


def test_compile_checkpoint_rejects_composed_kernels(tmp_path, capsys):
    checkpoint = tmp_path / "sobel.ckpt"
    assert main(["compile", "sobel", "--checkpoint", str(checkpoint)]) == 2
    assert "composed kernel" in capsys.readouterr().err
    assert not checkpoint.exists()
