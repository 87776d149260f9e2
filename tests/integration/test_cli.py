"""Integration tests for the pgmp command-line interface."""

import json

import pytest

from repro.tools.cli import build_parser, main


PROGRAM = """
(define (classify n)
  (case (modulo n 5)
    [(0) 'zero]
    [(1 2) 'small]
    [(3 4) 'big]))
(define (run n acc)
  (if (= n 0) acc (run (- n 1) (cons (classify n) acc))))
(length (run 60 '()))
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.ss"
    path.write_text(PROGRAM)
    return str(path)


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run(program_file, capsys):
    assert main(["run", program_file, "--library", "case"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "60"


def test_run_instrumented(program_file, capsys):
    assert main(["run", program_file, "--library", "case", "--instrument", "expr"]) == 0
    captured = capsys.readouterr()
    assert "profiled" in captured.err


def test_expand(program_file, capsys):
    assert main(["expand", program_file, "--library", "case"]) == 0
    out = capsys.readouterr().out
    assert "(define classify" in out
    assert "key-in?" in out  # case was rewritten into membership tests


def test_profile_then_optimize(program_file, tmp_path, capsys):
    profile_path = str(tmp_path / "prog.profile")
    assert main(["profile", program_file, "--library", "case", "--out", profile_path]) == 0
    payload = json.loads(open(profile_path).read())
    assert payload["format"] == "pgmp-profile"
    capsys.readouterr()

    assert main([
        "optimize", program_file, "--library", "case", "--profile-file", profile_path,
    ]) == 0
    out = capsys.readouterr().out
    # small (24 hits) must be tested before zero (12 hits)
    assert out.index("'small") < out.index("'zero")


def test_optimize_requires_profile(program_file, capsys):
    assert main(["optimize", program_file]) == 2


def test_workflow(program_file, capsys):
    assert main(["workflow", program_file, "--library", "case"]) == 0
    out = capsys.readouterr().out
    assert "expansion stable:        True" in out
    assert "semantics preserved:     True" in out


def test_disasm(program_file, capsys):
    assert main(["disasm", program_file, "--library", "case"]) == 0
    out = capsys.readouterr().out
    assert "function" in out
    assert "entry:" in out


def test_missing_file(capsys):
    assert main(["run", "/nonexistent/x.ss"]) == 1
    assert "pgmp" in capsys.readouterr().err


def test_scheme_error_reported(tmp_path, capsys):
    path = tmp_path / "bad.ss"
    path.write_text("(error 'me \"nope\")")
    assert main(["run", str(path)]) == 1
    assert "nope" in capsys.readouterr().err


def test_custom_library_from_file(tmp_path, capsys):
    lib = tmp_path / "lib.ss"
    lib.write_text("(define (triple x) (* 3 x))")
    prog = tmp_path / "p.ss"
    prog.write_text("(triple 14)")
    assert main(["run", str(prog), "--library", str(lib)]) == 0
    assert capsys.readouterr().out.strip() == "42"


def test_stdin_program(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("(+ 40 2)"))
    assert main(["run", "-"]) == 0
    assert capsys.readouterr().out.strip() == "42"


def test_simplify_flag(tmp_path, capsys):
    program = tmp_path / "s.ss"
    program.write_text("(let ([x 5]) (* x x))")
    assert main(["expand", str(program), "--simplify"]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "(* 5 5)"
    assert "contracted 1" in captured.err


def test_simplify_flag_on_run(tmp_path, capsys):
    program = tmp_path / "s.ss"
    program.write_text("(let ([x 6]) (* x 7))")
    assert main(["run", str(program), "--simplify"]) == 0
    assert capsys.readouterr().out.strip() == "42"


def test_error_message_is_structured_one_liner(capsys):
    assert main(["run", "/nonexistent/x.ss"]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("pgmp: error: ")
    assert "\n" not in err
    assert "Traceback" not in err


def test_profile_policy_strict_fails_on_corrupt_profile(
    program_file, tmp_path, capsys
):
    profile = tmp_path / "p.json"
    profile.write_text("{ not json")
    assert main(["run", program_file, "--library", "case",
                 "--profile-file", str(profile)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("pgmp: error: ProfileFormatError:")


def test_profile_policy_warn_degrades_on_corrupt_profile(
    program_file, tmp_path, capsys
):
    profile = tmp_path / "p.json"
    profile.write_text("{ not json")
    assert main(["run", program_file, "--library", "case",
                 "--profile-file", str(profile),
                 "--profile-policy", "warn"]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "60"
    assert "pgmp: warning" in captured.err


def test_profile_policy_warn_flags_stale_profile(program_file, tmp_path, capsys):
    profile = tmp_path / "p.json"
    assert main(["profile", program_file, "--library", "case",
                 "--out", str(profile)]) == 0
    # Edit the program: the stored profile no longer matches its source.
    with open(program_file, "a", encoding="utf-8") as handle:
        handle.write("\n;; edited\n")
    capsys.readouterr()
    assert main(["run", program_file, "--library", "case",
                 "--profile-file", str(profile),
                 "--profile-policy", "warn"]) == 0
    assert "stale" in capsys.readouterr().err


def test_workflow_checkpoint_resume(program_file, tmp_path, capsys):
    ckpt = str(tmp_path / "ckpt")
    assert main(["workflow", program_file, "--library", "case",
                 "--checkpoint-dir", ckpt]) == 0
    first = capsys.readouterr().out
    assert "rung:                    three-pass" in first
    assert "resumed" not in first
    assert main(["workflow", program_file, "--library", "case",
                 "--checkpoint-dir", ckpt]) == 0
    second = capsys.readouterr().out
    assert "resumed from checkpoint: pass1, pass2" in second
    assert main(["workflow", program_file, "--library", "case",
                 "--checkpoint-dir", ckpt, "--no-resume"]) == 0
    assert "resumed" not in capsys.readouterr().out


def test_workflow_budget_degrades_under_warn(program_file, capsys):
    assert main(["workflow", program_file, "--library", "case",
                 "--pass-budget", "5", "--profile-policy", "warn"]) == 0
    captured = capsys.readouterr()
    assert "rung:                    unoptimized" in captured.out
    assert "degraded:" in captured.err


def test_workflow_budget_fails_under_strict(program_file, capsys):
    assert main(["workflow", program_file, "--library", "case",
                 "--pass-budget", "5"]) == 1
    assert "StepBudgetExceeded" in capsys.readouterr().err


def test_sample_rate_one_collects_exactly(program_file, tmp_path, capsys):
    exact_path = tmp_path / "exact.profile"
    sampled_path = tmp_path / "stride1.profile"
    assert main(["profile", program_file, "--library", "case", "--out", str(exact_path)]) == 0
    assert main([
        "profile", program_file, "--library", "case", "--profile-mode", "sampled",
        "--sample-rate", "1", "--out", str(sampled_path),
    ]) == 0
    # Stride 1 is exact collection: no confidence record anywhere.
    assert '"confidence"' not in sampled_path.read_text()
    assert json.loads(sampled_path.read_text()) == json.loads(exact_path.read_text())
    capsys.readouterr()
    assert main([
        "report", program_file, "--library", "case", "--profile-file", str(sampled_path),
    ]) == 0
    assert "collection:" not in capsys.readouterr().out


@pytest.mark.parametrize("rate", ["0", "-3"])
def test_sample_rate_below_one_is_a_usage_error(program_file, tmp_path, capsys, rate):
    out = tmp_path / "p.profile"
    with pytest.raises(SystemExit) as exc:
        main([
            "profile", program_file, "--profile-mode", "sampled",
            "--sample-rate", rate, "--out", str(out),
        ])
    assert exc.value.code == 2
    assert "sample stride must be >= 1" in capsys.readouterr().err
    assert not out.exists()
