from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from maxplus_sylvester import cli
from maxplus_sylvester.cli import main
from maxplus_sylvester.instance_io import load_matrix, save_matrix
from maxplus_sylvester.matrix import TropicalMatrix

M = TropicalMatrix


def write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


@pytest.fixture
def scalar_two_term(tmp_path):
    # two-term 1x1 instance: greatest solution 3, solvable
    files = {
        "a1": write(tmp_path / "A1.txt", "1 1\n1\n"),
        "a2": write(tmp_path / "A2.txt", "1 1\n0\n"),
        "b1": write(tmp_path / "B1.txt", "1 1\n0\n"),
        "b2": write(tmp_path / "B2.txt", "1 1\n2\n"),
        "c": write(tmp_path / "C.txt", "1 1\n5\n"),
    }
    return files


def solve_args(files, *extra):
    return ["solve", "--a", files["a1"], "--a", files["a2"],
            "--b", files["b1"], "--b", files["b2"], "--c", files["c"], *extra]


def test_solve_solvable_instance(scalar_two_term, capsys):
    code = main(solve_args(scalar_two_term))
    out = capsys.readouterr().out
    assert code == 0
    assert "1 1\n3\n" in out
    assert "solvable: true" in out


def test_solve_unsolvable_instance(tmp_path, capsys):
    a = write(tmp_path / "A.txt", "2 2\n0 0\n0 0\n")
    b = write(tmp_path / "B.txt", "1 1\n0\n")
    c = write(tmp_path / "C.txt", "2 1\n0\n1\n")
    code = main(["solve", "--a", a, "--b", b, "--c", c, "--mismatches"])
    out = capsys.readouterr().out
    assert code == 1
    assert "2 1\n0\n0\n" in out  # greatest sub-solution still printed
    assert "solvable: false" in out
    assert "mismatch: 1 0" in out


def test_solve_missing_file(tmp_path, capsys):
    code = main(["solve", "--a", str(tmp_path / "nope.txt"), "--b", str(tmp_path / "nope2.txt"),
                 "--c", str(tmp_path / "nope3.txt")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.strip()


def test_solve_malformed_file(tmp_path, capsys):
    a = write(tmp_path / "A.txt", "1 1\nfoo\n")
    b = write(tmp_path / "B.txt", "1 1\n0\n")
    c = write(tmp_path / "C.txt", "1 1\n0\n")
    code = main(["solve", "--a", a, "--b", b, "--c", c])
    captured = capsys.readouterr()
    assert code == 2
    assert "line 2" in captured.err


def test_solve_shape_mismatch(tmp_path, capsys):
    a = write(tmp_path / "A.txt", "2 2\n0 0\n0 0\n")
    b = write(tmp_path / "B.txt", "1 1\n0\n")
    c = write(tmp_path / "C.txt", "1 1\n0\n")
    code = main(["solve", "--a", a, "--b", b, "--c", c])
    assert code == 2
    assert capsys.readouterr().err.strip()


def test_solve_term_count_mismatch(scalar_two_term, capsys):
    files = scalar_two_term
    code = main(["solve", "--a", files["a1"], "--b", files["b1"], "--b", files["b2"], "--c", files["c"]])
    assert code == 2
    assert "same positive number" in capsys.readouterr().err


def test_solve_with_oracle_check(scalar_two_term, capsys):
    code = main(solve_args(scalar_two_term, "--oracle"))
    out = capsys.readouterr().out
    assert code == 0
    assert "oracle-agrees: true" in out


def test_solve_oracle_with_inexact_sums_agrees(tmp_path, capsys):
    # the fast principal is -2.78e-17 and the oracle's -5.55e-17: equal
    # under the tolerance the verdict uses, not bit for bit
    a = write(tmp_path / "A.txt", "1 1\n0.1\n")
    b = write(tmp_path / "B.txt", "1 1\n0.2\n")
    c = write(tmp_path / "C.txt", "1 1\n0.3\n")
    code = main(["solve", "--a", a, "--b", b, "--c", c, "--oracle"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.endswith("solvable: true\noracle-agrees: true\n")
    assert captured.err == ""
    # cell (0, 1) misses C by 0.5: both paths find it under the tolerance
    # the data set, and their principals differ only in the last bits
    a = write(tmp_path / "A.txt", "1 1\n-0.7\n")
    b = write(tmp_path / "B.txt", "2 2\n-2.9 1.3\n-2.4 0.7\n")
    c = write(tmp_path / "C.txt", "1 2\n-2.0 2.7\n")
    code = main(["solve", "--a", a, "--b", b, "--c", c, "--oracle", "--mismatches"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.endswith("solvable: false\nmismatch: 0 1\noracle-agrees: true\n")
    assert captured.err == ""


@pytest.mark.parametrize("skew", [
    lambda r: replace(r, principal=M(r.principal.data + 1e-6)),
    lambda r: replace(r, cells=np.array([[0, 0]])),
])
def test_solve_oracle_disagreement_exits_2(scalar_two_term, capsys, monkeypatch, skew):
    oracle_solve = cli.oracle_solve
    monkeypatch.setattr(cli, "oracle_solve", lambda *args: skew(oracle_solve(*args)))
    code = main(solve_args(scalar_two_term, "--oracle"))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.endswith("solvable: true\noracle-agrees: false\n")
    assert captured.err.startswith("oracle disagreement diagnostic:\n")


def test_solve_oracle_skipped_above_cap(tmp_path, capsys):
    # 65·64 = 4160 cells, above the oracle's fixed limit of 4096
    out_dir = tmp_path / "inst"
    assert main(["generate", "--m", "65", "--n", "64", "--p", "1", "--seed", "1", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    argv = ["solve", "--a", str(out_dir / "A1.txt"), "--b", str(out_dir / "B1.txt"),
            "--c", str(out_dir / "C.txt"), "--oracle"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("65 64\n") and captured.out.endswith("solvable: true\n")
    assert captured.err == "oracle check skipped: oracle refuses mn=4160 (> cap 4096)\n"
    assert main(argv + ["--oracle-cap", "5000"]) == 2  # the limit is not a setting


def test_solve_linear_form(tmp_path, capsys):
    a = write(tmp_path / "A.txt", "2 2\n0 1\n2 0\n")
    b = write(tmp_path / "b.txt", "2 1\n3\n4\n")
    code = main(["solve", "--form", "linear", "--a", a, "--c", b])
    out = capsys.readouterr().out
    assert code == 0
    assert "2 1\n2\n2\n" in out
    assert "solvable: true" in out


def test_solve_linear_form_refuses_overflow(tmp_path, capsys):
    a = write(tmp_path / "A.txt", "1 1\n-1e308\n")
    b = write(tmp_path / "b.txt", "1 1\n1e308\n")
    code = main(["solve", "--form", "linear", "--a", a, "--c", b])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and "overflows float64" in captured.err
    assert captured.out == ""


def test_solve_linear_form_rejects_oracle_flag(tmp_path, capsys):
    a = write(tmp_path / "A.txt", "1 1\n0\n")
    c = write(tmp_path / "c.txt", "1 1\n0\n")
    code = main(["solve", "--form", "linear", "--a", a, "--c", c, "--oracle"])
    assert code == 2


def test_solve_two_sided_form(tmp_path, capsys):
    a = write(tmp_path / "A.txt", "1 1\n2\n")
    b = write(tmp_path / "B.txt", "1 1\n0\n")
    c = write(tmp_path / "C.txt", "1 1\n5\n")
    code = main(["solve", "--form", "two-sided", "--a", a, "--b", b, "--c", c, "--oracle"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1 1\n3\n" in out
    assert "oracle-agrees: true" in out


@pytest.mark.parametrize("a_text,b_text,message", [
    ("2 3\n0 0 0\n0 0 0\n", "3 3\n0 0 0\n0 0 0\n0 0 0\n", "A must be 2x2 to match C (2, 3), got (2, 3)"),
    ("1 1\n0\n", "3 3\n0 0 0\n0 0 0\n0 0 0\n", "A must be 2x2 to match C (2, 3), got (1, 1)"),
    ("2 2\n0 0\n0 0\n", "3 2\n0 0\n0 0\n0 0\n", "B must be 3x3 to match C (2, 3), got (3, 2)"),
    ("2 2\n0 0\n0 0\n", "2 2\n0 0\n0 0\n", "B must be 3x3 to match C (2, 3), got (2, 2)"),
], ids=["A not square", "A rows differ from C's", "B not square", "B size differs from C's columns"])
def test_solve_two_sided_form_shape_errors(tmp_path, capsys, a_text, b_text, message):
    a = write(tmp_path / "A.txt", a_text)
    b = write(tmp_path / "B.txt", b_text)
    c = write(tmp_path / "C.txt", "2 3\n0 0 0\n0 0 0\n")
    for flags in ([], ["--oracle"]):
        code = main(["solve", "--form", "two-sided", "--a", a, "--b", b, "--c", c, *flags])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_usage_error_exit_code():
    assert main(["solve"]) == 2  # missing required --c
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def test_one_parser_serves_every_call(scalar_two_term, tmp_path, capsys, monkeypatch):
    # main builds its parser once per process, so no call may leave anything
    # in it for the next: each output must equal that of a fresh parser
    linear = ["solve", "--form", "linear", "--a", scalar_two_term["a1"], "--c", scalar_two_term["c"]]
    calls = [solve_args(scalar_two_term, "--mismatches"), ["solve"], linear, ["generate", "--m"],
             ["generate", "--m", "2", "--n", "2", "--p", "1", "--seed", "3", "--out", str(tmp_path / "g")],
             solve_args(scalar_two_term), linear]
    assert cli._parser() is cli._parser()
    outputs = []
    for argv in calls:
        outputs.append((main(argv), *capsys.readouterr()))
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    for argv, cached in zip(calls, outputs):
        assert (main(argv), *capsys.readouterr()) == cached


def test_generate_is_deterministic(tmp_path, capsys):
    args = ["generate", "--m", "3", "--n", "2", "--p", "2", "--seed", "42", "--mode", "solvable"]
    assert main(args + ["--out", str(tmp_path / "one")]) == 0
    assert main(args + ["--out", str(tmp_path / "two")]) == 0
    out = capsys.readouterr().out
    assert out.count("seed: 42") == 2
    names = ["A1.txt", "A2.txt", "B1.txt", "B2.txt", "C.txt", "X0.txt"]
    assert sorted(p.name for p in (tmp_path / "one").iterdir()) == names
    for name in names:
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_generated_solvable_instance_solves(tmp_path, capsys):
    out_dir = tmp_path / "inst"
    assert main(["generate", "--m", "4", "--n", "3", "--p", "3", "--seed", "7",
                 "--mode", "solvable", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    code = main(["solve",
                 "--a", str(out_dir / "A1.txt"), "--a", str(out_dir / "A2.txt"), "--a", str(out_dir / "A3.txt"),
                 "--b", str(out_dir / "B1.txt"), "--b", str(out_dir / "B2.txt"), "--b", str(out_dir / "B3.txt"),
                 "--c", str(out_dir / "C.txt"), "--oracle"])
    out = capsys.readouterr().out
    assert code == 0
    assert "solvable: true" in out and "oracle-agrees: true" in out


def test_generate_high_density_still_astic(tmp_path, capsys):
    out_dir = tmp_path / "dense"
    assert main(["generate", "--m", "5", "--n", "4", "--p", "2", "--seed", "3",
                 "--mode", "raw", "--neginf-density", "0.9", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    for name in ("A1.txt", "A2.txt", "B1.txt", "B2.txt"):
        f = load_matrix(out_dir / name)
        finite = np.isfinite(f.data)
        assert finite.any(axis=1).all() and finite.any(axis=0).all()
    assert not (out_dir / "X0.txt").exists()


def test_generate_invalid_config(tmp_path, capsys):
    code = main(["generate", "--m", "0", "--n", "1", "--p", "1", "--seed", "1",
                 "--out", str(tmp_path / "bad")])
    assert code == 2
    assert capsys.readouterr().err.strip()


def test_generate_unwritable_destination(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory\n")
    code = main(["generate", "--m", "1", "--n", "1", "--p", "1", "--seed", "1",
                 "--out", str(blocker / "sub")])
    assert code == 2
    assert capsys.readouterr().err.strip()


@pytest.mark.parametrize("command,name", [("solve", "load_matrix"), ("generate", "generate_instance"),
                                          ("bench", "run_grid")])
def test_an_allocation_failure_exits_2_not_1(command, name, scalar_two_term, tmp_path, capsys, monkeypatch):
    # exit 1 would read as "unsolvable"; the raise stands in for an instance
    # too large for the address space, so the test allocates nothing large
    def allocation_fails(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, name, allocation_fails)
    argv = {"solve": solve_args(scalar_two_term),
            "generate": ["generate", "--m", "2", "--n", "2", "--p", "1", "--out", str(tmp_path / "inst")],
            "bench": ["bench", "--m", "2", "--n", "2", "--p", "1"]}[command]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: MemoryError\n")


def test_bench_csv_and_skip_notes(capsys):
    code = main(["bench", "--m", "2,65", "--n", "64", "--p", "1", "--reps", "3"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert lines[0] == "m,n,p,method,rep,wall_seconds,op_count"
    # (2,64) runs both methods, (65,64) only fast: (2+1) points * 3 reps
    assert len(lines) == 1 + 9
    assert [line.split(",")[3] for line in lines if line.startswith("65,")] == ["fast"] * 3
    assert captured.err == "skipping oracle at m=65 n=64 p=1: m*n=4160 exceeds size cap 4096\n"
    assert main(["bench", "--m", "2", "--n", "2", "--p", "1", "--oracle-cap", "4"]) == 2


def test_bench_rejects_low_reps(capsys):
    assert main(["bench", "--m", "2", "--n", "2", "--p", "1", "--reps", "2"]) == 2
    assert "reps" in capsys.readouterr().err


def test_bench_rejects_bad_grid(capsys):
    assert main(["bench", "--m", "0", "--n", "2", "--p", "1"]) == 2
    assert main(["bench", "--m", "2", "--n", "2", "--p", "1", "--methods", "warp"]) == 2


@pytest.mark.parametrize("methods", ["", ","])
def test_bench_rejects_an_empty_method_list(methods, capsys):
    assert main(["bench", "--m", "2", "--n", "2", "--p", "1", "--methods", methods]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--methods" in captured.err


def test_solve_tolerance_flag(tmp_path, capsys):
    # the data set how a verdict compares; there is no override
    a = write(tmp_path / "A.txt", "2 1\n0\n0\n")
    c = write(tmp_path / "c.txt", "2 1\n0\n0.5\n")
    assert main(["solve", "--form", "linear", "--a", a, "--c", c, "--tolerance", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tolerance" in captured.err


def test_solve_overflowing_literal_is_a_parse_error(tmp_path, capsys):
    a = write(tmp_path / "A.txt", "1 1\n0\n")
    c = write(tmp_path / "c.txt", "1 1\n1e400\n")
    code = main(["solve", "--form", "linear", "--a", a, "--c", c])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "line 2" in captured.err and "1e400" in captured.err


def test_solve_inexact_integer_literal_is_a_parse_error(tmp_path, capsys):
    a = write(tmp_path / "A.txt", "1 1\n0\n")
    c = write(tmp_path / "c.txt", "1 1\n9007199254740993\n")
    code = main(["solve", "--form", "linear", "--a", a, "--c", c])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "line 2" in captured.err and "9007199254740993" in captured.err


def test_matrix_files_written_by_save_round_trip(tmp_path):
    target = tmp_path / "m.txt"
    save_matrix(target, M([[1.5, float("-inf")], [0, 7]]))
    assert target.read_text() == "2 2\n1.5 -inf\n0 7\n"
