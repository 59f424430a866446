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


def test_usage_error_exit_code():
    assert main(["solve"]) == 2  # missing required --c
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


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


def test_solve_tolerance_flag(tmp_path, capsys):
    a = write(tmp_path / "A.txt", "2 1\n0\n0\n")
    c = write(tmp_path / "c.txt", "2 1\n0\n0.5\n")
    assert main(["solve", "--form", "linear", "--a", a, "--c", c]) == 1
    capsys.readouterr()
    assert main(["solve", "--form", "linear", "--a", a, "--c", c, "--tolerance", "0.5"]) == 0


def test_solve_nan_tolerance_is_a_usage_error(tmp_path, capsys):
    out_dir = tmp_path / "inst"
    assert main(["generate", "--m", "3", "--n", "3", "--p", "1", "--seed", "1", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    code = main(["solve", "--a", str(out_dir / "A1.txt"), "--b", str(out_dir / "B1.txt"),
                 "--c", str(out_dir / "C.txt"), "--tolerance", "nan"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "tolerance" in captured.err


def test_solve_overflowing_literal_is_a_parse_error(tmp_path, capsys):
    a = write(tmp_path / "A.txt", "1 1\n0\n")
    c = write(tmp_path / "c.txt", "1 1\n1e400\n")
    code = main(["solve", "--form", "linear", "--a", a, "--c", c])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "line 2" in captured.err and "1e400" in captured.err


def test_matrix_files_written_by_save_round_trip(tmp_path):
    target = tmp_path / "m.txt"
    save_matrix(target, M([[1.5, float("-inf")], [0, 7]]))
    assert target.read_text() == "2 2\n1.5 -inf\n0 7\n"
