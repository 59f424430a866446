import re

import numpy as np
import pytest

import bruteforce as bf
from maxplus_sylvester.instance_io import (
    GeneratorConfig,
    ParseError,
    format_matrix,
    generate_instance,
    load_matrix,
    parse_matrix,
    write_instance,
)
from maxplus_sylvester.matrix import NEG_INF, TropicalMatrix
from maxplus_sylvester.oracle import oracle_solve
from maxplus_sylvester.solver import solve_sylvester

M = TropicalMatrix


def test_parse_matrix_examples():
    assert parse_matrix("2 2\n0 1\n2 0\n") == M([[0, 1], [2, 0]])
    assert parse_matrix("1 2\n-inf 3.5\n") == M([[NEG_INF, 3.5]])
    with pytest.raises(ParseError, match="line 3"):
        parse_matrix("2 1\n0\n1 2\n")


def test_parse_matrix_comments_blank_lines_and_missing_newline():
    text = "# instance C\n2 2\n\n0 1\n# middle note\n2 0"
    assert parse_matrix(text) == M([[0, 1], [2, 0]])


def test_parse_matrix_error_cases():
    with pytest.raises(ParseError, match="line 1"):
        parse_matrix("")
    with pytest.raises(ParseError, match="line 1"):
        parse_matrix("2\n0\n1\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_matrix("two 2\n0 1\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_matrix("0 2\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_matrix("1 2\n0 nan\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_matrix("1 1\n0@\n")
    with pytest.raises(ParseError, match=r"line 3: .*'1e400'"):
        parse_matrix("2 1\n0\n1e400\n")
    with pytest.raises(ParseError, match="line 4"):
        parse_matrix("2 1\n0\n1\n5\n")
    with pytest.raises(ParseError, match="expected 3 rows"):
        parse_matrix("3 1\n0\n1\n")
    # float reads digit separators and non-ASCII digits; the format does not
    for token in ("1_000", "0_0", "١٢", "１２"):
        with pytest.raises(ParseError, match=f"line 3: .*{re.escape(repr(token))}"):
            parse_matrix(f"1 2\n# note\n0 {token}\n")
    with pytest.raises(ParseError, match="line 1: .*'1_0'"):
        parse_matrix("1_0 1\n0\n")
    assert parse_matrix("# free text: ١٢ 1_000\n1 1\n5\n") == M([[5]])


def test_format_matrix_examples():
    assert format_matrix(M([[0, 1], [2, 0]])) == "2 2\n0 1\n2 0\n"
    assert format_matrix(M([[NEG_INF]])) == "1 1\n-inf\n"
    assert format_matrix(M([[1.5, -2.25]])) == "1 2\n1.5 -2.25\n"


def test_round_trip_identity():
    rng = np.random.default_rng(40)
    for trial in range(300):
        rows, cols = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        entries = bf.random_entries(rng, rows, cols, neg_density=0.15, pos_density=0.1)
        if trial % 3 == 0:  # mix in non-integer values
            entries = [[v + 0.5 if v == v and abs(v) != float("inf") and rng.random() < 0.5 else v
                        for v in row] for row in entries]
        original = M(entries)
        assert parse_matrix(format_matrix(original)) == original


def test_generator_determinism():
    cfg = GeneratorConfig(m=3, n=2, p=2, seed=42)
    one, w1 = generate_instance(cfg)
    two, w2 = generate_instance(cfg)
    assert [format_matrix(a) for a in one.A] == [format_matrix(a) for a in two.A]
    assert [format_matrix(b) for b in one.B] == [format_matrix(b) for b in two.B]
    assert format_matrix(one.C) == format_matrix(two.C)
    assert format_matrix(w1) == format_matrix(w2)
    different, _ = generate_instance(GeneratorConfig(m=3, n=2, p=2, seed=43))
    assert format_matrix(different.C) != format_matrix(one.C)


def test_generator_construction_mode_is_solvable():
    rng = np.random.default_rng(41)
    for _ in range(50):
        cfg = GeneratorConfig(
            m=int(rng.integers(1, 6)), n=int(rng.integers(1, 6)), p=int(rng.integers(1, 5)),
            seed=int(rng.integers(0, 2**63)),
        )
        inst, witness = generate_instance(cfg)
        report = solve_sylvester(inst)
        assert report.solvable
        assert bf.leq(witness.tolist(), report.principal.tolist())


def test_generator_factors_are_doubly_r_astic_even_at_high_density():
    rng = np.random.default_rng(42)
    for _ in range(30):
        cfg = GeneratorConfig(
            m=int(rng.integers(1, 7)), n=int(rng.integers(1, 7)), p=2,
            seed=int(rng.integers(0, 2**63)), neginf_density=0.9, mode="raw_random",
        )
        inst, witness = generate_instance(cfg)
        assert witness is None
        for factor in (*inst.A, *inst.B):
            finite = np.isfinite(factor.data)
            assert finite.any(axis=1).all() and finite.any(axis=0).all()
        assert np.isfinite(inst.C.data).all()


def test_raw_mode_verdicts_agree_with_oracle():
    rng = np.random.default_rng(43)
    for _ in range(60):
        cfg = GeneratorConfig(
            m=int(rng.integers(2, 5)), n=int(rng.integers(2, 5)), p=int(rng.integers(1, 4)),
            seed=int(rng.integers(0, 2**63)), entry_low=-30, entry_high=30, mode="raw_random",
        )
        inst, _ = generate_instance(cfg)
        assert solve_sylvester(inst).solvable == oracle_solve(inst).solvable


def test_generator_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(m=0, n=1, p=1, seed=1)
    with pytest.raises(ValueError):
        GeneratorConfig(m=1, n=1, p=1, seed=-1)
    with pytest.raises(ValueError):
        GeneratorConfig(m=1, n=1, p=1, seed=1, entry_low=5, entry_high=4)
    with pytest.raises(ValueError):
        GeneratorConfig(m=1, n=1, p=1, seed=1, neginf_density=1.0)
    with pytest.raises(ValueError):
        GeneratorConfig(m=1, n=1, p=1, seed=1, mode="whatever")


def test_file_set_round_trip(tmp_path):
    cfg = GeneratorConfig(m=3, n=2, p=2, seed=99)
    inst, witness = generate_instance(cfg)
    written = write_instance(tmp_path, inst, witness)
    names = sorted(p.name for p in written)
    assert names == ["A1.txt", "A2.txt", "B1.txt", "B2.txt", "C.txt", "X0.txt"]
    for k in range(2):
        assert load_matrix(tmp_path / f"A{k + 1}.txt") == inst.A[k]
        assert load_matrix(tmp_path / f"B{k + 1}.txt") == inst.B[k]
    assert load_matrix(tmp_path / "C.txt") == inst.C
    assert load_matrix(tmp_path / "X0.txt") == witness
