import re
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import bruteforce as bf
from maxplus_sylvester import ckernel, instance_io
from maxplus_sylvester.instance_io import (
    GeneratorConfig,
    ParseError,
    format_matrix,
    format_scalar,
    generate_instance,
    load_matrix,
    parse_matrix,
    write_instance,
)
from maxplus_sylvester.matrix import NEG_INF, POS_INF, TropicalMatrix, max_plus_matmul
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


def test_integer_literals_float64_cannot_hold_are_parse_errors():
    # 2**53 + 1 would read silently as 2**53
    for token in ("9007199254740993", "-9007199254740993", "+12345678901234567"):
        with pytest.raises(ParseError, match=f"line 2: .*{re.escape(repr(token))}"):
            parse_matrix(f"1 2\n0 {token}\n")
    # exact integers of any length still read, and so does any other literal
    text = "1 5\n9007199254740992 -100000000000000000000 0000000000000000005 9007199254740993.0 1e20\n"
    assert parse_matrix(text) == M([[2.0**53, -1e20, 5, 2.0**53, 1e20]])
    # format writes integers only below 2**53, so a written file reads back
    big = M([[2.0**53 - 1, 2.0**53, -(2.0**60), 3e20]])
    assert parse_matrix(format_matrix(big)) == big


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


# Matrix texts drawn from fragments of the grammar.  Half of them stay inside
# the C scanner's subset.  In the other half some pieces are reasons for it to
# decline: a literal of 16 or more digits, a decimal, an exponent, NaN, '_', a
# tab, a doubled or stray space, \r, a comment, a header that is signed, wide
# or too large, and row or entry counts that differ from the header's.
_SUBSET_TOKENS = st.one_of(
    st.integers(-(10**15) + 1, 10**15 - 1).map(str),
    st.sampled_from(["-0", "+0", "+5", "000000000000005", "-999999999999999",
                     "inf", "-inf", "+inf", "INF", "Inf", "infinity", "-Infinity", "+iNfInItY"]),
)
_OTHER_TOKENS = st.one_of(
    st.integers(10**15, 10**17).map(str),
    st.sampled_from(["-1000000000000000", "0000000000000005", "9007199254740992", "9007199254740993",
                     "1.5", "-0.25", "2.", ".5", "1e400", "1e+300", "-1E5", "nan", "-NaN", "1_0",
                     "infin", "infinit", "infinityy", "inff", "+", "-", "+-1", "0x10", "5-"]),
)


@st.composite
def _matrix_texts(draw):
    """(text, whether the text is inside the C scanner's subset)."""
    subset = draw(st.booleans())

    def piece(clean, *others):
        return clean if subset else draw(st.sampled_from([clean] * 6 + list(others)))

    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    header = piece(f"{rows} {cols}", f"{rows + 1} {cols}", f"{rows} {cols + 1}", f"{rows - 1} {cols}",
                   f"+{rows} {cols}", f"{rows} {cols} 1", f"{rows}", f"{rows}  {cols}",
                   f"999999999999999 {cols}", f"{'9' * 20} {cols}", "# header")
    lines = [header]
    for _ in range(rows + piece(0, -1, 1)):
        tokens = [draw(_SUBSET_TOKENS) if subset or draw(st.integers(0, 3)) else draw(_OTHER_TOKENS)
                  for _ in range(cols + piece(0, -1, 1))]
        lines.append("".join(token + piece(" ", "  ", "\t", " \t") for token in tokens)[:-1])
    blank_lines = st.sampled_from(["\n", "\n\n", "\n\n\n"])
    text = "".join(line + piece(draw(blank_lines), "\r\n", "\r", " \n", "\n# note\n", "\n \n")
                   for line in lines)
    lead = piece(draw(st.sampled_from(["", "\n", "\n\n"])), "# c\n", " ")
    return lead + (text if draw(st.booleans()) else text.rstrip("\n")), subset


def _outcome(function, *args):
    """The matrix's shape and bits, or the type and text of the parse, decode or file error."""
    try:
        M = function(*args)
    except (ValueError, OSError) as exc:
        return type(exc), str(exc)
    return M.shape, M.data.tobytes()


def _python_alone(function, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ckernel, "LIBRARY", ckernel.NUMPY)
        return function(*args)


@settings(max_examples=400)
@given(_matrix_texts())
# counts that are wrong row by row but right in total, and lone \r line ends
@example(("1 2\n0\n1\n", False))
@example(("2 2\n0 1 -inf\n0\n", False))
@example(("2 2\r0 1\r\r-inf 0\r", False))
@example(("2 1\n0\n\r\n5", False))
def test_parse_matrix_matches_the_python_grammar(drawn):
    text, subset = drawn
    outcome = _outcome(parse_matrix, text)
    assert outcome == _python_alone(_outcome, parse_matrix, text)
    assert _outcome(parse_matrix, text.encode()) == outcome == _python_alone(_outcome, parse_matrix, text.encode())
    if subset and ckernel.LIBRARY is not ckernel.NUMPY:
        assert ckernel.LIBRARY.scan(text.encode()) is not None


def _read_text_then_parse(path):
    # what load_matrix did before it read bytes
    return parse_matrix(Path(path).read_text())


@pytest.mark.parametrize("content", [
    b"1 1\n\xff\n",  # not UTF-8
    "# \u00e9\n1 1\n0\n".encode(),  # a UTF-8 comment
    b"2 2\r\n0 1\r\n-inf 3\r\n",
    b"2 1\r0\r\r5\r",
    b"2 2\r\n0 1\r-inf 3\n",
    b"2 2\n0 1\n-inf 3\n",  # inside the scanner's subset
    b"1 2\n0 1.5\n",
    b"2 1\n0\n",
    b"",
    None,  # a directory
    "missing",
])
def test_load_matrix_reads_a_file_as_read_text_then_parse_did(tmp_path, content):
    path = tmp_path / "m.txt"
    if content is None:
        path.mkdir()
    elif content != "missing":
        path.write_bytes(content)
    outcome = _outcome(load_matrix, path)
    assert outcome == _outcome(_read_text_then_parse, path)
    assert outcome == _python_alone(_outcome, load_matrix, path)
    assert outcome == _outcome(load_matrix, str(path))


@pytest.mark.parametrize("text", ["1 2\n-0 +0\n", "1 3\n-0 -inf +inf\n", "1 2\n-0.0 -0\n"])
def test_parsed_arrays_hold_no_sign_bit_and_are_read_only(text):
    # the scanner's array becomes the matrix with no -0.0 fold and no copy,
    # so it must hold what the constructor would have made of it
    for source in (text, text.encode()):
        for data in (parse_matrix(source).data, _python_alone(parse_matrix, source).data):
            assert not np.signbit(data[np.isfinite(data)]).any()
            assert data.dtype == np.float64 and data.flags.c_contiguous
            assert not data.flags.writeable


def test_loading_an_integer_file_holds_its_bytes_and_one_array(tmp_path):
    if shutil.which("gcc") is None:
        pytest.skip("no C compiler")
    rows = cols = 128
    path = tmp_path / "A.txt"
    instance_io.save_matrix(path, generate_instance(GeneratorConfig(m=rows, n=cols, p=1, seed=5))[0].A[0])
    load_matrix(path)  # anything the first call sets up is not part of a load
    tracemalloc.start()
    try:
        load_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= path.stat().st_size + 8 * rows * cols + 4096


_CELLS = st.one_of(
    st.integers(-(2**53) - 2, 2**53 + 2).map(float),
    st.sampled_from([NEG_INF, POS_INF, 2.0**53 - 1, 2.0**53, -(2.0**53) + 1, -(2.0**53), -0.0,
                     0.5, -2.5, 1e-300, 1e300, -1.7e308, 2.0**63, 2.0**64]),
    st.floats(allow_nan=False),
)


@given(arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5)), elements=_CELLS))
def test_format_matrix_matches_the_format_scalar_join(values):
    # _wrap keeps -0.0, which the constructor would fold, so the writer meets it too
    M = TropicalMatrix._wrap(values)
    want = "".join(" ".join(map(format_scalar, row)) + "\n" for row in values.tolist())
    assert format_matrix(M) == f"{M.rows} {M.cols}\n{want}"
    assert parse_matrix(format_matrix(M)) == M


def test_text_without_a_compiler_runs_in_python(tmp_path, monkeypatch):
    # no cached build and no gcc on PATH, as on a machine without a compiler
    monkeypatch.setattr(ckernel, "CACHE", tmp_path)
    monkeypatch.setenv("PATH", str(tmp_path))
    assert ckernel.load() is None
    monkeypatch.setattr(ckernel, "LIBRARY", ckernel.NUMPY)
    test_parse_matrix_matches_the_python_grammar()
    test_format_matrix_matches_the_format_scalar_join()


def test_c_path_serves_integer_text_when_a_compiler_exists(tmp_path, monkeypatch):
    # a broken build would otherwise pass every test on the Python fallback
    if shutil.which("gcc") is None:
        pytest.skip("no C compiler")

    def python_path(*args):
        raise AssertionError("the Python path ran")

    monkeypatch.setattr(instance_io, "_token_value", python_path)
    monkeypatch.setattr(instance_io, "_decode", python_path)
    monkeypatch.setattr(instance_io, "format_scalar", python_path)
    text = "2 3\n0 -5 +inf\n-inf 999999999999999 -999999999999999\n"
    assert format_matrix(parse_matrix(text)) == text
    (tmp_path / "M.txt").write_text(text)
    assert format_matrix(load_matrix(tmp_path / "M.txt")) == text
    assert parse_matrix("\n2 1\n\n+7\n-INFINITY") == M([[7], [NEG_INF]])
    assert format_matrix(M([[2.0**53 - 1, -0.0]])) == "1 2\n9007199254740991 0\n"


def test_one_switch_sends_products_and_text_to_python(monkeypatch):
    # with no library, integer data that C would take runs in Python on every path
    calls = []

    def counted(name, function):
        def wrapper(*args):
            calls.append(name)
            return function(*args)
        return wrapper

    monkeypatch.setattr(ckernel, "LIBRARY", ckernel.NUMPY)
    monkeypatch.setattr(ckernel.NUMPY, "product", counted("product", ckernel.NUMPY.product))
    monkeypatch.setattr(instance_io, "_token_value", counted("parse", instance_io._token_value))
    monkeypatch.setattr(instance_io, "format_scalar", counted("format", format_scalar))
    X = parse_matrix("2 2\n0 -5\n-inf 7\n")
    assert format_matrix(max_plus_matmul(X, X)) == "2 2\n0 2\n-inf 14\n"
    assert sorted(set(calls)) == ["format", "parse", "product"]
