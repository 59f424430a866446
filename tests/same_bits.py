"""A seeded corpus of solver and CLI outputs, hashed to one sha256 digest.

The corpus draws instances of five data kinds with ±inf mixed in: small
integers, one-decimal values, ±1e300, values whose sums overflow
(±1.7e308) and floats in ±1e3.  Odd seeds are solvable by construction,
C = sylvester_apply(A, B, X0).  m·n stays at most 256, so the Kronecker
oracle runs on every instance.  Each instance goes through the four solve
entry points; a subset also goes through the in-process ``solve`` CLI in
every form and flag set.  ``generate`` runs in both modes, and the usage
errors run too, and so does ``solve`` on hand-written matrix files: comments,
``\r\n``, tabs, decimals, exponents, long literals, bad counts and the other
texts the compiled scanner leaves to the Python parser.  A record keeps
the principal's bytes, the mismatch ``cells``, ``residual_max_abs`` and the
op count, or the error's type and text; a CLI record keeps the exit code, stdout and stderr (not argparse's
own messages, whose layout changes between Python versions).

``tests/same_bits.sha256`` holds the digest every kernel must give.  A
change meant to alter an output must record the new digest and why.  Run
``PYTHONPATH=src python tests/same_bits.py`` to print the digest and, for
each kind of record, its count and a sub-digest of its records alone, so
a changed digest shows which kinds moved.
"""

import contextlib
import hashlib
import io
import tempfile
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from maxplus_sylvester import cli, opcount
from maxplus_sylvester.instance_io import save_matrix
from maxplus_sylvester.matrix import NEG_INF, POS_INF, TropicalMatrix
from maxplus_sylvester.oracle import max_plus_unit, oracle_solve
from maxplus_sylvester.solver import (
    SylvesterInstance,
    solve_linear,
    solve_sylvester,
    solve_two_sided_special,
    sylvester_apply,
)

DIGEST_FILE = Path(__file__).with_name("same_bits.sha256")
INSTANCES = 300
CLI_INSTANCES = 40  # the first ones also run through the CLI
CLI_FLAGS = ([], ["--mismatches"], ["--oracle"], ["--oracle", "--mismatches"])

KINDS = {
    "integer": lambda rng, shape: rng.integers(-10, 11, shape).astype(float),
    "one-decimal": lambda rng, shape: rng.integers(-100, 101, shape) / 10,
    "1e300": lambda rng, shape: rng.uniform(-1e300, 1e300, shape),
    "overflowing": lambda rng, shape: rng.choice([1.7e308, -1.7e308, 0.0, 1.0], shape),
    "float": lambda rng, shape: rng.uniform(-1e3, 1e3, shape),
}


def entries(rng, kind, shape, infinities=True):
    values = KINDS[kind](rng, shape)
    if infinities:
        u = rng.random(shape)
        values[u < 0.15] = NEG_INF
        values[(u >= 0.15) & (u < 0.2)] = POS_INF
    return TropicalMatrix(values)


def _instance(seed):
    """(kind, instance) for ``seed``, or (kind, error text) when C cannot be formed."""
    rng = np.random.default_rng(seed)
    kind = list(KINDS)[seed % len(KINDS)]
    m = int(rng.integers(1, 41))
    n = int(rng.integers(1, 256 // m + 1))
    p = int(rng.integers(1, 4))
    A = [entries(rng, kind, (m, m)) for _ in range(p)]
    B = [entries(rng, kind, (n, n)) for _ in range(p)]
    if seed % 2:
        try:
            C = sylvester_apply(A, B, entries(rng, kind, (m, n), infinities=False))
        except ValueError as exc:
            return kind, f"{type(exc).__name__}: {exc}"
    else:
        C = entries(rng, kind, (m, n))
    return kind, SylvesterInstance(A=A, B=B, C=C)


def _outcome(solve, *args) -> bytes:
    before = opcount.semiring_ops.total
    try:
        report = solve(*args)
    except ValueError as exc:
        return f"error {type(exc).__name__}: {exc}".encode()
    cells = np.ascontiguousarray(report.cells, dtype=np.int64)
    return b" ".join([report.principal.data.tobytes(), cells.tobytes(),
                      report.residual_max_abs.hex().encode(),
                      str(opcount.semiring_ops.total - before).encode()])


def _cli(argv, tmp, keep_stderr=True) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    stderr = err.getvalue().replace(str(tmp), "<dir>") if keep_stderr else ""
    return f"{code}\n{out.getvalue()}\n{stderr}".encode()


def _cli_records(inst, tmp):
    for k in range(inst.p):
        save_matrix(tmp / f"A{k}.txt", inst.A[k])
        save_matrix(tmp / f"B{k}.txt", inst.B[k])
    save_matrix(tmp / "C.txt", inst.C)
    save_matrix(tmp / "b.txt", TropicalMatrix(inst.C.data[:, :1]))
    terms = [arg for k in range(inst.p) for arg in ("--a", tmp / f"A{k}.txt", "--b", tmp / f"B{k}.txt")]
    forms = {
        "sylvester": terms + ["--c", tmp / "C.txt"],
        "linear": ["--form", "linear", "--a", tmp / "A0.txt", "--c", tmp / "b.txt"],
        "two-sided": ["--form", "two-sided", "--a", tmp / "A0.txt", "--b", tmp / "B0.txt",
                      "--c", tmp / "C.txt"],
    }
    for form, argv in forms.items():
        for flags in CLI_FLAGS:
            yield f"cli solve {form} {' '.join(flags)}", _cli(["solve", *argv, *flags], tmp)


def _usage_records(tmp):
    save_matrix(tmp / "E.txt", TropicalMatrix([[0.0, 1.0], [NEG_INF, 0.0]]))
    save_matrix(tmp / "F.txt", TropicalMatrix([[2.0]]))
    (tmp / "bad.txt").write_text("2 2\n1 2\n3\n")
    E, F, bad = tmp / "E.txt", tmp / "F.txt", tmp / "bad.txt"
    # argparse's own errors: only the exit code and stdout are kept
    for argv in ([], ["frobnicate"], ["solve"], ["solve", "--c", E, "--tolerance", "1"],
                 ["solve", "--c", E, "--oracle-cap", "5"], ["solve", "--form", "cubic", "--c", E],
                 ["generate", "--out", tmp / "g", "--m", "x", "--n", "1", "--p", "1"]):
        yield "cli usage (argparse)", _cli(argv, tmp, keep_stderr=False)
    for argv in (["solve", "--a", E, "--c", E],
                 ["solve", "--form", "linear", "--a", E, "--b", E, "--c", F],
                 ["solve", "--form", "linear", "--a", E, "--c", F, "--oracle"],
                 ["solve", "--form", "two-sided", "--a", E, "--c", E],
                 ["solve", "--a", tmp / "missing.txt", "--b", E, "--c", E],
                 ["solve", "--a", E, "--b", F, "--c", E],
                 ["solve", "--a", bad, "--b", E, "--c", E],
                 ["generate", "--out", tmp / "g", "--m", "0", "--n", "2", "--p", "1"],
                 ["bench", "--m", "4", "--n", "4", "--p", "1", "--reps", "2"],
                 ["bench", "--m", "0", "--n", "4", "--p", "1"]):
        yield "cli usage", _cli(argv, tmp)


# Hand-written matrix files.  Most hold a byte, a token or a count that the
# compiled scanner declines, so the Python parser reads the whole text; the
# rest stay inside the scanner's subset.  Each file is read as C with unit
# factors, so the principal is C itself and every token is formatted back.
TEXTS = {
    "comment": b"# note\n2 2\n0 1\n-inf 0\n",
    "crlf": b"2 2\r\n0 1\r\n-inf 0\r\n",
    "tab": b"2 2\n0\t1\n-inf 0\n",
    "decimal": b"2 2\n0 1.5\n-inf -0.25\n",
    "exponent": b"2 2\n0 1e+300\n-inf 0\n",
    "underscore": b"2 2\n0 1_0\n-inf 0\n",
    "16 digits": b"2 2\n0 1000000000000000\n-inf 0\n",
    "2**53": b"2 2\n0 9007199254740992\n-inf 0\n",
    "2**53 + 1": b"2 2\n0 9007199254740993\n-inf 0\n",
    "nan": b"2 2\n0 nan\n-inf 0\n",
    "1e400": b"2 2\n0 1e400\n-inf 0\n",
    "spaces": b"2 2\n 0  1 \n-inf 0\n",
    "header sign": b"+2 2\n0 1\n-inf 0\n",
    "header width": b"2 2 2\n0 1\n-inf 0\n",
    "zero rows": b"0 2\n",
    "empty": b"",
    "too few rows": b"3 2\n0 1\n-inf 0\n",
    "too many rows": b"1 2\n0 1\n-inf 0\n",
    "too few entries": b"2 2\n0\n-inf 0\n",
    "too many entries": b"2 2\n0 1 2\n-inf 0\n",
    "entries across rows": b"2 2\n0 1 -inf\n0\n",
    "15 digits": b"2 2\n999999999999999 -999999999999999\n-inf 0\n",
    "signs and infinities": b"2 2\n+5 -0\nINFINITY -Inf\n",
    "blank lines, no last newline": b"\n2 2\n\n0 1\n\n+inf 0",
}


def _text_records(tmp):
    save_matrix(tmp / "U.txt", max_plus_unit(2))
    for name, text in TEXTS.items():
        (tmp / "text.txt").write_bytes(text)
        argv = ["solve", "--a", tmp / "U.txt", "--b", tmp / "U.txt", "--c", tmp / "text.txt", "--mismatches"]
        yield "cli solve text", name.encode() + b"\n" + _cli(argv, tmp)


def _generate_records(tmp):
    for mode in ("solvable", "raw"):
        for seed in (7, 2**63 + 5):
            out = tmp / f"gen-{mode}-{seed}"
            record = _cli(["generate", "--out", out, "--m", 5, "--n", 7, "--p", 2,
                           "--seed", seed, "--mode", mode], tmp)
            files = b"".join(path.name.encode() + path.read_bytes() for path in sorted(out.iterdir()))
            yield "cli generate", record + files


def records():
    """(kind, bytes) for every record of the corpus, in a fixed order."""
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for seed in range(INSTANCES):
            kind, inst = _instance(seed)
            if isinstance(inst, str):
                yield "instance refused at construction", inst.encode()
                continue
            yield "instance", f"{seed} {kind} {inst.m} {inst.n} {inst.p}".encode()
            A1, B1, C = inst.A[0], inst.B[0], inst.C
            yield "sylvester", _outcome(solve_sylvester, inst)
            yield "two_sided", _outcome(solve_two_sided_special, A1, B1, C)
            yield "linear", _outcome(solve_linear, A1, TropicalMatrix(C.data[:, :1]))
            yield "oracle", _outcome(oracle_solve, inst)
            if seed < CLI_INSTANCES:
                yield from _cli_records(inst, tmp)
        yield from _generate_records(tmp)
        yield from _usage_records(tmp)
        yield from _text_records(tmp)


def digest():
    """(sha256 hex digest of the corpus, records per kind, sha256 hex digest of each kind's records)."""
    h, counts, parts = hashlib.sha256(), Counter(), defaultdict(hashlib.sha256)
    for kind, record in records():
        counts[kind] += 1
        framed = kind.encode() + b"\0" + len(record).to_bytes(8, "little") + record
        h.update(framed)
        parts[kind].update(framed)
    return h.hexdigest(), counts, {kind: part.hexdigest() for kind, part in parts.items()}


if __name__ == "__main__":
    value, counts, parts = digest()
    print(value)
    for kind, count in sorted(counts.items()):
        print(f"{count:6d} {parts[kind]} {kind}")
