"""Expected answers computed with plain numpy, independent of the package under test.

Every answer the benchmark receives is checked against these.  They follow
the definitions directly: an entry of a tropical product is the max (or
min) over the inner index of the sums, and ``-inf + +inf`` takes the
absorbing zero of the semiring (-inf for max-plus, +inf for min-plus).  The
greatest candidate of ``max_k A_k X B_k = C`` is the entrywise min over k of
``conj(A_k) C conj(B_k)`` in min-plus, with ``conj(P) = -Pᵀ``.  All benchmark
data is integer-valued, so answers must match bit for bit and the verdict
compares exactly.

The same functions, with :func:`read_matrix`, :func:`format_answer` and
:func:`oracle_terms`, also make each workload's reference request: the job
one request asks of the package, done by this plain code.  The benchmark
times it right after every request on the same instance.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

NEG_INF = -np.inf
POS_INF = np.inf
_BLOCK_ROWS = 4  # bounds the broadcast temporary at 4·k·n doubles
_KRON_ROWS = 256  # rows of the Kronecker matrix built at a time


def product(P, Q, kind):
    """Tropical product of two float arrays; ``kind`` is "max" or "min"."""
    reduce, absorb = (np.max, NEG_INF) if kind == "max" else (np.min, POS_INF)
    out = np.empty((P.shape[0], Q.shape[1]))
    with np.errstate(invalid="ignore"):
        for i in range(0, P.shape[0], _BLOCK_ROWS):
            s = P[i:i + _BLOCK_ROWS, :, None] + Q[None, :, :]
            s[np.isnan(s)] = absorb
            out[i:i + _BLOCK_ROWS] = reduce(s, axis=1)
    return out


def conj(P):
    return 0.0 - P.T


@dataclass(frozen=True)
class Expected:
    """Reference greatest candidate, verdict and sorted mismatch cells."""

    principal: np.ndarray
    solvable: bool
    mismatches: tuple


def _expected(X, achieved, C):
    bad = achieved != C
    return Expected(X, not bad.any(), tuple((int(i), int(j)) for i, j in np.argwhere(bad)))


def expect_terms(A_terms, B_terms, C):
    """p-term sum max_k A_k X B_k = C."""
    X = np.full(C.shape, POS_INF)
    for A, B in zip(A_terms, B_terms):
        X = np.minimum(X, product(product(conj(A), C, "min"), conj(B), "min"))
    achieved = np.full(C.shape, NEG_INF)
    for A, B in zip(A_terms, B_terms):
        achieved = np.maximum(achieved, product(product(A, X, "max"), B, "max"))
    return _expected(X, achieved, C)


def expect_two_sided(A, B, C):
    """A X ⊕ X B = C; unit factors drop out of both the candidate and the substitution."""
    X = np.minimum(product(conj(A), C, "min"), product(C, conj(B), "min"))
    achieved = np.maximum(product(A, X, "max"), product(X, B, "max"))
    return _expected(X, achieved, C)


def expect_linear(A, b):
    """A x = b."""
    x = product(conj(A), b, "min")
    return _expected(x, product(A, x, "max"), b)


def oracle_terms(A_terms, B_terms, C):
    """The p-term answer through the Kronecker system K vec(X) = vec(C).

    ``K = max_k kron(B_kᵀ, A_k)``, so ``K[a·m + i, b·m + k] = max_k B_k[b, a] + A_k[i, k]``
    (vec stacks columns).  K is built a block of rows at a time, twice:
    once for the candidate ``x = conj(K) vec(C)`` in min-plus and once for
    ``K x`` in max-plus.
    """
    m, n = C.shape
    c = C.T.reshape(-1)
    x = np.full(m * n, POS_INF)
    achieved = np.empty(m * n)
    with np.errstate(invalid="ignore"):
        for second in (False, True):
            for lo in range(0, m * n, _KRON_ROWS):
                a, i = np.divmod(np.arange(lo, min(lo + _KRON_ROWS, m * n)), m)
                K = None
                for A, B in zip(A_terms, B_terms):
                    block = (B.T[a][:, :, None] + A[i][:, None, :]).reshape(len(a), m * n)
                    K = block if K is None else np.maximum(K, block)
                if second:
                    s = K + x[None, :]
                    s[np.isnan(s)] = NEG_INF
                    achieved[lo:lo + len(a)] = s.max(axis=1)
                else:
                    s = c[lo:lo + len(a), None] - K
                    s[np.isnan(s)] = POS_INF
                    x = np.minimum(x, s.min(axis=0))
    return _expected(x.reshape(n, m).T, achieved.reshape(n, m).T, C)


def read_matrix(path):
    """One matrix file in the package's text format, read with plain Python."""
    lines = [line for line in Path(path).read_text().splitlines() if line.strip() and not line.lstrip().startswith("#")]
    rows, cols = (int(v) for v in lines[0].split())
    data = np.array([[float(t) for t in line.split()] for line in lines[1:]], dtype=np.float64)
    if data.shape != (rows, cols):
        raise ValueError(f"{path}: declared {rows}x{cols}, read {data.shape}")
    return data


def _token(v):
    if v == NEG_INF:
        return "-inf"
    if v == POS_INF:
        return "+inf"
    return str(int(v)) if v.is_integer() else repr(v)


def _true(flag):
    return "true" if flag else "false"


def format_answer(exp, oracle=None):
    """What ``solve`` prints for an answer without --mismatches; with ``oracle``, what ``solve --oracle`` prints."""
    lines = [f"{exp.principal.shape[0]} {exp.principal.shape[1]}"]
    lines += [" ".join(_token(v) for v in row) for row in exp.principal.tolist()]
    lines.append(f"solvable: {_true(exp.solvable)}")
    if oracle is not None:
        agrees = (np.array_equal(oracle.principal, exp.principal)
                  and (oracle.solvable, oracle.mismatches) == (exp.solvable, exp.mismatches))
        lines.append(f"oracle-agrees: {_true(agrees)}")
    return "\n".join(lines) + "\n"


def two_sided_rhs(A, B, X):
    return np.maximum(product(A, X, "max"), product(X, B, "max"))


def check_report(report, exp, witness=None):
    """Failure reasons for a library SolveReport; empty when it is right."""
    reasons = []
    if bool(report.solvable) != exp.solvable:
        reasons.append("wrong verdict")
    principal = report.principal.data
    if not np.array_equal(principal, exp.principal):
        reasons.append("principal differs from reference")
    elif tuple(report.mismatches) != exp.mismatches:
        reasons.append("mismatch cells differ from reference")
    reasons.extend(_witness_reasons(principal, exp, witness))
    return reasons


def _witness_reasons(principal, exp, witness):
    if witness is None or not exp.solvable or principal.shape != witness.shape:
        return []
    return [] if (witness <= principal).all() else ["witness exceeds principal"]


def parse_stdout(text):
    """Split `solve` stdout into (principal array, verdict, oracle agreement or None); ValueError if malformed."""
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("output does not end with a newline")
    rows, cols = (int(v) for v in lines[0].split(" "))
    body = lines[1:1 + rows]
    tail = lines[1 + rows:-1]
    agrees = None
    if len(tail) == 2 and tail[1] in ("oracle-agrees: true", "oracle-agrees: false"):
        agrees = tail.pop() == "oracle-agrees: true"
    if tail not in (["solvable: true"], ["solvable: false"]):
        raise ValueError(f"unexpected trailer {tail!r}")
    principal = np.array([[float(t) for t in line.split(" ")] for line in body], dtype=np.float64)
    if principal.shape != (rows, cols):
        raise ValueError(f"declared {rows}x{cols}, read {principal.shape}")
    return principal, tail[0] == "solvable: true", agrees


def check_cli(exit_code, stdout, exp, witness=None, oracle=False):
    """Failure reasons for one `solve` invocation without --mismatches, and its oracle agreement.

    With ``oracle`` the invocation had --oracle; the agreement is None when
    its output carries no oracle line (the oracle refused the instance).
    """
    reasons = []
    if exit_code != (0 if exp.solvable else 1):
        reasons.append(f"wrong exit code {exit_code}")
    try:
        principal, solvable, agrees = parse_stdout(stdout)
    except ValueError as exc:
        return reasons + [f"unparseable stdout: {exc}"], None
    if solvable != exp.solvable:
        reasons.append("wrong verdict")
    if not np.array_equal(principal, exp.principal):
        reasons.append("principal differs from reference")
    reasons.extend(_witness_reasons(principal, exp, witness))
    if oracle and agrees is None:
        reasons.append("oracle refused the instance")
    elif agrees is False:
        reasons.append("fast and oracle disagree")
    elif not oracle and agrees is not None:
        reasons.append("oracle line without --oracle")
    return reasons, agrees


def expected_ops(form, m, n, p, with_oracle=False):
    """Counted semiring ops per request, by the formulas of the package README."""
    if form == "linear":
        return 2 * m * m
    ops = 2 * p * (m * m * n + m * n * n + m * n)
    if with_oracle:
        ops += 2 * (p + 1) * (m * n) ** 2
    return ops
