"""Pure-Python scalar-loop references, independent of the library kernels.

The matrix routines work on plain lists of floats and re-implement the
mixed-infinity conventions from scratch so the numpy-backed kernels are
checked against a genuinely separate path.  The closing section holds
the benchmark's cost formulas and the slope fit its tests check with.
"""

import numpy as np

NEG = float("-inf")
POS = float("inf")


def mul_max(a, b):
    if a == NEG or b == NEG:
        return NEG
    s = a + b
    if s in (NEG, POS) and a not in (NEG, POS) and b not in (NEG, POS):
        raise OverflowError(f"{a!r} + {b!r} overflows float64")
    return s


def mul_min(a, b):
    if a == POS or b == POS:
        return POS
    return a + b


def shape(M):
    return len(M), len(M[0])


def max_plus_matmul(P, Q):
    m, k = shape(P)
    _, n = shape(Q)
    return [[max(mul_max(P[i][l], Q[l][j]) for l in range(k)) for j in range(n)] for i in range(m)]


def min_plus_matmul(P, Q):
    m, k = shape(P)
    _, n = shape(Q)
    return [[min(mul_min(P[i][l], Q[l][j]) for l in range(k)) for j in range(n)] for i in range(m)]


def max_plus_matadd(P, Q):
    return [[max(a, b) for a, b in zip(prow, qrow)] for prow, qrow in zip(P, Q)]


def min_plus_matadd(P, Q):
    return [[min(a, b) for a, b in zip(prow, qrow)] for prow, qrow in zip(P, Q)]


def conjugate(A):
    m, n = shape(A)
    return [[0.0 - A[i][j] for i in range(m)] for j in range(n)]


def transpose(A):
    m, n = shape(A)
    return [[A[i][j] for i in range(m)] for j in range(n)]


def vec(X):
    m, n = shape(X)
    return [[X[i][j]] for j in range(n) for i in range(m)]


def unvec(v, rows, cols):
    return [[v[j * rows + i][0] for j in range(cols)] for i in range(rows)]


def kron_max(M, N):
    a, b = shape(M)
    c, d = shape(N)
    return [[mul_max(M[i // c][j // d], N[i % c][j % d]) for j in range(b * d)] for i in range(a * c)]


def kron_min(M, N):
    a, b = shape(M)
    c, d = shape(N)
    return [[mul_min(M[i // c][j // d], N[i % c][j % d]) for j in range(b * d)] for i in range(a * c)]


def leq(P, Q):
    return all(a <= b for prow, qrow in zip(P, Q) for a, b in zip(prow, qrow))


def axb_principal(A, B, C):
    return min_plus_matmul(min_plus_matmul(conjugate(A), C), conjugate(B))


def sylvester_principal(A_terms, B_terms, C):
    acc = None
    for A, B in zip(A_terms, B_terms):
        term = axb_principal(A, B, C)
        acc = term if acc is None else min_plus_matadd(acc, term)
    return acc


def sylvester_apply(A_terms, B_terms, X):
    acc = None
    for A, B in zip(A_terms, B_terms):
        term = max_plus_matmul(max_plus_matmul(A, X), B)
        acc = term if acc is None else max_plus_matadd(acc, term)
    return acc


def two_sided_principal(A, B, C):
    """Greatest X with A ⊗ X ⊕ X ⊗ B ≤ C: the min of the two one-sided residuals."""
    return min_plus_matadd(min_plus_matmul(conjugate(A), C), min_plus_matmul(C, conjugate(B)))


def two_sided_apply(A, B, X):
    return max_plus_matadd(max_plus_matmul(A, X), max_plus_matmul(X, B))


def random_entries(rng, rows, cols, low=-10, high=10, neg_density=0.0, pos_density=0.0):
    """Integer-valued list-of-lists with optional ±inf entries."""
    out = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            u = rng.random()
            if u < neg_density:
                row.append(NEG)
            elif u < neg_density + pos_density:
                row.append(POS)
            else:
                row.append(float(rng.integers(low, high, endpoint=True)))
        out.append(row)
    return out


def fast_op_budget(m, n, p):
    """Exact counted operations of one fast solve: 2·p·(m²n + mn² + mn)."""
    return 2 * p * (m * m * n + m * n * n + m * n)


def oracle_op_budget(m, n, p):
    """Exact counted operations of one oracle solve: 2·(p+1)·(mn)²."""
    return 2 * (p + 1) * (m * n) ** 2


def loglog_slope(xs, ys):
    """Least-squares slope of log(ys) against log(xs)."""
    return float(np.polyfit(np.log(np.asarray(xs, dtype=float)), np.log(np.asarray(ys, dtype=float)), 1)[0])
