"""Brute-force cross-check: solve the vectorised Kronecker system.

Any p-term instance collapses into one max-plus linear system
``K ⊗ vec(X) = vec(C)`` with ``K = ⊕_k kron_max(transpose(B_k), A_k)``
(mn×mn, right Kronecker orientation).  Materialising K costs
O(p·m²n²) time and (mn)² memory, so this path exists to validate the
fast solver and to anchor the benchmark's complexity separation, not for
production solving; instances with mn above ``SIZE_CAP`` (a 128 MB K)
are refused before K is allocated.  The fast solvers need none of the
helpers of this step, so they live here: :func:`kron_max`, :func:`vec`,
:func:`unvec`, and :func:`two_sided_instance`, which writes the
two-sided form with unit factors.
"""

import numpy as np

from . import solver  # the scan is called as solver.matrix_mismatches, the name the benchmark tracer patches
from .matrix import (
    NEG_INF,
    ShapeError,
    TropicalMatrix,
    max_plus_matmul,
    transpose,
)
from .opcount import semiring_ops
from .solver import (
    SolveReport,
    SylvesterInstance,
    _report,
    effective_tolerance,
    linear_principal_solution,
)

SIZE_CAP = 4096


class OracleSizeError(ValueError):
    """The instance's mn exceeds ``SIZE_CAP``."""


def max_plus_unit(size: int) -> TropicalMatrix:
    """Unit of ⊗: zero diagonal, -inf off-diagonal."""
    arr = np.full((size, size), NEG_INF)
    np.fill_diagonal(arr, 0.0)
    return TropicalMatrix(arr)


def two_sided_instance(A: TropicalMatrix, B: TropicalMatrix, C: TropicalMatrix) -> SylvesterInstance:
    """A ⊗ X ⊕ X ⊗ B = C rewritten as a two-term instance with unit factors."""
    return SylvesterInstance(A=(A, max_plus_unit(C.rows)), B=(max_plus_unit(C.cols), B), C=C)


def vec(X: TropicalMatrix) -> TropicalMatrix:
    """Stack the columns of X into one (rows·cols)×1 column vector."""
    return TropicalMatrix._wrap(X.data.T.reshape(-1, 1).copy())


def unvec(v: TropicalMatrix, rows: int, cols: int) -> TropicalMatrix:
    """Inverse of :func:`vec`: vec(unvec(v, rows, cols)) == v."""
    if v.cols != 1 or v.rows != rows * cols:
        raise ShapeError(f"cannot unvec {v.shape} into {rows}x{cols}")
    return TropicalMatrix._wrap(np.ascontiguousarray(v.data.reshape(cols, rows).T))


def kron_max(M: TropicalMatrix, N: TropicalMatrix) -> TropicalMatrix:
    """Max-plus Kronecker product: block (i, j) is M[i, j] ⊗ N."""
    a, b = M.shape
    c, d = N.shape
    try:
        with np.errstate(invalid="ignore", over="raise"):  # -inf + +inf is NaN; overflow raises
            s = M.data[:, None, :, None] + N.data[None, :, None, :]
    except FloatingPointError:
        raise ValueError(f"max-plus Kronecker product of {M.shape} and {N.shape} overflows float64: "
                         "a finite sum exceeds the largest double") from None
    s[np.isnan(s)] = NEG_INF  # -inf + +inf
    semiring_ops.add(a * c * b * d)
    return TropicalMatrix._wrap(s.reshape(a * c, b * d))


def kron_reformulate(inst: SylvesterInstance):
    """Return (K, c) with K = ⊕_k kron_max(transpose(B_k), A_k), c = vec(C).

    K is one buffer: the first term's own array, into which each later term
    is maxed.  Each term's ⊕ counts one op per cell, as if K started at the
    max-plus zero.
    """
    cells = inst.m * inst.n
    if cells > SIZE_CAP:
        raise OracleSizeError(f"oracle refuses mn={cells} (> cap {SIZE_CAP})")
    K = None
    for A_k, B_k in zip(inst.A, inst.B):
        # no name holds a term past its max, so one term at a time is alive
        if K is None:
            K = kron_max(transpose(B_k), A_k).data
            K.flags.writeable = True  # kron_max made it for this call alone
        else:
            np.maximum(K, kron_max(transpose(B_k), A_k).data, out=K)
        semiring_ops.add(cells * cells)
    return TropicalMatrix._wrap(K), vec(inst.C)


def oracle_solve(inst: SylvesterInstance) -> SolveReport:
    """Decide solvability on the Kronecker system, reported in C's coordinates."""
    K, c = kron_reformulate(inst)
    x = linear_principal_solution(K, c)
    achieved = max_plus_matmul(K, x)
    eps = effective_tolerance((*inst.A, *inst.B, inst.C))
    return _report(unvec(x, inst.m, inst.n), unvec(achieved, inst.m, inst.n), inst.C, eps)


def oracle_agrees(inst: SylvesterInstance, fast: SolveReport, check: SolveReport) -> bool:
    """True when the oracle's report ``check`` confirms the fast path's ``fast``.

    They must find the same mismatch cells, and their principals must match
    under the tolerance the verdict compared with: the two paths add their
    sums in different orders, so fractional data need not agree bit for bit.
    """
    eps = effective_tolerance((*inst.A, *inst.B, inst.C))
    return (np.array_equal(check.cells, fast.cells)
            and not len(solver.matrix_mismatches(check.principal, fast.principal, eps)[0]))
