"""Brute-force cross-check: solve the vectorised Kronecker system.

Any p-term instance collapses into one max-plus linear system
``K ⊗ vec(X) = vec(C)`` with ``K = ⊕_k kron_max(transpose(B_k), A_k)``
(mn×mn, right Kronecker orientation).  Solving it costs O(p·m²n²) time,
so this path exists to validate the fast solver and to anchor the
benchmark's complexity separation, not for production solving; instances
with mn above ``SIZE_CAP`` are refused before anything is allocated.

:func:`oracle_solve` first offers the whole solve to
``ckernel.LIBRARY.kron_solve``.  The compiled library's call forms K's
entries a few rows at a time where the principal and the substitution use
them, twice, so it never holds K and its peak memory grows with mn; it
gives the composition's bits and the ops are counted by formula, as the
composition would count them.  ``ckernel.NUMPY`` declines every call, and
the compiled call declines one in which a finite sum overflows.  A
declined solve is composed: :func:`kron_max` builds K in numpy, in one
array (a 128 MB K at the cap), the first term in it and every later term
maxed into it a row at a time, and :func:`.solver.linear_principal_solution`
reads it by rows, so no transpose of K is ever made.  A composed solve
peaks at one K and one row of sums with the compiled library's products;
with ``ckernel.NUMPY`` the principal's row of sums takes one more K.  It
raises the error of the step that overflows.
K needs every factor, so the oracle first writes a None factor, the unit
the solver skips, as :func:`max_plus_unit` of its size: the two-sided
terms (A, None), (None, B) give the K, bits, tolerance and ops of
explicit units.  The fast solvers need none of the helpers of this step,
so they live here: :func:`kron_max`, :func:`vec` and :func:`unvec`.
"""

import numpy as np

from . import ckernel
from . import solver  # the scan is called as solver.matrix_mismatches, the name the benchmark tracer patches
from .matrix import (
    NEG_INF,
    ShapeError,
    TropicalMatrix,
    _check_running,
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


def _with_units(inst: SylvesterInstance) -> SylvesterInstance:
    """``inst`` with each None factor written as the unit of its size."""
    return SylvesterInstance(A=[max_plus_unit(inst.m) if A_k is None else A_k for A_k in inst.A],
                             B=[max_plus_unit(inst.n) if B_k is None else B_k for B_k in inst.B], C=inst.C)


def vec(X: TropicalMatrix) -> TropicalMatrix:
    """Stack the columns of X into one (rows·cols)×1 column vector."""
    return TropicalMatrix._wrap(X.data.T.reshape(-1, 1).copy())


def unvec(v: TropicalMatrix, rows: int, cols: int) -> TropicalMatrix:
    """Inverse of :func:`vec`: vec(unvec(v, rows, cols)) == v."""
    if v.cols != 1 or v.rows != rows * cols:
        raise ShapeError(f"cannot unvec {v.shape} into {rows}x{cols}")
    return TropicalMatrix._wrap(np.ascontiguousarray(v.data.reshape(cols, rows).T))


def kron_max(M: TropicalMatrix, N: TropicalMatrix, acc: np.ndarray | None = None):
    """Max-plus Kronecker product: block (i, j) is M[i, j] ⊗ N.

    Cell ``(i·c + r, j·d + s)`` of the product of an a×b M and a c×d N is
    ``M[i, j] + N[r, s]``, or ``-inf`` for ``-inf + +inf``: ``fmax`` turns
    the NaN of that sum into ``-inf``, or lets the running value win over it.
    With ``acc``, a writeable C-contiguous float64 array of the product's
    shape that the caller owns, the product is maxed into ``acc`` in place,
    one row of M by one row of N at a time, and None is returned.  Either
    way it counts one op per cell of the product.  When a finite sum
    overflows, the ValueError leaves ``acc`` partly updated.
    """
    a, b = M.shape
    c, d = N.shape
    if acc is not None:
        _check_running(acc, (a * c, b * d))
    try:
        with np.errstate(invalid="ignore", over="raise"):  # -inf + +inf is NaN; overflow raises
            if acc is None:
                out = (M.data[:, None, :, None] + N.data[:, None, :]).reshape(a * c, b * d)
                np.fmax(out, NEG_INF, out=out)
            else:
                for i in range(a):
                    for r in range(c):
                        row = acc[i * c + r].reshape(b, d)
                        np.fmax(row, np.add.outer(M.data[i], N.data[r]), out=row)
    except FloatingPointError:
        raise ValueError(f"max-plus Kronecker product of {M.shape} and {N.shape} overflows float64: "
                         "a finite sum exceeds the largest double") from None
    semiring_ops.add(a * c * b * d)
    if acc is None:
        return TropicalMatrix._wrap(out)


def _cells(inst: SylvesterInstance) -> int:
    """mn, the size of the Kronecker system, or an OracleSizeError above ``SIZE_CAP``."""
    cells = inst.m * inst.n
    if cells > SIZE_CAP:
        raise OracleSizeError(f"oracle refuses mn={cells} (> cap {SIZE_CAP})")
    return cells


def kron_reformulate(inst: SylvesterInstance):
    """Return (K, c) with K = ⊕_k kron_max(transpose(B_k), A_k), c = vec(C).

    K is one buffer: the first term's own array, into which each later term
    is maxed by :func:`kron_max` itself.  Each term's ⊕ counts one op per
    cell, as if K started at the max-plus zero.  A None factor is the unit.
    """
    cells, inst = _cells(inst), _with_units(inst)
    K = None
    for A_k, B_k in zip(inst.A, inst.B):
        if K is None:
            K = kron_max(transpose(B_k), A_k).data
            K.flags.writeable = True  # kron_max made it for this call alone
        else:
            kron_max(transpose(B_k), A_k, K)
        semiring_ops.add(cells * cells)
    return TropicalMatrix._wrap(K), vec(inst.C)


def oracle_solve(inst: SylvesterInstance) -> SolveReport:
    """Decide solvability on the Kronecker system, reported in C's coordinates."""
    cells, inst = _cells(inst), _with_units(inst)
    served = ckernel.LIBRARY.kron_solve([A_k.data for A_k in inst.A], [B_k.data for B_k in inst.B], inst.C.data)
    if served is None:
        K, c = kron_reformulate(inst)
        x = linear_principal_solution(K, c)
        principal, achieved = unvec(x, inst.m, inst.n), unvec(max_plus_matmul(K, x), inst.m, inst.n)
    else:
        semiring_ops.add(2 * (inst.p + 1) * cells * cells)
        principal, achieved = map(TropicalMatrix._wrap, served)
    eps = effective_tolerance((*inst.A, *inst.B, inst.C))
    return _report(principal, achieved, inst.C, eps)


def oracle_agrees(inst: SylvesterInstance, fast: SolveReport, check: SolveReport) -> bool:
    """True when the oracle's report ``check`` confirms the fast path's ``fast``.

    They must find the same mismatch cells, and their principals must match
    under the tolerance the verdict compared with: the two paths add their
    sums in different orders, so fractional data need not agree bit for bit.
    """
    inst = _with_units(inst)
    eps = effective_tolerance((*inst.A, *inst.B, inst.C))
    return (np.array_equal(check.cells, fast.cells)
            and not len(solver.matrix_mismatches(check.principal, fast.principal, eps)[0]))
