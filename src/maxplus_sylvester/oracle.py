"""Brute-force cross-check: solve the vectorised Kronecker system.

Any p-term instance collapses into one max-plus linear system
``K ⊗ vec(X) = vec(C)`` with ``K = ⊕_k kron_max(transpose(B_k), A_k)``
(mn×mn, right Kronecker orientation).  Materialising K costs
O(p·m²n²) time and (mn)² memory, so this path exists to validate the
fast solver and to anchor the benchmark's complexity separation, not for
production solving; instances with mn above ``SIZE_CAP`` (a 128 MB K)
are refused before K is allocated.
"""

import numpy as np

from . import solver  # the scan is called as solver.matrix_mismatches, the name the benchmark tracer patches
from .matrix import (
    TropicalMatrix,
    kron_max,
    max_plus_matmul,
    transpose,
    unvec,
    vec,
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
