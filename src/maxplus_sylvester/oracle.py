"""Brute-force cross-check: solve the vectorised Kronecker system.

Any p-term instance collapses into one max-plus linear system
``K ⊗ vec(X) = vec(C)`` with ``K = ⊕_k kron_max(transpose(B_k), A_k)``
(mn×mn, right Kronecker orientation).  Materialising K costs
O(p·m²n²) time and (mn)² memory, so this path exists to validate the
fast solver and to anchor the benchmark's complexity separation, not for
production solving; instances above the size cap are refused unless the
caller raises it.
"""

from .matrix import (
    NEG_INF,
    TropicalMatrix,
    kron_max,
    max_plus_matadd,
    max_plus_matmul,
    transpose,
    unvec,
    vec,
)
from .solver import (
    SolveReport,
    SylvesterInstance,
    _report,
    effective_tolerance,
    linear_principal_solution,
)

DEFAULT_SIZE_CAP = 4096


class OracleSizeError(ValueError):
    """The instance's mn exceeds the oracle's size cap."""


def _check_cap(inst: SylvesterInstance, size_cap) -> None:
    cells = inst.m * inst.n
    if size_cap is not None and cells > size_cap:
        raise OracleSizeError(
            f"oracle refuses mn={cells} (> cap {size_cap}); pass a larger size_cap to override"
        )


def kron_reformulate(inst: SylvesterInstance, size_cap=DEFAULT_SIZE_CAP):
    """Return (K, c) with K = ⊕_k kron_max(transpose(B_k), A_k), c = vec(C)."""
    _check_cap(inst, size_cap)
    cells = inst.m * inst.n
    K = TropicalMatrix.filled(cells, cells, NEG_INF)
    for A_k, B_k in zip(inst.A, inst.B):
        K = max_plus_matadd(K, kron_max(transpose(B_k), A_k))
    return K, vec(inst.C)


def oracle_solve(inst: SylvesterInstance, tolerance=None, size_cap=DEFAULT_SIZE_CAP) -> SolveReport:
    """Decide solvability on the Kronecker system, reported in C's coordinates."""
    K, c = kron_reformulate(inst, size_cap)
    x = linear_principal_solution(K, c)
    achieved = max_plus_matmul(K, x)
    eps = effective_tolerance(tolerance, (*inst.A, *inst.B, inst.C))
    return _report(unvec(x, inst.m, inst.n), unvec(achieved, inst.m, inst.n), inst.C, eps)
