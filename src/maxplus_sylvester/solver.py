"""Principal solutions and solvability verdicts via residuation.

For ``A ⊗ x = b`` the greatest x with ``A ⊗ x ≤ b`` is the residual
``x̂ = −(Aᵀ ⊗ (−b))``, the min-plus product ``(−Aᵀ) ⊗' b`` written with
the max-plus kernel and exact negations; the system is solvable exactly
when that greatest candidate satisfies it, so solvability is always
decided by direct substitution.  The same recipe covers p-term
Sylvester sums ``⊕_k A_k ⊗ X ⊗ B_k = C``: the greatest candidate is
``X̂ = −(⊕_k A_kᵀ ⊗ (−C) ⊗ B_kᵀ)``, the substitution routine
:func:`sylvester_apply` run on the transposed factors at ``−C``, in
O(p·(m²n + mn²)) scalar operations.  A factor None is the unit, whose
product is skipped, as ``E ⊗ Y = Y`` bit for bit: :func:`two_sided_instance`
writes ``A ⊗ X ⊕ X ⊗ B = C`` as the terms (A, None), (None, B), which the
solver, the oracle and the CLI all read.  No Kronecker or unit matrix is
ever formed here; that brute-force route lives in :mod:`.oracle`.

No preconditions are imposed on the inputs.  Where no finite bound
meets a cell the candidate keeps ``+inf`` (the cell is unconstrained
upward), and substitution handles it through the kernels'
mixed-infinity rule (see :mod:`.matrix`).

Besides its products a solve makes two passes over the data: the scale
and integrality of the inputs, which set the tolerance, and the scan of
the substituted candidate against C.  Both are calls on
``ckernel.LIBRARY``: the compiled library's (``solver_passes.c``), or,
when there is none, ``ckernel.NUMPY``'s numpy passes, which are the
definition and the tests' bit reference, as its product is for products.

Both forms with terms enter through :func:`solve_sylvester`, which first
offers the whole solve to ``ckernel.LIBRARY.solve``, one compiled call on
the int16 tile.  It serves integer data whose sums all stay exact in
int16 (factors up to 2**9 in magnitude, C up to 3·2**9) at shapes where
that pays.  Such data compares exactly, so no tolerance pass runs; the
report has the bits of the per-product steps, and the ops are counted by
formula, as the products would count them.  A solve it declines runs
:func:`sylvester_principal_solution` and :func:`sylvester_apply`, one
product per factor, with their errors.  :func:`solve_linear` offers a
square ``A ⊗ x = b`` to the same call as the one term (A, None) at C = b.
A rectangular A, or a call declined, keeps the linear form's own steps of
one product each, with no running sum; its principal is the row product
−((−b)ᵀ ⊗ A)ᵀ.
"""

from dataclasses import dataclass

import numpy as np

from . import ckernel
from .matrix import (
    NEG_INF,
    ShapeError,
    TropicalMatrix,
    max_plus_matmul,
    negate,
    transpose,
)
from .opcount import semiring_ops

DEFAULT_TOLERANCE = 1e-9

# Every sum the solvers and the oracle compare has at most five input
# entries, formed by at most four float64 additions whose partial sums
# stay within 2, 3, 4 and 5 times the largest |entry|.  Integers up to
# 2**53 / 5 (about 1.8e15) therefore never round, as float64 holds every
# integer up to 2**53.  Other data rounds each partial sum by at most half
# an ulp, 7 units of np.finfo(float).eps times the largest |entry| in all,
# which ROUNDING_EPS_FACTOR bounds.
EXACT_INTEGER_LIMIT = 2.0 ** 53 / 5
ROUNDING_EPS_FACTOR = 8


@dataclass(frozen=True)
class SylvesterInstance:
    """Data of a p-term equation ⊕_k A_k ⊗ X ⊗ B_k = C.

    All A_k are m×m, all B_k are n×n, C is m×n, p ≥ 1.  A factor may be
    None, the unit of its size, whose product is skipped, but not both of a term's.
    """

    A: tuple[TropicalMatrix | None, ...]
    B: tuple[TropicalMatrix | None, ...]
    C: TropicalMatrix

    def __post_init__(self):
        object.__setattr__(self, "A", tuple(self.A))
        object.__setattr__(self, "B", tuple(self.B))
        if len(self.A) != len(self.B):
            raise ShapeError(f"need as many left factors as right factors, got {len(self.A)} and {len(self.B)}")
        if not self.A:
            raise ShapeError("need at least one term")
        for side, terms, d in (("left", self.A, self.m), ("right", self.B, self.n)):
            for k, F in enumerate(terms):
                if F is not None and F.shape != (d, d):
                    raise ShapeError(f"{side} factor {k} must be {d}x{d} to match C {self.C.shape}, got {F.shape}")
        for k, (A_k, B_k) in enumerate(zip(self.A, self.B)):
            if A_k is None and B_k is None:
                raise ShapeError(f"term {k} has neither a left nor a right factor")

    @property
    def p(self) -> int:
        return len(self.A)

    @property
    def m(self) -> int:
        return self.C.rows

    @property
    def n(self) -> int:
        return self.C.cols


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of a solve: greatest candidate and where substituting it misses.

    ``cells`` is the k×2 integer array of the (row, col) positions where
    the substitution misses the target, in row-major order; the equation
    is solvable exactly when it is empty.  ``residual_max_abs`` is 0.0
    when solvable, the largest absolute finite discrepancy otherwise, and
    +inf when some mismatch involves differing infinity states or a
    finite discrepancy too wide for float64.
    """

    principal: TropicalMatrix
    cells: np.ndarray
    residual_max_abs: float

    @property
    def solvable(self) -> bool:
        return len(self.cells) == 0

    @property
    def mismatches(self) -> tuple[tuple[int, int], ...]:
        """The mismatch cells as sorted (row, col) pairs, built on each read."""
        rows, cols = self.cells.T.tolist()
        return tuple(zip(rows, cols))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SolveReport):
            return NotImplemented
        return (
            self.principal == other.principal
            and np.array_equal(self.cells, other.cells)
            and self.residual_max_abs == other.residual_max_abs
        )


def effective_tolerance(matrices) -> float:
    """The equality tolerance a verdict on these input matrices compares with.

    Integer inputs up to ``EXACT_INTEGER_LIMIT`` in magnitude compare
    exactly (0.0).  Anything else compares with ``DEFAULT_TOLERANCE`` plus
    a bound on float64 rounding at the largest finite |entry|: a sum of
    entries near 1e300 rounds by far more than an absolute 1e-9.
    """
    scale, integral = 0.0, True
    for M in matrices:
        m_scale, m_integral = ckernel.LIBRARY.finite_scale(M.data)
        scale = max(scale, m_scale)
        integral = integral and m_integral
    if integral and scale <= EXACT_INTEGER_LIMIT:
        return 0.0
    return DEFAULT_TOLERANCE + ROUNDING_EPS_FACTOR * float(np.finfo(np.float64).eps) * scale


def matrix_mismatches(achieved: TropicalMatrix, target: TropicalMatrix, eps: float):
    """Positions where ``achieved`` differs from ``target``.

    Finite pairs compare with absolute tolerance ``eps``; infinity states
    must match exactly.  Returns (cells, residual_max_abs), where cells
    is the k×2 array of mismatch positions in row-major order.
    """
    if achieved.shape != target.shape:
        raise ShapeError(f"cannot compare {achieved.shape} with {target.shape}")
    cells, residual = ckernel.LIBRARY.mismatches(achieved.data, target.data, eps)
    cells.flags.writeable = False
    return cells, residual


def _report(principal, achieved, target, eps) -> SolveReport:
    return SolveReport(principal, *matrix_mismatches(achieved, target, eps))


def _check_linear(A: TropicalMatrix, b: TropicalMatrix) -> None:
    if b.cols != 1:
        raise ShapeError(f"right-hand side must be a column vector, got {b.shape}")
    if A.rows != b.rows:
        raise ShapeError(f"system {A.shape} does not match right-hand side {b.shape}")


def linear_principal_solution(A: TropicalMatrix, b: TropicalMatrix) -> TropicalMatrix:
    """Greatest x with A ⊗ x ≤ b, namely −(Aᵀ ⊗ (−b)), formed as −((−b)ᵀ ⊗ A)ᵀ.

    The row form's sums are those of −(Aᵀ ⊗ (−b)) with their two operands
    swapped, so it has that form's bits and ops; it reads A by rows and
    copies no transpose of it.  The oracle solves its Kronecker system with it.
    """
    _check_linear(A, b)
    row = max_plus_matmul(TropicalMatrix._wrap(negate(b).data.reshape(1, -1)), A)
    return negate(TropicalMatrix._wrap(row.data.reshape(-1, 1)))


def solve_linear(A: TropicalMatrix, b: TropicalMatrix) -> SolveReport:
    """Decide A ⊗ x = b by substituting the greatest candidate back.

    A square system is first offered to ``ckernel.LIBRARY.solve`` as the
    one-term instance (A, None) at C = b, which it serves as it serves
    :func:`solve_sylvester`'s terms, counted as the composition's 2·r·c ops.
    A rectangular A, or a call declined, runs the principal, its product
    with A and the two passes.
    """
    _check_linear(A, b)
    served = ckernel.LIBRARY.solve([A.data], [None], b.data) if A.rows == A.cols else None
    if served is None:
        x = linear_principal_solution(A, b)
        achieved = max_plus_matmul(A, x)
        eps = effective_tolerance((A, b))
        return _report(x, achieved, b, eps)
    semiring_ops.add(2 * A.rows * A.cols)
    return _served_report(served)


def sylvester_principal_solution(inst: SylvesterInstance) -> TropicalMatrix:
    """Greatest X with ⊕_k A_k ⊗ X ⊗ B_k ≤ C, namely −(⊕_k A_kᵀ ⊗ (−C) ⊗ B_kᵀ).

    Each term is the min-plus residual (−A_kᵀ) ⊗' C ⊗' (−B_kᵀ) in the same
    association order, and the min over k is the negated max, so the
    result is bit-identical to computing it in min-plus.  A factor may be None.
    """
    A_t = tuple(None if A_k is None else transpose(A_k) for A_k in inst.A)
    B_t = tuple(None if B_k is None else transpose(B_k) for B_k in inst.B)
    return negate(sylvester_apply(A_t, B_t, negate(inst.C)))


def sylvester_apply(A_terms, B_terms, X: TropicalMatrix) -> TropicalMatrix:
    """Evaluate ⊕_k A_k ⊗ X ⊗ B_k at a given X.

    A factor None is the unit, whose product is skipped.  Each term's outer
    product is maxed into one running array that starts at the max-plus
    zero and that only this call holds; it becomes a matrix once every
    term is in, so an overflow leaves no partial sum behind.
    """
    acc = np.full(X.shape, NEG_INF)
    for A_k, B_k in zip(A_terms, B_terms):
        if B_k is None:
            max_plus_matmul(A_k, X, acc)
        else:
            max_plus_matmul(X if A_k is None else max_plus_matmul(A_k, X), B_k, acc)
    return TropicalMatrix._wrap(acc)


def solve_sylvester(inst: SylvesterInstance) -> SolveReport:
    """Decide ⊕_k A_k ⊗ X ⊗ B_k = C by substitution of the greatest candidate."""
    A = [None if A_k is None else A_k.data for A_k in inst.A]
    B = [None if B_k is None else B_k.data for B_k in inst.B]
    factors = [F for F in (*inst.A, *inst.B) if F is not None]
    served = ckernel.LIBRARY.solve(A, B, inst.C.data)
    if served is None:
        X = sylvester_principal_solution(inst)
        achieved = sylvester_apply(inst.A, inst.B, X)
        eps = effective_tolerance((*factors, inst.C))
        return _report(X, achieved, inst.C, eps)
    semiring_ops.add(2 * inst.C.rows * inst.C.cols * (sum(F.rows for F in factors) + len(inst.A)))
    return _served_report(served)


def _served_report(served) -> SolveReport:
    principal, cells, residual = served
    cells.flags.writeable = False
    return SolveReport(TropicalMatrix._wrap(principal), cells, residual)


def two_sided_instance(A: TropicalMatrix, B: TropicalMatrix, C: TropicalMatrix) -> SylvesterInstance:
    """A ⊗ X ⊕ X ⊗ B = C as the two-term instance (A, None), (None, B), whose None is the unit."""
    m, n = C.shape
    if A.shape != (m, m):
        raise ShapeError(f"A must be {m}x{m} to match C {C.shape}, got {A.shape}")
    if B.shape != (n, n):
        raise ShapeError(f"B must be {n}x{n} to match C {C.shape}, got {B.shape}")
    return SylvesterInstance(A=(A, None), B=(None, B), C=C)


def solve_two_sided_special(A: TropicalMatrix, B: TropicalMatrix, C: TropicalMatrix) -> SolveReport:
    """Decide A ⊗ X ⊕ X ⊗ B = C by substitution of X̂ = −(Aᵀ ⊗ (−C) ⊕ (−C) ⊗ Bᵀ)."""
    return solve_sylvester(two_sided_instance(A, B, C))
