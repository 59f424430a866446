"""Dense matrices over the completed max-plus scalars, the max-plus product and the data movers.

Entries are float64 with ±inf for the infinite states.  ``NEG_INF`` is
the max-plus zero: neutral for ⊕ and absorbing for ⊗.  ``POS_INF`` is
the top element, the value of a residual that nothing bounds.  NaN is
never an entry.  The kernels work in max-plus only; the min-plus dual
is reached by negation, which is exact in IEEE arithmetic (see
:func:`negate`).  NaN never enters or leaves a kernel: the only IEEE sum
that produces it, ``-inf + +inf``, yields the max-plus zero, so
``-inf ⊗ +inf = -inf``.  This mixed-infinity rule is what keeps the
residuation law ``A ⊗ x ≤ b  ⟺  x ≤ −(Aᵀ ⊗ (−b))`` true for arbitrary
inputs, not just finite ones.

The one kernel with a loop of its own is :func:`max_plus_matmul`; the
rest of the module is the matrix type and the data movers :func:`negate`
and :func:`transpose`.  The Kronecker product and the column stacking
that only the brute-force check needs live in :mod:`.oracle`.  The kernel
is ``ckernel.LIBRARY.product``: the compiled C loop of
``maxplus_product.c``, or the numpy kernel ``ckernel.NUMPY.product`` when
no C compiler could build the library (see :class:`.ckernel.Numpy`); the
numpy kernel also serves the tests as the bit reference.  The C loop starts
each cell at ``-inf`` and takes a sum ``s`` only when ``s > cell``.  The
NaN of ``-inf + +inf`` loses every IEEE comparison, so the mixed-infinity
rule holds with no patch pass; an overflowing sum raises the FPU's
overflow flag, which the loop tests once at the end.  Products of small
integer data may run the same tile in int16, with ±inf as codes that keep
these rules, and decode to the same bits; the C loop alone decides, from
the entries and the shape, which tile runs (the header of
``maxplus_product.c`` gives the codes and the rule).  In accumulate mode
(the ``acc`` argument) the C loop starts each cell at the caller's running
value instead, so ``acc ⊕ (P ⊗ Q)`` takes no second pass and no second
array.  The library has no entrywise ⊕ of its own: the solvers fold each
term into a running array this way, and the oracle's :func:`.oracle.kron_max`
maxes each Kronecker term into K in place, with the same check on K.

A sum of finite entries that overflows float64 would read as an
infinity state; the kernels refuse it with a ValueError instead.
Integer-valued inputs stay exact while their sums stay below 2**53:
every kernel is built from additions and comparisons only.
"""

import numpy as np

from . import ckernel
from .opcount import semiring_ops

NEG_INF = float("-inf")
POS_INF = float("inf")


class ShapeError(ValueError):
    """Operand shapes do not fit the requested operation."""


def _check_shape(shape) -> None:
    if shape[0] < 1 or shape[1] < 1:
        raise ShapeError(f"matrix needs at least one row and one column, got shape {shape}")


class TropicalMatrix:
    """Dense rows×cols matrix of extended reals, immutable, no NaN."""

    __slots__ = ("data",)

    def __init__(self, entries):
        arr = np.array(entries, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"matrix entries must be 2-dimensional, got ndim={arr.ndim}")
        _check_shape(arr.shape)
        if np.isnan(arr).any():
            raise ValueError("matrix entries may not be NaN")
        arr += 0.0  # folds -0.0 into +0.0 so formatting is canonical
        arr.flags.writeable = False
        self.data = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "TropicalMatrix":
        # kernels hand over arrays they own and have already sanitised
        obj = object.__new__(cls)
        arr.flags.writeable = False
        obj.data = arr
        return obj

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def tolist(self) -> list[list[float]]:
        return self.data.tolist()

    def __eq__(self, other) -> bool:
        if not isinstance(other, TropicalMatrix):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self.data, other.data))

    __hash__ = None

    def __repr__(self) -> str:
        return f"TropicalMatrix({self.tolist()!r})"


def _check_running(acc: np.ndarray, shape: tuple[int, int]) -> None:
    """Refuse a running array a product of ``shape`` cannot be maxed into in place."""
    if acc.shape != shape:
        raise ShapeError(f"cannot accumulate a {shape[0]}x{shape[1]} product into an array of shape {acc.shape}")
    if not (acc.dtype == np.float64 and acc.flags.c_contiguous and acc.flags.writeable):
        raise ValueError("the running array must be writeable, C-contiguous and float64")


def max_plus_matmul(P: TropicalMatrix, Q: TropicalMatrix, acc: np.ndarray | None = None):
    """out[i, j] = max_l (P[i, l] + Q[l, j]).

    With ``acc``, a writeable C-contiguous float64 array of the product's
    shape that the caller owns, the product is maxed into ``acc`` in place
    and None is returned; the ⊕ counts one more op per cell.  When a finite
    sum overflows, the ValueError leaves ``acc`` partly updated, so a caller
    must not wrap it.
    """
    if P.cols != Q.rows:
        raise ShapeError(f"cannot multiply {P.shape} by {Q.shape}: inner dimensions differ")
    m, k = P.shape
    n = Q.cols
    if acc is not None:
        _check_running(acc, (m, n))
    try:
        out = ckernel.LIBRARY.product(P.data, Q.data, acc)
    except FloatingPointError:
        raise ValueError(f"max-plus product of {P.shape} by {Q.shape} overflows float64: "
                         "a finite sum exceeds the largest double") from None
    if acc is None:
        semiring_ops.add(m * n * k)
        return TropicalMatrix._wrap(out)
    semiring_ops.add(m * n * (k + 1))


def negate(A: TropicalMatrix) -> TropicalMatrix:
    """Entrywise ``0.0 - x``: exact, swaps ±inf, and maps 0 to +0.0, never -0.0.

    Negation is the bridge to the min-plus dual:
    ``min_l (−A[l, i] + b[l]) = −max_l (A[l, i] + (−b[l]))`` holds bit for
    bit, infinities included, so residuals are computed with the max-plus
    kernels alone.
    """
    return TropicalMatrix._wrap(0.0 - A.data)


def transpose(A: TropicalMatrix) -> TropicalMatrix:
    return TropicalMatrix._wrap(np.ascontiguousarray(A.data.T))
