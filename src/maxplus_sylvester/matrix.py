"""Dense matrices over the completed max-plus scalars, and the max-plus kernels.

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

The one kernel with a loop of its own is :func:`max_plus_matmul`.  It
runs the compiled C loop of ``maxplus_product.c`` through the handle
``ckernel.LIBRARY``, and the numpy kernel :func:`_product` when that
handle is None, as it is when no C compiler could build the library; the
numpy kernel also serves the tests as the bit reference.  The C loop starts
each cell at ``-inf`` and takes a sum ``s`` only when ``s > cell``.  The
NaN of ``-inf + +inf`` loses every IEEE comparison, so the mixed-infinity
rule holds with no patch pass; an overflowing sum raises the FPU's
overflow flag, which the loop tests once at the end.  In accumulate mode
(the ``acc`` argument) the C loop starts each cell at the caller's running
value instead, so ``acc ⊕ (P ⊗ Q)`` takes no second pass and no second
array; the numpy kernel forms the product and maxes it into ``acc``.  The
library has no entrywise ⊕ of its own: the solvers fold each term into a
running array this way, and the oracle maxes its Kronecker terms into K
with ``np.maximum``.

The numpy kernel takes blocks of rows of P, forms every sum
``P[i, l] + Q[l, j]`` of a block in one reused buffer and reduces over l
with ``fmax``, which ignores a NaN operand, so NaN acts as the identity;
a cell is still NaN at the end only when every sum of its row and column
was ``-inf + +inf``, and one final pass sets those cells to ``-inf``.
Its one shape rule is orientation: when m > n > 1 it builds
``(Qᵀ ⊗ Pᵀ)ᵀ``, since each reduction step runs along an output row and
short rows make it slow.  Both kernels give the same bits, whatever
their blocking and orientation, as each cell is the max of the same
two-term sums and no ``-0.0`` ever reaches a kernel.

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


# entries in one block of sums, 512 KiB of float64
_BLOCK = 1 << 16


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

    @classmethod
    def max_plus_unit(cls, size: int) -> "TropicalMatrix":
        """Unit of ⊗: zero diagonal, -inf off-diagonal."""
        arr = np.full((size, size), NEG_INF)
        np.fill_diagonal(arr, 0.0)
        return cls(arr)

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


def _guarded(what: str, compute) -> np.ndarray:
    """The array ``compute()`` returns; a finite sum that overflows raises a ValueError naming ``what``."""
    try:
        with np.errstate(invalid="ignore", over="raise"):
            return compute()
    except FloatingPointError:
        raise ValueError(f"{what} overflows float64: a finite sum exceeds the largest double") from None


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
    what = f"max-plus product of {P.shape} by {Q.shape}"
    library = ckernel.LIBRARY
    if acc is None:
        kernel = _product if library is None else library.product
        out = _guarded(what, lambda: kernel(P.data, Q.data))
        semiring_ops.add(m * n * k)
        return TropicalMatrix._wrap(out)
    if acc.shape != (m, n):
        raise ShapeError(f"cannot accumulate a {m}x{n} product into an array of shape {acc.shape}")
    if not (acc.dtype == np.float64 and acc.flags.c_contiguous and acc.flags.writeable):
        raise ValueError("the running array must be writeable, C-contiguous and float64")
    if library is None:
        np.maximum(acc, _guarded(what, lambda: _product(P.data, Q.data)), out=acc)
    else:
        _guarded(what, lambda: library.product(P.data, Q.data, acc))
    semiring_ops.add(m * n * (k + 1))


def _product(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The numpy kernel; under ``np.errstate(over="raise")`` an overflowing sum raises."""
    out = dst = np.empty((p.shape[0], q.shape[1]))
    if p.shape[0] > q.shape[1] > 1:
        p, q, dst = q.T, np.ascontiguousarray(p.T), out.T  # (Qᵀ ⊗ Pᵀ)ᵀ
    m, k = p.shape
    n = q.shape[1]
    rows = max(1, _BLOCK // (k * n))
    # one buffer for all blocks: a fresh 512 KiB array per block costs
    # more in page faults than a small product costs in arithmetic
    buf = np.empty((min(rows, m), k, n))
    for i in range(0, m, rows):
        s = buf[:min(rows, m - i)]
        np.add(p[i:i + rows, :, None], q, out=s)  # s[r, l, j] = p[i+r, l] + q[l, j]
        dst[i:i + rows] = np.fmax.reduce(s, axis=1)  # reducing with out= into a strided out.T is 2x slower
    out[np.isnan(out)] = NEG_INF
    return out


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
    s = _guarded(f"max-plus Kronecker product of {M.shape} and {N.shape}",
                 lambda: M.data[:, None, :, None] + N.data[None, :, None, :])
    s[np.isnan(s)] = NEG_INF  # -inf + +inf
    semiring_ops.add(a * c * b * d)
    return TropicalMatrix._wrap(s.reshape(a * c, b * d))

