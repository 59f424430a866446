"""Dense matrices over the completed max-plus scalars, and the max-plus kernels.

Entries are float64 with ±inf for the infinite states.  The kernels work
in max-plus only; the min-plus dual is reached by negation, which is
exact in IEEE arithmetic (see :func:`negate`).  NaN never enters or
leaves a kernel: the only IEEE sum that produces it, ``-inf + +inf``, is
patched to the max-plus zero, so ``-inf ⊗ +inf = -inf``.  This
mixed-infinity rule is what keeps the residuation law
``A ⊗ x ≤ b  ⟺  x ≤ −(Aᵀ ⊗ (−b))`` true for arbitrary inputs, not just
finite ones.

:func:`max_plus_matmul` applies the rule without a patch pass per step.
Its running maxima use ``fmax``, which ignores a NaN operand, so NaN
acts as the identity; a cell is still NaN at the end only when every sum
of its row and column was ``-inf + +inf``, and one final pass sets those
cells to ``-inf``.  A product with two or more output columns
accumulates rank-1 updates ``out = fmax(out, P[:, l] + Q[l, :])`` over
blocks of the inner index.  A product with one output column (``n == 1``,
a matrix-vector product) instead adds ``q`` to blocks of rows of P and
reduces each row: a rank-1 loop would read P column by column, and on
768 and 1024 rows it takes 3 to 5 times as long.  The choice depends on
the operand shapes only, and both paths return the same bits, since a
max does not depend on the order of its terms.

A sum of finite entries that overflows float64 would read as an
infinity state; the kernels refuse it with a ValueError instead.
Integer-valued inputs stay exact while their sums stay below 2**53:
every kernel is built from additions and comparisons only.
"""

import math

import numpy as np

from .opcount import semiring_ops
from .semiring import NEG_INF


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
    def filled(cls, rows: int, cols: int, value: float) -> "TropicalMatrix":
        """rows×cols matrix with every entry ``value``; only the one scalar is checked."""
        value = float(value)
        if math.isnan(value):
            raise ValueError("matrix entries may not be NaN")
        _check_shape((rows, cols))
        return cls._wrap(np.full((rows, cols), value + 0.0))  # + 0.0 folds -0.0

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


def _require_same_shape(P: TropicalMatrix, Q: TropicalMatrix, op: str) -> None:
    if P.shape != Q.shape:
        raise ShapeError(f"{op} needs equal shapes, got {P.shape} and {Q.shape}")


def _overflow_error(what: str) -> ValueError:
    return ValueError(f"{what} overflows float64: a finite sum exceeds the largest double")


def max_plus_matmul(P: TropicalMatrix, Q: TropicalMatrix) -> TropicalMatrix:
    """out[i, j] = max_l (P[i, l] + Q[l, j])."""
    if P.cols != Q.rows:
        raise ShapeError(f"cannot multiply {P.shape} by {Q.shape}: inner dimensions differ")
    m, k = P.shape
    n = Q.cols
    try:
        with np.errstate(invalid="ignore", over="raise"):
            out = _matvec(P.data, Q.data) if n == 1 else _rank1_matmul(P.data, Q.data)
    except FloatingPointError:
        raise _overflow_error(f"max-plus product of {P.shape} by {Q.shape}") from None
    out[np.isnan(out)] = NEG_INF  # cells that saw only -inf + +inf
    semiring_ops.add(m * n * k)
    return TropicalMatrix._wrap(out)


def _matvec(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    m, k = p.shape
    rows = max(1, _BLOCK // k)
    out = np.empty((m, 1))
    buf = np.empty((min(rows, m), k))
    for i in range(0, m, rows):
        s = buf[:min(rows, m - i)]
        np.add(p[i:i + rows], q[:, 0], out=s)  # s[r, l] = P[i+r, l] + q[l]
        np.fmax.reduce(s, axis=1, out=out[i:i + rows, 0])
    return out


def _rank1_matmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    m, k = p.shape
    n = q.shape[1]
    # When m > n, build Qᵀ ⊗ Pᵀ = (P ⊗ Q)ᵀ, so the contiguous axis of every
    # temporary is the longer side of the output; the bits are the same,
    # as each sum has the same two terms.
    swap = m > n
    pt = np.ascontiguousarray(p.T)
    a, b = (q, pt) if swap else (pt, q)
    step = min(k, max(1, _BLOCK // (m * n)))
    out = np.full((a.shape[1], b.shape[1]), np.nan)
    # one temporary for all blocks: a fresh 512 KiB array per block costs
    # more in page faults than a small product costs in arithmetic
    buf = np.empty((step, *out.shape))
    for l in range(0, k, step):
        s = buf[:min(step, k - l)]
        np.add(a[l:l + step, :, None], b[l:l + step, None, :], out=s)  # s[t, i, j] = a[l+t, i] + b[l+t, j]
        np.fmax(out, s[0] if step == 1 else np.fmax.reduce(s, axis=0), out=out)
    return np.ascontiguousarray(out.T) if swap else out


def max_plus_matadd(P: TropicalMatrix, Q: TropicalMatrix) -> TropicalMatrix:
    """Entrywise max."""
    _require_same_shape(P, Q, "entrywise max")
    semiring_ops.add(P.rows * P.cols)
    return TropicalMatrix._wrap(np.maximum(P.data, Q.data))


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
    try:
        with np.errstate(invalid="ignore", over="raise"):
            s = M.data[:, None, :, None] + N.data[None, :, None, :]
    except FloatingPointError:
        raise _overflow_error(f"max-plus Kronecker product of {M.shape} and {N.shape}") from None
    bad = np.isnan(s)
    if bad.any():
        s[bad] = NEG_INF
    semiring_ops.add(a * c * b * d)
    return TropicalMatrix._wrap(s.reshape(a * c, b * d))


def is_integral(A: TropicalMatrix) -> bool:
    """True when every finite entry is an exact integer."""
    finite = A.data[np.isfinite(A.data)]
    return bool(np.all(finite == np.floor(finite)))


def finite_max_abs(A: TropicalMatrix) -> float:
    """Largest |entry| over the finite entries; 0.0 when there are none."""
    return float(np.abs(A.data[np.isfinite(A.data)]).max(initial=0.0))
