"""Dense matrices over the completed tropical scalars.

One matrix type serves both semirings; each operation fixes the
interpretation (max-plus or min-plus), so conjugation can hop between
the two worlds without conversions.  Entries are float64 with ±inf for
the infinite states.  NaN never enters or leaves a kernel: the only IEEE
sum that produces it, ``-inf + +inf``, is patched to the absorbing zero
of whichever semiring the kernel works in, so ``-inf ⊗ +inf = -inf`` and
``-inf ⊗' +inf = +inf``.  This mixed-infinity convention is what keeps
the residuation law ``A ⊗ x ≤ b  ⟺  x ≤ conjugate(A) ⊗' b`` true for
arbitrary inputs, not just finite ones.

All integer-valued inputs stay exact: every kernel is built from
additions and comparisons only, so integers below 2**53 never round.
"""

import numpy as np

from .opcount import semiring_ops
from .semiring import NEG_INF, POS_INF


class ShapeError(ValueError):
    """Operand shapes do not fit the requested operation."""


class TropicalMatrix:
    """Dense rows×cols matrix of extended reals, immutable, no NaN."""

    __slots__ = ("data",)

    def __init__(self, entries):
        arr = np.array(entries, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"matrix entries must be 2-dimensional, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ShapeError(f"matrix needs at least one row and one column, got shape {arr.shape}")
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
        return cls(np.full((rows, cols), value, dtype=np.float64))

    @classmethod
    def max_plus_unit(cls, size: int) -> "TropicalMatrix":
        """Unit of ⊗: zero diagonal, -inf off-diagonal; its conjugate is the unit of ⊗'."""
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


def _tropical_matmul(P: TropicalMatrix, Q: TropicalMatrix, reducer, absorb: float) -> TropicalMatrix:
    if P.cols != Q.rows:
        raise ShapeError(f"cannot multiply {P.shape} by {Q.shape}: inner dimensions differ")
    m, k = P.shape
    n = Q.cols
    p, q = P.data, Q.data
    out = np.empty((m, n))
    with np.errstate(invalid="ignore"):
        for j in range(n):
            s = p + q[:, j]  # s[i, l] = P[i, l] + Q[l, j]
            bad = np.isnan(s)
            if bad.any():
                s[bad] = absorb
            out[:, j] = reducer(s, axis=1)
    semiring_ops.add(m * n * k)
    return TropicalMatrix._wrap(out)


def max_plus_matmul(P: TropicalMatrix, Q: TropicalMatrix) -> TropicalMatrix:
    """out[i, j] = max_l (P[i, l] + Q[l, j])."""
    return _tropical_matmul(P, Q, np.max, NEG_INF)


def min_plus_matmul(P: TropicalMatrix, Q: TropicalMatrix) -> TropicalMatrix:
    """out[i, j] = min_l (P[i, l] + Q[l, j])."""
    return _tropical_matmul(P, Q, np.min, POS_INF)


def max_plus_matadd(P: TropicalMatrix, Q: TropicalMatrix) -> TropicalMatrix:
    """Entrywise max."""
    _require_same_shape(P, Q, "entrywise max")
    semiring_ops.add(P.rows * P.cols)
    return TropicalMatrix._wrap(np.maximum(P.data, Q.data))


def min_plus_matadd(P: TropicalMatrix, Q: TropicalMatrix) -> TropicalMatrix:
    """Entrywise min."""
    _require_same_shape(P, Q, "entrywise min")
    semiring_ops.add(P.rows * P.cols)
    return TropicalMatrix._wrap(np.minimum(P.data, Q.data))


def conjugate(A: TropicalMatrix) -> TropicalMatrix:
    """Negated transpose; maps a max-plus matrix into the min-plus world."""
    return TropicalMatrix._wrap(np.ascontiguousarray(0.0 - A.data.T))


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


def _tropical_kron(M: TropicalMatrix, N: TropicalMatrix, absorb: float) -> TropicalMatrix:
    a, b = M.shape
    c, d = N.shape
    with np.errstate(invalid="ignore"):
        s = M.data[:, None, :, None] + N.data[None, :, None, :]
        bad = np.isnan(s)
        if bad.any():
            s[bad] = absorb
    semiring_ops.add(a * c * b * d)
    return TropicalMatrix._wrap(s.reshape(a * c, b * d))


def kron_max(M: TropicalMatrix, N: TropicalMatrix) -> TropicalMatrix:
    """Max-plus Kronecker product: block (i, j) is M[i, j] ⊗ N."""
    return _tropical_kron(M, N, NEG_INF)


def kron_min(M: TropicalMatrix, N: TropicalMatrix) -> TropicalMatrix:
    """Min-plus Kronecker product: block (i, j) is M[i, j] ⊗' N."""
    return _tropical_kron(M, N, POS_INF)


def entrywise_leq(P: TropicalMatrix, Q: TropicalMatrix) -> bool:
    """P ≤ Q in the entrywise (product) order."""
    _require_same_shape(P, Q, "entrywise comparison")
    return bool((P.data <= Q.data).all())


def is_integral(A: TropicalMatrix) -> bool:
    """True when every finite entry is an exact integer."""
    finite = A.data[np.isfinite(A.data)]
    return bool(np.all(finite == np.floor(finite)))
