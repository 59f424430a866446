"""Build, cache, load and bind the package's compiled library.

The library holds three C sources: ``maxplus_product.c``, the max-plus
product that :mod:`.matrix` calls and the whole Kronecker solve that
:mod:`.oracle` calls; ``solver_passes.c``, the tolerance pass and the
mismatch scan that :mod:`.solver` calls; and
``matrix_text.c``, the matrix text scanner and formatter that
:mod:`.instance_io` calls.
``maxplus_product.c`` also holds the solver's fused call, which runs a whole
solve of either form with terms, principal, substitution and scan, on
operands encoded once, and includes ``maxplus_tile.h``, its register tile
written once and instantiated for double elements and for int16 in two
shapes.  Its 24 accumulators need AVX-512's 32 vector registers, 32 int16 or
8 doubles each,
and gcc's tuning for recent AVX-512 cores prefers 256-bit vectors, at which
they spill and every product runs at about half speed; so that file fixes
the width at 512 bits with a pragma where the target has AVX-512, and
``FLAGS`` is the same on every host.  The first
import on a machine runs the C compiler once on all three and writes one
shared library into the package's ``__pycache__``; later imports load it.
The file name holds a hash of every source and of every header beside
them, the compiler command and the host CPU's flags, so a cached build is
never loaded from a different source or on a CPU that lacks what
``-march=native`` chose.  A build goes to a temporary file that is renamed
into place, so processes that import at the same time each see a whole
library or none.  The library is loaded with ``ctypes`` and links against
no Python.

This module is the one handle on the library.  An import builds and loads
it once and binds its seven functions once: ``LIBRARY`` is a
:class:`Library`, or :data:`NUMPY` when no compiler could build it or the
build could not be loaded.  :class:`Numpy` has the same seven methods: its
product and its two solver passes are the numpy definitions, which
serve the tests as the bit reference, and its scanner, formatter, solve
call and Kronecker solve call decline every input, so :mod:`.instance_io`
reads and writes the text in Python, :mod:`.solver` composes each
solve with terms from products and its passes, and :mod:`.oracle` composes
each Kronecker solve from its own Kronecker product and products.
:class:`Library`'s Kronecker solve serves every oracle solve in which no
finite sum overflows, with the composition's bits, and never holds K.
:mod:`.matrix`, :mod:`.oracle`,
:mod:`.solver` and :mod:`.instance_io` make one call on ``LIBRARY`` on
every use and never ask which it is, so setting it to ``NUMPY`` runs every
product, solver pass, read and write in Python.  Both kernels raise FloatingPointError
when a finite sum of the product overflows, with no ``np.errstate`` of
their caller's.
"""

import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile
from pathlib import Path

import numpy as np

SOURCES = tuple(Path(__file__).with_name(name)
                for name in ("maxplus_product.c", "solver_passes.c", "matrix_text.c"))
CACHE = Path(__file__).with_name("__pycache__")
# never -ffast-math: the kernel's NaN and overflow rules need IEEE arithmetic
FLAGS = ("-O3", "-march=native", "-shared", "-fPIC", "-lm")


def _cpu_flags() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith(("flags", "Features")):
                    return line
    except OSError:
        pass
    return f"{platform.machine()} {platform.processor()}"


def _library() -> Path:
    """The library built with ``gcc``, compiling it first when no cached build matches."""
    # the headers beside the sources are compiled with them
    files = [*SOURCES, *sorted(SOURCES[0].parent.glob("*.h"))]
    key = hashlib.sha256(b"\0".join([*(file.read_bytes() for file in files),
                                     " ".join(["gcc", *FLAGS]).encode(),
                                     _cpu_flags().encode()])).hexdigest()[:16]
    path = CACHE / f"maxplus-{key}.so"
    if path.exists():
        return path
    CACHE.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=CACHE)
    os.close(fd)
    try:
        subprocess.run(["gcc", *map(str, SOURCES), *FLAGS, "-o", tmp],
                       check=True, capture_output=True, timeout=120)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def _factors(A_terms, B_terms, m: int, n: int):
    """Two ``ctypes`` arrays of the m×m ``A_terms`` and n×n ``B_terms`` as dense float64, None as
    NULL, each keeping what it points to; None for no terms, unequal counts or a misshapen factor.
    Only ``maxplus_solve`` reads a NULL, as the unit; :meth:`Library.kron_solve` passes none."""
    if not len(A_terms) or len(B_terms) != len(A_terms):
        return None
    sides = []
    for terms, size in ((A_terms, m), (B_terms, n)):
        arrays = [None if F is None else np.ascontiguousarray(F, dtype=np.float64) for F in terms]
        if any(F is not None and F.shape != (size, size) for F in arrays):
            return None
        sides.append((ctypes.c_void_p * len(arrays))(*(None if F is None else F.ctypes.data for F in arrays)))
        sides[-1].arrays = arrays
    return sides


_NULL, _MARK = bytes(ctypes.sizeof(ctypes.c_void_p)), b"\1" * ctypes.sizeof(ctypes.c_void_p)


def _marks(terms) -> bytes:
    """One pointer-sized entry per factor, NULL for None and not NULL for an array: what
    ``maxplus_solve``'s query reads in place of the factors, which it only asks whether they are NULL."""
    return b"".join([_NULL if F is None else _MARK for F in terms])


class Library:
    """The seven functions of one loaded build, with their argument types declared."""

    def __init__(self, cdll: ctypes.CDLL):
        self._product = cdll.maxplus_product
        self._product.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_ssize_t] * 3 + [ctypes.c_int]
        self._product.restype = ctypes.c_int
        self._scale = cdll.finite_scale
        self._scale.argtypes = [ctypes.c_void_p, ctypes.c_ssize_t, ctypes.POINTER(ctypes.c_double)]
        self._scale.restype = ctypes.c_int
        self._mismatches = cdll.mismatches
        self._mismatches.argtypes = [ctypes.c_void_p] * 2 + [ctypes.c_ssize_t] * 2 + [
            ctypes.c_double, ctypes.c_void_p, ctypes.POINTER(ctypes.c_double)]
        self._mismatches.restype = ctypes.c_ssize_t
        self._scan = cdll.scan_matrix
        self._scan.argtypes = [ctypes.c_char_p, ctypes.c_ssize_t, ctypes.POINTER(ctypes.c_ssize_t),
                               ctypes.c_void_p]
        self._scan.restype = ctypes.c_int
        self._write = cdll.write_matrix
        self._write.argtypes = [ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_ssize_t, ctypes.c_void_p]
        self._write.restype = ctypes.c_ssize_t
        self._solve = cdll.maxplus_solve
        self._solve.argtypes = [ctypes.c_void_p] * 5 + [ctypes.POINTER(ctypes.c_double)] + [ctypes.c_ssize_t] * 3
        self._solve.restype = ctypes.c_ssize_t
        self._kron_solve = cdll.maxplus_kron_solve
        self._kron_solve.argtypes = [ctypes.c_void_p] * 5 + [ctypes.c_ssize_t] * 3
        self._kron_solve.restype = ctypes.c_int

    def product(self, p: np.ndarray, q: np.ndarray, acc: np.ndarray | None = None) -> np.ndarray:
        """The max-plus product of float64 arrays m×k and k×n, or ``acc`` ⊕ it in ``acc``.

        ``acc``, when given, must be a writeable C-contiguous float64 m×n
        array; the product is maxed into it in place and it is returned.  A
        FloatingPointError when a finite sum overflows, with ``acc`` then
        partly updated.

        The C loop picks its register tile by itself, and the bits are the
        same either way: small integer data, at shapes that repay the
        encoding, runs in int16 with 32 lanes per AVX-512 register instead
        of 8 doubles, as the build keeps the tiles at 512 bits on AVX-512
        hardware.  The header of ``maxplus_product.c`` gives the codes, the
        bounds, the rule and how the width is fixed.
        """
        # the C loop reads both operands as dense row-major float64
        p = np.ascontiguousarray(p, dtype=np.float64)
        q = np.ascontiguousarray(q, dtype=np.float64)
        (m, k), n = p.shape, q.shape[1]
        if q.shape[0] != k:
            raise ValueError(f"inner dimensions differ: {p.shape} by {q.shape}")
        if acc is not None and not (acc.shape == (m, n) and acc.dtype == np.float64
                                    and acc.flags.c_contiguous and acc.flags.writeable):
            raise ValueError(f"acc must be a writeable C-contiguous float64 {m}x{n} array")
        out = np.empty((m, n)) if acc is None else acc
        if self._product(p.ctypes.data, q.ctypes.data, out.ctypes.data, m, k, n, acc is not None):
            raise FloatingPointError("overflow encountered in max-plus product")
        return out

    def solve(self, A_terms, B_terms, C: np.ndarray):
        """The solve of ``⊕_k A_k ⊗ X ⊗ B_k = C`` in one call: ``(principal, cells,
        residual)``, or None when the int16 tile does not serve it.

        It serves p ≥ 1 terms of m×m arrays ``A_terms`` and n×n ``B_terms``
        beside an m×n ``C`` of small integer data, at shapes that repay the
        encoding; the header of ``maxplus_product.c`` gives the codes, the
        bounds and the rule.  A factor None is the max-plus unit, whose
        product is skipped; a term with neither is declined.  Each product
        then runs 32 lanes per AVX-512 register, the width the build keeps
        on AVX-512 hardware, on operands encoded once.
        The principal is a fresh float64 array with the bits of the
        composition of :meth:`product` calls.  ``cells`` and ``residual`` are
        what :meth:`mismatches` gives for its substitution against ``C`` at
        eps = 0.0, the tolerance such integer data compares with.  No factor
        is transposed, and the principal stays int16 for the substitution.
        Any other call, a shape that does not fit included, is declined, so
        the caller's own composition raises what it raises.

        It first asks ``maxplus_solve`` whether the terms and the shape
        repay the tile and C's first entries qualify, before it gathers the
        factors (``.ctypes.data`` costs about 2 µs an array).  The query is
        told which factors are None, so it weighs the products the call
        forms, and on data that qualifies the two give one verdict.
        """
        p, (m, n) = len(A_terms), C.shape
        if len(B_terms) != p:
            return None
        C = np.ascontiguousarray(C, dtype=np.float64)
        c = C.ctypes.data
        if self._solve(_marks(A_terms), _marks(B_terms), c, None, None, None, p, m, n) < 0:
            return None  # the terms, the shape or C's first entries decline
        factors = _factors(A_terms, B_terms, m, n)
        if factors is None:
            return None
        principal, cells, residual = np.empty((m, n)), np.empty((m * n, 2), dtype=np.intp), ctypes.c_double()
        count = self._solve(*factors, c, principal.ctypes.data, cells.ctypes.data, residual, p, m, n)
        return None if count < 0 else (principal, cells[:count], residual.value)

    def kron_solve(self, A_terms, B_terms, C: np.ndarray):
        """The oracle's solve of ``K ⊗ vec(X) = vec(C)``, ``K = ⊕_k kron(B_kᵀ, A_k)``, in one
        call that never holds K: ``(principal, achieved)``, or None.

        For p ≥ 1 terms of m×m arrays ``A_terms`` and n×n ``B_terms`` beside
        an m×n ``C``, the principal ``x̂ = −((−vec(C))ᵀ ⊗ K)ᵀ`` and its
        substitution ``K ⊗ x̂``, each unvec'd to a fresh m×n float64 array,
        with the bits of :func:`.oracle.kron_max` and two :meth:`product` calls.  K is
        formed a few rows at a time, twice, so the call holds O(mn) memory
        where the composition holds (mn)².  A call where a finite sum
        overflows is declined, so the caller's composition raises what it
        raises, and so is one with a factor None, as the C reads every factor.
        """
        (m, n), factors = C.shape, _factors(A_terms, B_terms, *C.shape)
        if factors is None or None in (*factors[0], *factors[1]):  # a NULL reads as None
            return None
        C = np.ascontiguousarray(C, dtype=np.float64)
        principal, achieved = np.empty((m, n)), np.empty((m, n))
        if self._kron_solve(*factors, C.ctypes.data, principal.ctypes.data, achieved.ctypes.data, len(A_terms), m, n):
            return None
        return principal, achieved

    def finite_scale(self, values: np.ndarray) -> tuple[float, bool]:
        """The largest finite |entry| of a float64 array (0.0 when none), and whether
        every finite entry is an integer."""
        # the largest entry and integrality do not depend on the order, so a
        # Fortran-ordered array is read in memory order as it lies
        values = np.ravel(np.asarray(values, dtype=np.float64), order="K")
        scale = ctypes.c_double()
        integral = self._scale(values.ctypes.data, values.size, scale)
        return scale.value, bool(integral)

    def mismatches(self, left: np.ndarray, right: np.ndarray, eps: float) -> tuple[np.ndarray, float]:
        """The row-major (row, col) pairs where ``!(left == right or |left − right| <= eps)``,
        as a k×2 intp array, and the largest |left − right| there (0.0 when none)."""
        left = np.ascontiguousarray(left, dtype=np.float64)
        right = np.ascontiguousarray(right, dtype=np.float64)
        if left.shape != right.shape:
            raise ValueError(f"shapes differ: {left.shape} and {right.shape}")
        rows, cols = left.shape
        cells = np.empty((rows * cols, 2), dtype=np.intp)  # room for every cell
        residual = ctypes.c_double()
        count = self._mismatches(left.ctypes.data, right.ctypes.data, rows, cols, eps, cells.ctypes.data,
                                 residual)
        return cells[:count], residual.value  # a view: shrunk in place, the next call mapped fresh pages

    def scan(self, data: bytes):
        """The entries of the matrix text ``data``, any bytes, as a fresh float64 array, or None
        outside the scanner's subset.

        Every entry is an integer of up to 15 digits or ±inf, never NaN and
        never ``-0.0``, so the array may become a matrix as it is.  A byte
        outside the subset, a non-ASCII one included, declines the text.
        """
        dims = (ctypes.c_ssize_t * 2)()
        if self._scan(data, len(data), dims, None):  # the header alone
            return None
        out = np.empty((dims[0], dims[1]))
        return None if self._scan(data, len(data), dims, out.ctypes.data) else out

    def write(self, values: np.ndarray):
        """The text of a float64 matrix, or None when an entry is not an integer below 2**53 or an infinity."""
        values = np.ascontiguousarray(values)
        rows, cols = values.shape
        buf = np.empty(40 + 18 * rows * cols, dtype=np.uint8)  # the bound write_matrix states
        size = self._write(values.ctypes.data, rows, cols, buf.ctypes.data)
        return None if size < 0 else str(buf[:size], "ascii")


class Numpy:
    """The numpy twins of :class:`Library`'s seven methods, with the same signatures.

    The product takes blocks of rows of P, forms every sum
    ``P[i, l] + Q[l, j]`` of a block in one reused buffer and reduces over
    l with ``fmax``.  A block holds as many rows as fit in ``block``
    entries, and at least one: when one row's k·n sums are more than
    ``block``, they are formed at once, so a 1×N by N×N product holds N²
    sums.  ``fmax`` ignores a NaN operand, so NaN acts as the identity; a
    cell is still NaN at the end only when every sum of its row and column
    was ``-inf + +inf``, and one final pass sets those cells to ``-inf``.
    The product's one shape rule is orientation: when m > n > 1 it builds
    ``(Qᵀ ⊗ Pᵀ)ᵀ``, since each reduction step runs along an output row and
    short rows make it slow.  In accumulate mode it forms the product and
    maxes it into ``acc``.  It gives the C loop's bits, whatever its
    blocking and orientation, as each cell is the max of the same two-term
    sums and no ``-0.0`` ever reaches a kernel.
    """

    # entries in one block of sums, 512 KiB of float64
    block = 1 << 16

    def product(self, p: np.ndarray, q: np.ndarray, acc: np.ndarray | None = None) -> np.ndarray:
        """As :meth:`Library.product`; ``acc`` is not checked here, as no foreign code writes it."""
        out = dst = np.empty((p.shape[0], q.shape[1]))
        if p.shape[0] > q.shape[1] > 1:
            p, q, dst = q.T, np.ascontiguousarray(p.T), out.T  # (Qᵀ ⊗ Pᵀ)ᵀ
        m, k = p.shape
        n = q.shape[1]
        rows = max(1, self.block // (k * n))
        # one buffer for all blocks: a fresh 512 KiB array per block costs
        # more in page faults than a small product costs in arithmetic
        buf = np.empty((min(rows, m), k, n))
        with np.errstate(invalid="ignore", over="raise"):  # -inf + +inf is NaN; overflow raises
            for i in range(0, m, rows):
                s = buf[:min(rows, m - i)]
                np.add(p[i:i + rows, :, None], q, out=s)  # s[r, l, j] = p[i+r, l] + q[l, j]
                dst[i:i + rows] = np.fmax.reduce(s, axis=1)  # reducing with out= into a strided out.T is 2x slower
        out[np.isnan(out)] = -np.inf
        if acc is None:
            return out
        np.copyto(acc, out, where=out > acc)  # as the C loop: a tie keeps acc's bits, 0.0 beside -0.0 too
        return acc

    def solve(self, A_terms, B_terms, C: np.ndarray):
        """None for any input: the solver composes the solve from :meth:`product` calls and its passes."""
        return None

    def kron_solve(self, A_terms, B_terms, C: np.ndarray):
        """None for any input: the oracle composes its solve from :func:`.oracle.kron_max` and products."""
        return None

    def finite_scale(self, values: np.ndarray) -> tuple[float, bool]:
        """As :meth:`Library.finite_scale`."""
        finite = values[np.isfinite(values)]
        return float(np.abs(finite).max(initial=0.0)), bool((finite == np.floor(finite)).all())

    def mismatches(self, left: np.ndarray, right: np.ndarray, eps: float) -> tuple[np.ndarray, float]:
        """As :meth:`Library.mismatches`."""
        # equal infinities give a NaN diff but match as left == right; differing
        # infinity states and a miss wider than float64 give a diff of +inf
        with np.errstate(invalid="ignore", over="ignore"):
            diff = np.abs(left - right)
        bad = ~((left == right) | (diff <= eps))
        return np.argwhere(bad), float(diff[bad].max(initial=0.0))

    def scan(self, data: bytes):
        """None for any bytes: every text is read by :func:`.instance_io.parse_matrix`'s Python grammar."""
        return None

    def write(self, values: np.ndarray):
        """None: every matrix is written by :func:`.instance_io.format_scalar`."""
        return None


NUMPY = Numpy()


def load():
    """The :class:`Library` built with ``gcc``, or None when it cannot build or load it."""
    try:
        return Library(ctypes.CDLL(str(_library())))
    except (OSError, subprocess.SubprocessError):
        return None


LIBRARY = load() or NUMPY
