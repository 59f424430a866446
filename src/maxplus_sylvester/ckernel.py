"""Build, cache, load and bind the package's compiled library.

The library holds three C sources: ``maxplus_product.c``, the max-plus
product that :mod:`.matrix` calls; ``solver_passes.c``, the tolerance pass
and the mismatch scan that :mod:`.solver` calls; and ``matrix_text.c``,
the matrix text scanner and formatter that :mod:`.instance_io` calls.  The
first import on a machine runs the C compiler once on all three and writes
one shared library into the package's ``__pycache__``; later imports load
that file.  The file name holds a hash of every source, the compiler
command and the host CPU's flags, so a cached build is never loaded from a
different source or on a CPU that lacks what ``-march=native`` chose.  A
build goes to a temporary file that is renamed into place, so processes
that import at the same time each see a whole library or none.  The
library is loaded with ``ctypes`` and links against no Python.

This module is the one handle on the library.  An import builds and loads
it once and binds its five functions once: ``LIBRARY`` is a
:class:`Library`, or :data:`NUMPY` when no compiler could build it or the
build could not be loaded.  :class:`Numpy` has the same five methods: its
product and its two solver passes are the numpy definitions, which serve
the tests as the bit reference, and its scanner and formatter decline
every input, so :mod:`.instance_io` reads and writes the text in Python.
:mod:`.matrix`, :mod:`.solver` and :mod:`.instance_io` make one call on
``LIBRARY`` on every use and never ask which it is, so setting it to
``NUMPY`` runs every product, solver pass, read and write in Python.
Both kernels raise FloatingPointError when a finite sum of a product
overflows, with no ``np.errstate`` of their caller's.
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


def _library(compiler: str) -> Path:
    """The built library for ``compiler``, compiling it first when no cached build matches."""
    key = hashlib.sha256(b"\0".join([*(source.read_bytes() for source in SOURCES),
                                     " ".join([compiler, *FLAGS]).encode(),
                                     _cpu_flags().encode()])).hexdigest()[:16]
    path = CACHE / f"maxplus-{key}.so"
    if path.exists():
        return path
    CACHE.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=CACHE)
    os.close(fd)
    try:
        subprocess.run([compiler, *map(str, SOURCES), *FLAGS, "-o", tmp],
                       check=True, capture_output=True, timeout=120)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


class Library:
    """The five functions of one loaded build, with their argument types declared."""

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

    def product(self, p: np.ndarray, q: np.ndarray, acc: np.ndarray | None = None) -> np.ndarray:
        """The max-plus product of float64 arrays m×k and k×n, or ``acc`` ⊕ it in ``acc``.

        ``acc``, when given, must be a writeable C-contiguous float64 m×n
        array; the product is maxed into it in place and it is returned.  A
        FloatingPointError when a finite sum overflows, with ``acc`` then
        partly updated.
        """
        # the C loop reads both operands as dense row-major float64
        p = np.ascontiguousarray(p, dtype=np.float64)
        q = np.ascontiguousarray(q, dtype=np.float64)
        (m, k), n = p.shape, q.shape[1]
        if q.shape[0] != k:
            raise ValueError(f"inner dimensions differ: {p.shape} by {q.shape}")
        if acc is None:
            out = np.empty((m, n))
        elif (acc.shape == (m, n) and acc.dtype == np.float64 and acc.flags.c_contiguous
              and acc.flags.writeable):
            out = acc
        else:
            raise ValueError(f"acc must be a writeable C-contiguous float64 {m}x{n} array")
        if self._product(p.ctypes.data, q.ctypes.data, out.ctypes.data, m, k, n, acc is not None):
            raise FloatingPointError("overflow encountered in max-plus product")
        return out

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
        # shrinks the buffer where it lies: nothing else refers to it, and a
        # copy into a fresh array faults in its pages again
        cells.resize((count, 2), refcheck=False)
        return cells, residual.value

    def scan(self, data: bytes):
        """The entries of the ASCII text ``data`` as a float64 array, or None outside the scanner's subset."""
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
    """The numpy twins of :class:`Library`'s five methods, with the same signatures.

    The product takes blocks of rows of P, forms every sum
    ``P[i, l] + Q[l, j]`` of a block in one reused buffer of at most
    ``block`` entries and reduces over l with ``fmax``, which ignores a NaN
    operand, so NaN acts as the identity; a cell is still NaN at the end
    only when every sum of its row and column was ``-inf + +inf``, and one
    final pass sets those cells to ``-inf``.  Its one shape rule is
    orientation: when m > n > 1 it builds ``(Qᵀ ⊗ Pᵀ)ᵀ``, since each
    reduction step runs along an output row and short rows make it slow.
    In accumulate mode it forms the product and maxes it into ``acc``.  It
    gives the C loop's bits, whatever its blocking and orientation, as each
    cell is the max of the same two-term sums and no ``-0.0`` ever reaches
    a kernel.
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
        return np.maximum(acc, out, out=acc)

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
        """None: every text is read by :func:`.instance_io.parse_matrix`'s Python grammar."""
        return None

    def write(self, values: np.ndarray):
        """None: every matrix is written by :func:`.instance_io.format_scalar`."""
        return None


NUMPY = Numpy()


def load(compiler: str = "gcc"):
    """The :class:`Library` built with ``compiler``, or None when it cannot build or load it."""
    try:
        return Library(ctypes.CDLL(str(_library(compiler))))
    except (OSError, subprocess.SubprocessError):
        return None


LIBRARY = load() or NUMPY
