"""Build, cache and load the compiled max-plus product (``maxplus_product.c``).

The first import on a machine runs the C compiler once and writes a
shared library into the package's ``__pycache__``; later imports load
that file.  The file name holds a hash of the C source, the compiler
command and the host CPU's flags, so a cached build is never loaded from
a different source or on a CPU that lacks what ``-march=native`` chose.
A build goes to a temporary file that is renamed into place, so
processes that import at the same time each see a whole library or none.
The library is loaded with ``ctypes`` and links against no Python.
"""

import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("maxplus_product.c")
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
    source = SOURCE.read_bytes()
    key = hashlib.sha256(b"\0".join([source, " ".join([compiler, *FLAGS]).encode(),
                                     _cpu_flags().encode()])).hexdigest()[:16]
    path = CACHE / f"maxplus_product-{key}.so"
    if path.exists():
        return path
    CACHE.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=CACHE)
    os.close(fd)
    try:
        subprocess.run([compiler, str(SOURCE), *FLAGS, "-o", tmp],
                       check=True, capture_output=True, timeout=120)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def load(compiler: str = "gcc"):
    """``product(p, q)`` computed in C, or None when ``compiler`` cannot build or load it.

    ``product`` takes float64 arrays of shapes m×k and k×n and returns the
    m×n max-plus product; it raises FloatingPointError when a finite sum
    overflows.
    """
    try:
        fn = ctypes.CDLL(str(_library(compiler))).maxplus_product
    except (OSError, subprocess.SubprocessError):
        return None
    fn.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_ssize_t] * 3
    fn.restype = ctypes.c_int

    def product(p: np.ndarray, q: np.ndarray) -> np.ndarray:
        # the C loop reads both operands as dense row-major float64
        p = np.ascontiguousarray(p, dtype=np.float64)
        q = np.ascontiguousarray(q, dtype=np.float64)
        (m, k), n = p.shape, q.shape[1]
        if q.shape[0] != k:
            raise ValueError(f"inner dimensions differ: {p.shape} by {q.shape}")
        out = np.empty((m, n))
        if fn(p.ctypes.data, q.ctypes.data, out.ctypes.data, m, k, n):
            raise FloatingPointError("overflow encountered in max-plus product")
        return out

    return product
