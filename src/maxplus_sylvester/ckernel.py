"""Build, cache and load the package's compiled library.

The library holds two C sources: ``maxplus_product.c``, the max-plus
product that :mod:`.matrix` binds, and ``matrix_text.c``, the matrix text
scanner and formatter that :mod:`.instance_io` binds.  The first import
on a machine runs the C compiler once on both and writes one shared
library into the package's ``__pycache__``; later imports load that file.
The file name holds a hash of every source, the compiler command and the
host CPU's flags, so a cached build is never loaded from a different
source or on a CPU that lacks what ``-march=native`` chose.  A build goes
to a temporary file that is renamed into place, so processes that import
at the same time each see a whole library or none.  The library is
loaded with ``ctypes`` and links against no Python; each module declares
the argument types of the functions it binds.
"""

import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile
from pathlib import Path

SOURCES = tuple(Path(__file__).with_name(name) for name in ("maxplus_product.c", "matrix_text.c"))
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


def load(compiler: str = "gcc"):
    """The library as a ``ctypes.CDLL``, or None when ``compiler`` cannot build or load it."""
    try:
        return ctypes.CDLL(str(_library(compiler)))
    except (OSError, subprocess.SubprocessError):
        return None
