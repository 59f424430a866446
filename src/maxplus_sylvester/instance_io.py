"""Text serialisation of matrices and instances, plus the seeded generator.

Matrix file format: first line is ``rows cols``; each following line is
one row with single-space separated entries; lines starting with ``#``
are comments.  A token is a decimal literal that float64 holds, or an
infinity spelled ``inf`` or ``infinity`` in any case, with an optional
sign; every line but a comment is ASCII and holds no ``_``.  NaN is
never a token, and a finite literal too large for float64 (``1e400``)
is an error, not an infinity; so is an integer literal (sign and digits
only) that float64 cannot hold exactly, such as ``9007199254740993``.
Output writes integers below 2**53 without a decimal point, other finite
values as ``repr`` does and the infinities as ``-inf``/``+inf``; it
always ends with a newline and is byte-stable for a given matrix, so
formatted corpora diff cleanly.  A token is read only inside a matrix
text, by :func:`parse_matrix`; :func:`format_scalar` writes one.

Most matrix text is read and written in C (``matrix_text.c``, through the
handle ``ckernel.LIBRARY``).  :func:`load_matrix` reads a file's bytes in
one binary read and hands them to the scanner as they are, with no
decode.  The scanner takes only a strict subset: a header of two
positive digit strings, tokens of up to 15 digits with an optional sign
or an infinity, single spaces, ``\\n`` line ends and blank lines.  Its
array becomes the matrix as it is, with no copy and no NaN or ``-0.0``
pass, as it writes only integers of up to 15 digits and ±inf, and reads
``-0`` as +0.0.  On any other byte, a non-ASCII one, a comment, ``\\r``
or a decimal among them, or on a count error, it declines.  Then the
bytes are decoded as ``Path.read_text`` decodes a file (the locale's
encoding, universal newlines) and the Python parser below reads the
whole text.  That parser is the one definition of the grammar and of
every error message.  The C formatter writes a matrix of integers below
2**53 and infinities; any other matrix goes whole to
:func:`format_scalar`.  Decimals stay in Python because ``strtod``
follows ``LC_NUMERIC`` and libc has no shortest round-trip form like
``repr``.  So both paths give the same matrices, errors and bytes.  When
the handle is ``ckernel.NUMPY``, as it is without a C compiler, its
scanner and formatter decline every input, so the Python code runs
alone.

Random instances come from a PCG64 stream (numpy's Generator) seeded
with the 64-bit config seed.  The draw order is fixed: for each term k,
the left factor then the right factor (values, then the -inf mask, then
its repair); afterwards the witness X0 (construction mode) or C (raw
mode).  Identical configs therefore yield byte-identical files.
"""

import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ckernel
from .matrix import NEG_INF, POS_INF, TropicalMatrix
from .solver import SylvesterInstance, sylvester_apply

GENERATOR_MODES = ("solvable_by_construction", "raw_random")


class ParseError(ValueError):
    """Malformed matrix text; the message names the offending line."""


def format_scalar(a: float) -> str:
    """One entry in the token form of the module docstring."""
    if a == NEG_INF:
        return "-inf"
    if a == POS_INF:
        return "+inf"
    if a == int(a) and abs(a) < 2.0**53:
        return str(int(a))
    return repr(a)


def _check_charset(text: str) -> None:
    """A ValueError naming the first token of ``text`` that is not ASCII or holds ``_``.

    Python's float also reads digit separators (``1_000``) and non-ASCII
    digits (``١٢``, ``１２``); past this check it reads exactly the decimal
    literals and the infinity and NaN spellings.
    """
    if not text.isascii() or "_" in text:
        bad = next((t for t in text.split() if not t.isascii() or "_" in t), text)
        raise ValueError(f"token is not ASCII without '_': {bad!r}")


def _token_value(token: str) -> float:
    value = float(token)
    # the common case in one test: finite (inf - inf is NaN) and at most 15
    # characters, so at most 15 digits, below 2**53, where every integer is exact
    if value - value == 0.0 and len(token) <= 15:
        return value
    if math.isnan(value):
        raise ValueError(f"NaN token not allowed: {token!r}")
    if math.isinf(value) and "inf" not in token.lower():  # float reads 1e400 as inf
        raise ValueError(f"literal overflows float64: {token!r}")
    if token.lstrip("+-").isdigit() and int(token) != value:
        raise ValueError(f"integer literal is not exact in float64: {token!r}")
    return value


def _decode(data: bytes) -> str:
    """``data`` as ``Path.read_text`` reads a file: the locale's encoding and universal newlines."""
    return io.TextIOWrapper(io.BytesIO(data)).read()


def parse_matrix(text: str | bytes) -> TropicalMatrix:
    """Parse the text format, given as str or as a file's bytes, into a matrix; errors carry line numbers.

    A text inside the C scanner's subset (integers of up to 15 digits and
    infinities, single spaces, ``\\n`` line ends) is read in C, bytes
    with no decode; any other text, and every malformed one, is read by
    the Python code below, which defines the grammar and the error
    messages.  Bytes that the scanner declines are decoded first, as
    ``Path.read_text`` decodes a file.
    """
    # the UTF-8 of a non-ASCII character, a lone surrogate's too, is bytes the scanner declines
    data = text.encode(errors="surrogatepass") if isinstance(text, str) else text
    values = ckernel.LIBRARY.scan(data)
    if values is not None:
        return TropicalMatrix._wrap(values)  # a fresh array of integers and ±inf, no NaN, no -0.0
    if not isinstance(text, str):
        text = _decode(text)
    header = None
    rows: list[list[float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            _check_charset(line)  # once per line: comments stay free text
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: header must be 'rows cols', got {raw!r}")
            try:
                r, c = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: header must be two integers, got {raw!r}") from None
            if r < 1 or c < 1:
                raise ParseError(f"line {lineno}: dimensions must be positive, got {r}x{c}")
            header = (r, c)
            continue
        if len(rows) == header[0]:
            raise ParseError(f"line {lineno}: more than the declared {header[0]} rows")
        if len(parts) != header[1]:
            raise ParseError(f"line {lineno}: expected {header[1]} entries, got {len(parts)}")
        try:
            rows.append([_token_value(token) for token in parts])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    if header is None:
        raise ParseError("line 1: no header found")
    if len(rows) != header[0]:
        raise ParseError(f"expected {header[0]} rows, found {len(rows)}")
    return TropicalMatrix(rows)


def format_matrix(M: TropicalMatrix) -> str:
    """Inverse of :func:`parse_matrix`; round-trips bit-exactly.

    A matrix of integers below 2**53 in magnitude and infinities is written
    in C; any other goes to :func:`format_scalar` whole, with the same bytes.
    """
    text = ckernel.LIBRARY.write(M.data)
    if text is not None:
        return text
    lines = [f"{M.rows} {M.cols}"]
    for row in M.tolist():
        lines.append(" ".join(format_scalar(v) for v in row))
    return "\n".join(lines) + "\n"


def load_matrix(path) -> TropicalMatrix:
    """The matrix in the file at ``path``: its bytes, in one binary read, go to :func:`parse_matrix`."""
    with open(path, "rb", buffering=0) as f:
        return parse_matrix(f.readall())


def save_matrix(path, M: TropicalMatrix) -> None:
    Path(path).write_text(format_matrix(M), newline="\n")


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the seeded instance generator; integer-valued entries only."""

    m: int
    n: int
    p: int
    seed: int
    entry_low: int = -10
    entry_high: int = 10
    neginf_density: float = 0.1
    mode: str = "solvable_by_construction"

    def __post_init__(self):
        for name in ("m", "n", "p"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not isinstance(self.entry_low, int) or not isinstance(self.entry_high, int):
            raise ValueError("entry bounds must be integers")
        if self.entry_low > self.entry_high:
            raise ValueError(f"entry_low {self.entry_low} exceeds entry_high {self.entry_high}")
        if not 0.0 <= self.neginf_density < 1.0:
            raise ValueError(f"neginf_density must lie in [0, 1), got {self.neginf_density}")
        if self.mode not in GENERATOR_MODES:
            raise ValueError(f"mode must be one of {GENERATOR_MODES}, got {self.mode!r}")


def _draw_doubly_r_astic(rng, size: int, cfg: GeneratorConfig) -> TropicalMatrix:
    values = rng.integers(cfg.entry_low, cfg.entry_high, endpoint=True, size=(size, size))
    values = values.astype(np.float64)
    mask = rng.random(size=(size, size)) < cfg.neginf_density
    # repair rows first, then columns; unmasking only, so fixes never undo
    for i in range(size):
        if mask[i].all():
            mask[i, int(rng.integers(size))] = False
    for j in range(size):
        if mask[:, j].all():
            mask[int(rng.integers(size)), j] = False
    values[mask] = NEG_INF
    return TropicalMatrix(values)


def _draw_finite(rng, rows: int, cols: int, cfg: GeneratorConfig) -> TropicalMatrix:
    values = rng.integers(cfg.entry_low, cfg.entry_high, endpoint=True, size=(rows, cols))
    return TropicalMatrix(values.astype(np.float64))


def generate_instance(cfg: GeneratorConfig):
    """Draw a random instance; deterministic for a fixed config.

    In solvable_by_construction mode C is the equation's left side at a
    random finite X0, which is returned as the witness; in raw_random
    mode C is drawn independently and the witness is None.
    """
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    A_terms, B_terms = [], []
    for _ in range(cfg.p):
        A_terms.append(_draw_doubly_r_astic(rng, cfg.m, cfg))
        B_terms.append(_draw_doubly_r_astic(rng, cfg.n, cfg))
    if cfg.mode == "solvable_by_construction":
        witness = _draw_finite(rng, cfg.m, cfg.n, cfg)
        C = sylvester_apply(A_terms, B_terms, witness)
    else:
        witness = None
        C = _draw_finite(rng, cfg.m, cfg.n, cfg)
    return SylvesterInstance(A=tuple(A_terms), B=tuple(B_terms), C=C), witness


def write_instance(directory, inst: SylvesterInstance, witness=None) -> list[Path]:
    """Write A1..Ap, B1..Bp, C (and X0 when given) under ``directory``; a None factor is refused."""
    for k, (A_k, B_k) in enumerate(zip(inst.A, inst.B)):
        if A_k is None or B_k is None:
            raise ValueError(f"cannot write term {k + 1}: {'A' if A_k is None else 'B'}{k + 1} is None, the unit")
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    written = []
    for k in range(inst.p):
        for name, M in ((f"A{k + 1}.txt", inst.A[k]), (f"B{k + 1}.txt", inst.B[k])):
            save_matrix(d / name, M)
            written.append(d / name)
    save_matrix(d / "C.txt", inst.C)
    written.append(d / "C.txt")
    if witness is not None:
        save_matrix(d / "X0.txt", witness)
        written.append(d / "X0.txt")
    return written
