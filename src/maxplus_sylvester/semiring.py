"""Scalar constants and the token form of the completed tropical scalars.

Scalars are finite doubles plus the two IEEE infinities.  ``-inf`` is the
max-plus additive neutral; ``+inf`` is the top element, the value of a
residual that nothing bounds.  NaN is never a legal scalar.  The
arithmetic itself, including the mixed-infinity rule, lives in the
max-plus kernels of :mod:`.matrix`.
"""

import math

NEG_INF = float("-inf")
POS_INF = float("inf")


def format_scalar(a: float) -> str:
    """Token form: integers without a decimal point, ``-inf``/``+inf``."""
    if a == NEG_INF:
        return "-inf"
    if a == POS_INF:
        return "+inf"
    if a == int(a) and abs(a) < 2.0**53:
        return str(int(a))
    return repr(a)


def parse_scalar(token: str) -> float:
    """Inverse of :func:`format_scalar`; case-insensitive infinity tokens.

    Raises ValueError on anything that is not a decimal literal or an
    infinity token (NaN included), and on finite literals too large for
    float64, which would otherwise read as an infinity.
    """
    text = token.strip().lower()
    if text in ("-inf", "-infinity"):
        return NEG_INF
    if text in ("inf", "+inf", "+infinity", "infinity"):
        return POS_INF
    value = float(text)
    if math.isnan(value):
        raise ValueError(f"NaN token not allowed: {token!r}")
    if math.isinf(value):
        raise ValueError(f"literal overflows float64: {token!r}")
    return value
