"""Scalar laws of max-plus and its min-plus dual, checked through the matrix kernels on 1×1 operands.

The library has no min-plus kernels: the dual operations here are the
max-plus kernels wrapped in exact negations, which is how the solvers
form residuals.  Nor has it an entrywise ⊕ of its own: ⊕ here is the
product's accumulate mode, the one the solvers fold their terms with.
Laws that relate the two worlds take their min-plus side from the
independent scalar loops in ``bruteforce``.
"""

import math
import re
import struct

import numpy as np
import pytest

import bruteforce as bf
from maxplus_sylvester import ckernel
from maxplus_sylvester.instance_io import ParseError, format_scalar, parse_matrix
from maxplus_sylvester.matrix import (
    NEG_INF,
    POS_INF,
    TropicalMatrix,
    max_plus_matmul,
    negate,
)

STATES = (NEG_INF, -2.0, 0.0, 3.0, POS_INF)


def scalar_op(kernel):
    """The scalar operation a kernel performs on 1×1 operands."""
    def op(*args):
        return kernel(*(TropicalMatrix([[a]]) for a in args)).data[0, 0]
    return op


def dual(kernel):
    """The min-plus dual of a max-plus kernel: −kernel(−P, −Q, ...)."""
    def dual_kernel(*args):
        return negate(kernel(*(negate(P) for P in args)))
    return dual_kernel


def max_plus_add(a, b):
    """a ⊕ b as the solvers form it: a ⊗ 0 maxed into a running b."""
    acc = np.array([[b]], dtype=np.float64)
    max_plus_matmul(TropicalMatrix([[a]]), TropicalMatrix([[0.0]]), acc)
    return acc[0, 0]


def min_plus_add(a, b):
    return 0.0 - max_plus_add(0.0 - a, 0.0 - b)


max_plus_mul = scalar_op(max_plus_matmul)
min_plus_mul = scalar_op(dual(max_plus_matmul))
conj = scalar_op(negate)


def _random_scalars(rng, count):
    pool = [NEG_INF, POS_INF] + [float(v) for v in rng.integers(-20, 21, size=40)]
    return [pool[i] for i in rng.integers(0, len(pool), size=count)]


def test_max_plus_add_examples():
    assert max_plus_add(3.0, 5.0) == 5.0
    assert max_plus_add(NEG_INF, 7.0) == 7.0
    assert max_plus_add(NEG_INF, NEG_INF) == NEG_INF
    # the accumulate mode is max, sign bit included, whichever side holds the larger
    values = (NEG_INF, POS_INF, -2.0, 0.0, 2.5, 3.0, -1e300)
    for a in values:
        for b in values:
            assert struct.pack("<d", max_plus_add(a, b)) == struct.pack("<d", max(a, b))


def test_max_plus_mul_examples():
    assert max_plus_mul(3.0, 5.0) == 8.0
    assert max_plus_mul(NEG_INF, 7.0) == NEG_INF
    assert max_plus_mul(NEG_INF, POS_INF) == NEG_INF  # -inf absorbs in the max-plus world


def test_min_plus_add_examples():
    assert min_plus_add(3.0, 5.0) == 3.0
    assert min_plus_add(POS_INF, 7.0) == 7.0
    assert min_plus_add(POS_INF, POS_INF) == POS_INF


def test_min_plus_mul_examples():
    assert min_plus_mul(3.0, 5.0) == 8.0
    assert min_plus_mul(POS_INF, NEG_INF) == POS_INF  # +inf absorbs in the min-plus world
    for x in (-7.5, 0.0, 12.0):
        assert min_plus_mul(0.0, x) == x


def test_conjugate_scalar_examples():
    assert conj(3.0) == -3.0
    assert conj(NEG_INF) == POS_INF
    assert conj(POS_INF) == NEG_INF
    for a in STATES:
        assert conj(conj(a)) == a


def test_add_ops_commutative_associative_idempotent():
    rng = np.random.default_rng(101)
    triples = zip(_random_scalars(rng, 500), _random_scalars(rng, 500), _random_scalars(rng, 500))
    for a, b, c in triples:
        for add in (max_plus_add, min_plus_add):
            assert add(a, b) == add(b, a)
            assert add(add(a, b), c) == add(a, add(b, c))
            assert add(a, a) == a


def test_mul_ops_commutative_associative_distributive():
    rng = np.random.default_rng(102)
    triples = zip(_random_scalars(rng, 500), _random_scalars(rng, 500), _random_scalars(rng, 500))
    for a, b, c in triples:
        assert max_plus_mul(a, b) == max_plus_mul(b, a)
        assert min_plus_mul(a, b) == min_plus_mul(b, a)
        assert max_plus_mul(max_plus_mul(a, b), c) == max_plus_mul(a, max_plus_mul(b, c))
        assert min_plus_mul(min_plus_mul(a, b), c) == min_plus_mul(a, min_plus_mul(b, c))
        assert max_plus_mul(a, max_plus_add(b, c)) == max_plus_add(max_plus_mul(a, b), max_plus_mul(a, c))
        assert min_plus_mul(a, min_plus_add(b, c)) == min_plus_add(min_plus_mul(a, b), min_plus_mul(a, c))


def test_conjugation_swaps_the_semirings_all_state_combos():
    # conj(a ⊗ b) == conj(a) ⊗' conj(b) over all nine {finite, -inf, +inf} pairs
    for a in STATES:
        for b in STATES:
            assert conj(max_plus_mul(a, b)) == bf.mul_min(conj(a), conj(b))
            assert conj(bf.mul_min(a, b)) == max_plus_mul(conj(a), conj(b))


def test_conjugation_reverses_order():
    rng = np.random.default_rng(103)
    for a, b in zip(_random_scalars(rng, 300), _random_scalars(rng, 300)):
        P, Q = TropicalMatrix([[a]]), TropicalMatrix([[b]])
        assert bf.leq(P.tolist(), Q.tolist()) == bf.leq(negate(Q).tolist(), negate(P).tolist())


def test_scalar_entries_reject_nan():
    assert TropicalMatrix([[4]]).data[0, 0] == 4.0
    assert TropicalMatrix([["-inf"]]).data[0, 0] == NEG_INF
    with pytest.raises(ValueError):
        TropicalMatrix([[float("nan")]])


def parse_token(token: str) -> float:
    """The value of ``token`` read as the one entry of a 1×1 matrix file."""
    return parse_matrix(f"1 1\n{token}\n").data[0, 0]


def test_scalar_tokens_round_trip():
    for value in (0.0, -3.0, 7.0, 2.5, -1e-3, NEG_INF, POS_INF, 1e300):
        assert parse_token(format_scalar(value)) == value
    assert format_scalar(5.0) == "5"
    assert format_scalar(NEG_INF) == "-inf"
    assert format_scalar(POS_INF) == "+inf"
    # every infinity spelling, unsigned, signed and in any case
    for spelling in ("inf", "INF", "Inf", "iNf", "infinity", "INFINITY", "Infinity", "InFiNiTy"):
        assert parse_token(spelling) == POS_INF
        assert parse_token("+" + spelling) == POS_INF
        assert parse_token("-" + spelling) == NEG_INF
    # NaN, finite literals beyond float64 and non-decimal tokens are errors naming the token,
    # digit separators and non-ASCII digits (which float reads) included
    for token in ("1e400", "-1E309", "-1e400", "nan", "-nan", "NaN", "infinit", "0x10", "abc",
                  "1_000", "0_0", "١٢", "１２"):
        with pytest.raises(ParseError, match=re.escape(repr(token))):
            parse_token(token)
    # finite literals parse to the bits float gives them, subnormals included;
    # a matrix holds no -0.0, so "-0" reads as +0.0
    for token in ("0", "-0", "+7", "-3.5", ".5", "5.", "1E5", "2.5e-3", "4.9e-324", "1.7976931348623157e308"):
        assert struct.pack("<d", parse_token(token)) == struct.pack("<d", float(token) + 0.0)


def test_integer_sums_stay_exact():
    rng = np.random.default_rng(104)
    for _ in range(200):
        a = float(rng.integers(-10**9, 10**9))
        b = float(rng.integers(-10**9, 10**9))
        out = max_plus_mul(a, b)
        assert out == math.floor(out)


def test_numpy_kernel_and_python_parser_keep_the_laws(monkeypatch):
    # with no compiled library ⊕ and ⊗ run in numpy and every token in the Python grammar
    monkeypatch.setattr(ckernel, "LIBRARY", ckernel.NUMPY)
    test_max_plus_add_examples()
    test_min_plus_add_examples()
    test_add_ops_commutative_associative_idempotent()
    test_mul_ops_commutative_associative_distributive()
    test_scalar_tokens_round_trip()
