import ctypes
import functools
import math
import re
import shutil
import subprocess
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import bruteforce as bf
from maxplus_sylvester import ckernel
from maxplus_sylvester.matrix import (
    NEG_INF,
    POS_INF,
    ShapeError,
    TropicalMatrix,
    max_plus_matmul,
    negate,
    transpose,
)
from maxplus_sylvester.opcount import semiring_ops
from maxplus_sylvester.oracle import kron_max, max_plus_unit, unvec, vec
from maxplus_sylvester.solver import (
    SylvesterInstance,
    effective_tolerance,
    linear_principal_solution,
    solve_sylvester,
    sylvester_apply,
    sylvester_principal_solution,
)

M = TropicalMatrix


@pytest.fixture
def kernel(request, monkeypatch):
    """The product kernel a test runs on: "live", the compiled C loop wherever
    gcc exists (see test_compiled_kernel_is_live_when_a_compiler_exists),
    or "numpy", the fallback and bit reference, with no library at all."""
    if request.param == "numpy":
        monkeypatch.setattr(ckernel, "LIBRARY", ckernel.NUMPY)
    return request.param


def on_both_kernels(argnames, cases):
    """Parametrize over ``cases``, each on the live kernel under its plain id
    and again on the numpy kernel as ``numpy-<id>``."""
    params = []
    for case in cases:
        case_id = "-".join(map(str, case))
        params += [pytest.param(*case, "live", id=case_id), pytest.param(*case, "numpy", id=f"numpy-{case_id}")]
    return pytest.mark.parametrize(f"{argnames},kernel", params, indirect=["kernel"])


def full(rows, cols, value):
    return M(np.full((rows, cols), value))


def rand(rng, rows, cols, neg=0.0, pos=0.0):
    return M(bf.random_entries(rng, rows, cols, neg_density=neg, pos_density=pos))


def min_plus_matmul(P, Q):
    """The min-plus product by duality, −((−P) ⊗ (−Q)), as the solvers form residuals."""
    return negate(max_plus_matmul(negate(P), negate(Q)))


def test_constructor_validates():
    with pytest.raises(ValueError):
        M([[1.0, float("nan")]])
    with pytest.raises(ShapeError):
        M(np.zeros((0, 2)))
    with pytest.raises(ShapeError):
        M([1.0, 2.0])
    # -0.0 is folded to +0.0 so formatting stays canonical
    assert math.copysign(1.0, M([[-0.0]]).data[0, 0]) == 1.0


def test_max_plus_matmul_example():
    out = max_plus_matmul(M([[0, 1], [2, 0]]), M([[2], [2]]))
    assert out == M([[3], [4]])
    assert out.tolist() == bf.max_plus_matmul([[0, 1], [2, 0]], [[2], [2]])


def test_max_plus_matmul_unit_and_absorbing():
    rng = np.random.default_rng(1)
    A = rand(rng, 3, 4, neg=0.2)
    assert max_plus_matmul(max_plus_unit(3), A) == A
    Z = full(2, 3, NEG_INF)
    assert max_plus_matmul(Z, A) == full(2, 4, NEG_INF)


def test_min_plus_matmul_example():
    out = min_plus_matmul(M([[0, -2], [-1, 0]]), M([[3], [4]]))
    assert out == M([[2], [2]])
    assert out.tolist() == bf.min_plus_matmul([[0, -2], [-1, 0]], [[3], [4]])


def test_min_plus_matmul_unit_and_absorbing():
    rng = np.random.default_rng(2)
    A = rand(rng, 3, 2, pos=0.2)
    E = negate(max_plus_unit(3))  # the unit of ⊗'
    assert E == M([[0, POS_INF, POS_INF], [POS_INF, 0, POS_INF], [POS_INF, POS_INF, 0]])
    assert min_plus_matmul(E, A) == A
    assert min_plus_matmul(full(2, 3, POS_INF), A) == full(2, 2, POS_INF)


def test_kernels_refuse_overflowing_sums():
    big = M([[1e308]])
    with pytest.raises(ValueError, match="overflows float64"):
        max_plus_matmul(big, big)
    big2 = M([[1e308, 0], [0, 0]])  # two output columns
    with pytest.raises(ValueError, match="overflows float64"):
        max_plus_matmul(big2, big2)
    with pytest.raises(ValueError, match="overflows float64"):
        kron_max(big, M([[0, 1e308]]))
    # infinities are states, not overflow; the largest finite sums still work
    assert max_plus_matmul(M([[POS_INF, NEG_INF]]), M([[1e308], [1e308]])) == M([[POS_INF]])
    assert max_plus_matmul(M([[1e308]]), M([[-1e308]])) == M([[0]])
    assert kron_max(M([[NEG_INF]]), M([[POS_INF, 1e308]])) == M([[NEG_INF, NEG_INF]])
    # one overflowing sum anywhere refuses the product, even where a larger
    # infinity would win the max: in a whole 6×32 tile (row 0, 32 columns),
    # in a padded one (row 7 of 9, or 9 columns) and in the n == 1 lanes
    Q = np.zeros((20, 32))
    Q[5, :] = 1e308
    Q[0, :] = POS_INF
    for row, cols in ((0, 9), (0, 32), (0, 1), (7, 32), (7, 9)):
        P = np.zeros((9, 20))
        P[row, 5] = 1e308
        with pytest.raises(ValueError, match="overflows float64"):
            max_plus_matmul(M(P), M(Q[:, :cols]))
    # entries near the limit whose true sums fit are not refused where a
    # padded tile meets them: in the rows past a multiple of 6 (Q's row of
    # 1e308 meets the padded rows of P) and in the columns past a multiple
    # of 32 (P's column of 1e308 meets the padded columns of Q)
    Q = np.zeros((20, 32))
    Q[5, :] = 1e308
    assert max_plus_matmul(M(np.zeros((9, 20))), M(Q)) == full(9, 32, 1e308)
    P = np.zeros((6, 20))
    P[:, 5] = 1e308
    for cols in (33, 9):
        assert max_plus_matmul(M(P), M(np.zeros((20, cols)))) == full(6, cols, 1e308)


def test_numpy_kernel_refuses_overflowing_sums(monkeypatch):
    monkeypatch.setattr(ckernel, "LIBRARY", ckernel.NUMPY)
    test_kernels_refuse_overflowing_sums()


def test_both_kernels_raise_on_overflow_with_no_caller_errstate():
    # the kernels' own contract, which max_plus_matmul relies on: a
    # FloatingPointError in plain and in accumulate mode, and -inf for an
    # all -inf + +inf cell with no warning (an error under pytest's filter)
    P, Q = np.array([[1e308, NEG_INF]]), np.array([[1e308], [POS_INF]])
    for kernel in (ckernel.LIBRARY, ckernel.NUMPY):
        with pytest.raises(FloatingPointError):
            kernel.product(P, Q)
        with pytest.raises(FloatingPointError):
            kernel.product(P, Q, np.zeros((1, 1)))
        assert kernel.product(P[:, 1:], Q[1:]).tolist() == [[NEG_INF]]


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        max_plus_matmul(full(2, 3, 0.0), full(2, 2, 0.0))


def test_conjugate_examples():
    # the conjugate −Aᵀ is a transpose followed by an exact negation
    assert negate(transpose(M([[0, 1], [2, 0]]))) == M([[0, -2], [-1, 0]])
    assert negate(transpose(full(2, 3, NEG_INF))) == full(3, 2, POS_INF)
    # 0.0 - x never yields -0.0, so negated zeros format as "0"
    assert math.copysign(1.0, negate(M([[0]])).data[0, 0]) == 1.0
    rng = np.random.default_rng(4)
    A = rand(rng, 4, 3, neg=0.2, pos=0.1)
    assert negate(negate(A)) == A
    assert negate(transpose(A)).tolist() == bf.conjugate(A.tolist())


def test_vec_unvec_examples():
    X = M([[1, 2], [3, 4]])
    assert vec(X) == M([[1], [3], [2], [4]])
    col = M([[5], [6]])
    assert vec(col) == col
    assert unvec(vec(X), 2, 2) == X
    assert unvec(M([[5], [6]]), 1, 2) == M([[5, 6]])
    with pytest.raises(ShapeError):
        unvec(M([[1], [2], [3]]), 2, 2)


def test_kron_block_structure():
    rng = np.random.default_rng(5)
    A = rand(rng, 2, 2)
    B = rand(rng, 3, 3)
    K = kron_max(transpose(B), A)
    # first block-row must be B[0][0] ⊗ A, B[1][0] ⊗ A, ..., B[n-1][0] ⊗ A
    for s in range(3):
        block = K.data[0:2, 2 * s:2 * s + 2]
        assert np.array_equal(block, B.data[s, 0] + A.data)
    assert K.tolist() == bf.kron_max(bf.transpose(B.tolist()), A.tolist())


def test_kron_scalar_cases():
    rng = np.random.default_rng(6)
    N = rand(rng, 3, 2, neg=0.2)
    assert kron_max(M([[0]]), N) == N
    assert kron_max(M([[NEG_INF]]), N) == full(3, 2, NEG_INF)


@pytest.mark.parametrize("neg,pos", [(0.0, 0.0), (0.2, 0.1)])
def test_vec_reformulation_identity(neg, pos):
    rng = np.random.default_rng(7)
    for _ in range(150):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        A, X, B = rand(rng, m, m, neg, pos), rand(rng, m, n, neg, pos), rand(rng, n, n, neg, pos)
        lhs = vec(max_plus_matmul(max_plus_matmul(A, X), B))
        rhs = max_plus_matmul(kron_max(transpose(B), A), vec(X))
        assert lhs == rhs


def test_conjugate_kronecker_identity():
    rng = np.random.default_rng(8)
    for _ in range(150):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        A, B = rand(rng, m, m, 0.15, 0.05), rand(rng, n, n, 0.15, 0.05)
        lhs = negate(transpose(kron_max(transpose(B), A))).tolist()
        rhs = bf.kron_min(bf.transpose(bf.conjugate(B.tolist())), bf.conjugate(A.tolist()))
        assert lhs == rhs


def test_residuation_biconditional_with_infinities():
    rng = np.random.default_rng(9)
    for _ in range(300):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        A = rand(rng, m, n, 0.2, 0.1)
        x = rand(rng, n, 1, 0.2, 0.1)
        b = rand(rng, m, 1, 0.2, 0.1)
        lhs = bf.leq(max_plus_matmul(A, x).tolist(), b.tolist())
        rhs = bf.leq(x.tolist(), linear_principal_solution(A, b).tolist())
        assert lhs == rhs


def test_conjugate_of_product():
    # only -inf entries, so no mixed-infinity products arise
    rng = np.random.default_rng(10)
    for _ in range(150):
        m, k, n = (int(v) for v in rng.integers(1, 6, size=3))
        P, Q = rand(rng, m, k, neg=0.25), rand(rng, k, n, neg=0.25)
        lhs = negate(transpose(max_plus_matmul(P, Q))).tolist()
        assert lhs == bf.min_plus_matmul(bf.conjugate(Q.tolist()), bf.conjugate(P.tolist()))


def test_integer_inputs_stay_integral():
    rng = np.random.default_rng(11)
    for _ in range(40):
        m, k, n = (int(v) for v in rng.integers(1, 6, size=3))
        P, Q = rand(rng, m, k, neg=0.2), rand(rng, k, n, neg=0.2)
        for out in (max_plus_matmul(P, Q), kron_max(P, Q), negate(P)):
            finite = out.data[np.isfinite(out.data)]
            assert (finite == np.floor(finite)).all()


def test_matmul_matches_bruteforce_with_infinities():
    rng = np.random.default_rng(12)
    for _ in range(200):
        m, k, n = (int(v) for v in rng.integers(1, 6, size=3))
        P = rand(rng, m, k, 0.25, 0.15)
        Q = rand(rng, k, n, 0.25, 0.15)
        assert max_plus_matmul(P, Q).tolist() == bf.max_plus_matmul(P.tolist(), Q.tolist())
        assert min_plus_matmul(P, Q).tolist() == bf.min_plus_matmul(P.tolist(), Q.tolist())
        assert kron_max(P, Q).tolist() == bf.kron_max(P.tolist(), Q.tolist())


def _assert_same_bits(got: TropicalMatrix, want):
    want = np.array(want, dtype=np.float64)
    assert got.shape == want.shape
    assert np.array_equal(got.data.view(np.int64), want.view(np.int64))


# numpy: a block holds max(1, 2**16 // (k·n)) rows of P, or of Qᵀ when
# m > n > 1 and the product is built transposed:
# 16 rows take 13 per block, so the last block holds 3;
# 40×300·7 is transposed, its 7 rows of Qᵀ take 5 per block, the last 2;
# 300×50·11 is transposed, its 11 rows of Qᵀ take 4 per block, the last 3;
# 256 rows take 85 per block, so the last block holds 1;
# k·n = 90000 is above the block size, so every block holds 1 row.
# C: passes of 256 inner indices, so k = 257, 300 and 513 end in a short
# pass.  Whole 6×32 blocks run the register tile in place; the rows past
# the last multiple of 6 and the columns past the last multiple of 32 run
# it on copies padded with -inf.  12×64 is whole tiles only; 3 rows, or
# 7 columns, fill no whole tile; 7×33 is one row and one column past a
# tile, 9×513 three rows and one column; 16×16 is two whole row blocks
# and four rows past them, all in one partial column block; 5×64 and
# 1×40 (over two passes) have no whole row block; 13×95 is one row and
# 31 columns past whole tiles; 11×65 is five rows and one column past
# them, over three passes; 6×56 is 24 columns past a whole tile
MATMUL_EDGES = [(16, 300, 16), (40, 300, 7), (300, 50, 11), (256, 3, 256), (3, 300, 300), (9, 65, 513),
                (13, 513, 17), (7, 257, 33), (12, 256, 64), (5, 300, 64), (13, 40, 95), (1, 257, 40),
                (11, 513, 65), (6, 300, 56)]


def _edge_operands(m, k, n, integers=False):
    rng = np.random.default_rng(13)
    if integers:
        P, Q = rng.integers(-1000, 1001, (m, k)).astype(float), rng.integers(-1000, 1001, (k, n)).astype(float)
    else:
        P, Q = rng.normal(0, 1e3, (m, k)), rng.normal(0, 1e3, (k, n))
    for X in (P, Q):
        X[rng.random(X.shape) < 0.3] = NEG_INF
    # +inf only in column 0 of Q, so the other cells keep finite maxima that
    # any block may hold; cell (0, 0) sees only -inf + +inf sums
    P[0, :] = NEG_INF
    Q[:, 0] = POS_INF
    return P, Q


# Integer products the C loop runs on the int16 tile, which is 6×128 and
# pads with -2**14.  The first four fill no whole column tile: 64×300·64 is
# 4 rows past the last whole row block, over two passes; 31×513·65 is one
# row past it, over three passes; 50×64·95 is two rows past it; 97×96·40 is
# one.  20×257·130 is two rows and two columns past the whole tiles, over
# two passes; 24×256·128 is whole tiles only; 48×300·257 is two whole
# column blocks and one column past them, over two passes.  The numpy
# kernel splits and transposes them as it does MATMUL_EDGES
INT_EDGES = [(64, 300, 64), (31, 513, 65), (50, 64, 95), (97, 96, 40), (20, 257, 130), (24, 256, 128),
             (48, 300, 257)]


@functools.cache
def _int_edge_product(m, k, n):
    P, Q = _edge_operands(m, k, n, integers=True)
    return bf.max_plus_matmul(P.tolist(), Q.tolist())


@on_both_kernels("m,k,n", MATMUL_EDGES)
def test_matmul_block_edges_match_bruteforce(m, k, n, kernel):
    P, Q = _edge_operands(m, k, n)
    _assert_same_bits(max_plus_matmul(M(P), M(Q)), bf.max_plus_matmul(P.tolist(), Q.tolist()))


def test_avx2_build_matches_bruteforce(tmp_path, monkeypatch):
    # built for AVX2, with 16 vector registers where AVX-512 has 32, gcc
    # lays out the register tiles differently; that build must give the
    # same bits
    if "avx2" not in ckernel._cpu_flags().split():
        pytest.skip("the CPU cannot run AVX2 code")
    if shutil.which("gcc") is None:
        pytest.skip("no C compiler")
    monkeypatch.setattr(ckernel, "FLAGS", tuple("-march=x86-64-v3" if f == "-march=native" else f
                                                 for f in ckernel.FLAGS))
    monkeypatch.setattr(ckernel, "CACHE", tmp_path)
    library = ckernel.load()
    assert library is not None
    for m, k, n in MATMUL_EDGES:
        P, Q = _edge_operands(m, k, n)
        want = bf.max_plus_matmul(P.tolist(), Q.tolist())
        _assert_same_bits(TropicalMatrix._wrap(library.product(P, Q)), want)
    for m, k, n in INT_EDGES:
        P, Q = _edge_operands(m, k, n, integers=True)
        _assert_same_bits(TropicalMatrix._wrap(library.product(P, Q)), _int_edge_product(m, k, n))


def _assembly(flags, tmp_path) -> str:
    """The assembly of maxplus_product.c built with ``flags``, with every warning an error."""
    out = tmp_path / "maxplus_product.s"
    subprocess.run(["gcc", str(ckernel.SOURCES[0]), *flags, "-Werror", "-S", "-o", str(out)],
                   check=True, capture_output=True, timeout=120)
    return out.read_text()


def test_tiles_are_built_at_512_bits(tmp_path):
    # the tiles' 24 accumulators fit AVX-512's 32 registers as 512-bit
    # vectors; gcc's tuning for recent AVX-512 cores prefers 256 bits, at
    # which they spill and every product runs at about half speed.  So
    # every max in each tile, found by name prefix with its clones (such as
    # tile_i16_12x64.constprop.0), is on zmm registers, every instance the
    # source includes is found, and an AVX2 build of the same source is
    # warning-free and has no zmm.
    if "avx512f" not in ckernel._cpu_flags().split():
        pytest.skip("the CPU has no AVX-512")
    if shutil.which("gcc") is None:
        pytest.skip("no C compiler")
    text = _assembly(ckernel.FLAGS, tmp_path)
    bodies = re.findall(r"^((tile_f64|tile_i16\w*)(?:\.\w+)*):$(.*?)^\s*\.size\s+\1,", text, re.M | re.S)
    instances = re.findall(r"^#define NAME\(f\) f##_(\w+)$", ckernel.SOURCES[0].read_text(), re.M)
    names = {f"tile_{suffix}" for suffix in instances}
    assert {name for _, name, _ in bodies} == names >= {"tile_f64", "tile_i16_6x128"}
    for label, name, body in bodies:
        op = "vmaxpd" if name == "tile_f64" else "vpmaxsw"
        maxes = [line for line in body.splitlines() if line.split()[:1] == [op]]
        assert maxes and all("%zmm" in line for line in maxes), label
    avx2 = tuple("-march=x86-64-v3" if f == "-march=native" else f for f in ckernel.FLAGS)
    assert "%zmm" not in _assembly(avx2, tmp_path)


# Products the compiled C loop gives each int16 instance, the one whose
# weighted padded work is least, on integer data up to the product bound.
# 6×128: 23×300·127 is one row short of a 6-row block and one column short
# of 128; 13×300·191 is one row past two blocks and one column short of 256;
# 24×256·128 is whole blocks.  12×64: 25×300·63 is one row past two 12-row
# blocks and one column short of 64; 35×300·64 is one row short of three;
# 36×300·129 is one column past two 64-column blocks; 36×300·64 is whole
# blocks
INSTANCE_EDGES = [(23, 300, 127), (13, 300, 191), (24, 256, 128), (25, 300, 63), (35, 300, 64), (36, 300, 129),
                  (36, 300, 64)]


@pytest.mark.parametrize("m,k,n", INSTANCE_EDGES)
def test_both_int16_instances_match_bruteforce_at_their_edges(m, k, n):
    if ckernel.LIBRARY is ckernel.NUMPY:
        pytest.skip("no compiled library")
    rng = np.random.default_rng(33)
    P, Q = rng.integers(-2047, 2048, (m, k)).astype(float), rng.integers(-2047, 2048, (k, n)).astype(float)
    P[rng.random(P.shape) < 0.2], Q[rng.random(Q.shape) < 0.2] = NEG_INF, POS_INF
    P[-1, :], Q[:, -1] = 2047, -2047  # the last row and column, which padding neighbours, at the bounds
    want = np.array(bf.max_plus_matmul(P.tolist(), Q.tolist()))
    assert np.array_equal(ckernel.LIBRARY.product(P, Q).view(np.int64), want.view(np.int64))
    acc = rng.integers(-2047, 2048, (m, n)).astype(float)
    want = np.maximum(acc, want)
    assert np.array_equal(ckernel.LIBRARY.product(P, Q, acc).view(np.int64), want.view(np.int64))


@on_both_kernels("m,k,n", INT_EDGES)
def test_integer_block_edges_match_bruteforce(m, k, n, kernel):
    P, Q = _edge_operands(m, k, n, integers=True)
    _assert_same_bits(max_plus_matmul(M(P), M(Q)), _int_edge_product(m, k, n))


@on_both_kernels("m,k,n", INT_EDGES)
def test_integer_accumulate_matches_bruteforce(m, k, n, kernel):
    P, Q = _edge_operands(m, k, n, integers=True)
    rng = np.random.default_rng(22)
    acc = rng.integers(-2047, 2048, (m, n)).astype(float)
    # row 0 of the product is -inf, and column 0 is +inf below it, so acc's
    # infinities meet a -inf and a +inf cell as well as finite ones
    acc[rng.random(acc.shape) < 0.1] = NEG_INF
    acc[rng.random(acc.shape) < 0.05] = POS_INF
    acc[0, :2] = POS_INF, NEG_INF
    want = np.maximum(acc, np.array(_int_edge_product(m, k, n)))
    before = semiring_ops.total
    assert max_plus_matmul(M(P), M(Q), acc) is None
    assert semiring_ops.total - before == m * n * (k + 1)
    assert np.array_equal(acc.view(np.int64), want.view(np.int64))


# ±(2**11 - 1) are the largest entries the int16 tile takes in a product,
# and the sums of two of them, ±(2**12 - 2), stay short of the codes that
# decode to an infinity; ±2**11, whose sum 2**12 would decode to +inf, a
# fraction, ±1e300 and -0.0, which the int16 tile would sum to 0.0, send
# the product to the double tile.  Either way the bits are the bit
# reference's.  64×64·128 is a shape the C loop gives the int16 tile
@pytest.mark.parametrize("value", [2**11 - 1, -(2**11 - 1), 2**11, -2**11, 0.5, 1e300, -1e300, -0.0])
def test_integer_tile_bound_keeps_the_bits(value):
    rng = np.random.default_rng(23)
    P, Q = rng.integers(-9, 10, (64, 64)).astype(float), rng.integers(-9, 10, (64, 128)).astype(float)
    # cell (0, 0) takes only value + value, cell (1, 1) +inf and cell (2, 2) -inf
    P[0, :], Q[:, 0] = value, value
    P[1, :], Q[:, 1] = value, POS_INF
    P[2, :], Q[:, 2] = NEG_INF, value
    acc = rng.integers(-9, 10, (64, 128)).astype(float)
    acc[3, 3], acc[4, 4], acc[5, 5] = value, NEG_INF, POS_INF
    assert not _same_bits_or_both_raise(lambda kernel: kernel.product(P, Q))
    assert not _same_bits_or_both_raise(lambda kernel: kernel.product(P, Q, acc.copy()))
    got = ckernel.LIBRARY.product(P, Q)
    assert got[0, 0] == 2 * value and got[1, 1] == POS_INF and got[2, 2] == NEG_INF
    # raw bits: TropicalMatrix would fold the -0.0 of -0.0 + -0.0 to 0.0
    want = np.array(bf.max_plus_matmul(P.tolist(), Q.tolist()))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@on_both_kernels("m,k", [(300, 300), (3, 70000), (5, 15), (4, 33)])
def test_matvec_block_edges_match_bruteforce(m, k, kernel):
    # numpy: 300 rows take 2**16 // 300 = 218 per block, so the last block
    # holds 82; k above the block size clamps to one row per block.
    # C: 16 lanes per row, then a tail of k mod 16 (12, 0, 15 and 1) sums
    rng = np.random.default_rng(14)
    P, q = rng.normal(0, 1e3, (m, k)), rng.normal(0, 1e3, (k, 1))
    for X in (P, q):
        X[rng.random(X.shape) < 0.3] = NEG_INF
    # the +inf in q meets only -inf in P: row 0 sees only -inf and
    # -inf + +inf sums, the other rows keep finite maxima
    q[1] = POS_INF
    P[:, 1] = NEG_INF
    P[0, :] = NEG_INF
    _assert_same_bits(max_plus_matmul(M(P), M(q)), bf.max_plus_matmul(P.tolist(), q.tolist()))


# the MATMUL_EDGES blocks, and the n == 1 lanes: 300 sums a row are 18
# groups of 16 and a tail of 12, and 5 sums fill no group
@on_both_kernels("m,k,n", MATMUL_EDGES + [(300, 300, 1), (4, 5, 1)])
def test_accumulate_maxes_the_product_into_the_running_array(m, k, n, kernel):
    rng = np.random.default_rng(18)
    P, Q, acc = rng.normal(0, 1e3, (m, k)), rng.normal(0, 1e3, (k, n)), rng.normal(0, 4e3, (m, n))
    for X in (P, Q, acc):
        X[rng.random(X.shape) < 0.3] = NEG_INF
    # row 0 of the product is -inf, so acc alone sets it; +inf in acc and
    # in a column of Q, where P's -inf row makes -inf + +inf sums
    P[0, :] = NEG_INF
    Q[:, -1] = POS_INF
    acc[rng.random(acc.shape) < 0.05] = POS_INF
    want = np.maximum(acc, max_plus_matmul(M(P), M(Q)).data)
    before = semiring_ops.total
    assert max_plus_matmul(M(P), M(Q), acc) is None
    assert semiring_ops.total - before == m * n * (k + 1)
    assert np.array_equal(acc.view(np.int64), want.view(np.int64))


@on_both_kernels("n", [(1,), (9,), (32,)])
def test_accumulate_overflow_is_refused_and_leaves_no_matrix(n, kernel, monkeypatch):
    # the overflowing sum sits in a padded row block, or in the n == 1 lanes
    P = np.zeros((9, 20))
    P[7, 5] = 1e308
    Q = np.zeros((20, n))
    Q[5, :] = 1e308
    with pytest.raises(ValueError) as plain:
        max_plus_matmul(M(P), M(Q))
    with pytest.raises(ValueError) as accumulated:
        max_plus_matmul(M(P), M(Q), np.zeros((9, n)))
    assert str(accumulated.value) == str(plain.value)
    # the second term of an apply overflows after the first is in the running
    # array: the only matrices made are the inner products A_k ⊗ X
    wrapped = []
    wrap = TropicalMatrix._wrap.__func__

    def recording_wrap(cls, arr):
        wrapped.append(arr)
        return wrap(cls, arr)

    monkeypatch.setattr(TropicalMatrix, "_wrap", classmethod(recording_wrap))
    A, X = full(9, 9, 0.0), full(9, n, 1e308)
    with pytest.raises(ValueError, match="overflows float64"):
        sylvester_apply((A, A), (full(n, n, 0.0), full(n, n, 1e308)), X)
    assert len(wrapped) == 2 and all((arr == 1e308).all() for arr in wrapped)


@on_both_kernels("n", [(1,), (9,)])
def test_accumulate_refuses_an_array_it_cannot_write_in_place(n, kernel):
    P, Q = full(4, 3, 0.0), full(3, n, 1.0)
    frozen = full(4, n, 0.0).data  # a matrix's own array is read-only
    with pytest.raises(ShapeError, match=r"into an array of shape \(4, %d\)" % (n + 1)):
        max_plus_matmul(P, Q, np.zeros((4, n + 1)))
    for acc in (frozen, np.zeros((4, n), dtype=np.float32), np.zeros((4, 2 * n))[:, ::2]):
        with pytest.raises(ValueError, match="writeable, C-contiguous and float64"):
            max_plus_matmul(P, Q, acc)
    assert (frozen == 0.0).all()


@on_both_kernels("m,k,n", [(256, 256, 256), (256, 256, 24)])
def test_matmul_peak_memory_is_bounded(m, k, n, kernel):
    # numpy: the output, a transposed copy of the larger operand and one
    # block of sums, plus 128 KiB for numpy's iterator buffers; every sum at
    # once would take 128 MiB and 12 MiB.  C: the output alone
    rng = np.random.default_rng(15)
    P, Q = M(rng.normal(0, 1e3, (m, k))), M(rng.normal(0, 1e3, (k, n)))
    tracemalloc.start()
    try:
        max_plus_matmul(P, Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (m * n + max(m * k, k * n) + ckernel.NUMPY.block) + 2**17


_ENTRIES = st.one_of(
    st.integers(-20, 20).map(float),
    st.floats(-1e3, 1e3),
    st.sampled_from([NEG_INF, POS_INF]),
    st.builds(math.copysign, st.floats(1e300, 1e308), st.sampled_from([1.0, -1.0])),
)


@st.composite
def _operands(draw):
    # k up to 20 crosses the C loop's 16 lanes when n == 1; m up to 14 and
    # n up to 44 fill whole 6×32 tiles and leave padded row and column
    # blocks after them
    m, k, n = draw(st.integers(1, 14)), draw(st.integers(1, 20)), draw(st.integers(1, 44))
    P = draw(arrays(np.float64, (m, k), elements=_ENTRIES))
    Q = draw(arrays(np.float64, (k, n), elements=_ENTRIES))
    return M(P), M(Q)


@st.composite
def _integer_operands(draw):
    # shapes the int16 tile takes when m·k is large enough beside k·n: n from
    # 33 to 140 crosses its 128 columns, k up to 300 its 256 inner indices
    # per pass.
    # Entries are integers up to the tile's bound and ±inf, drawn by a seeded
    # generator, with whole rows and columns of one infinity laid over them
    m, k, n = draw(st.integers(6, 40)), draw(st.integers(8, 300)), draw(st.integers(33, 140))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bound = draw(st.sampled_from([20, 2**11 - 1]))
    operands = []
    for rows, cols in ((m, k), (k, n), (m, n)):
        X = rng.integers(-bound, bound + 1, (rows, cols)).astype(float)
        X[rng.random((rows, cols)) < draw(st.sampled_from([0.0, 0.1, 0.6]))] = NEG_INF
        X[rng.random((rows, cols)) < draw(st.sampled_from([0.0, 0.05, 0.3]))] = POS_INF
        for axis, index, value in draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 299),
                                                          st.sampled_from([NEG_INF, POS_INF])), max_size=3)):
            if axis:
                X[:, index % cols] = value
            else:
                X[index % rows, :] = value
        operands.append(X)
    return operands


@given(_integer_operands())
def test_integer_product_kernels_agree_on_any_entries(operands):
    P, Q, acc = operands
    assert not _same_bits_or_both_raise(lambda kernel: kernel.product(P, Q))
    assert not _same_bits_or_both_raise(lambda kernel: kernel.product(P, Q, acc.copy()))


@given(_operands(), st.integers(1, 256))
def test_matmul_property_matches_bruteforce(operands, small_block):
    P, Q = operands
    try:
        want = bf.max_plus_matmul(P.tolist(), Q.tolist())
    except OverflowError:
        want = None
    # a tiny block makes the same shapes cross the numpy kernel's block
    # edges, end in partial blocks and clamp to one row per block; it runs
    # first, so no output can find a correct result left in recycled memory
    for block in (small_block, ckernel.NUMPY.block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ckernel.NUMPY, "block", block)
            if want is None:
                with pytest.raises(ValueError, match="overflows float64"):
                    max_plus_matmul(P, Q)
            else:
                _assert_same_bits(max_plus_matmul(P, Q), want)


def test_numpy_kernel_property_matches_bruteforce(monkeypatch):
    monkeypatch.setattr(ckernel, "LIBRARY", ckernel.NUMPY)
    test_matmul_property_matches_bruteforce()


def test_compiled_kernel_is_live_when_a_compiler_exists():
    # a broken build would otherwise pass every test on the slower numpy kernel
    assert (ckernel.LIBRARY is ckernel.NUMPY) == (shutil.which("gcc") is None)


def test_loader_without_a_compiler_returns_the_numpy_kernel(tmp_path, monkeypatch):
    # no cached build and no gcc on PATH, as on a machine without a compiler
    monkeypatch.setattr(ckernel, "CACHE", tmp_path)
    monkeypatch.setenv("PATH", str(tmp_path))
    assert ckernel.load() is None
    monkeypatch.setattr(ckernel, "LIBRARY", ckernel.NUMPY)
    rng = np.random.default_rng(16)
    P, Q = rand(rng, 20, 30, 0.2, 0.1), rand(rng, 30, 17, 0.2, 0.1)
    want = ckernel.NUMPY.product(P.data, Q.data)
    _assert_same_bits(max_plus_matmul(P, Q), want)


def test_concurrent_builds_each_load_a_whole_library(tmp_path, monkeypatch):
    # loaders that find no cached build at once each compile to a temporary
    # file and rename it into place, so each one loads a whole library
    if shutil.which("gcc") is None:
        pytest.skip("no C compiler")
    monkeypatch.setattr(ckernel, "CACHE", tmp_path)
    with ThreadPoolExecutor(3) as pool:
        libraries = list(pool.map(lambda _: ckernel.load(), range(3)))
    assert None not in libraries
    assert [path.suffix for path in tmp_path.iterdir()] == [".so"]
    rng = np.random.default_rng(17)
    P, Q = rand(rng, 10, 20, 0.2, 0.1), rand(rng, 20, 9, 0.2, 0.1)
    want = bf.max_plus_matmul(P.tolist(), Q.tolist())
    for library in libraries:
        _assert_same_bits(TropicalMatrix._wrap(library.product(P.data, Q.data)), want)



def test_sources_compile_without_warnings(tmp_path):
    if shutil.which("gcc") is None:
        pytest.skip("no C compiler")
    subprocess.run(["gcc", *map(str, ckernel.SOURCES), *ckernel.FLAGS, "-Wall", "-Wextra", "-Werror",
                    "-o", str(tmp_path / "library.so")], check=True, capture_output=True, timeout=120)


def test_cache_key_covers_the_included_header(tmp_path, monkeypatch):
    # a header edit must not load the build made from the old header; the
    # copies are "built" by a gcc on PATH that writes nothing, so no real gcc
    # is needed
    header = tmp_path / "maxplus_tile.h"
    header.write_bytes(ckernel.SOURCES[0].with_name(header.name).read_bytes())
    for source in ckernel.SOURCES:
        (tmp_path / source.name).write_bytes(source.read_bytes())
    monkeypatch.setattr(ckernel, "SOURCES", tuple(tmp_path / source.name for source in ckernel.SOURCES))
    monkeypatch.setattr(ckernel, "CACHE", tmp_path / "cache")
    gcc = tmp_path / "bin" / "gcc"
    gcc.parent.mkdir()
    gcc.write_text("#!/bin/sh\n")
    gcc.chmod(0o755)
    monkeypatch.setenv("PATH", str(gcc.parent))
    first = ckernel._library()
    assert ckernel._library() == first
    header.write_bytes(header.read_bytes() + b"\n")
    assert ckernel._library() != first

def _same_bits_or_both_raise(call) -> bool:
    """Runs ``call(kernel)`` on the compiled library and on the numpy kernel
    and asserts the same bits, or a FloatingPointError from both; True when
    both raised."""
    results = []
    for kernel in (ckernel.LIBRARY, ckernel.NUMPY):
        try:
            results.append(call(kernel).view(np.int64).copy())
        except FloatingPointError:
            results.append(None)
    got, want = results
    assert (got is None) == (want is None)
    if want is not None:
        assert got.shape == want.shape and np.array_equal(got, want)
    return want is None


def _kron_operands(rng, a, b, c, d):
    P, Q = rng.normal(0, 1e3, (a, b)), rng.normal(0, 1e3, (c, d))
    P[rng.random(P.shape) < 0.2] = POS_INF
    Q[rng.random(Q.shape) < 0.2] = NEG_INF
    # row 0 of P is -inf and the last column of Q +inf, so the blocks of
    # row 0 hold -inf + +inf sums, which both kernels must make -inf
    P[0, :] = NEG_INF
    Q[:, -1] = POS_INF
    return P, Q


def _running_array(rng, shape):
    acc = rng.normal(0, 4e3, shape)
    acc[rng.random(shape) < 0.1] = NEG_INF
    acc[rng.random(shape) < 0.05] = POS_INF
    return acc


# one cell; rows of N past whole vectors of 8 doubles (9, 17, 24); rows
# of K of 3·33 and 2·257 cells
KRON_SHAPES = [(1, 1, 1, 1), (2, 3, 4, 9), (5, 3, 7, 17), (3, 3, 24, 24), (4, 3, 5, 33), (3, 2, 2, 257)]


_KRON_OVERFLOW = r" overflows float64: a finite sum exceeds the largest double$"


def _assert_kron_max_bits(P, Q, acc):
    """kron_max of the arrays P and Q has the brute force's bits, and maxed
    into ``acc`` it leaves the bits of ``np.maximum(acc, ·)``; when a finite
    sum overflows, both modes raise and the brute force does too."""
    P, Q = M(P), M(Q)
    try:
        fresh = kron_max(P, Q)
    except ValueError:
        with pytest.raises(OverflowError):
            bf.kron_max(P.tolist(), Q.tolist())
        with pytest.raises(ValueError, match=_KRON_OVERFLOW):
            kron_max(P, Q, acc)
        return
    _assert_same_bits(fresh, bf.kron_max(P.tolist(), Q.tolist()))
    want = np.maximum(acc, fresh.data)
    assert kron_max(P, Q, acc) is None
    # a tie of 0.0 and -0.0 may keep either zero: no -0.0 reaches a kernel
    assert np.array_equal((acc + 0.0).view(np.int64), (want + 0.0).view(np.int64))


@pytest.mark.parametrize("a,b,c,d", KRON_SHAPES)
def test_compiled_and_numpy_kron_agree_bit_for_bit(a, b, c, d):
    # one numpy product serves both handles; the blocks of row 0 hold
    # -inf + +inf sums, which it makes -inf
    rng = np.random.default_rng(19)
    P, Q = _kron_operands(rng, a, b, c, d)
    _assert_kron_max_bits(P, Q, _running_array(rng, (a * c, b * d)))
    assert (kron_max(M(P), M(Q)).data[:c] == NEG_INF).all()


def test_both_kernels_refuse_an_overflowing_kron():
    # ±1.7e308 sums overflow in either sign, fresh and accumulating, beside
    # ±inf entries, which are states and no overflow; without the
    # overflowing row the product has its bits
    for sign in (1.0, -1.0):
        P = np.array([[sign * 1.7e308, POS_INF], [0.0, NEG_INF]])
        Q = np.array([[0.0, sign * 1.7e308], [NEG_INF, POS_INF]])
        for acc in (None, np.zeros((4, 4))):
            with pytest.raises(ValueError, match=r"^max-plus Kronecker product of \(2, 2\) and \(2, 2\)"
                                                 + _KRON_OVERFLOW):
                kron_max(M(P), M(Q), acc)
        _assert_kron_max_bits(P[1:], Q, np.zeros((2, 4)))


@on_both_kernels("a,b,c,d", [(2, 3, 4, 9), (3, 2, 2, 257)])
def test_kron_max_accumulates_into_the_running_array(a, b, c, d, kernel):
    # kron_max calls no kernel: on either handle it has the same bits
    rng = np.random.default_rng(20)
    P, Q = _kron_operands(rng, a, b, c, d)
    acc = _running_array(rng, (a * c, b * d))
    want = np.maximum(acc, kron_max(M(P), M(Q)).data)
    before = semiring_ops.total
    assert kron_max(M(P), M(Q), acc) is None
    assert semiring_ops.total - before == a * b * c * d
    assert np.array_equal(acc.view(np.int64), want.view(np.int64))


def test_kron_max_refuses_an_array_it_cannot_write_in_place():
    # as max_plus_matmul: a copy made to write in would lose the max
    P, Q = full(2, 3, 0.0), full(4, 5, 1.0)
    frozen = full(8, 15, 0.0).data  # a matrix's own array is read-only
    with pytest.raises(ShapeError, match=r"into an array of shape \(8, 16\)"):
        kron_max(P, Q, np.zeros((8, 16)))
    for acc in (frozen, np.zeros((8, 15), dtype=np.float32), np.zeros((8, 30))[:, ::2]):
        with pytest.raises(ValueError, match="writeable, C-contiguous and float64"):
            kron_max(P, Q, acc)
    assert (frozen == 0.0).all()


# k and n cross the tile's 32 columns, the 256 inner indices of a pass and
# the column edges past them; n == 1 stays in the matvec lanes
ROW_SHAPES = [(k, n) for k in (1, 31, 32, 33, 256, 257) for n in (2, 9, 31, 32, 33, 255, 256, 257, 300)]


@pytest.mark.parametrize("k,n", ROW_SHAPES)
def test_compiled_and_numpy_row_products_agree_bit_for_bit(k, n):
    rng = np.random.default_rng(21)
    p, q = rng.normal(0, 1e3, (1, k)), rng.normal(0, 1e3, (k, n))
    q[rng.random(q.shape) < 0.2] = NEG_INF
    q[rng.random(q.shape) < 0.05] = POS_INF
    p[0, rng.random(k) < 0.2] = NEG_INF
    # row 0 of q meets p's -inf, so every column holds a -inf + +inf sum;
    # column 0 holds only those and -inf, and column 1 a +inf sum
    p[0, 0] = NEG_INF
    q[0, :] = POS_INF
    if k > 1:
        p[0, 1], q[1, 1] = 0.0, POS_INF
    q[:, 0] = np.where(p[0] == NEG_INF, POS_INF, NEG_INF)
    acc = _running_array(rng, (1, n))
    assert not _same_bits_or_both_raise(lambda kernel: kernel.product(p, q))
    assert not _same_bits_or_both_raise(lambda kernel: kernel.product(p, q, acc.copy()))
    got = ckernel.LIBRARY.product(p, q)
    assert got[0, 0] == NEG_INF and (k == 1 or got[0, 1] == POS_INF)
    _assert_same_bits(M(got), bf.max_plus_matmul(p.tolist(), q.tolist()))


@pytest.mark.parametrize("k,n", [(1, 2), (33, 40), (257, 300)])
def test_both_kernels_refuse_an_overflowing_row_product(k, n):
    # one overflowing sum in the last column, where +inf wins the max in
    # the other cells; the same row without it is no overflow
    p, q = np.zeros((1, k)), np.zeros((k, n))
    p[0, -1] = -1.7e308
    q[-1, -1] = -1.7e308
    q[0, :-1] = POS_INF
    for kernel in (ckernel.LIBRARY, ckernel.NUMPY):
        with pytest.raises(FloatingPointError):
            kernel.product(p, q)
        with pytest.raises(FloatingPointError):
            kernel.product(p, q, np.zeros((1, n)))
    assert not _same_bits_or_both_raise(lambda kernel: kernel.product(p, q[:, :-1]))
    with pytest.raises(ValueError, match=rf"^max-plus product of \(1, {k}\) by \({k}, {n}\) overflows float64"):
        max_plus_matmul(M(p), M(q))


@st.composite
def _kron_pairs(draw):
    a, b, c, d = (draw(st.integers(1, hi)) for hi in (4, 4, 4, 20))
    return (draw(arrays(np.float64, (a, b), elements=_ENTRIES)), draw(arrays(np.float64, (c, d), elements=_ENTRIES)),
            draw(arrays(np.float64, (a * c, b * d), elements=_ENTRIES)))


@given(_kron_pairs())
def test_kron_kernels_agree_on_any_entries(pair):
    _assert_kron_max_bits(*pair)


@st.composite
def _row_operands(draw):
    k, n = draw(st.integers(1, 40)), draw(st.integers(2, 70))
    return (draw(arrays(np.float64, (1, k), elements=_ENTRIES)), draw(arrays(np.float64, (k, n), elements=_ENTRIES)),
            draw(arrays(np.float64, (1, n), elements=_ENTRIES)))


@given(_row_operands())
def test_row_product_kernels_agree_on_any_entries(operands):
    p, q, acc = operands
    if not _same_bits_or_both_raise(lambda kernel: kernel.product(p, q)):
        assert not _same_bits_or_both_raise(lambda kernel: kernel.product(p, q, acc.copy()))


def per_product_terms(A_terms, B_terms, X, residual):
    """⊕_k A_k ⊗ X ⊗ B_k composed from one product per factor, each term maxed
    into one running array, a factor None being the unit whose product is
    skipped; or, with ``residual`` set, the same on the transposed factors at
    −X, negated: the principal solution at C = X.  The products are the numpy
    kernel's, the bit reference, so no encoding the compiled product shares
    with the compiled solve can agree with itself here."""
    if residual:
        A_terms, B_terms, X = [_unless_none(transpose, A) for A in A_terms], \
            [_unless_none(transpose, B) for B in B_terms], negate(X)
    acc = np.full(X.shape, NEG_INF)
    for A_k, B_k in zip(A_terms, B_terms):
        if B_k is None:
            ckernel.NUMPY.product(A_k.data, X.data, acc)
        else:
            Y = X.data if A_k is None else ckernel.NUMPY.product(A_k.data, X.data)
            ckernel.NUMPY.product(Y, B_k.data, acc)
    return negate(M._wrap(acc)) if residual else M._wrap(acc)


def _unless_none(f, F):
    return None if F is None else f(F)


def _arrays(terms):
    return [_unless_none(lambda F: F.data, F) for F in terms]


def two_sided(A_terms, B_terms):
    """The two-sided terms (A_1, None), (None, B_1) of A_1 ⊗ X ⊕ X ⊗ B_1."""
    return [A_terms[0], None], [None, B_terms[0]]


def terms_operands(rng, m, n, p, factor=2**9, x=3 * 2**9):
    """p m×m and n×n factors up to ``factor`` and an m×n X up to ``x`` in
    magnitude: a sixth of the entries at each edge, some ±inf, and a row
    and a column of each matrix set to one edge or infinity, so sums reach
    ±(2·factor + x) and meet every code."""
    def draw(rows, cols, bound):
        X = rng.integers(-bound, bound + 1, (rows, cols)).astype(float)
        u = rng.random((rows, cols))
        X[u < 1 / 6], X[u > 5 / 6] = bound, -bound
        X[(u > 0.4) & (u < 0.5)], X[(u > 0.5) & (u < 0.55)] = NEG_INF, POS_INF
        X[rng.integers(rows), :] = rng.choice([NEG_INF, POS_INF, bound, -bound])
        X[:, rng.integers(cols)] = rng.choice([NEG_INF, POS_INF, bound, -bound])
        return M(X)

    return [draw(m, m, factor) for _ in range(p)], [draw(n, n, factor) for _ in range(p)], draw(m, n, x)


# (m, n, p) on the int16 tiles, 6×128 and 12×64 cells over passes of 256
# inner indices: m of 5, 6 and 7 ends short of, at and past a 6-row block,
# 11, 12 and 13 the same for a 12-row block, n of 63, 64 and 65 for a
# 64-column block, 127, 128 and 129 for a 128-column one, and 25×127 is one
# row past two 12-row blocks beside one column short of 128; m or n of 257
# runs a second pass (A_k ⊗ X has m inner indices, T ⊗ B_k has n)
TERMS_EDGES = [(1, 2, 1), (2, 1, 2), (5, 6, 3), (6, 7, 4), (7, 5, 1), (6, 127, 2), (7, 128, 1), (5, 129, 3),
               (127, 2, 2), (128, 6, 1), (129, 7, 4), (2, 257, 1), (257, 5, 2), (129, 129, 1), (257, 128, 1),
               (11, 63, 2), (12, 64, 1), (13, 65, 3), (25, 127, 1)]
# the edges the compiled solve serves: TERMS_EDGES, 33 columns or 7 rows
# beside large m or n, and three shapes the cost rule once declined: 128×24,
# p = 1, and the two-sided 124×6 and 126×2 (each edge also runs two-sided)
SOLVE_EDGES = [*TERMS_EDGES, (127, 33, 2), (128, 33, 1), (129, 33, 4), (7, 257, 1), (257, 33, 2), (128, 24, 1),
               (124, 6, 1), (126, 2, 1)]
# the rule declines a single row or column beside 263 or more; these reach
# row blocks past 128 rows and the second pass of 256 inner indices
DECLINED_EDGES = [(1, 268, 2), (268, 1, 1), (1, 300, 4), (300, 1, 2), (1, 269, 1)]


@on_both_kernels("m,n,p", TERMS_EDGES)
def test_terms_match_the_per_product_composition(m, n, p, kernel):
    # the solver's two term steps, ⊕_k A_k ⊗ X ⊗ B_k and the principal's
    # negated residual terms, give the numpy kernel's per-product bits on
    # either kernel at every edge of the int16 tile
    A, B, X = terms_operands(np.random.default_rng(m * 1000 + n * 10 + p), m, n, p)
    want = {residual: per_product_terms(A, B, X, residual) for residual in (False, True)}
    _assert_same_bits(sylvester_apply(A, B, X), want[False].data)
    _assert_same_bits(sylvester_principal_solution(SylvesterInstance(A=A, B=B, C=X)), want[True].data)


@st.composite
def _solve_cases(draw):
    # shapes across the row blocks and the 64 and 128 columns of the int16
    # tiles, and seeded entries at the tiles' edges, or at small integers;
    # the cost rule declines none of them: only one row or column beside
    # 263 or more, and two to six rows beside 397 or more columns
    m, n, p = draw(st.integers(1, 14)), draw(st.integers(1, 140)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factor, x = draw(st.sampled_from([(2**9, 3 * 2**9), (10, 30)]))
    return terms_operands(rng, m, n, p, factor, x)


def per_product_report(A_terms, B_terms, C):
    """What ``solve`` gives, composed from numpy products: the principal and its
    substitution by ``per_product_terms``, and the numpy scan of the
    substitution against C at the tolerance of the data, as
    ``(principal, cells, residual)``."""
    X = per_product_terms(A_terms, B_terms, C, True)
    achieved = per_product_terms(A_terms, B_terms, X, False)
    factors = [F for F in (*A_terms, *B_terms) if F is not None]
    cells, residual = ckernel.NUMPY.mismatches(achieved.data, C.data, effective_tolerance((*factors, C)))
    return X, cells, residual


def assert_same_report(got, want):
    """``got``, a solve's ``(principal, cells, residual)``, has ``want``'s principal
    bits, cell values in their row-major order and residual, with cells a k×2
    intp array."""
    (principal, cells, residual), (X, want_cells, want_residual) = got, want
    _assert_same_bits(M._wrap(principal), X.data)
    assert cells.dtype == np.intp
    assert cells.shape == want_cells.shape and np.array_equal(cells, want_cells)
    assert residual == want_residual


def finite_operands(rng, m, n, p):
    """Factors up to 2**9 and a C up to 3·2**9 in magnitude with no +inf and -inf
    only in the factors, so a miss has a finite residual."""
    def draw(rows, cols, bound, neg=0.0):
        X = rng.integers(-bound, bound + 1, (rows, cols)).astype(float)
        X[rng.random((rows, cols)) < neg] = NEG_INF
        return M(X)

    return [draw(m, m, 2**9, 0.1) for _ in range(p)], [draw(n, n, 2**9, 0.1) for _ in range(p)], draw(m, n, 3 * 2**9)


def _solve(library, A_terms, B_terms, C):
    return library.solve(_arrays(A_terms), _arrays(B_terms), C.data)


def _served(A_terms, B_terms, C):
    """The live library's solve, which must serve the call."""
    if ckernel.LIBRARY is ckernel.NUMPY:
        pytest.skip("no compiled library")
    served = _solve(ckernel.LIBRARY, A_terms, B_terms, C)
    assert served is not None
    return served


@pytest.mark.parametrize("m,n,p", SOLVE_EDGES)
def test_solve_matches_the_per_product_report_at_every_edge(m, n, p):
    # the ±inf lines give a residual of +inf, the finite data a finite one;
    # each case runs as p terms and as the two-sided terms of its first factors
    rng = np.random.default_rng(m * 1000 + n * 10 + p)
    for A, B, C in (terms_operands(rng, m, n, p), finite_operands(rng, m, n, p)):
        for A_terms, B_terms in ((A, B), two_sided(A, B)):
            want = per_product_report(A_terms, B_terms, C)
            assert_same_report(_served(A_terms, B_terms, C), want)
    assert want[2] < POS_INF


@pytest.mark.parametrize("m,n,p", DECLINED_EDGES)
def test_solve_declines_the_edges_its_rule_declines(m, n, p):
    # the live library declines these shapes as p terms and as two-sided
    # terms, and solve_sylvester's per-product path gives the same report
    rng = np.random.default_rng(m * 1000 + n * 10 + p)
    A, B, C = terms_operands(rng, m, n, p)
    for A_terms, B_terms in ((A, B), two_sided(A, B)):
        assert _solve(ckernel.LIBRARY, A_terms, B_terms, C) is None
        report = solve_sylvester(SylvesterInstance(A=A_terms, B=B_terms, C=C))
        want = per_product_report(A_terms, B_terms, C)
        assert_same_report((report.principal.data, report.cells, report.residual_max_abs), want)


@given(_solve_cases())
def test_solve_property_matches_the_per_product_report(case):
    A, B, C = case
    for A_terms, B_terms in ((A, B), two_sided(A, B)):
        assert_same_report(_served(A_terms, B_terms, C), per_product_report(A_terms, B_terms, C))


def test_live_solve_serves_square_int16_data():
    # p-term requests, and the two-sided requests of the cli_mixed benchmark
    # workload at their shapes
    if ckernel.LIBRARY is ckernel.NUMPY:
        pytest.skip("no compiled library")
    cases = [(16, 16, 1, False), (64, 64, 4, False), (128, 128, 2, False), (96, 40, 8, False),
             (128, 128, 1, True), (32, 32, 1, True), (64, 100, 1, True), (16, 80, 1, True)]
    for m, n, p, sides in cases:
        rng = np.random.default_rng(m + n + p)
        for A, B, C in (terms_operands(rng, m, n, p), finite_operands(rng, m, n, p)):
            A, B = two_sided(A, B) if sides else (A, B)
            assert_same_report(_solve(ckernel.LIBRARY, A, B, C), per_product_report(A, B, C))


def test_a_two_sided_solve_weighs_only_the_products_it_forms():
    # at 1×300 the rule declines the two-sided terms, as the call's products
    # over 300 inner indices pad 1 to 64 columns; the left term alone, whose
    # None right factor forms no product, is served, though the same term
    # with an explicit unit right factor is declined, and likewise the right
    # term alone at 300×1; at 8×12, which the two-sided terms pass, a call
    # with a term that has neither factor is declined
    if ckernel.LIBRARY is ckernel.NUMPY:
        pytest.skip("no compiled library")
    A, B, C = terms_operands(np.random.default_rng(27), 1, 300, 1)
    assert _solve(ckernel.LIBRARY, *two_sided(A, B), C) is None
    assert _solve(ckernel.LIBRARY, [A[0]], [None], C) is not None
    assert _solve(ckernel.LIBRARY, [A[0]], [max_plus_unit(300)], C) is None
    A, B, C = terms_operands(np.random.default_rng(27), 300, 1, 1)
    assert _solve(ckernel.LIBRARY, *two_sided(A, B), C) is None
    assert _solve(ckernel.LIBRARY, [None], [B[0]], C) is not None
    assert _solve(ckernel.LIBRARY, [max_plus_unit(300)], [B[0]], C) is None
    A, B, C = terms_operands(np.random.default_rng(27), 8, 12, 1)
    assert _solve(ckernel.LIBRARY, *two_sided(A, B), C) is not None
    assert _solve(ckernel.LIBRARY, [A[0], None], [B[0], None], C) is None


def _query_and_call(A_terms, B_terms, C):
    """Whether the live library's query passes the terms, and whether its call,
    made whatever the query says, serves them."""
    A, B, c = _arrays(A_terms), _arrays(B_terms), C.data
    (m, n), p, solve = c.shape, len(A), ckernel.LIBRARY._solve
    query = solve(ckernel._marks(A), ckernel._marks(B), c.ctypes.data, None, None, None, p, m, n)
    principal, cells, residual = np.empty((m, n)), np.empty((m * n, 2), dtype=np.intp), ctypes.c_double()
    call = solve(*ckernel._factors(A, B, m, n), c.ctypes.data, principal.ctypes.data, cells.ctypes.data,
                 residual, p, m, n)
    return query >= 0, call >= 0


def test_the_solve_query_gives_the_calls_verdict():
    # on data in the int16 bounds the query, which is told which factors
    # are None, passes exactly the terms the call serves: as 1 and 2 terms
    # and as two-sided terms, at 6×152, 5×164 and 7×268, where the
    # two-sided terms' products do not repay the tile though the same
    # shape weighed with every factor would, at 124×6, and over a grid
    # across the cost rule's boundary
    if ckernel.LIBRARY is ckernel.NUMPY:
        pytest.skip("no compiled library")
    rng = np.random.default_rng(31)
    shapes = [(6, 152), (5, 164), (7, 268), (124, 6),
              *((m, n) for m in (1, 2, 5, 6, 7, 24, 124, 126) for n in (1, 2, 6, 32, 33, 152, 164, 268))]
    for form in ("one term", "two terms", "two-sided"):
        verdicts = set()
        for m, n in shapes:
            A, B, C = terms_operands(rng, m, n, 1 if form == "one term" else 2)
            query, call = _query_and_call(*(two_sided(A, B) if form == "two-sided" else (A, B)), C)
            assert query == call, (form, m, n)
            verdicts.add(call)
        assert verdicts == {True, False}, form


def test_solve_negates_cells_whose_sums_are_all_minus_inf():
    # column 2 of each A_k and row 3 of each B_k are -inf, so every sum of
    # cell (2, 3) of the principal's inner max is -inf + -inf, which the
    # int16 tile holds as -2**15 until the clamp before the negation; the
    # principal is +inf there
    A, B, C = terms_operands(np.random.default_rng(31), 8, 12, 2)
    A = [M(np.where(np.arange(8) == 2, NEG_INF, A_k.data)) for A_k in A]
    B = [M(np.where(np.arange(12)[:, None] == 3, NEG_INF, B_k.data)) for B_k in B]
    want = per_product_report(A, B, C)
    assert want[0].data[2, 3] == POS_INF
    assert_same_report(_served(A, B, C), want)


# factors at ±2**9 and C at ±3·2**9 are served; one entry past them, a
# fraction, -0.0, ±1e300 or the overflowing -1.7e308 declines the call.  In
# the two-sided terms a None factor declines no call by itself, and an A
# entry past the bound still does.
@pytest.mark.parametrize("where,value", [("A", 2**9 + 1), ("B", -(2**9 + 1)), ("A", 0.5), ("B", 1e300),
                                         ("A", -1e300), ("A", -1.7e308), ("C", 3 * 2**9 + 1),
                                         ("C", -(3 * 2**9 + 1)), ("C", 0.5), ("B", -0.0), ("C", -0.0),
                                         ("C", 1e300), ("two-sided A", 2**9 + 1)])
def test_solve_declines_entries_past_the_bounds(where, value):
    A, B, C = terms_operands(np.random.default_rng(25), 9, 140, 2)
    if where == "two-sided A":
        (A, B), where = two_sided(A, B), "A"
    _served(A, B, C)
    arrays = {"A": _arrays(A), "B": _arrays(B), "C": C.data}
    factors = np.concatenate([F.ravel() for F in arrays["A"] + arrays["B"] if F is not None])
    assert np.abs(factors[np.isfinite(factors)]).max() == 2**9
    assert np.abs(C.data[np.isfinite(C.data)]).max() == 3 * 2**9
    arrays = {"A": [_unless_none(np.copy, a) for a in arrays["A"]], "B": [_unless_none(np.copy, b) for b in arrays["B"]],
              "C": arrays["C"].copy()}
    target = [F for F in arrays[where] if F is not None][-1] if where != "C" else arrays["C"]
    target[-1, -1] = value
    for library in (ckernel.LIBRARY, ckernel.NUMPY):
        assert library.solve(arrays["A"], arrays["B"], arrays["C"]) is None
