import math
import shutil
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
from maxplus_sylvester.solver import linear_principal_solution, sylvester_apply

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


def _edge_operands(m, k, n):
    rng = np.random.default_rng(13)
    P, Q = rng.normal(0, 1e3, (m, k)), rng.normal(0, 1e3, (k, n))
    for X in (P, Q):
        X[rng.random(X.shape) < 0.3] = NEG_INF
    # +inf only in column 0 of Q, so the other cells keep finite maxima that
    # any block may hold; cell (0, 0) sees only -inf + +inf sums
    P[0, :] = NEG_INF
    Q[:, 0] = POS_INF
    return P, Q


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
    assert ckernel.load(str(tmp_path / "no-such-gcc")) is None
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
