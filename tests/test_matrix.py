import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import bruteforce as bf
from maxplus_sylvester import matrix
from maxplus_sylvester.matrix import (
    NEG_INF,
    POS_INF,
    ShapeError,
    TropicalMatrix,
    kron_max,
    max_plus_matadd,
    max_plus_matmul,
    negate,
    transpose,
    unvec,
    vec,
)
from maxplus_sylvester.solver import linear_principal_solution

M = TropicalMatrix


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


def test_filled_checks_only_its_scalar():
    Z = M.filled(2, 3, NEG_INF)
    assert Z == M(np.full((2, 3), NEG_INF))
    assert not Z.data.flags.writeable
    assert math.copysign(1.0, M.filled(1, 2, -0.0).data[0, 1]) == 1.0
    with pytest.raises(ValueError, match="NaN"):
        M.filled(2, 2, float("nan"))
    with pytest.raises(ShapeError):
        M.filled(0, 2, 0.0)


def test_max_plus_matmul_example():
    out = max_plus_matmul(M([[0, 1], [2, 0]]), M([[2], [2]]))
    assert out == M([[3], [4]])
    assert out.tolist() == bf.max_plus_matmul([[0, 1], [2, 0]], [[2], [2]])


def test_max_plus_matmul_unit_and_absorbing():
    rng = np.random.default_rng(1)
    A = rand(rng, 3, 4, neg=0.2)
    assert max_plus_matmul(M.max_plus_unit(3), A) == A
    Z = M.filled(2, 3, NEG_INF)
    assert max_plus_matmul(Z, A) == M.filled(2, 4, NEG_INF)


def test_min_plus_matmul_example():
    out = min_plus_matmul(M([[0, -2], [-1, 0]]), M([[3], [4]]))
    assert out == M([[2], [2]])
    assert out.tolist() == bf.min_plus_matmul([[0, -2], [-1, 0]], [[3], [4]])


def test_min_plus_matmul_unit_and_absorbing():
    rng = np.random.default_rng(2)
    A = rand(rng, 3, 2, pos=0.2)
    E = negate(M.max_plus_unit(3))  # the unit of ⊗'
    assert E == M([[0, POS_INF, POS_INF], [POS_INF, 0, POS_INF], [POS_INF, POS_INF, 0]])
    assert min_plus_matmul(E, A) == A
    assert min_plus_matmul(M.filled(2, 3, POS_INF), A) == M.filled(2, 2, POS_INF)


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


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        max_plus_matmul(M.filled(2, 3, 0.0), M.filled(2, 2, 0.0))


def test_matadd_examples():
    assert max_plus_matadd(M([[1, 2]]), M([[3, 0]])) == M([[3, 2]])
    rng = np.random.default_rng(3)
    P = rand(rng, 2, 3, neg=0.2, pos=0.1)
    assert max_plus_matadd(P, M.filled(2, 3, NEG_INF)) == P
    with pytest.raises(ShapeError):
        max_plus_matadd(P, M.filled(3, 2, 0.0))


def test_conjugate_examples():
    # the conjugate −Aᵀ is a transpose followed by an exact negation
    assert negate(transpose(M([[0, 1], [2, 0]]))) == M([[0, -2], [-1, 0]])
    assert negate(transpose(M.filled(2, 3, NEG_INF))) == M.filled(3, 2, POS_INF)
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
    assert kron_max(M([[NEG_INF]]), N) == M.filled(3, 2, NEG_INF)


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


@pytest.mark.parametrize("m,k,n", [(16, 300, 16), (40, 300, 7), (300, 50, 11), (256, 3, 256), (3, 300, 300)])
def test_matmul_block_edges_match_bruteforce(m, k, n):
    # a block holds max(1, 2**16 // (k·n)) rows of P, or of Qᵀ when m > n > 1
    # and the product is built transposed:
    # 16 rows take 13 per block, so the last block holds 3;
    # 40×300·7 is transposed, its 7 rows of Qᵀ take 5 per block, the last 2;
    # 300×50·11 is transposed, its 11 rows of Qᵀ take 4 per block, the last 3;
    # 256 rows take 85 per block, so the last block holds 1;
    # k·n = 90000 is above the block size, so every block holds 1 row
    rng = np.random.default_rng(13)
    P, Q = rng.normal(0, 1e3, (m, k)), rng.normal(0, 1e3, (k, n))
    for X in (P, Q):
        X[rng.random(X.shape) < 0.3] = NEG_INF
    # +inf only in column 0 of Q, so the other cells keep finite maxima that
    # any block may hold; cell (0, 0) sees only -inf + +inf sums
    P[0, :] = NEG_INF
    Q[:, 0] = POS_INF
    _assert_same_bits(max_plus_matmul(M(P), M(Q)), bf.max_plus_matmul(P.tolist(), Q.tolist()))


@pytest.mark.parametrize("m,k", [(300, 300), (3, 70000)])
def test_matvec_block_edges_match_bruteforce(m, k):
    # 300 rows take 2**16 // 300 = 218 per block, so the last block holds 82;
    # k above the block size clamps to one row per block
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


@pytest.mark.parametrize("m,k,n", [(256, 256, 256), (256, 256, 24)])
def test_matmul_peak_memory_is_bounded(m, k, n):
    # the output, a transposed copy of the larger operand and one block of
    # sums, plus 128 KiB for numpy's iterator buffers; every sum at once
    # would take 128 MiB and 12 MiB
    rng = np.random.default_rng(15)
    P, Q = M(rng.normal(0, 1e3, (m, k))), M(rng.normal(0, 1e3, (k, n)))
    tracemalloc.start()
    try:
        max_plus_matmul(P, Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (m * n + max(m * k, k * n) + matrix._BLOCK) + 2**17


_ENTRIES = st.one_of(
    st.integers(-20, 20).map(float),
    st.floats(-1e3, 1e3),
    st.sampled_from([NEG_INF, POS_INF]),
    st.builds(math.copysign, st.floats(1e300, 1e308), st.sampled_from([1.0, -1.0])),
)


@st.composite
def _operands(draw):
    m, k, n = (draw(st.integers(1, 12)) for _ in range(3))
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
    # a tiny block makes the same shapes cross block edges, end in partial
    # blocks and clamp to one row per block; it runs first, so no output
    # can find a correct result left in recycled memory
    for block in (small_block, matrix._BLOCK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matrix, "_BLOCK", block)
            if want is None:
                with pytest.raises(ValueError, match="overflows float64"):
                    max_plus_matmul(P, Q)
            else:
                _assert_same_bits(max_plus_matmul(P, Q), want)
