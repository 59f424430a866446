import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import bruteforce as bf
import same_bits
from maxplus_sylvester import ckernel
from maxplus_sylvester.instance_io import GeneratorConfig, generate_instance
from maxplus_sylvester.matrix import (
    NEG_INF,
    POS_INF,
    TropicalMatrix,
    max_plus_matmul,
    negate,
    transpose,
)
from maxplus_sylvester.opcount import semiring_ops
from maxplus_sylvester.oracle import (
    SIZE_CAP,
    OracleSizeError,
    kron_max,
    kron_reformulate,
    linear_principal_solution,
    max_plus_unit,
    oracle_agrees,
    oracle_solve,
    unvec,
    vec,
)
from maxplus_sylvester.solver import (
    SylvesterInstance,
    solve_sylvester,
    solve_two_sided_special,
    sylvester_apply,
    sylvester_principal_solution,
    two_sided_instance,
)

M = TropicalMatrix


def rand(rng, rows, cols, neg=0.0, pos=0.0):
    return M(bf.random_entries(rng, rows, cols, neg_density=neg, pos_density=pos))


def random_instance(rng, max_side=6, max_terms=4):
    cfg = GeneratorConfig(
        m=int(rng.integers(1, max_side + 1)),
        n=int(rng.integers(1, max_side + 1)),
        p=int(rng.integers(1, max_terms + 1)),
        seed=int(rng.integers(0, 2**63)),
        mode="raw_random",
    )
    return generate_instance(cfg)[0]


def test_kron_reformulate_scalar():
    inst = SylvesterInstance(A=(M([[2]]),), B=(M([[3]]),), C=M([[9]]))
    K, c = kron_reformulate(inst)
    assert K == M([[5]])
    assert c == M([[9]])


def test_kron_reformulate_unit_right_factor_is_block_diagonal():
    rng = np.random.default_rng(30)
    A = rand(rng, 2, 2)
    inst = SylvesterInstance(A=(A,), B=(max_plus_unit(3),), C=rand(rng, 2, 3))
    K, _ = kron_reformulate(inst)
    for r in range(3):
        for s in range(3):
            block = K.data[2 * r:2 * r + 2, 2 * s:2 * s + 2]
            if r == s:
                assert np.array_equal(block, A.data)
            else:
                assert (block == NEG_INF).all()


def test_kron_index_identity_via_indicator_matrices():
    # columns of K are vec(A ⊗ E_kl ⊗ B) where E_kl has a lone 0 entry,
    # which pins K[(j*m+i), (l*m+k)] = B[l][j] + A[i][k]
    rng = np.random.default_rng(31)
    m = n = 2
    A, B = rand(rng, m, m), rand(rng, n, n)
    inst = SylvesterInstance(A=(A,), B=(B,), C=rand(rng, m, n))
    K, _ = kron_reformulate(inst)
    a, b = A.tolist(), B.tolist()
    for k in range(m):
        for l in range(n):
            indicator = [[0.0 if (i, j) == (k, l) else NEG_INF for j in range(n)] for i in range(m)]
            column = bf.vec(bf.sylvester_apply([a], [b], indicator))
            for idx in range(m * n):
                assert K.data[idx, l * m + k] == column[idx][0]
    for i in range(m):
        for kk in range(m):
            for j in range(n):
                for l in range(n):
                    assert K.data[j * m + i, l * m + kk] == bf.mul_max(b[l][j], a[i][kk])


def test_oracle_principal_solution_examples():
    inst = SylvesterInstance(A=(M([[1]]), M([[0]])), B=(M([[0]]), M([[2]])), C=M([[5]]))
    K, _ = kron_reformulate(inst)
    assert K == M([[2]])
    assert oracle_solve(inst).principal == M([[3]])

    rng = np.random.default_rng(32)
    C = rand(rng, 3, 2)
    units = SylvesterInstance(A=(max_plus_unit(3),), B=(max_plus_unit(2),), C=C)
    assert oracle_solve(units).principal == C


def _outcome(solve, *args):
    """Principal bytes, cells and residual bits of a solve, or its error text."""
    try:
        report = solve(*args)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    return report.principal.data.tobytes(), report.cells.tolist(), report.residual_max_abs.hex()


def test_two_sided_matches_manual_instance(monkeypatch):
    # the instance with explicit unit factors is the two-sided solver's bit
    # reference: the terms (A, None), (None, B) must give the same principal
    # bytes, cells, residual bits and overflow text, on the corpus's five
    # data kinds with ±inf mixed in and on both kernels
    kinds = list(same_bits.KINDS)
    seen = set()
    for library in (ckernel.LIBRARY, ckernel.NUMPY):
        monkeypatch.setattr(ckernel, "LIBRARY", library)
        rng = np.random.default_rng(25)
        for trial in range(100):
            kind = kinds[trial % len(kinds)]
            m, n = int(rng.integers(1, 41)), int(rng.integers(1, 41))
            A, B = same_bits.entries(rng, kind, (m, m)), same_bits.entries(rng, kind, (n, n))
            C = same_bits.entries(rng, kind, (m, n), infinities=trial % 2 == 0)
            inst = two_sided_instance(A, B, C)
            assert inst.A == (A, None) and inst.B == (None, B) and inst.C is C
            manual = SylvesterInstance(A=(A, max_plus_unit(m)), B=(max_plus_unit(n), B), C=C)
            if trial % 2:
                try:  # the left side at a witness: solvable unless it overflows
                    C = sylvester_apply(manual.A, manual.B, C)
                except ValueError:
                    pass
                manual = SylvesterInstance(A=manual.A, B=manual.B, C=C)
            special = _outcome(solve_two_sided_special, A, B, C)
            assert special == _outcome(solve_sylvester, manual), (kind, m, n)
            seen.add("error" if isinstance(special, str) else "solvable" if not special[1] else "unsolvable")
    assert seen == {"error", "solvable", "unsolvable"}


@pytest.mark.parametrize("kernel", ["live", "numpy"])
def test_oracle_writes_a_none_factor_as_the_unit(kernel, monkeypatch):
    # the two-sided terms give the explicit unit factors' K, principal bytes,
    # cells, residual bits or overflow text, and op count
    if kernel == "numpy":
        monkeypatch.setattr(ckernel, "LIBRARY", ckernel.NUMPY)
    rng = np.random.default_rng(41)
    for trial in range(20):
        kind = list(same_bits.KINDS)[trial % len(same_bits.KINDS)]
        m, n = int(rng.integers(1, 17)), int(rng.integers(1, 17))
        A, B = same_bits.entries(rng, kind, (m, m)), same_bits.entries(rng, kind, (n, n))
        C = same_bits.entries(rng, kind, (m, n), infinities=trial % 2 == 0)
        inst = two_sided_instance(A, B, C)
        manual = SylvesterInstance(A=(A, max_plus_unit(m)), B=(max_plus_unit(n), B), C=C)
        outcomes = []
        for instance in (inst, manual):
            before = semiring_ops.total
            try:
                K = kron_reformulate(instance)[0].data.tobytes()
            except ValueError as exc:
                K = str(exc)
            outcomes.append((K, _outcome(oracle_solve, instance), semiring_ops.total - before))
        assert outcomes[0] == outcomes[1], (kind, m, n)


def test_kron_solve_declines_a_none_factor():
    # the compiled call reads every factor, so a None never reaches it
    A, B, C = M(np.zeros((2, 2))), M(np.zeros((3, 3))), M(np.zeros((2, 3)))
    for A_terms, B_terms in (([None], [B.data]), ([A.data], [None]), ([A.data, None], [None, B.data])):
        assert ckernel.LIBRARY.kron_solve(A_terms, B_terms, C.data) is None
    assert (ckernel.LIBRARY.kron_solve([A.data], [B.data], C.data) is None) == (ckernel.LIBRARY is ckernel.NUMPY)


def test_oracle_solve_examples():
    unsolvable = SylvesterInstance(A=(M([[0, 0], [0, 0]]),), B=(M([[0]]),), C=M([[0], [1]]))
    r = oracle_solve(unsolvable)
    assert not r.solvable and r.mismatches == ((1, 0),)

    rng = np.random.default_rng(33)
    for _ in range(30):
        cfg = GeneratorConfig(
            m=int(rng.integers(1, 5)), n=int(rng.integers(1, 5)), p=int(rng.integers(1, 4)),
            seed=int(rng.integers(0, 2**63)), mode="solvable_by_construction",
        )
        inst, _ = generate_instance(cfg)
        assert oracle_solve(inst).solvable


def test_size_cap():
    # 65·64 = 4160 cells is refused before anything is allocated; the
    # cap itself (64·64) is accepted in acceptance criterion 6
    inst, _ = generate_instance(GeneratorConfig(m=65, n=64, p=1, seed=34, mode="raw_random"))
    assert inst.m * inst.n > SIZE_CAP == 4096
    before = semiring_ops.total
    tracemalloc.start()
    try:
        for call in (kron_reformulate, oracle_solve):
            with pytest.raises(OracleSizeError, match=r"^oracle refuses mn=4160 \(> cap 4096\)$"):
                call(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert semiring_ops.total == before


def _peak_memory(call, *args):
    tracemalloc.start()
    try:
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _k_bound(cells):
    """Peak bytes of an oracle step at mn = ``cells`` on the current kernel:
    K plus 256 KiB for the small arrays, and with the numpy kernel one more
    K-sized array and a NaN mask of one byte per cell of K."""
    K = 8 * cells**2
    if ckernel.LIBRARY is ckernel.NUMPY:
        return 2 * K + cells**2 + 2**18
    return K + 2**18


def test_kron_reformulate_builds_k_in_one_buffer(monkeypatch):
    # mn = 1024, so K is 8 MiB: the first term is built in K's own array and
    # each later term is maxed into it; the numpy kernel forms each term in
    # a temporary with its NaN mask first
    inst, _ = generate_instance(GeneratorConfig(m=32, n=32, p=3, seed=39, mode="raw_random"))
    for library in (ckernel.LIBRARY, ckernel.NUMPY):
        monkeypatch.setattr(ckernel, "LIBRARY", library)
        (K, _), peak = _peak_memory(kron_reformulate, inst)
        assert peak <= _k_bound(inst.m * inst.n)
        terms = [kron_max(transpose(B_k), A_k) for A_k, B_k in zip(inst.A, inst.B)]
        assert K == M(np.maximum.reduce([term.data for term in terms]))
        assert not K.data.flags.writeable


def test_oracle_solve_holds_o_mn_served_and_one_k_composed(monkeypatch):
    # the compiled call forms K a few rows at a time and never holds it, so
    # its peak grows with mn, not (mn)² (one K is 8 MiB here); the numpy
    # composition reads K by rows, so no transpose of K is made, and its
    # product forms a 1×N by N×N row's N² sums at once, one K-sized array
    inst, _ = generate_instance(GeneratorConfig(m=32, n=32, p=3, seed=39, mode="raw_random"))
    cells = inst.m * inst.n
    for library in (ckernel.LIBRARY, ckernel.NUMPY):
        monkeypatch.setattr(ckernel, "LIBRARY", library)
        report, peak = _peak_memory(oracle_solve, inst)
        if library is not ckernel.NUMPY:
            assert peak <= 64 * 8 * cells + 2**18
        assert peak <= _k_bound(cells)
        assert report == solve_sylvester(inst)


def _terms(inst):
    """The arrays the oracle hands ``kron_solve``: a None factor is written as the unit."""
    unit = lambda F, size: (max_plus_unit(size) if F is None else F).data
    return [unit(A_k, inst.m) for A_k in inst.A], [unit(B_k, inst.n) for B_k in inst.B], inst.C.data


_OVERFLOW = " overflows float64: a finite sum exceeds the largest double$"


def test_principal_step_overflow_names_the_row_product(monkeypatch):
    # K = B_kᵀ ⊗ A_k holds 1e308 and 0, all finite, but its 1e308 entries
    # meet the 1e308 of −c in the principal's (−c)ᵀ ⊗ K, which overflows;
    # the compiled call declines it, so the composition raises
    A = M([[1e308, 0.0], [0.0, 0.0]])
    inst = SylvesterInstance(A=(A,), B=(M(np.zeros((3, 3))),), C=M(np.full((2, 3), -1e308)))
    for library in (ckernel.LIBRARY, ckernel.NUMPY):
        monkeypatch.setattr(ckernel, "LIBRARY", library)
        assert library.kron_solve(*_terms(inst)) is None
        K, _ = kron_reformulate(inst)
        assert np.isfinite(K.data).all() and K.data.max() == 1e308
        with pytest.raises(ValueError, match=r"^max-plus product of \(1, 6\) by \(6, 6\)" + _OVERFLOW):
            oracle_solve(inst)


def test_kron_entry_overflow_names_the_kronecker_product(monkeypatch):
    # B_k[j, i] + A_k[r, s] = 2e308 in every entry of K: both handles leave
    # it to the composition, whose first step is the Kronecker product
    inst = SylvesterInstance(A=(M(np.full((2, 2), 1e308)),), B=(M(np.full((3, 3), 1e308)),),
                             C=M(np.zeros((2, 3))))
    for library in (ckernel.LIBRARY, ckernel.NUMPY):
        monkeypatch.setattr(ckernel, "LIBRARY", library)
        assert library.kron_solve(*_terms(inst)) is None
        with pytest.raises(ValueError, match=r"^max-plus Kronecker product of \(3, 3\) and \(2, 2\)" + _OVERFLOW):
            oracle_solve(inst)


def test_substitution_overflow_names_the_column_product(monkeypatch):
    # K = A (B = [[0]]) and every sum of K and of the principal is finite:
    # −c + K reads −1e308 and −inf, so x̂[0] = 1e308, which C's +inf leaves
    # unbounded; only the substitution's K[1, 0] + x̂[0] = 2e308 overflows
    inst = SylvesterInstance(A=(M([[-1e308, 0.0], [1e308, 0.0]]),), B=(M([[0.0]]),), C=M([[0.0], [POS_INF]]))
    for library in (ckernel.LIBRARY, ckernel.NUMPY):
        monkeypatch.setattr(ckernel, "LIBRARY", library)
        assert library.kron_solve(*_terms(inst)) is None
        K, c = kron_reformulate(inst)
        assert linear_principal_solution(K, c) == M([[1e308], [0.0]])
        with pytest.raises(ValueError, match=r"^max-plus product of \(2, 2\) by \(2, 1\)" + _OVERFLOW):
            oracle_solve(inst)


def test_vec_consistency():
    rng = np.random.default_rng(35)
    for _ in range(100):
        inst = random_instance(rng, max_side=5)
        X = rand(rng, inst.m, inst.n, neg=0.1)
        K, _ = kron_reformulate(inst)
        via_kron = unvec(max_plus_matmul(K, vec(X)), inst.m, inst.n)
        assert via_kron == sylvester_apply(inst.A, inst.B, X)


def test_conjugate_distributes_over_entrywise_max():
    rng = np.random.default_rng(36)
    for _ in range(100):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        P, Q = rand(rng, m, n, 0.2, 0.1), rand(rng, m, n, 0.2, 0.1)
        lhs = negate(transpose(M(np.maximum(P.data, Q.data)))).tolist()
        assert lhs == bf.min_plus_matadd(bf.conjugate(P.tolist()), bf.conjugate(Q.tolist()))


def test_fast_path_agrees_with_oracle():
    rng = np.random.default_rng(37)
    for _ in range(250):
        inst = random_instance(rng)
        fast = solve_sylvester(inst)
        slow = oracle_solve(inst)
        assert fast.principal == slow.principal
        assert fast.solvable == slow.solvable
        assert fast.mismatches == slow.mismatches
        assert fast.residual_max_abs == slow.residual_max_abs
        assert sylvester_principal_solution(inst) == slow.principal


_ENTRIES = st.one_of(
    st.integers(-20, 20).map(float),
    st.floats(-1e3, 1e3),
    st.sampled_from([NEG_INF, POS_INF]),
    # up to 1e300, so no sum of the at most seven entries below overflows
    st.builds(math.copysign, st.floats(1e290, 1e300), st.sampled_from([1.0, -1.0])),
)


@st.composite
def _instances(draw):
    m, n, p = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    A = tuple(M(draw(arrays(np.float64, (m, m), elements=_ENTRIES))) for _ in range(p))
    B = tuple(M(draw(arrays(np.float64, (n, n), elements=_ENTRIES))) for _ in range(p))
    C = M(draw(arrays(np.float64, (m, n), elements=_ENTRIES)))
    if draw(st.booleans()):
        C = sylvester_apply(A, B, C)  # the left side at a witness: solvable
    return SylvesterInstance(A=A, B=B, C=C)


@given(_instances())
# cell (0, 1) misses C by 0.5 on both paths, whose principals differ in the last bits
@example(SylvesterInstance(A=(M([[-0.7]]),), B=(M([[-2.9, 1.3], [-2.4, 0.7]]),), C=M([[-2.0, 2.7]])))
def test_fast_path_agrees_with_oracle_on_inexact_data(inst):
    assert oracle_agrees(inst, solve_sylvester(inst), oracle_solve(inst))


_FRACTIONAL = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from([NEG_INF, POS_INF]),
    # no sum of three entries up to 1e300 overflows
    st.builds(math.copysign, st.floats(1e290, 1e300), st.sampled_from([1.0, -1.0])),
)


@st.composite
def _kron_instances(draw):
    # m and n up to 9 cover the 4-row blocks' remainders and mn below 4
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    square = lambda side: M(draw(arrays(np.float64, (side, side), elements=_FRACTIONAL)))
    C = M(draw(arrays(np.float64, (m, n), elements=_FRACTIONAL)))
    if draw(st.booleans()):
        return two_sided_instance(square(m), square(n), C)
    p = draw(st.integers(1, 4))
    return SylvesterInstance(A=tuple(square(m) for _ in range(p)), B=tuple(square(n) for _ in range(p)), C=C)


def _oracle_outcome(inst):
    """Principal bytes, cells, residual bits and op count of :func:`oracle_solve`."""
    before = semiring_ops.total
    report = oracle_solve(inst)
    return (report.principal.data.tobytes(), report.cells.tolist(), report.residual_max_abs.hex(),
            semiring_ops.total - before)


@given(_kron_instances())
def test_kron_solve_gives_the_composition_bits(inst):
    # the compiled call serves every such instance, with the principal,
    # cells, residual and op count of the numpy composition
    served = ckernel.LIBRARY.kron_solve(*_terms(inst))
    assert (served is None) == (ckernel.LIBRARY is ckernel.NUMPY)
    outcome = _oracle_outcome(inst)
    library = ckernel.LIBRARY
    try:
        ckernel.LIBRARY = ckernel.NUMPY
        assert _oracle_outcome(inst) == outcome
    finally:
        ckernel.LIBRARY = library


def test_oracle_op_count_is_exact():
    rng = np.random.default_rng(38)
    for _ in range(15):
        inst = random_instance(rng, max_side=5)
        before = semiring_ops.total
        oracle_solve(inst)
        used = semiring_ops.total - before
        cells = inst.m * inst.n
        assert used == 2 * (inst.p + 1) * cells * cells
