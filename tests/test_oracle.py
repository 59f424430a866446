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
    max_plus_unit,
    oracle_agrees,
    oracle_solve,
    two_sided_instance,
    unvec,
    vec,
)
from maxplus_sylvester.solver import (
    SylvesterInstance,
    solve_sylvester,
    solve_two_sided_special,
    sylvester_apply,
    sylvester_principal_solution,
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
    # the unit-factor instance the oracle reads is the two-sided solver's bit
    # reference: the direct form must give the same principal bytes, cells,
    # residual bits and overflow text, on the corpus's five data kinds with
    # ±inf mixed in and on both kernels
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
            assert inst.p == 2 and inst.A[0] is A and inst.B[1] is B and inst.C is C
            assert inst.A[1] == max_plus_unit(m) and inst.B[0] == max_plus_unit(n)
            if trial % 2:
                try:  # the left side at a witness: solvable unless it overflows
                    C = sylvester_apply(inst.A, inst.B, C)
                except ValueError:
                    pass
                inst = two_sided_instance(A, B, C)
            special = _outcome(solve_two_sided_special, A, B, C)
            assert special == _outcome(solve_sylvester, inst), (kind, m, n)
            seen.add("error" if isinstance(special, str) else "solvable" if not special[1] else "unsolvable")
    assert seen == {"error", "solvable", "unsolvable"}


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
    # 65·64 = 4160 cells is refused before the 138 MB K is allocated; the
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


def test_kron_reformulate_builds_k_in_one_buffer():
    # mn = 1024, so K is 8 MiB: the first term's array becomes K and each
    # later term is maxed into it, so K, one term and kron_max's 1 MiB NaN
    # mask are the most alive at once; a -inf start and a fresh max per term
    # would hold three K-sized arrays
    inst, _ = generate_instance(GeneratorConfig(m=32, n=32, p=3, seed=39, mode="raw_random"))
    cells = inst.m * inst.n
    tracemalloc.start()
    try:
        K, _ = kron_reformulate(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * cells**2 + cells**2 + 2**18
    terms = [kron_max(transpose(B_k), A_k) for A_k, B_k in zip(inst.A, inst.B)]
    assert K == M(np.maximum.reduce([term.data for term in terms]))
    assert not K.data.flags.writeable


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


def test_oracle_op_count_is_exact():
    rng = np.random.default_rng(38)
    for _ in range(15):
        inst = random_instance(rng, max_side=5)
        before = semiring_ops.total
        oracle_solve(inst)
        used = semiring_ops.total - before
        cells = inst.m * inst.n
        assert used == 2 * (inst.p + 1) * cells * cells
