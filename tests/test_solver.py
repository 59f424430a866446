import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import bruteforce as bf
from maxplus_sylvester import ckernel, solver
from maxplus_sylvester.instance_io import GeneratorConfig, generate_instance
from maxplus_sylvester.matrix import (
    NEG_INF,
    POS_INF,
    ShapeError,
    TropicalMatrix,
    negate,
)
from maxplus_sylvester.opcount import semiring_ops
from maxplus_sylvester.oracle import max_plus_unit, oracle_solve
from maxplus_sylvester.solver import (
    DEFAULT_TOLERANCE,
    EXACT_INTEGER_LIMIT,
    ROUNDING_EPS_FACTOR,
    SylvesterInstance,
    effective_tolerance,
    linear_principal_solution,
    matrix_mismatches,
    solve_linear,
    solve_sylvester,
    solve_two_sided_special,
    sylvester_apply,
    sylvester_principal_solution,
)

M = TropicalMatrix


def rand(rng, rows, cols, neg=0.0, pos=0.0):
    return M(bf.random_entries(rng, rows, cols, neg_density=neg, pos_density=pos))


def test_linear_principal_solution_examples():
    assert linear_principal_solution(M([[0]]), M([[5]])) == M([[5]])
    x = linear_principal_solution(M([[0, 1], [2, 0]]), M([[3], [4]]))
    assert x == M([[2], [2]])
    assert x.tolist() == bf.min_plus_matmul(bf.conjugate([[0, 1], [2, 0]]), [[3], [4]])
    # greatest sub-solution even when the system is unsolvable
    assert linear_principal_solution(M([[0, 0], [0, 0]]), M([[0], [1]])) == M([[0], [0]])


def test_solve_linear_examples():
    r = solve_linear(M([[0, 1], [2, 0]]), M([[3], [4]]))
    assert r.solvable and r.principal == M([[2], [2]]) and r.mismatches == ()
    assert r.cells.shape == (0, 2)
    assert r.residual_max_abs == 0.0

    bad = solve_linear(M([[0, 0], [0, 0]]), M([[0], [1]]))
    assert not bad.solvable
    assert bad.principal == M([[0], [0]])
    assert bad.cells.tolist() == [[1, 0]]
    assert bad.mismatches == ((1, 0),)
    assert bad.residual_max_abs == 1.0
    assert bad != r and bad == solve_linear(M([[0, 0], [0, 0]]), M([[0], [1]]))

    b = M([[4], [-1], [7]])
    r = solve_linear(max_plus_unit(3), b)
    assert r.solvable and r.principal == b


def test_solve_linear_shape_errors():
    with pytest.raises(ShapeError):
        solve_linear(M([[0, 1]]), M([[1], [2]]))
    with pytest.raises(ShapeError):
        solve_linear(M([[0], [1]]), M([[1, 2]]))


def axb_principal_solution(A, B, C):
    """Greatest X with A ⊗ X ⊗ B ≤ C: the principal solution of a one-term instance."""
    return sylvester_principal_solution(SylvesterInstance(A=(A,), B=(B,), C=C))


def test_axb_principal_solution_examples():
    assert axb_principal_solution(M([[2]]), M([[3]]), M([[9]])) == M([[4]])
    rng = np.random.default_rng(20)
    C = rand(rng, 3, 2)
    assert axb_principal_solution(max_plus_unit(3), max_plus_unit(2), C) == C
    out = axb_principal_solution(M([[0, 1], [2, 0]]), max_plus_unit(2), M([[3, 3], [4, 4]]))
    assert out == M([[2, 2], [2, 2]])
    # with B the unit matrix this is just the column-wise linear solve
    for j in range(2):
        col = linear_principal_solution(M([[0, 1], [2, 0]]), M([[3], [4]]))
        assert out.data[:, j].tolist() == [v[0] for v in col.tolist()]


def test_sylvester_principal_solution_examples():
    inst = SylvesterInstance(A=(M([[1]]), M([[0]])), B=(M([[0]]), M([[2]])), C=M([[5]]))
    assert sylvester_principal_solution(inst) == M([[3]])

    rng = np.random.default_rng(21)
    A, B, C = rand(rng, 3, 3, neg=0.2), rand(rng, 2, 2, neg=0.2), rand(rng, 3, 2)
    single = SylvesterInstance(A=(A,), B=(B,), C=C)
    expect = bf.axb_principal(A.tolist(), B.tolist(), C.tolist())
    assert sylvester_principal_solution(single).tolist() == expect

    units = SylvesterInstance(
        A=(max_plus_unit(3),) * 3, B=(max_plus_unit(2),) * 3, C=C
    )
    assert sylvester_principal_solution(units) == C


def test_solve_sylvester_examples():
    inst = SylvesterInstance(A=(M([[1]]), M([[0]])), B=(M([[0]]), M([[2]])), C=M([[5]]))
    r = solve_sylvester(inst)
    assert r.solvable and r.principal == M([[3]])

    unsolvable = SylvesterInstance(A=(M([[0, 0], [0, 0]]),), B=(M([[0]]),), C=M([[0], [1]]))
    r = solve_sylvester(unsolvable)
    assert not r.solvable
    assert r.principal == M([[0], [0]])
    assert r.mismatches == ((1, 0),)


def test_solvable_by_construction_and_maximality():
    rng = np.random.default_rng(22)
    saw_strict = False
    for trial in range(150):
        cfg = GeneratorConfig(
            m=int(rng.integers(1, 6)), n=int(rng.integers(1, 6)), p=int(rng.integers(1, 5)),
            seed=int(rng.integers(0, 2**63)), mode="solvable_by_construction",
        )
        inst, witness = generate_instance(cfg)
        r = solve_sylvester(inst)
        assert r.solvable, f"construction instance must solve (trial {trial})"
        assert bf.leq(witness.tolist(), r.principal.tolist())
        if (witness.data < r.principal.data).any():
            saw_strict = True
    assert saw_strict


def test_substitution_never_exceeds_target():
    rng = np.random.default_rng(23)
    for _ in range(150):
        cfg = GeneratorConfig(
            m=int(rng.integers(1, 6)), n=int(rng.integers(1, 6)), p=int(rng.integers(1, 5)),
            seed=int(rng.integers(0, 2**63)), mode="raw_random",
        )
        inst, _ = generate_instance(cfg)
        X = sylvester_principal_solution(inst)
        assert bf.leq(sylvester_apply(inst.A, inst.B, X).tolist(), inst.C.tolist())


def test_monotone_in_target():
    rng = np.random.default_rng(24)
    for _ in range(100):
        cfg = GeneratorConfig(
            m=int(rng.integers(1, 5)), n=int(rng.integers(1, 5)), p=int(rng.integers(1, 4)),
            seed=int(rng.integers(0, 2**63)), mode="raw_random",
        )
        inst, _ = generate_instance(cfg)
        bump = rand(rng, inst.m, inst.n)
        C2 = M(np.maximum(inst.C.data, bump.data))
        inst2 = SylvesterInstance(A=inst.A, B=inst.B, C=C2)
        assert bf.leq(sylvester_principal_solution(inst).tolist(), sylvester_principal_solution(inst2).tolist())


# integers with ±inf, about one entry in six infinite: every sum is exact,
# so both laws hold bit for bit, and most principals keep a finite cell
_INTEGER_ENTRIES = st.sampled_from([float(v) for v in range(-20, 21)] + [NEG_INF, POS_INF] * 4)


def _integer_matrix(draw, rows, cols):
    return M(draw(arrays(np.float64, (rows, cols), elements=_INTEGER_ENTRIES)))


@st.composite
def _integer_instances(draw):
    m, n, p = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    return SylvesterInstance(A=tuple(_integer_matrix(draw, m, m) for _ in range(p)),
                             B=tuple(_integer_matrix(draw, n, n) for _ in range(p)),
                             C=_integer_matrix(draw, m, n))


def _below_target(inst, X) -> bool:
    return bf.leq(sylvester_apply(inst.A, inst.B, X).tolist(), inst.C.tolist())


@given(_integer_instances(), st.data())
def test_residuation_law_property(inst, data):
    # ⊕_k A_k ⊗ X ⊗ B_k ≤ C ⟺ X ≤ X̂, at X̂, at X̂ with one finite cell
    # moved down (≤ X̂) and up (not ≤ X̂) by 1, and at an arbitrary X
    X_hat = sylvester_principal_solution(inst)
    assert _below_target(inst, X_hat)
    finite = np.argwhere(np.isfinite(X_hat.data))
    if len(finite):
        cell = tuple(finite[data.draw(st.integers(0, len(finite) - 1))])
        for step, below in ((-1.0, True), (1.0, False)):
            moved = X_hat.data.copy()
            moved[cell] += step
            assert _below_target(inst, M(moved)) is below
    X = _integer_matrix(data.draw, inst.m, inst.n)
    assert _below_target(inst, X) == bf.leq(X.tolist(), X_hat.tolist())


@given(_integer_instances(), st.data())
def test_principal_is_monotone_in_target_property(inst, data):
    # C ≤ C′ implies X̂(C) ≤ X̂(C′); C′ = C ⊕ D raises cells to finite
    # values or +inf, and lifts -inf cells
    raised = M(np.maximum(inst.C.data, _integer_matrix(data.draw, inst.m, inst.n).data))
    wider = SylvesterInstance(A=inst.A, B=inst.B, C=raised)
    assert bf.leq(sylvester_principal_solution(inst).tolist(), sylvester_principal_solution(wider).tolist())


# one-decimal values, floats in ±1e3 and floats in ±1e300, one kind per
# instance, with ±inf mixed in: sums round, so residuation holds only up to
# the effective tolerance, but rounding and max are monotone and negation is
# exact, so monotonicity still holds bit for bit
_FRACTIONAL_KINDS = (
    st.integers(-200, 200).map(lambda v: v / 10),
    st.floats(-1e3, 1e3),
    st.floats(-1e300, 1e300),
)
# added to a finite draw, an infinity replaces the cell and 0.0 keeps it;
# about one cell in eight ends infinite, so most principals keep a finite cell
_INFINITY_MASK = st.sampled_from([0.0] * 10 + [NEG_INF, POS_INF])


@st.composite
def _fractional_instances(draw):
    kind = draw(st.sampled_from(_FRACTIONAL_KINDS))
    m, n, p = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 3))

    def matrix(rows, cols):
        values = draw(arrays(np.float64, (rows, cols), elements=kind))
        return M(values + draw(arrays(np.float64, (rows, cols), elements=_INFINITY_MASK)))

    return SylvesterInstance(A=tuple(matrix(m, m) for _ in range(p)), B=tuple(matrix(n, n) for _ in range(p)),
                             C=matrix(m, n))


def _principal_unless_refused(inst):
    try:
        return sylvester_principal_solution(inst)
    except ValueError as exc:
        assume("overflows float64" not in str(exc))  # a refusal, not a verdict
        raise


@given(_fractional_instances())
def test_residuation_holds_within_the_tolerance_property(inst):
    X_hat = _principal_unless_refused(inst)
    L, C = sylvester_apply(inst.A, inst.B, X_hat).data, inst.C.data
    eps = effective_tolerance((*inst.A, *inst.B, inst.C))
    finite = np.isfinite(L)
    assert (L[finite] <= C[finite] + eps).all()
    assert (L[C == NEG_INF] == NEG_INF).all()


@given(_fractional_instances(), st.data())
def test_principal_is_monotone_bit_for_bit_property(inst, data):
    # C + bump with bump ≥ 0 keeps ±inf cells and raises every finite one
    kind = data.draw(st.sampled_from(_FRACTIONAL_KINDS))
    bump = np.abs(data.draw(arrays(np.float64, (inst.m, inst.n), elements=kind)))
    raised = SylvesterInstance(A=inst.A, B=inst.B, C=M(inst.C.data + bump))
    assert (_principal_unless_refused(inst).data <= _principal_unless_refused(raised).data).all()


def test_fractional_laws_hold_on_the_numpy_kernel(monkeypatch):
    monkeypatch.setattr(ckernel, "LIBRARY", ckernel.NUMPY)
    test_residuation_holds_within_the_tolerance_property()
    test_principal_is_monotone_bit_for_bit_property()


def test_unconstrained_cells_stay_pos_inf():
    # a -inf row in the only A forces an unconstrained X* column pattern
    A = M([[NEG_INF, NEG_INF], [0, 0]])
    inst = SylvesterInstance(A=(A,), B=(M([[0]]),), C=M([[0], [0]]))
    X = sylvester_principal_solution(inst)
    assert X.data[0, 0] == 0.0 or X.data[0, 0] == POS_INF  # row 0 of A never binds x through row 0
    # the cell multiplied only by -inf entries is unconstrained upward
    A2 = M([[NEG_INF]])
    inst2 = SylvesterInstance(A=(A2,), B=(M([[0]]),), C=M([[0]]))
    X2 = sylvester_principal_solution(inst2)
    assert X2 == M([[POS_INF]])
    r = solve_sylvester(inst2)  # substitution: -inf ⊗ +inf = -inf ≠ 0
    assert not r.solvable and r.residual_max_abs == POS_INF


def test_two_sided_special_examples():
    r = solve_two_sided_special(M([[0]]), M([[0]]), M([[7]]))
    assert r.solvable and r.principal == M([[7]])

    r = solve_two_sided_special(M([[2]]), M([[0]]), M([[5]]))
    assert r.solvable and r.principal == M([[3]])

    r = solve_two_sided_special(M([[2]]), M([[2]]), M([[5]]))
    assert r.solvable and r.principal == M([[3]])


@pytest.mark.parametrize("A_shape,B_shape,message", [
    ((2, 3), (3, 3), "A must be 2x2 to match C (2, 3), got (2, 3)"),
    ((3, 3), (3, 3), "A must be 2x2 to match C (2, 3), got (3, 3)"),
    ((2, 2), (3, 2), "B must be 3x3 to match C (2, 3), got (3, 2)"),
    ((2, 2), (2, 2), "B must be 3x3 to match C (2, 3), got (2, 2)"),
], ids=["A not square", "A rows differ from C's", "B not square", "B size differs from C's columns"])
def test_two_sided_shape_errors(A_shape, B_shape, message):
    with pytest.raises(ShapeError) as caught:
        solve_two_sided_special(M(np.zeros(A_shape)), M(np.zeros(B_shape)), M(np.zeros((2, 3))))
    assert str(caught.value) == message


def test_two_sided_solve_takes_four_products_and_no_unit(monkeypatch):
    # X̂ = −(Aᵀ ⊗ (−C) ⊕ (−C) ⊗ Bᵀ) and A ⊗ X̂ ⊕ X̂ ⊗ B: each side is two
    # products maxed into one running array, so 2·(m²n + mn² + 2mn) ops
    calls, product = [], solver.max_plus_matmul

    def counting(P, Q, acc=None):
        calls.append((P, Q, acc is not None))
        return product(P, Q, acc)

    def is_unit(X):
        return X.rows == X.cols and X in (max_plus_unit(X.rows), negate(max_plus_unit(X.rows)))

    monkeypatch.setattr(solver, "max_plus_matmul", counting)
    rng = np.random.default_rng(26)
    for _ in range(20):
        m, n = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        A, B, C = rand(rng, m, m, neg=0.2), rand(rng, n, n, neg=0.2), rand(rng, m, n, neg=0.1)
        calls.clear()
        before = semiring_ops.total
        solve_two_sided_special(A, B, C)
        assert semiring_ops.total - before == 2 * (m * m * n + m * n * n + 2 * m * n)
        assert len(calls) == 4 and all(accumulates for _, _, accumulates in calls)
        assert not any(is_unit(P) or is_unit(Q) for P, Q, _ in calls)


def test_instance_validation():
    with pytest.raises(ShapeError):
        SylvesterInstance(A=(), B=(), C=M([[0]]))
    with pytest.raises(ShapeError):
        SylvesterInstance(A=(M([[0]]),), B=(), C=M([[0]]))
    with pytest.raises(ShapeError):
        SylvesterInstance(A=(M([[0, 1]]),), B=(M([[0]]),), C=M([[0]]))
    with pytest.raises(ShapeError):
        SylvesterInstance(A=(M([[0]]),), B=(M([[0]]),), C=M([[0], [1]]))


def test_tolerance_policy():
    # a 1e-12 near-miss passes the default float tolerance; integer data
    # always compares exactly
    A = M([[0.0], [0.0]])
    b = M([[0.0], [1e-12]])
    assert solve_linear(A, b).solvable  # non-integer data gets the default 1e-9
    b_int = M([[0.0], [1.0]])
    assert not solve_linear(A, b_int).solvable  # all-integer data compares with eps=0


def test_exact_mode_ends_where_integer_sums_can_round():
    # x = 2**53 + 1 solves (-1) ⊗ x = 2**53, but the principal rounds to 2**53
    # and its substitution misses by 1, which exact mode would call unsolvable
    r = solve_linear(M([[-1]]), M([[2.0**53]]))
    assert r.solvable
    assert r.principal == M([[2.0**53]])
    # up to 2**53 / 5 every five-entry sum is exact, so a miss of 1 stays a miss
    A = M([[0, NEG_INF], [0, NEG_INF], [NEG_INF, 0]])
    r = solve_linear(A, M([[0], [1], [2.0**50]]))
    assert not r.solvable and r.residual_max_abs == 1.0
    top = np.floor(EXACT_INTEGER_LIMIT)
    assert effective_tolerance((M([[0]]), M([[-top]]))) == 0.0
    assert effective_tolerance((M([[0]]), M([[-(top + 1)]]))) > 1.0
    # the rounding bound grows with the largest entry, from 1e-9 upwards
    rounding = ROUNDING_EPS_FACTOR * np.finfo(np.float64).eps
    assert effective_tolerance((M([[0]]), M([[-(2.0**51)]]))) == DEFAULT_TOLERANCE + rounding * 2.0**51
    assert effective_tolerance((M([[0.5, NEG_INF]]),)) == DEFAULT_TOLERANCE + rounding * 0.5
    # non-integer data of modest size keeps a tolerance close to 1e-9
    assert not solve_linear(A, M([[0.5], [0.5 + 1e-6], [1000.25]])).solvable


def test_effective_tolerance_scans_finite_entries():
    rounding = ROUNDING_EPS_FACTOR * np.finfo(np.float64).eps
    # integrality and scale ignore ±inf: an integer at 2**53 sets the scale,
    # past the exact limit, and -3 beside the infinities keeps exact mode
    assert effective_tolerance((M([[2.0**53, -3, NEG_INF, POS_INF]]),)) == DEFAULT_TOLERANCE + rounding * 2.0**53
    assert effective_tolerance((M([[-3, NEG_INF, POS_INF]]),)) == 0.0
    # one fractional entry in any input ends exact mode
    assert effective_tolerance((M([[0.5]]),)) == DEFAULT_TOLERANCE + rounding * 0.5
    assert effective_tolerance((M([[0.5]]), M([[4, 1]]))) == DEFAULT_TOLERANCE + rounding * 4
    # the scale is the largest |entry| over every input, ignoring ±inf
    assert effective_tolerance((M([[NEG_INF, -3, 2, POS_INF]]), M([[0.5]]))) == DEFAULT_TOLERANCE + rounding * 3
    # inputs with only infinities add nothing
    assert effective_tolerance((M([[NEG_INF, POS_INF]]),)) == 0.0
    assert effective_tolerance((M([[NEG_INF]]), M([[0.5]]))) == DEFAULT_TOLERANCE + rounding * 0.5


# integers, one-decimal values, magnitudes whose differences overflow, the
# infinities, and the edges of the compiled integer test near 2**52
_PASS_ENTRIES = st.one_of(
    st.integers(-20, 20).map(float),
    st.integers(-200, 200).map(lambda v: v / 10),
    st.sampled_from([1e300, -1e300, 1.7e308, -1.7e308, NEG_INF, POS_INF]),
    st.sampled_from([2.0**52 - 0.5, 2.0**52, 2.0**52 + 1, 2.0**53 - 1, -(2.0**52 - 0.5), 5e-324, 0.5]),
)


@st.composite
def _scan_pairs(draw):
    # up to 40 columns crosses the vector width of the compiled tolerance
    # pass and leaves a scalar tail
    shape = (draw(st.integers(1, 9)), draw(st.integers(1, 40)))
    L = draw(arrays(np.float64, shape, elements=_PASS_ENTRIES))
    R = draw(arrays(np.float64, shape, elements=_PASS_ENTRIES))
    same = draw(arrays(np.bool_, shape))
    R[same] = L[same]  # equal cells, among them equal infinities
    return M(L), M(R)


@given(_scan_pairs(), st.sampled_from([0.0, 1e-9, 0.05, 1.5, 1e292]))
# R holds only integers, among them odd ones from 2**52 up, which a rounding
# integer test without its 2**52 bound would call fractional
@example((M([[2.0**52 - 0.5, 2.0**52, 2.0**52 + 1, 2.0**53 - 1, 5e-324, 0.5, 1.7e308, NEG_INF, POS_INF]]),
          M([[3.0, 2.0**52 + 2, 2.0**52 + 1, -(2.0**53 - 1), 0.0, 2.0, -1.7e308, NEG_INF, NEG_INF]])), 0.0)
def test_compiled_passes_match_numpy_bit_for_bit(pair, eps):
    if ckernel.LIBRARY is ckernel.NUMPY:
        pytest.skip("no compiled library")
    L, R = pair
    for data in (L.data, R.data):
        (got, got_integral), (want, want_integral) = ckernel.LIBRARY.finite_scale(data), ckernel.NUMPY.finite_scale(data)
        assert got.hex() == want.hex() and got_integral == want_integral
    live = effective_tolerance(pair), matrix_mismatches(L, R, eps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ckernel, "LIBRARY", ckernel.NUMPY)
        numpy = effective_tolerance(pair), matrix_mismatches(L, R, eps)
    assert live[0].hex() == numpy[0].hex()
    (got_cells, got_residual), (want_cells, want_residual) = live[1], numpy[1]
    assert got_cells.dtype == want_cells.dtype == np.intp
    assert got_cells.shape == want_cells.shape and got_cells.tobytes() == want_cells.tobytes()
    assert not got_cells.flags.writeable
    assert got_residual.hex() == want_residual.hex()


@pytest.mark.parametrize("kernel", ["live", "numpy"])
def test_fortran_ordered_inputs_give_the_same_reports(kernel, monkeypatch):
    # TropicalMatrix keeps a Fortran-ordered array as it is; the compiled
    # passes must read it by position, not by memory order
    if kernel == "numpy":
        monkeypatch.setattr(ckernel, "LIBRARY", ckernel.NUMPY)
    rng = np.random.default_rng(40)

    def fortran(X):
        F = M(np.asfortranarray(X.data))
        assert F.data.flags.f_contiguous and not F.data.flags.c_contiguous
        return F

    for m, n, p, scale in ((7, 9, 2, 1.0), (12, 5, 3, 0.1)):  # integer, then one-decimal data
        def draw(rows, cols):
            return M(np.round(bf.random_entries(rng, rows, cols, neg_density=0.1)) * scale)

        inst = SylvesterInstance(A=tuple(draw(m, m) for _ in range(p)), B=tuple(draw(n, n) for _ in range(p)),
                                 C=draw(m, n))
        flipped = SylvesterInstance(A=tuple(map(fortran, inst.A)), B=tuple(map(fortran, inst.B)), C=fortran(inst.C))
        matrices, flipped_matrices = (*inst.A, *inst.B, inst.C), (*flipped.A, *flipped.B, flipped.C)
        assert effective_tolerance(flipped_matrices).hex() == effective_tolerance(matrices).hex()
        assert not solve_sylvester(inst).solvable  # the scan has cells to order
        b = M(inst.C.data[:, :1])
        cases = ((solve_sylvester, (inst,), (flipped,)), (oracle_solve, (inst,), (flipped,)),
                 (solve_linear, (inst.A[0], b), (flipped.A[0], b)))
        for solve, args, flipped_args in cases:
            got, want = solve(*flipped_args), solve(*args)
            assert got == want and got.cells.tobytes() == want.cells.tobytes()
            assert got.residual_max_abs.hex() == want.residual_max_abs.hex()


def test_default_tolerance_is_relative_to_magnitude():
    # solvable by construction; at ±1e300 the substitution rounds by about
    # 1e285, far beyond an absolute 1e-9
    def counts(scale):
        rng = np.random.default_rng(0)
        unsolvable = absolute_misses = 0
        for _ in range(200):
            A = tuple(M(rng.uniform(-scale, scale, (3, 3))) for _ in range(2))
            B = tuple(M(rng.uniform(-scale, scale, (3, 3))) for _ in range(2))
            X0 = M(rng.uniform(-scale, scale, (3, 3)))
            inst = SylvesterInstance(A=A, B=B, C=sylvester_apply(A, B, X0))
            report = solve_sylvester(inst)
            unsolvable += not report.solvable
            achieved = sylvester_apply(A, B, report.principal)
            absolute_misses += len(matrix_mismatches(achieved, inst.C, DEFAULT_TOLERANCE)[0]) > 0
        return unsolvable, absolute_misses

    assert counts(10.0) == (0, 0)
    unsolvable, absolute_misses = counts(1e300)
    assert unsolvable == 0
    assert absolute_misses > 0  # an absolute 1e-9 would call these unsolvable


def test_overflowing_sums_are_refused():
    # -(-1e308) + 1e308 is no number a double holds; an infinite principal
    # would read as "unconstrained" and give a wrong verdict
    with pytest.raises(ValueError, match="overflows float64"):
        solve_linear(M([[-1e308]]), M([[1e308]]))
    inst = SylvesterInstance(A=(M([[-1e308]]),), B=(M([[0]]),), C=M([[1e308]]))
    with pytest.raises(ValueError, match="overflows float64"):
        solve_sylvester(inst)


def test_miss_wider_than_float64_reads_inf():
    # the principal and its substitution are finite; only |L - R| overflows
    r = solve_linear(M([[0], [0]]), M([[1e308], [-1e308]]))
    assert r.principal == M([[-1e308]])
    assert r.cells.tolist() == [[0, 0]]
    assert r.residual_max_abs == POS_INF


def test_fast_path_op_count_is_exact():
    rng = np.random.default_rng(27)
    for _ in range(20):
        m, n, p = int(rng.integers(1, 7)), int(rng.integers(1, 7)), int(rng.integers(1, 5))
        cfg = GeneratorConfig(m=m, n=n, p=p, seed=int(rng.integers(0, 2**63)), mode="raw_random")
        inst, _ = generate_instance(cfg)
        before = semiring_ops.total
        solve_sylvester(inst)
        used = semiring_ops.total - before
        assert used == 2 * p * (m * m * n + m * n * n + m * n)


def float_entries(rng, rows, cols, scale, neg=0.0, pos=0.0):
    """Non-integer entries in (-scale, scale), with -inf/+inf at the given densities."""
    out = rng.uniform(-scale, scale, size=(rows, cols))
    u = rng.random((rows, cols))
    out[u < neg] = NEG_INF
    out[(u >= neg) & (u < neg + pos)] = POS_INF
    return M(out)


def test_principal_matches_bruteforce():
    # the min-plus residual computed by scalar loops must come out bit for bit
    # as the negated max-plus substitution: on integer data, then non-integer
    # floats, then magnitudes near 1e300 whose sums of three stay finite
    corpora = (  # (float scale or None for integers, -inf/+inf densities of the factors, of C)
        (None, (0.2, 0.0), (0.0, 0.0)),
        (None, (0.2, 0.1), (0.1, 0.1)),
        (10.0, (0.2, 0.1), (0.1, 0.1)),
        (1e300, (0.2, 0.1), (0.1, 0.1)),
    )
    rng, rng_b = np.random.default_rng(28), np.random.default_rng(29)
    for scale, factor_inf, c_inf in corpora:
        def make(g, rows, cols, inf):
            return rand(g, rows, cols, *inf) if scale is None else float_entries(g, rows, cols, scale, *inf)

        for _ in range(100):
            m, n, p = int(rng.integers(1, 6)), int(rng.integers(1, 6)), int(rng.integers(1, 4))
            A = [make(rng, m, m, factor_inf) for _ in range(p)]
            B = [make(rng, n, n, factor_inf) for _ in range(p)]
            C = make(rng, m, n, c_inf)
            inst = SylvesterInstance(A=A, B=B, C=C)
            expect = bf.sylvester_principal([a.tolist() for a in A], [b.tolist() for b in B], C.tolist())
            assert sylvester_principal_solution(inst).tolist() == expect

            b = make(rng_b, m, 1, c_inf)
            expect = bf.min_plus_matmul(bf.conjugate(A[0].tolist()), b.tolist())
            assert linear_principal_solution(A[0], b).tolist() == expect
