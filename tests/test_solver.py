import numpy as np
import pytest

import bruteforce as bf
from maxplus_sylvester.instance_io import GeneratorConfig, generate_instance
from maxplus_sylvester.matrix import (
    NEG_INF,
    POS_INF,
    ShapeError,
    TropicalMatrix,
    max_plus_matadd,
)
from maxplus_sylvester.opcount import semiring_ops
from maxplus_sylvester.solver import (
    DEFAULT_TOLERANCE,
    EXACT_INTEGER_LIMIT,
    ROUNDING_EPS_FACTOR,
    SylvesterInstance,
    effective_tolerance,
    linear_principal_solution,
    solve_linear,
    solve_sylvester,
    solve_two_sided_special,
    sylvester_apply,
    sylvester_principal_solution,
    two_sided_instance,
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
    r = solve_linear(M.max_plus_unit(3), b)
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
    assert axb_principal_solution(M.max_plus_unit(3), M.max_plus_unit(2), C) == C
    out = axb_principal_solution(M([[0, 1], [2, 0]]), M.max_plus_unit(2), M([[3, 3], [4, 4]]))
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
        A=(M.max_plus_unit(3),) * 3, B=(M.max_plus_unit(2),) * 3, C=C
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
        C2 = max_plus_matadd(inst.C, bump)
        inst2 = SylvesterInstance(A=inst.A, B=inst.B, C=C2)
        assert bf.leq(sylvester_principal_solution(inst).tolist(), sylvester_principal_solution(inst2).tolist())


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


def test_two_sided_matches_manual_instance():
    rng = np.random.default_rng(25)
    for _ in range(50):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        A, B, C = rand(rng, m, m, neg=0.2), rand(rng, n, n, neg=0.2), rand(rng, m, n)
        inst = two_sided_instance(A, B, C)
        assert inst.p == 2
        assert inst.A[1] == M.max_plus_unit(m) and inst.B[0] == M.max_plus_unit(n)
        direct = solve_sylvester(inst)
        special = solve_two_sided_special(A, B, C)
        assert special == direct


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
    # a 1e-12 near-miss fails under an explicit zero tolerance but passes
    # the default float tolerance; integer data always compares exactly
    A = M([[0.0], [0.0]])
    b = M([[0.0], [1e-12]])
    assert not solve_linear(A, b, tolerance=0.0).solvable
    assert solve_linear(A, b).solvable  # non-integer data gets the default 1e-9
    b_int = M([[0.0], [1.0]])
    assert not solve_linear(A, b_int).solvable  # all-integer data compares with eps=0
    with pytest.raises(ValueError):
        solve_linear(A, b_int, tolerance=-1.0)
    # NaN would fail every finite comparison: a silent "unsolvable"
    with pytest.raises(ValueError, match="tolerance"):
        solve_linear(A, M([[0.0], [0.0]]), tolerance=float("nan"))


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
    assert effective_tolerance(None, (M([[0]]), M([[-top]]))) == 0.0
    assert effective_tolerance(None, (M([[0]]), M([[-(top + 1)]]))) > 1.0
    # the rounding bound grows with the largest entry, from 1e-9 upwards
    rounding = ROUNDING_EPS_FACTOR * np.finfo(np.float64).eps
    assert effective_tolerance(None, (M([[0]]), M([[-(2.0**51)]]))) == DEFAULT_TOLERANCE + rounding * 2.0**51
    assert effective_tolerance(None, (M([[0.5, NEG_INF]]),)) == DEFAULT_TOLERANCE + rounding * 0.5
    # non-integer data of modest size keeps a tolerance close to 1e-9
    assert not solve_linear(A, M([[0.5], [0.5 + 1e-6], [1000.25]])).solvable
    # an explicit tolerance stays absolute
    assert effective_tolerance(0.0, (M([[2.0**53]]),)) == 0.0
    assert not solve_linear(M([[-1]]), M([[2.0**53]]), tolerance=0.0).solvable


def test_effective_tolerance_scans_finite_entries():
    rounding = ROUNDING_EPS_FACTOR * np.finfo(np.float64).eps
    # integrality and scale ignore ±inf: an integer at 2**53 sets the scale,
    # past the exact limit, and -3 beside the infinities keeps exact mode
    assert effective_tolerance(None, (M([[2.0**53, -3, NEG_INF, POS_INF]]),)) == DEFAULT_TOLERANCE + rounding * 2.0**53
    assert effective_tolerance(None, (M([[-3, NEG_INF, POS_INF]]),)) == 0.0
    # one fractional entry in any input ends exact mode
    assert effective_tolerance(None, (M([[0.5]]),)) == DEFAULT_TOLERANCE + rounding * 0.5
    assert effective_tolerance(None, (M([[0.5]]), M([[4, 1]]))) == DEFAULT_TOLERANCE + rounding * 4
    # the scale is the largest |entry| over every input, ignoring ±inf
    assert effective_tolerance(None, (M([[NEG_INF, -3, 2, POS_INF]]), M([[0.5]]))) == DEFAULT_TOLERANCE + rounding * 3
    # inputs with only infinities add nothing
    assert effective_tolerance(None, (M([[NEG_INF, POS_INF]]),)) == 0.0
    assert effective_tolerance(None, (M([[NEG_INF]]), M([[0.5]]))) == DEFAULT_TOLERANCE + rounding * 0.5


def test_default_tolerance_is_relative_to_magnitude():
    # solvable by construction; at ±1e300 the substitution rounds by about
    # 1e285, far beyond an absolute 1e-9
    def unsolvable_count(scale, tolerance):
        rng = np.random.default_rng(0)
        count = 0
        for _ in range(200):
            A = tuple(M(rng.uniform(-scale, scale, (3, 3))) for _ in range(2))
            B = tuple(M(rng.uniform(-scale, scale, (3, 3))) for _ in range(2))
            X0 = M(rng.uniform(-scale, scale, (3, 3)))
            inst = SylvesterInstance(A=A, B=B, C=sylvester_apply(A, B, X0))
            count += not solve_sylvester(inst, tolerance).solvable
        return count

    assert unsolvable_count(10.0, None) == 0
    assert unsolvable_count(1e300, None) == 0
    assert unsolvable_count(1e300, DEFAULT_TOLERANCE) > 0  # explicit: absolute


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
