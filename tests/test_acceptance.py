"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print.  Every tolerance is pinned here; the randomized corpora are
seeded, so the whole suite is deterministic.
"""

import subprocess
import sys
import time

import numpy as np

import bruteforce as bf
from maxplus_sylvester.bench import run_grid
from maxplus_sylvester.instance_io import (
    GeneratorConfig,
    format_matrix,
    generate_instance,
    parse_matrix,
)
from maxplus_sylvester.matrix import (
    TropicalMatrix,
    max_plus_matmul,
    negate,
    transpose,
)
from maxplus_sylvester.oracle import kron_max, oracle_solve, vec
from maxplus_sylvester.solver import (
    solve_sylvester,
    solve_two_sided_special,
    sylvester_principal_solution,
)

M = TropicalMatrix


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {number} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {number} {name} failed{suffix}"


def rand(rng, rows, cols, neg=0.0, pos=0.0):
    return M(bf.random_entries(rng, rows, cols, neg_density=neg, pos_density=pos))


def _random_instances(master_seed, count, mode):
    rng = np.random.default_rng(master_seed)
    for _ in range(count):
        cfg = GeneratorConfig(
            m=int(rng.integers(1, 7)),
            n=int(rng.integers(1, 7)),
            p=int(rng.integers(1, 5)),
            seed=int(rng.integers(0, 2**63)),
            entry_low=-10,
            entry_high=10,
            neginf_density=0.1,
            mode=mode,
        )
        yield generate_instance(cfg)


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    failures = 0
    for inst, _ in _random_instances(1001, 1000, "raw_random"):
        fast = solve_sylvester(inst)
        slow = oracle_solve(inst)
        if not (
            fast.principal == slow.principal
            and fast.solvable == slow.solvable
            and fast.mismatches == slow.mismatches
            and sylvester_principal_solution(inst) == slow.principal
        ):
            failures += 1
    elapsed = time.perf_counter() - start
    _report(1, "oracle-equivalence", failures == 0,
            f"1000 instances bit-exact, {elapsed:.1f}s")


def test_criterion_2_maximality():
    failures = 0
    saw_strict = False
    for inst, witness in _random_instances(1002, 1000, "solvable_by_construction"):
        report = solve_sylvester(inst)
        if not (report.solvable and bf.leq(witness.tolist(), report.principal.tolist())):
            failures += 1
        if (witness.data < report.principal.data).any():
            saw_strict = True
    _report(2, "maximality", failures == 0 and saw_strict,
            "1000 construction instances, witness <= greatest solution, strict case seen")


def test_criterion_3_residuation_law():
    rng = np.random.default_rng(1003)
    failures = 0
    for _ in range(1000):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        A = rand(rng, m, n, neg=0.15, pos=0.1)
        x = rand(rng, n, 1, neg=0.15, pos=0.1)
        b = rand(rng, m, 1, neg=0.15, pos=0.1)
        forward = bf.leq(max_plus_matmul(A, x).tolist(), b.tolist())
        backward = bf.leq(x.tolist(), bf.min_plus_matmul(bf.conjugate(A.tolist()), b.tolist()))
        if forward != backward:
            failures += 1
    _report(3, "residuation-law", failures == 0, "1000 triples incl. infinities, exact")


def test_criterion_4_conjugate_kronecker_identity():
    rng = np.random.default_rng(1004)
    failures = 0
    for _ in range(500):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        A = rand(rng, m, m, neg=0.1, pos=0.05)
        B = rand(rng, n, n, neg=0.1, pos=0.05)
        lhs = negate(transpose(kron_max(transpose(B), A))).tolist()
        rhs = bf.kron_min(bf.transpose(bf.conjugate(B.tolist())), bf.conjugate(A.tolist()))
        if lhs != rhs:
            failures += 1
    _report(4, "conjugate-kronecker", failures == 0, "500 pairs bit-exact")


def test_criterion_5_vec_reformulation():
    rng = np.random.default_rng(1005)
    failures = 0
    for _ in range(500):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        A, X, B = rand(rng, m, m, neg=0.1), rand(rng, m, n, neg=0.1), rand(rng, n, n, neg=0.1)
        lhs = vec(max_plus_matmul(max_plus_matmul(A, X), B))
        rhs = max_plus_matmul(kron_max(transpose(B), A), vec(X))
        if lhs != rhs:
            failures += 1
    _report(5, "vec-reformulation", failures == 0, "500 triples bit-exact")


def test_criterion_6_complexity_separation():
    sizes = (16, 32, 64, 128)
    records, skipped = run_grid([(s, s, 2) for s in sizes], reps=3, seed=2026)
    fast_counts = {r.m: r.op_count for r in records if r.method == "fast" and r.rep == 0}
    oracle_counts = {r.m: r.op_count for r in records if r.method == "oracle" and r.rep == 0}

    fast_slope = bf.loglog_slope(sorted(fast_counts), [fast_counts[s] for s in sorted(fast_counts)])
    oracle_sizes = sorted(oracle_counts)
    oracle_slope = bf.loglog_slope(oracle_sizes, [oracle_counts[s] for s in oracle_sizes])

    p_records, _ = run_grid([(32, 32, p) for p in (1, 2, 4, 8)], reps=3, methods=("fast",), seed=2026)
    p_counts = {r.p: r.op_count for r in p_records if r.rep == 0}
    per_term = {p: p_counts[p] / p for p in p_counts}
    linear_dev = max(abs(v / per_term[1] - 1.0) for v in per_term.values())

    fast_wall_128 = min(r.wall_seconds for r in records if r.method == "fast" and r.m == 128)

    ok = (
        abs(fast_slope - 3.0) <= 0.1
        and abs(oracle_slope - 4.0) <= 0.1
        and linear_dev <= 0.01
        and len(fast_counts) == len(sizes)
        and len(oracle_sizes) >= 3
    )
    _report(
        6, "complexity-separation", ok,
        f"fast slope {fast_slope:.3f}, oracle slope {oracle_slope:.3f} over {oracle_sizes} "
        f"(skipped above cap: {[(m, n) for m, n, _ in skipped]}), p-linearity dev {linear_dev:.2%}, "
        f"fast wall at 128: {fast_wall_128:.3f}s (informational soft bound 5s)",
    )


def test_criterion_7_two_sided_special_case():
    # against the scalar-loop residual min(−Aᵀ ⊗' C, C ⊗' −Bᵀ) and the
    # substitution A ⊗ X ⊕ X ⊗ B; half the right sides come from a witness
    rng = np.random.default_rng(1007)
    failures = 0
    verdicts = set()
    for trial in range(200):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        A = rand(rng, m, m, neg=0.1)
        B = rand(rng, n, n, neg=0.1)
        if trial % 2:
            C = rand(rng, m, n, neg=0.1)
        else:
            C = M(bf.two_sided_apply(A.tolist(), B.tolist(), bf.random_entries(rng, m, n)))
        special = solve_two_sided_special(A, B, C)
        a, b, c = A.tolist(), B.tolist(), C.tolist()
        principal = bf.two_sided_principal(a, b, c)
        achieved = bf.two_sided_apply(a, b, principal)
        misses = tuple((i, j) for i in range(m) for j in range(n) if achieved[i][j] != c[i][j])
        if not (special.principal.tolist() == principal and special.mismatches == misses):
            failures += 1
        verdicts.add(special.solvable)
    _report(7, "two-sided-special-case", failures == 0 and verdicts == {True, False},
            "200 instances incl. -inf against the brute-force residual and substitution, exact")


def test_criterion_8_serialization_and_determinism():
    rng = np.random.default_rng(1008)
    round_trip_failures = 0
    for trial in range(1000):
        rows, cols = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        entries = bf.random_entries(rng, rows, cols, neg_density=0.15, pos_density=0.1)
        if trial % 4 == 0:
            entries = [[v + 0.25 if abs(v) != float("inf") and rng.random() < 0.5 else v
                        for v in row] for row in entries]
        original = M(entries)
        if parse_matrix(format_matrix(original)) != original:
            round_trip_failures += 1

    cfg = GeneratorConfig(m=4, n=3, p=3, seed=777)
    one, w1 = generate_instance(cfg)
    two, w2 = generate_instance(cfg)
    same_bytes = (
        all(format_matrix(a) == format_matrix(b) for a, b in zip(one.A, two.A))
        and all(format_matrix(a) == format_matrix(b) for a, b in zip(one.B, two.B))
        and format_matrix(one.C) == format_matrix(two.C)
        and format_matrix(w1) == format_matrix(w2)
    )
    _report(8, "serialization", round_trip_failures == 0 and same_bytes,
            "1000 round-trips incl. infinities, identical bytes for identical seeds")


def test_criterion_9_exit_code_contract(tmp_path):
    solvable = tmp_path / "solvable"
    solvable.mkdir()
    (solvable / "A.txt").write_text("1 1\n1\n")
    (solvable / "B.txt").write_text("1 1\n0\n")
    (solvable / "C.txt").write_text("1 1\n5\n")

    unsolvable = tmp_path / "unsolvable"
    unsolvable.mkdir()
    (unsolvable / "A.txt").write_text("2 2\n0 0\n0 0\n")
    (unsolvable / "B.txt").write_text("1 1\n0\n")
    (unsolvable / "C.txt").write_text("2 1\n0\n1\n")

    malformed = tmp_path / "malformed"
    malformed.mkdir()
    (malformed / "A.txt").write_text("1 1\nbogus\n")

    def run(inst_dir):
        return subprocess.run(
            [sys.executable, "-m", "maxplus_sylvester", "solve",
             "--a", str(inst_dir / "A.txt"), "--b", str(inst_dir / "B.txt"),
             "--c", str(inst_dir / "C.txt")],
            capture_output=True, text=True,
        ).returncode

    codes = (run(solvable), run(unsolvable), run(malformed))
    _report(9, "exit-code-contract", codes == (0, 1, 2), f"observed {codes}, expected (0, 1, 2)")
