import pytest

from bruteforce import fast_op_budget, loglog_slope, oracle_op_budget
from maxplus_sylvester.bench import CSV_HEADER, records_to_csv, run_grid, run_point


def test_run_point_fast_counts():
    records = run_point(4, 3, 2, "fast", reps=3, seed=5)
    assert len(records) == 3
    budget = fast_op_budget(4, 3, 2)
    for r in records:
        assert r.method == "fast" and (r.m, r.n, r.p) == (4, 3, 2)
        assert r.op_count == budget
        assert r.wall_seconds >= 0.0
    assert len({r.op_count for r in records}) == 1  # counts are deterministic across reps
    assert [r.rep for r in records] == [0, 1, 2]


def test_run_point_oracle_counts():
    records = run_point(4, 3, 2, "oracle", reps=3, seed=5)
    budget = oracle_op_budget(4, 3, 2)
    for r in records:
        assert r.op_count == budget


def test_run_point_rejects_unknown_method():
    with pytest.raises(ValueError):
        run_point(2, 2, 1, "magic", reps=3)


def test_run_grid_skips_oracle_above_cap():
    points = [(2, 2, 1), (65, 64, 1)]  # 65·64 = 4160 cells, above SIZE_CAP
    records, skipped = run_grid(points, reps=3)
    assert skipped == [(65, 64, 1)]
    methods_at = {(r.m, r.n, r.method) for r in records}
    assert (2, 2, "oracle") in methods_at
    assert (65, 64, "oracle") not in methods_at
    assert (65, 64, "fast") in methods_at
    assert len(records) == 3 * 3  # two fast points + one oracle point, 3 reps each


def test_run_grid_point_seeds_differ_but_are_stable():
    records_a, _ = run_grid([(3, 3, 2)], reps=3, seed=11, methods=("fast",))
    records_b, _ = run_grid([(3, 3, 2)], reps=3, seed=11, methods=("fast",))
    assert [r.op_count for r in records_a] == [r.op_count for r in records_b]


def test_csv_format():
    records, _ = run_grid([(2, 3, 1)], reps=3, seed=1)
    text = records_to_csv(records)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER == "m,n,p,method,rep,wall_seconds,op_count"
    assert len(lines) == 1 + len(records)
    assert text.endswith("\n")
    first = lines[1].split(",")
    assert first[:5] == ["2", "3", "1", "fast", "0"]
    float(first[5])
    int(first[6])


def test_loglog_slope_recovers_exponent():
    xs = [16, 32, 64, 128]
    assert abs(loglog_slope(xs, [x**3 for x in xs]) - 3.0) < 1e-12
    assert abs(loglog_slope(xs, [5.0 * x**4 for x in xs]) - 4.0) < 1e-12
