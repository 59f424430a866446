"""Checks of the benchmark itself: run with ``python3 -m pytest perfbench -q`` from the repo root."""

import dataclasses
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

assert run.import_package(), "run from a source checkout with src/maxplus_sylvester"

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from spec import BENCH, Shape, Workload  # noqa: E402
from tracer import Tracer  # noqa: E402
from maxplus_sylvester.matrix import TropicalMatrix  # noqa: E402

TINY = {
    "library": (Shape("sylvester", 6, 5, 2, False), Shape("sylvester", 4, 7, 3, True)),
    "cli": (Shape("sylvester", 5, 6, 2, True), Shape("two-sided", 7, 4, 2, True), Shape("linear", 6, 1, 1, True),
            Shape("sylvester", 5, 4, 2, True, oracle=True), Shape("sylvester", 6, 3, 1, True, oracle=True)),
}


def _run(kind, tmp_path, tracer=None):
    workload = Workload(f"tiny_{kind}", kind, TINY[kind])
    pool, _ = wl.timed_setup(workload, 7, tmp_path, tracer)
    wl.attach_expected(pool)
    return workload, pool, wl.run_passes(workload, pool, 0.01, tracer)


@pytest.mark.parametrize("kind", sorted(TINY))
def test_seed_code_passes_every_check(kind, tmp_path):
    workload, pool, samples = _run(kind, tmp_path)
    assert [s.reasons for s in samples] == [[] for _ in samples]
    assert wl.formula_diffs(workload, pool, samples) == []


def _corrupt_principal(report):
    data = report.principal.data.copy()
    data[0, 0] = data[0, 0] - 1 if np.isfinite(data[0, 0]) else 0.0
    return dataclasses.replace(report, principal=TropicalMatrix(data))


def _flip_verdict(report):
    return dataclasses.replace(report, solvable=not report.solvable)


@pytest.mark.parametrize("corrupt, reason", [
    (_corrupt_principal, "principal differs from reference"),
    (_flip_verdict, "wrong verdict"),
])
def test_wrong_answers_count_in_failed_ratio(corrupt, reason, tmp_path, monkeypatch):
    solve = wl.solver.solve_sylvester
    monkeypatch.setattr(wl.solver, "solve_sylvester", lambda inst: corrupt(solve(inst)))
    _, _, samples = _run("library", tmp_path)
    assert wl.failed_ratio(samples) == 1.0
    assert all(reason in s.reasons for s in samples)


def test_wrong_exit_code_counts_as_failed(tmp_path, monkeypatch):
    main = wl.cli.main
    monkeypatch.setattr(wl.cli, "main", lambda argv: 1 - main(argv))
    _, _, samples = _run("cli", tmp_path)
    assert wl.failed_ratio(samples) == 1.0
    assert all(r.startswith("wrong exit code") for s in samples for r in s.reasons)


def test_oracle_disagreement_counts_as_failed(tmp_path, monkeypatch):
    oracle_solve = wl.cli.oracle_solve
    monkeypatch.setattr(wl.cli, "oracle_solve", lambda *args, **kw: _flip_verdict(oracle_solve(*args, **kw)))
    _, pool, samples = _run("cli", tmp_path)
    assert {pool[s.item].shape.oracle for s in samples if s.reasons} == {True}
    assert all("fast and oracle disagree" in s.reasons for s in samples if pool[s.item].shape.oracle)


def test_skipped_oracle_counts_as_refused(tmp_path, monkeypatch):
    def refuse(*args, **kw):
        raise wl.cli.OracleSizeError("too big")

    monkeypatch.setattr(wl.cli, "oracle_solve", refuse)
    tracer = Tracer()
    workload, pool, samples = _run("cli", tmp_path, tracer)
    metrics, _ = wl.per_layer(workload, pool, samples, tracer.spans, 1)
    assert metrics["oracle.refused"] == sum(pool[s.item].shape.oracle for s in samples) > 0


def test_solvable_share_follows_the_programs_verdict(tmp_path, monkeypatch):
    main = wl.cli.main
    for flip, share in ((False, 1.0), (True, 0.0)):  # every cli pool entry is solvable
        if flip:
            monkeypatch.setattr(wl.cli, "main", lambda argv: 1 - main(argv))
        tracer = Tracer()
        workload, pool, samples = _run("cli", tmp_path / str(flip), tracer)
        metrics, _ = wl.per_layer(workload, pool, samples, tracer.spans, 1)
        assert metrics["solver.solvable_share"] == share


def test_exception_counts_as_failed(tmp_path, monkeypatch):
    def boom(inst):
        raise RuntimeError("boom")

    monkeypatch.setattr(wl.solver, "solve_sylvester", boom)
    _, _, samples = _run("library", tmp_path)
    assert wl.failed_ratio(samples) == 1.0


def test_counted_ops_off_formula_are_named(tmp_path):
    workload, pool, samples = _run("library", tmp_path)
    samples[0].ops += 1
    diffs = wl.formula_diffs(workload, pool, samples)
    assert len(diffs) == 1 and diffs[0].startswith(f"tiny_library item{samples[0].item} sylvester")


@pytest.mark.parametrize("kind", sorted(TINY))
def test_traced_run_reports_every_layer_metric(kind, tmp_path):
    tracer = Tracer()
    workload, pool, samples = _run(kind, tmp_path, tracer)
    metrics, accounting = wl.per_layer(workload, pool, samples, tracer.spans, 1)
    assert list(metrics) == [m["name"] for m in BENCH["per_layer"]]
    assert tracer.missing == []
    assert metrics["opcount.formula_diffs"] == 0
    assert metrics["oracle.agree_share"] == 1.0
    self_total = sum(accounting["layer_self_s"].values())
    assert self_total + metrics["trace.unattributed_s"] == pytest.approx(accounting["traced_mean_s"])
    assert (metrics["matrix.matmul_unit_share"] > 0) == (kind == "cli")


def test_missing_function_is_reported_not_fatal(tmp_path, monkeypatch):
    monkeypatch.delattr(wl.cli, "oracle_solve")
    tracer = Tracer()
    assert tracer.missing == ["cli.oracle_solve"] and tracer.missing_layers == {"oracle"}
    workload, pool, samples = _run("cli", tmp_path, tracer)
    metrics, _ = wl.per_layer(workload, pool, samples, tracer.spans, 1)
    assert metrics["instance_io.load_s"] > 0


def test_tail_is_highest_percentile_with_ten_above():
    assert wl.tail([float(i) for i in range(40)]) == (29.0, 75.0)
    assert wl.tail([1.0, 3.0, 2.0]) == (3.0, 100.0)


def test_reference_two_sided_matches_unit_factor_form():
    A = [[0.0, float("-inf")], [2.0, 1.0]]
    B = [[1.0, 0.0, float("-inf")], [float("-inf"), -1.0, 3.0], [0.0, 0.0, 0.0]]
    C = [[4.0, 2.0, 5.0], [6.0, float("-inf"), 1.0]]
    A, B, C = (np.array(x) for x in (A, B, C))
    E_m = np.where(np.eye(2) == 1, 0.0, -np.inf)
    E_n = np.where(np.eye(3) == 1, 0.0, -np.inf)
    two = ref.expect_two_sided(A, B, C)
    terms = ref.expect_terms((A, E_m), (E_n, B), C)
    assert np.array_equal(two.principal, terms.principal)
    assert (two.solvable, two.mismatches) == (terms.solvable, terms.mismatches)


@pytest.mark.parametrize("kind", sorted(TINY))
def test_reference_requests_give_the_programs_answer(kind, tmp_path):
    workload, pool, samples = _run(kind, tmp_path)
    assert all(s.ref_latency > 0 for s in samples)
    for item in pool:
        answer = wl.REFERENCES[kind](item)
        if kind == "cli":
            assert answer == wl._cli(item)[1]
            assert answer.endswith("oracle-agrees: true\n") == item.shape.oracle
            continue
        assert np.array_equal(answer.principal, item.expected.principal)
        assert (answer.solvable, answer.mismatches) == (item.expected.solvable, item.expected.mismatches)


def test_reference_oracle_matches_the_direct_reference():
    rng = np.random.default_rng(3)
    A = tuple(rng.integers(-5, 5, (4, 4)).astype(float) for _ in range(2))
    B = tuple(rng.integers(-5, 5, (3, 3)).astype(float) for _ in range(2))
    A[0][1, 2] = B[1][0, 0] = -np.inf
    C = rng.integers(-5, 5, (4, 3)).astype(float)
    direct, kron = ref.expect_terms(A, B, C), ref.oracle_terms(A, B, C)
    assert np.array_equal(direct.principal, kron.principal)
    assert (direct.solvable, direct.mismatches) == (kron.solvable, kron.mismatches)


def test_end_to_end_divides_each_latency_by_its_reference(tmp_path):
    _, pool, _ = _run("library", tmp_path)
    samples = [wl.Sample(0, latency, 0, [], ref_latency=r) for latency, r in ((2.0, 1.0), (3.0, 1.0), (8.0, 2.0))]
    metrics, info = wl.end_to_end(samples, pool, [0.5])
    assert metrics["latency_p50_vs_ref"] == 3.0
    assert metrics["latency_tail_vs_ref"] == 4.0
    assert metrics["throughput_vs_ref"] == 4.0 / 13.0
    assert info["wall"]["latency_p50_s"] == 3.0


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "raw_large", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
