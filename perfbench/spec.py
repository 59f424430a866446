"""What the benchmark measures: workload plans and the predictions they carry.

Workload ``why`` text and the metric names, units and directions are read
from BENCHMARK.json at the repository root (``BENCH``).

The seed changes only the entries of the instances, never the plan, so every
run of a workload does the same amount of work.
"""

import json
from dataclasses import dataclass
from pathlib import Path

BENCH = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

SETUP_REPEATS = 15  # the first builds the pool; the rest are spread over the timed loop
LOAD_NOTE = (
    "Wall times come from one single-threaded process (thread pools pinned to 1) in a closed loop "
    "with one client that waits for each verdict, on a shared 2-core box."
)
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


@dataclass(frozen=True)
class Shape:
    """One pool entry: the equation form, C's shape m×n and the term count p."""

    form: str  # "sylvester", "two-sided" or "linear"
    m: int
    n: int
    p: int
    solvable: bool  # solvable_by_construction, else raw_random
    oracle: bool = False  # a `solve --oracle` request: the Kronecker oracle checks the answer

    @property
    def cells(self) -> int:
        return self.m * self.n


def _syl(m, n, p, solvable=True):
    return Shape("sylvester", m, n, p, solvable)


def _orc(m, n, p):
    return Shape("sylvester", m, n, p, True, oracle=True)


def _two(m, n):
    return Shape("two-sided", m, n, 2, True)


def _lin(m):
    return Shape("linear", m, 1, 1, True)


# The pool of mixed shapes has an odd number of entries, so the median request
# falls inside one entry's samples rather than between two entries whose costs differ.
@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "library" or "cli"
    plan: tuple


WORKLOADS = {
    w.name: w
    for w in (
        Workload("raw_large", "library", (_syl(256, 256, 2, False),) * 4),
        Workload(
            "cli_mixed", "cli",
            (
                _syl(128, 128, 2), _syl(16, 16, 1), _syl(32, 48, 2), _syl(64, 64, 4), _syl(96, 40, 8),
                _syl(128, 64, 2), _syl(48, 32, 8), _syl(128, 24, 1),
                _two(128, 128), _two(32, 32), _two(64, 100), _two(16, 80),
                _lin(16), _lin(64), _lin(128),
                # the oracle's Kronecker system has (m·n)² entries, so these stay small
                _orc(24, 32, 2), _orc(16, 64, 1),
            ),
        ),
    )
}

# Printed and written to the result file, but not a bounded metric: it is 0 on correct code.
FAILED_RATIO = ("failed_ratio", "ratio")

# layer metric -> (end-to-end metrics it should move, workloads where it should move them, note)
PREDICTIONS = {
    "instance_io.load_s": (["latency_p50_vs_ref", "throughput_vs_ref"], ["cli_mixed"], "about 0 elsewhere"),
    "instance_io.format_s": (["latency_p50_vs_ref", "throughput_vs_ref"], ["cli_mixed"], "about 0 elsewhere"),
    "instance_io.bytes_parsed": (["latency_p50_vs_ref", "throughput_vs_ref"], ["cli_mixed"], "0 elsewhere"),
    "instance_io.generate_s": (["setup_s"], ["raw_large", "cli_mixed"], "per set-up"),
    "instance_io.write_s": (["setup_s"], ["cli_mixed"], "per set-up; only the CLI pool is written"),
    "cli.self_s": (["latency_p50_vs_ref"], ["cli_mixed"], "cli.main span minus its child spans"),
    "cli.stdout_bytes": (["latency_p50_vs_ref"], ["cli_mixed"], ""),
    "solver.principal_s": (["latency_p50_vs_ref", "throughput_vs_ref"], ["raw_large", "cli_mixed"], ""),
    "solver.apply_s": (["latency_p50_vs_ref", "throughput_vs_ref"], ["raw_large", "cli_mixed"], ""),
    "solver.tolerance_s": (["latency_p50_vs_ref"], ["raw_large", "cli_mixed"], ""),
    "solver.scan_s": (["latency_p50_vs_ref", "throughput_vs_ref"], ["raw_large"],
                      "prediction for cli_mixed: no change (every instance solvable)"),
    "solver.mismatch_cells": (["latency_p50_vs_ref"], ["raw_large"], "about 62k of 65k cells per raw 256x256 solve"),
    "solver.solvable_share": ([], [], "1 on cli_mixed, about 0 on raw_large"),
    "matrix.matmul_s": (["latency_p50_vs_ref", "throughput_vs_ref"], ["raw_large", "cli_mixed"], ""),
    "matrix.matmul_calls": (["latency_p50_vs_ref"], ["raw_large", "cli_mixed"], ""),
    "matrix.matmul_ops_per_s": (["latency_p50_vs_ref", "throughput_vs_ref"], ["raw_large", "cli_mixed"],
                                "about 0.3-0.4 G/s at the seed commit"),
    "matrix.matmul_unit_share": (["latency_p50_vs_ref"], ["cli_mixed"],
                                 "wasted products on unit factors; above 0 only on cli_mixed (two-sided form)"),
    "matrix.matvec_s": (["latency_p50_vs_ref"], ["cli_mixed"], "linear and --oracle requests"),
    "matrix.matadd_s": (["latency_p50_vs_ref"], ["raw_large", "cli_mixed"], ""),
    "matrix.conjugate_s": (["latency_p50_vs_ref"], ["raw_large", "cli_mixed"], ""),
    "matrix.kron_s": (["throughput_vs_ref", "peak_rss_mb"], ["cli_mixed"], "--oracle requests, about a tenth of a pass"),
    "oracle.reformulate_s": (["throughput_vs_ref", "peak_rss_mb"], ["cli_mixed"], "--oracle requests only"),
    "oracle.linear_s": (["throughput_vs_ref"], ["cli_mixed"], "--oracle requests only"),
    "oracle.agree_share": ([], ["cli_mixed"], "must be 1; reported as 1 where the oracle is not called"),
    "oracle.refused": ([], ["cli_mixed"], "requests whose oracle check was skipped (OracleSizeError); must be 0"),
    "opcount.ops_per_request": ([], ["raw_large", "cli_mixed"],
                                "must repeat exactly and match the README formulas"),
}
