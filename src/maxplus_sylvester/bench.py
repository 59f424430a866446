"""Benchmark harness: operation counts and wall time for both solver paths.

Acceptance of the complexity claims anchors on the instrumented scalar
operation counts (deterministic, machine-independent); wall time rides
along as secondary evidence.  The fast path costs exactly
``2·p·(m²n + mn² + mn)`` counted operations and the oracle
``2·(p+1)·(mn)²``, so log-log slopes over a square size grid land at 3
and 4 respectively.
"""

import time
from dataclasses import dataclass

import numpy as np

from .instance_io import GeneratorConfig, generate_instance
from .opcount import semiring_ops
from .oracle import OracleSizeError, oracle_solve
from .solver import solve_sylvester

CSV_HEADER = "m,n,p,method,rep,wall_seconds,op_count"
METHODS = ("fast", "oracle")


@dataclass(frozen=True)
class BenchRecord:
    """One timing measurement of one method at one grid point."""

    m: int
    n: int
    p: int
    method: str
    rep: int
    wall_seconds: float
    op_count: int


def _point_seed(seed: int, m: int, n: int, p: int) -> int:
    # stable per-point split of the base seed
    return int(np.random.SeedSequence([seed, m, n, p]).generate_state(1, dtype=np.uint64)[0])


def run_point(m, n, p, method, reps, seed=0):
    """Measure one (m, n, p, method) point over ``reps`` repetitions."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    cfg = GeneratorConfig(m=m, n=n, p=p, seed=_point_seed(seed, m, n, p), mode="raw_random")
    inst, _ = generate_instance(cfg)
    records = []
    for rep in range(reps):
        before = semiring_ops.total
        start = time.perf_counter()
        if method == "fast":
            solve_sylvester(inst)
        else:
            oracle_solve(inst)
        wall = time.perf_counter() - start
        records.append(BenchRecord(m, n, p, method, rep, wall, semiring_ops.total - before))
    return records


def run_grid(points, reps, seed=0, methods=METHODS):
    """Measure every (m, n, p) point with every method.

    Oracle points the oracle refuses (mn above ``SIZE_CAP``) are skipped;
    the skipped points come back in the second element so callers can
    report them.
    """
    records, skipped = [], []
    for m, n, p in points:
        for method in methods:
            try:
                records.extend(run_point(m, n, p, method, reps, seed=seed))
            except OracleSizeError:
                skipped.append((m, n, p))
    return records, skipped


def records_to_csv(records) -> str:
    """Render records as CSV with the stable header, newline-terminated."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(f"{r.m},{r.n},{r.p},{r.method},{r.rep},{r.wall_seconds:.9f},{r.op_count}")
    return "\n".join(lines) + "\n"
