"""Traced report of the solver stages on raw_random p=2 instances (the ROADMAP baseline grid).

    python3 perfbench/baseline.py --out perfbench/results/baseline_roadmap.json

For m = n = 128, 256 and 512 it solves one seeded raw_random instance
three times traced and three times untraced, checks the answer
against the numpy reference, and reports the best of the repetitions for
each column: solve, principal, apply, mismatch scan and one matmul.
"""

import argparse
import json
import sys
from time import perf_counter

import run

if not run.import_package():
    sys.exit("error: run from a source checkout with src/maxplus_sylvester")

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
from tracer import Tracer  # noqa: E402
from maxplus_sylvester import instance_io, solver  # noqa: E402

SIZES = (128, 256, 512)
P = 2
REPS = 3
SEED = 0
COLUMNS = (("solve", "solver.solve"), ("principal", "solver.principal"), ("apply", "solver.apply"),
           ("mismatch_scan", "solver.scan"), ("one_matmul", "matrix.matmul"))


def measure(size, tracer):
    point_seed = int(np.random.SeedSequence([SEED, size, size, P]).generate_state(1, dtype=np.uint64)[0])
    cfg = instance_io.GeneratorConfig(m=size, n=size, p=P, seed=point_seed, mode="raw_random")
    inst, _ = instance_io.generate_instance(cfg)
    untraced, traced = [], {column: [] for column, _ in COLUMNS}
    for rep in range(REPS):
        start = perf_counter()
        report = solver.solve_sylvester(inst)
        untraced.append(perf_counter() - start)
        tracer.request = f"{size}.{rep}"
        tracer.install()
        try:
            solver.solve_sylvester(inst)
        finally:
            tracer.uninstall()
        spans = [s for s in tracer.spans if s.request == tracer.request]
        for column, name in COLUMNS:
            times = [s.end - s.start for s in spans if s.name == name]
            traced[column].append(sum(times) / len(times) if column == "one_matmul" else sum(times))
    expected = ref.expect_terms(tuple(M.data for M in inst.A), tuple(M.data for M in inst.B), inst.C.data)
    reasons = ref.check_report(report, expected)
    if reasons:
        raise SystemExit(f"m=n={size}: {'; '.join(reasons)}")
    return {
        "m": size, "n": size, "p": P, "reps": REPS,
        **{f"{column}_s": min(values) for column, values in traced.items()},
        "untraced_solve_s": min(untraced),
        "mismatch_cells": len(expected.mismatches),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    tracer = Tracer()
    rows = [measure(size, tracer) for size in SIZES]
    print("| m = n | solve | principal | apply | mismatch scan | one matmul | untraced solve |")
    print("|------:|------:|------:|------:|------:|------:|------:|")
    for r in rows:
        print(f"| {r['m']} | {r['solve_s']:.3f} s | {r['principal_s']:.3f} s | {r['apply_s']:.3f} s | "
              f"{r['mismatch_scan_s']:.3f} s | {r['one_matmul_s']:.4f} s | {r['untraced_solve_s']:.3f} s |")
    if args.out:
        report = {
            "what": "raw_random instances, best of reps per column; traced columns come from spans recorded "
                    "around solver and matrix functions, untraced_solve_s from the same solves without tracing",
            "machine": run.machine_note(SEED),
            "missing": tracer.missing,
            "rows": rows,
        }
        with open(args.out, "w") as f:
            f.write(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
