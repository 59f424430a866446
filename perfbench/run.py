"""Run one benchmark workload against the package source in ./src.

    python3 perfbench/run.py --workload raw_large --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout.  ``--trace 0`` measures the
end-to-end metrics, each request against its reference request (see
``workloads.end_to_end``); ``--trace 1`` runs each request twice, traced and
untraced, and reports the per-layer metrics.  A table goes to stdout first,
then one JSON line with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full result, with the machine note and predictions, is
written to ``.perfbench_out/`` (the spans too, for traced runs).  Exits 2
without a result when ``src/maxplus_sylvester`` is not there.
"""

import os

from spec import LOAD_NOTE, THREAD_VARS

for _var in THREAD_VARS:  # before numpy is imported anywhere
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from spec import BENCH, FAILED_RATIO, PREDICTIONS, SETUP_REPEATS, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "maxplus_sylvester"
OUT = ROOT / ".perfbench_out"


def import_package():
    """Put ./src first on the path; False when the checkout has no package source."""
    if not (PACKAGE / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import maxplus_sylvester

    return Path(maxplus_sylvester.__file__).resolve().parent == PACKAGE.resolve()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def machine_note(seed):
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "seed": seed,
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "load": LOAD_NOTE,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not import_package():
        print(f"error: no package source at {PACKAGE.relative_to(ROOT)}; run from a source checkout",
              file=sys.stderr)
        return 2

    import workloads as wl
    from tracer import Tracer, spans_to_records

    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{workload.name}-", dir=OUT) as workdir:
        workdir = Path(workdir)
        pool, first = wl.timed_setup(workload, args.seed, workdir / "setup0", tracer, "setup0")
        setup_times = [first]

        def repeat_setup():
            k = len(setup_times)
            _, seconds = wl.timed_setup(workload, args.seed, workdir / f"setup{k}", tracer, f"setup{k}")
            setup_times.append(seconds)
            shutil.rmtree(workdir / f"setup{k}", ignore_errors=True)

        wl.attach_expected(pool)
        wl.warm_up(workload, pool)
        samples = wl.run_passes(workload, pool, args.seconds, tracer, repeat_setup, SETUP_REPEATS - 1)

    failures = [f"item{s.item}: {'; '.join(s.reasons)}" for s in samples if s.reasons]
    diffs = wl.formula_diffs(workload, pool, samples)
    result = {
        "workload": workload.name,
        "why": next(w["why"] for w in BENCH["workloads"] if w["name"] == workload.name),
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_note(args.seed),
        "predictions": {k: {"moves": v[0], "on": v[1], "note": v[2]} for k, v in PREDICTIONS.items()},
        "attempted": len(samples),
        "failed": len(failures),
        "failures": failures[:20],
        "opcount_formula_diffs": diffs,
    }
    if args.trace:
        metrics, accounting = wl.per_layer(workload, pool, samples, tracer.spans, len(setup_times))
        units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        result.update(accounting=accounting, missing=tracer.missing, missing_layers=sorted(tracer.missing_layers))
    else:
        metrics, info = wl.end_to_end(samples, pool, setup_times)
        units = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
        result.update(info, setup_times_s=setup_times,
                      latencies=[[s.item, s.latency, s.ref_latency] for s in samples])

    result["metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans_to_records(tracer.spans)) + "\n")

    print(f"workload {workload.name}  seed {args.seed}  attempted {len(samples)}  failed {len(failures)}")
    for name, unit in units.items():
        print(f"  {name:<28} {metrics[name]:.6g} {unit}")
    if not args.trace:
        print(f"  {FAILED_RATIO[0]:<28} {result['failed_ratio']:.6g} {FAILED_RATIO[1]}")
        print(f"  latency_tail_vs_ref is p{result['tail_percentile']:.1f} of {result['samples']} requests")
        print("  wall times, not bounded (they follow the shared machine's speed):")
        for name, value in result["wall"].items():
            print(f"    {name:<34} {value:.6g}")
    else:
        print(f"  missing layers: {', '.join(result['missing_layers']) or 'none'}")
    for line in failures[:5] + diffs:
        print(f"  ! {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
