"""Run every workload over one or more seeds and summarise each metric.

    python3 perfbench/summarize.py                       # seed 1
    python3 perfbench/summarize.py --seeds 1-10 --out perfbench/results/seed_runs_trace0.json

Runs ``run.py`` once per (workload, seed), for every workload of
BENCHMARK.json, one after the other, with its ``run_seconds``, and prints for every metric, with its
unit, the median, and over several seeds the quartile distance
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound.  Untraced runs add ``failed_ratio`` and the wall-time
figures the bounded ratios are made from.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return last, detail


def spread(values):
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / median if median else None}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default=[1], type=seed_list, help="e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {"run_seconds": bench["run_seconds"], "seeds": args.seeds, "trace": args.trace, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, seed, bench["run_seconds"], args.trace) for seed in args.seeds]
        values, units = {}, {}
        for last, detail in runs:
            for name, metric in last["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            if args.trace == 0:
                values.setdefault("failed_ratio", []).append(detail["failed_ratio"])
                units["failed_ratio"] = "ratio"
        entry = {
            "attempted": [last["attempted"] for last, _ in runs],
            "failed": [last["failed"] for last, _ in runs],
            "metrics": {name: {**spread(v), "unit": units[name], "bound": bounds.get(name), "values": v}
                        for name, v in values.items()},
        }
        if args.trace == 0:
            entry["tail_percentile"] = [d["tail_percentile"] for _, d in runs]
            entry["samples"] = [d["samples"] for _, d in runs]
            entry["wall"] = {name: {**spread(v), "values": v}
                             for name, v in ((name, [d["wall"][name] for _, d in runs]) for name in runs[0][1]["wall"])}
        else:
            entry["unattributed_share"] = [d["accounting"]["unattributed_share"] for _, d in runs]
            entry["missing_layers"] = runs[0][1]["missing_layers"]
        entry["machine"] = runs[0][1]["machine"]
        summary["workloads"][workload] = entry
        for name, m in entry["metrics"].items():
            line = f"{workload:<18} {name:<28} {m['median']:.6g} {m['unit']}"
            if m.get("iqr_share") is not None:
                line += f"  iqr/median {m['iqr_share']:.4f}  bound {m['bound']}"
            print(line)
        for name, m in entry.get("wall", {}).items():
            line = f"{workload:<18} wall {name:<28} {m['median']:.6g}"
            if m.get("iqr_share") is not None:
                line += f"  iqr/median {m['iqr_share']:.4f}  (not bounded)"
            print(line)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
