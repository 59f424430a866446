"""Instance pools, the requests made on them, the closed timed loop and the metrics.

A request is one ``solve_sylvester`` call (raw_large) or one in-process
``cli.main(["solve", ...])`` with stdout captured (cli_mixed; some with
``--oracle``, which also runs the Kronecker oracle and compares).  Requests are issued one at a time in whole
passes over the pool, so every run measures the same mix.  Every answer is
checked against :mod:`reference` outside the timed region.  In untraced
runs each request is followed by its reference request on the same instance
(``REFERENCES``), timed the same way, so each latency has a reference time
taken at the same moment on the same machine.
"""

import contextlib
import io
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import reference as ref
from tracer import LAYERS, self_times
from maxplus_sylvester import cli, instance_io, solver
from maxplus_sylvester.matrix import TropicalMatrix

try:
    from maxplus_sylvester.opcount import semiring_ops
except ImportError:
    semiring_ops = None


def read_ops():
    return None if semiring_ops is None else semiring_ops.total


@dataclass
class Item:
    shape: object
    data: tuple  # the arrays the reference solves: (A_terms, B_terms, C), (A, B, C) or (A, b)
    witness: np.ndarray = None  # a known solution, for solvable instances
    inst: object = None  # SylvesterInstance handed to library requests
    argv: list = None  # `solve` arguments for CLI requests
    files: list = None  # the instance files those arguments name, in order
    expected: ref.Expected = None
    ops: int = 0  # counted ops the README formulas predict for one request


@dataclass
class Sample:
    item: int
    latency: float
    ops: int
    reasons: list
    request: str = None  # trace request id, None when untraced
    stdout_bytes: int = 0
    refused: bool = False
    agrees: bool = None
    solvable: bool = None  # the program's verdict
    ref_latency: float = None  # the reference request's wall time, when timed


def _item_seed(seed, index):
    return int(np.random.SeedSequence([seed, index]).generate_state(1, dtype=np.uint64)[0])


def build_item(workload, index, shape, seed, directory):
    mode = "solvable_by_construction" if shape.solvable else "raw_random"
    cfg = instance_io.GeneratorConfig(m=shape.m, n=shape.n, p=shape.p, seed=_item_seed(seed, index), mode=mode)
    inst, witness = instance_io.generate_instance(cfg)
    if shape.form == "two-sided":
        # keep the generator's witness X0, discard its two-term C
        A, B = inst.A[0], inst.B[1]
        C = TropicalMatrix(ref.two_sided_rhs(A.data, B.data, witness.data))
        inst = solver.SylvesterInstance(A=(A,), B=(B,), C=C)
        item = Item(shape, (A.data, B.data, C.data), witness.data)
    elif shape.form == "linear":
        # C = A X0 B1 with B1 a 1x1 scalar, so x0 = X0 + B1 solves A x = C
        item = Item(shape, (inst.A[0].data, inst.C.data), witness.data + inst.B[0].data[0, 0])
    else:
        item = Item(
            shape,
            (tuple(M.data for M in inst.A), tuple(M.data for M in inst.B), inst.C.data),
            None if witness is None else witness.data,
        )
    item.ops = ref.expected_ops(shape.form, shape.m, shape.n, shape.p, with_oracle=shape.oracle)
    if workload.kind == "cli":
        d = directory / f"item{index}"
        instance_io.write_instance(d, inst)
        item.files = _instance_files(shape.form, d, inst.p)
        item.argv = _solve_argv(shape, item.files)
    else:
        item.inst = inst
    return item


def _instance_files(form, d, p):
    """A1..Ap, B1..Bp, C; just A1 and C for the linear form."""
    if form == "linear":
        return [d / "A1.txt", d / "C.txt"]
    return [d / f"A{k}.txt" for k in range(1, p + 1)] + [d / f"B{k}.txt" for k in range(1, p + 1)] + [d / "C.txt"]


def _solve_argv(shape, files):
    argv = ["solve"] if shape.form == "sylvester" else ["solve", "--form", shape.form]
    if shape.oracle:
        argv.append("--oracle")
    for path in files[:-1]:
        argv += ["--a" if path.name.startswith("A") else "--b", str(path)]
    return argv + ["--c", str(files[-1])]


def build_pool(workload, seed, directory):
    return [build_item(workload, i, shape, seed, directory) for i, shape in enumerate(workload.plan)]


def timed_setup(workload, seed, directory, tracer=None, request_id="setup"):
    """Build the pool once; returns (pool, seconds taken)."""
    if tracer is not None:
        tracer.request = request_id
        tracer.install()
    try:
        start = perf_counter()
        pool = build_pool(workload, seed, directory)
        return pool, perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()


def expect(form, data):
    if form == "linear":
        return ref.expect_linear(*data)
    if form == "two-sided":
        return ref.expect_two_sided(*data)
    return ref.expect_terms(*data)


def attach_expected(pool):
    """Reference answers for every pool entry; runs after set-up and before timing."""
    for item in pool:
        item.expected = expect(item.shape.form, item.data)


def _solve(item):
    return solver.solve_sylvester(item.inst)


def _cli(item):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(item.argv)
    return code, out.getvalue()


REQUESTS = {"library": _solve, "cli": _cli}


def _cli_reference(item):
    arrays = [ref.read_matrix(path) for path in item.files]
    p = item.shape.p
    data = tuple(arrays) if item.shape.form != "sylvester" else (tuple(arrays[:p]), tuple(arrays[p:2 * p]), arrays[-1])
    return ref.format_answer(expect(item.shape.form, data), ref.oracle_terms(*data) if item.shape.oracle else None)


# the same job as each request, done by the benchmark's own numpy code
REFERENCES = {
    "library": lambda item: expect(item.shape.form, item.data),
    "cli": _cli_reference,
}


def _judge(kind, item, outcome, sample):
    if kind == "library":
        sample.solvable = bool(outcome.solvable)
        return ref.check_report(outcome, item.expected, item.witness)
    code, text = outcome
    sample.stdout_bytes = len(text)
    sample.solvable = code == 0
    reasons, agrees = ref.check_cli(code, text, item.expected, item.witness, item.shape.oracle)
    if item.shape.oracle:
        sample.agrees = agrees
        sample.refused = "oracle refused the instance" in reasons
    return reasons


def run_request(workload, pool, index, tracer=None, request_id=None, reference=False):
    """One timed request; its answer is checked after the clock stops.

    With ``reference``, the reference request on the same instance is timed
    right after it.
    """
    item = pool[index]
    request = REQUESTS[workload.kind]
    if tracer is not None:
        tracer.request = request_id
        tracer.install()
    ops_before = read_ops()
    error = None
    try:
        start = perf_counter()
        try:
            outcome = request(item)
        except Exception as exc:  # a failing request is counted, not fatal
            error = exc
        latency = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    ops = None if ops_before is None else read_ops() - ops_before
    sample = Sample(index, latency, ops, [], request_id)
    if reference:
        start = perf_counter()
        REFERENCES[workload.kind](item)
        sample.ref_latency = perf_counter() - start
    if error is not None:
        sample.reasons = [f"exception {type(error).__name__}: {error}"]
    else:
        try:
            sample.reasons = _judge(workload.kind, item, outcome, sample)
        except Exception as exc:  # an answer the checker cannot read is a wrong answer
            sample.reasons = [f"unreadable answer {type(exc).__name__}: {exc}"]
    return sample


def warm_up(workload, pool):
    """One untimed request and reference request on the smallest entry of each form."""
    smallest = {}
    for i, item in enumerate(pool):
        form = item.shape.form
        if form not in smallest or item.shape.cells < pool[smallest[form]].shape.cells:
            smallest[form] = i
    for i in smallest.values():
        run_request(workload, pool, i, reference=True)


def run_passes(workload, pool, seconds, tracer=None, between=None, between_count=0):
    """Whole passes over the pool until another pass would overrun ``seconds``.

    Without a tracer, each request is followed by its timed reference
    request.  With a tracer, each request runs twice back to back, once
    traced and once not, in alternating order, so the pair gives the
    tracing overhead.
    ``between`` is called ``between_count`` times between passes, spread
    evenly over the run (any left over are called at the end); the
    benchmark repeats its set-up there, so the median set-up time samples
    the whole run rather than one moment of a shared machine.  Only the
    passes count against ``seconds``, not the calls to ``between``.
    """
    samples = []
    elapsed = 0.0
    passes = done = 0
    while True:
        pass_start = perf_counter()
        for i in range(len(pool)):
            if tracer is None:
                samples.append(run_request(workload, pool, i, reference=True))
                continue
            for traced in ((False, True) if (passes + i) % 2 == 0 else (True, False)):
                if traced:
                    samples.append(run_request(workload, pool, i, tracer, f"r{passes}.{i}"))
                else:
                    samples.append(run_request(workload, pool, i))
        passes += 1
        took = perf_counter() - pass_start
        elapsed += took
        if done < between_count and elapsed >= done * seconds / between_count:
            between()
            done += 1
        if elapsed + took > seconds:
            for _ in range(done, between_count):
                between()
            return samples


def tail(latencies):
    """(value, percentile): the highest percentile with at least 10 samples above it."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= 10:
        return lat[-1], 100.0
    return lat[n - 11], 100.0 * (n - 10) / n


def failed_ratio(samples):
    return sum(1 for s in samples if s.reasons) / len(samples)


def end_to_end(samples, pool, setup_times):
    """The bounded metrics, and the wall-time figures they are made from.

    Each request's latency is divided by the time of its reference request,
    timed right after it on the same instance, so a change in the speed the
    shared machine gives the process cancels out of the ratio.
    """
    latencies = [s.latency for s in samples]
    ref_latencies = [s.ref_latency for s in samples]
    ratios = [s.latency / s.ref_latency for s in samples]
    tail_ratio, tail_pct = tail(ratios)
    cells = sum(pool[s.item].shape.cells for s in samples)
    metrics = {
        "latency_p50_vs_ref": statistics.median(ratios),
        "latency_tail_vs_ref": tail_ratio,
        "throughput_vs_ref": sum(ref_latencies) / sum(latencies),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall = {
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail(latencies)[0],
        "throughput_cells_per_s": cells / sum(latencies),
        "reference_latency_p50_s": statistics.median(ref_latencies),
        "reference_throughput_cells_per_s": cells / sum(ref_latencies),
    }
    info = {"samples": len(samples), "tail_percentile": tail_pct, "failed_ratio": failed_ratio(samples), "wall": wall}
    return metrics, info


def formula_diffs(workload, pool, samples):
    """One line per pool entry whose counted ops differ from the README formula."""
    diffs = {}
    for s in samples:
        item = pool[s.item]
        if s.ops != item.ops:
            sh = item.shape
            diffs[s.item] = (
                f"{workload.name} item{s.item} {sh.form} m={sh.m} n={sh.n} p={sh.p}: "
                f"counted {s.ops}, formula {item.ops}"
            )
    return [diffs[k] for k in sorted(diffs)]


@dataclass
class _Totals:
    time: float = 0.0
    calls: int = 0
    ops: int = 0
    extra: dict = field(default_factory=dict)


def per_layer(workload, pool, samples, spans, setup_count):
    """Per-request means over the traced requests, plus the accounting behind them."""
    traced = [s for s in samples if s.request is not None]
    plain = [s for s in samples if s.request is None]
    n = len(traced)
    selfs = self_times(spans)
    totals, setup_totals = {}, {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    self_by_request = {}
    for s in spans:
        in_setup = s.request.startswith("setup")
        t = (setup_totals if in_setup else totals).setdefault(s.name, _Totals())
        t.time += s.end - s.start
        t.calls += 1
        t.ops += s.ops
        for key, value in (s.extra or {}).items():
            t.extra[key] = t.extra.get(key, 0) + value
        if not in_setup:
            layer_self[s.layer] += selfs[id(s)]
            self_by_request[s.request] = self_by_request.get(s.request, 0.0) + selfs[id(s)]

    def per_request(name, what="time"):
        t = totals.get(name)
        if t is None:
            return 0.0
        return (t.time if what == "time" else t.extra.get(what, 0)) / n

    def per_setup(name):
        t = setup_totals.get(name)
        return 0.0 if t is None else t.time / setup_count

    matmul = totals.get("matrix.matmul", _Totals())
    matvec = totals.get("matrix.matvec", _Totals())
    products = matmul.calls + matvec.calls
    oracle_calls = [s for s in traced if s.agrees is not None]
    verdicts = [s.solvable for s in traced if s.solvable is not None]
    traced_mean = statistics.fmean(s.latency for s in traced)
    unattributed = statistics.fmean(s.latency - self_by_request.get(s.request, 0.0) for s in traced)
    metrics = {
        "instance_io.load_s": per_request("instance_io.load"),
        "instance_io.format_s": per_request("instance_io.format"),
        "instance_io.bytes_parsed": per_request("instance_io.parse", "bytes"),
        "instance_io.generate_s": per_setup("instance_io.generate"),
        "instance_io.write_s": per_setup("instance_io.write"),
        "instance_io.self_s": layer_self["instance_io"] / n,
        "cli.self_s": layer_self["cli"] / n,
        "cli.stdout_bytes": statistics.fmean(s.stdout_bytes for s in traced),
        "solver.principal_s": per_request("solver.principal"),
        "solver.apply_s": per_request("solver.apply"),
        "solver.tolerance_s": per_request("solver.tolerance"),
        "solver.scan_s": per_request("solver.scan"),
        "solver.mismatch_cells": per_request("solver.scan", "mismatch_cells"),
        "solver.solvable_share": statistics.fmean(verdicts) if verdicts else 0.0,
        "solver.self_s": layer_self["solver"] / n,
        "matrix.matmul_s": matmul.time / n,
        "matrix.matmul_calls": matmul.calls / n,
        "matrix.matmul_ops_per_s": matmul.ops / matmul.time if matmul.time else 0.0,
        "matrix.matmul_unit_share": (matmul.extra.get("unit", 0) + matvec.extra.get("unit", 0)) / products
        if products else 0.0,
        "matrix.matvec_s": matvec.time / n,
        "matrix.matadd_s": per_request("matrix.matadd"),
        "matrix.conjugate_s": per_request("matrix.conjugate"),
        "matrix.kron_s": per_request("matrix.kron"),
        "matrix.self_s": layer_self["matrix"] / n,
        "oracle.reformulate_s": per_request("oracle.reformulate"),
        "oracle.linear_s": per_request("oracle.linear"),
        "oracle.agree_share": statistics.fmean(s.agrees for s in oracle_calls) if oracle_calls else 1.0,
        "oracle.refused": sum(s.refused for s in samples),
        "oracle.self_s": layer_self["oracle"] / n,
        "opcount.ops_per_request": statistics.fmean(s.ops for s in traced) if read_ops() is not None else 0,
        "opcount.formula_diffs": len(formula_diffs(workload, pool, samples)),
        "trace.overhead_s": traced_mean - statistics.fmean(s.latency for s in plain),
        "trace.unattributed_s": unattributed,
    }
    accounting = {
        "traced_requests": n,
        "traced_mean_s": traced_mean,
        "untraced_mean_s": statistics.fmean(s.latency for s in plain),
        "layer_self_s": {layer: value / n for layer, value in layer_self.items()},
        "unattributed_share": unattributed / traced_mean,
        "spans": {
            name: {"time_s": t.time / n, "calls": t.calls / n, "ops": t.ops / n, **{k: v / n for k, v in t.extra.items()}}
            for name, t in sorted(totals.items())
        },
        "setup_spans": {name: {"time_s": t.time / setup_count, "calls": t.calls / setup_count}
                        for name, t in sorted(setup_totals.items())},
    }
    return metrics, accounting
