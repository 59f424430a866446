"""Time both sides of each cost rule in ``maxplus_product.c`` over a shape grid.

Usage, from the root of a checkout::

    python3 tools/cost_sweep.py [--tree PATH] [--out FILE] [--quick]

``--tree`` names another checkout whose ``src`` is swept instead, so one
copy of this script measures two trees alike.  The script is no test and
no part of the benchmark; it asserts nothing about speed.

Products: for each m×k·n product a solve forms, with m and n ≥ 2 so the
register tiles run, it times the double tile and each int16 instance of
``maxplus_tile.h``, each int16 one with its encoding and decoding, and asks
the build which of them ``int_tile_pays`` and ``i16_work`` pick.
Solves: for p-term and two-sided instances on the solver's own integer
data it times ``solve_sylvester`` with the fused call forced, and with it
declined, so the solve is composed from product calls; for the linear form,
an m×m A by an m×1 b with m over the grid, it times ``solve_linear`` the same
two ways.  The forced call is ``maxplus_solve`` built without its cost rule;
the verdict of the shipped rule comes from the shipped library's query.  A
tree whose ``solve_linear`` offers no call has its linear solves timed
composed only, as that is the one way it runs them.

Each time is the best per-call time of several rounds, the sides
alternating within a round.  A shape is misrouted when the way the shipped
rules pick is slower than the best other way; the script prints each with
its loss in µs and writes every time to ``--out`` as JSON.  Where the
source has the rules' current form (the WEIGHT_* constants), it also fits
their constants (see ``fit``) and prints the misroutes of 10% or more that
the fitted constants would leave.
"""

import argparse
import ctypes
import itertools
import json
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# C's m and n: both sides of every block edge of both tiles, and the
# shapes the rules' tests pin
GRID = (1, 2, 3, 5, 6, 7, 8, 12, 13, 16, 24, 32, 33, 40, 48, 63, 64, 65, 80, 96, 100, 124, 126, 128, 129, 152,
        164, 200, 256, 268, 300)
QUICK_GRID = (2, 6, 7, 16, 24, 32, 33, 64, 65, 124, 128, 129, 256)
FORMS = (("p-term", 1), ("p-term", 2), ("p-term", 8), ("two-sided", 2))
# the cli_mixed pool of perfbench/spec.py: (form, m, n, p); the solve rule
# weighs a linear request as the one term (A, None) at an m×1 C
CLI_MIXED = (("p-term", 128, 128, 2), ("p-term", 16, 16, 1), ("p-term", 32, 48, 2), ("p-term", 64, 64, 4),
             ("p-term", 96, 40, 8), ("p-term", 128, 64, 2), ("p-term", 48, 32, 8), ("p-term", 128, 24, 1),
             ("two-sided", 128, 128, 2), ("two-sided", 32, 32, 2), ("two-sided", 64, 100, 2),
             ("two-sided", 16, 80, 2), ("linear", 16, 1, 1), ("linear", 64, 1, 1), ("linear", 128, 1, 1),
             ("p-term", 24, 32, 2), ("p-term", 16, 64, 1))
# the grid of tests/test_matrix.py::test_the_solve_query_gives_the_calls_verdict,
# in whose forms the rule must keep declining a shape, so that the test sees
# both verdicts
BOUNDARY_GRID = [(6, 152), (5, 164), (7, 268), (124, 6), *((m, n) for m in (1, 2, 5, 6, 7, 24, 124, 126)
                                                            for n in (1, 2, 6, 32, 33, 152, 164, 268))]
BOUNDARY_FORMS = (("p-term", 1), ("p-term", 2), ("two-sided", 2))
MISROUTE_BAR = 0.10  # ROADMAP item 5: the worst misrouted shape loses less than this share
SOLVE_CALL = "if (!solve_pays(a, b, p, m, n)) return -1;"

HARNESS = """
#include "{source}"
int sweep_int_tile_pays(ptrdiff_t m, ptrdiff_t k, ptrdiff_t n) {{ return int_tile_pays(m, k, n); }}
void sweep_f64(const double *p, const double *q, double *out, ptrdiff_t m, ptrdiff_t k, ptrdiff_t n)
{{
    blocked_f64(p, q, out, m, k, n, 0);
}}
static int sweep_encoded(blocked_i16_t *blocked, const double *p, const double *q, double *out, ptrdiff_t m,
                         ptrdiff_t k, ptrdiff_t n)
{{
    ptrdiff_t sp = LINE(m * k, int16_t), sq = LINE(k * n, int16_t), so = LINE(m * n, int16_t);
    int16_t *zp = scratch((size_t)(sp + sq + so) * sizeof(int16_t)), *zq = zp + sp, *zo = zq + sq;
    if (!encode_i16(p, zp, m * k, I16_PRODUCT) || !encode_i16(q, zq, k * n, I16_PRODUCT)) return 0;
    blocked(zp, zq, zo, m, k, n, 0);
    decode_i16(zo, out, m * n);
    return 1;
}}
"""
INSTANCE = """
int sweep_{name}(const double *p, const double *q, double *out, ptrdiff_t m, ptrdiff_t k, ptrdiff_t n)
{{
    return sweep_encoded(blocked_{name}, p, q, out, m, k, n);
}}
"""
# the instance index i16_work picks, where the source has more than one
PICK = """
int sweep_pick(ptrdiff_t m, ptrdiff_t k, ptrdiff_t n)
{{
    blocked_i16_fn *blocked;
    i16_work(m, k, n, &blocked);
    {tests}
    return -1;
}}
"""


def constants(source: str) -> dict:
    return {name: int(value) for name, value in re.findall(r"^#define (\w+) +(\d+)\b", source, re.M)}


def build(src: Path, work: Path):
    """The shipped library of ``src``, and the sweep's own build: the same sources with the solve's
    cost rule taken out and the product entry points above added, and the names of the int16 instances."""
    source = (src / "maxplus_product.c").read_text()
    if source.count(SOLVE_CALL) != 1:
        raise SystemExit(f"maxplus_solve's rule call {SOLVE_CALL!r} is not in {src}")
    instances = re.findall(r"#define NAME\(f\) f##_(i16\w*)", source)
    forced = work / "maxplus_product.c"
    # the instances share one signature; the harness names its type
    forced.write_text(source.replace(SOLVE_CALL, "") + "\ntypedef void blocked_i16_t(const int16_t *, const int16_t *,"
                      " int16_t *, ptrdiff_t, ptrdiff_t, ptrdiff_t, int);\n")
    harness = work / "harness.c"
    tests = (f"if (blocked == blocked_{name}) return {i};" for i, name in enumerate(instances))
    pick = PICK.format(tests=" ".join(tests))
    harness.write_text(HARNESS.format(source=forced) + "".join(INSTANCE.format(name=i) for i in instances) +
                       (pick if len(instances) > 1 else ""))
    sys.path.insert(0, str(src.parent))
    from maxplus_sylvester import ckernel
    if ckernel.LIBRARY is ckernel.NUMPY:
        raise SystemExit("no compiled library: the sweep needs gcc")
    out = work / "sweep.so"
    subprocess.run(["gcc", str(harness), *(str(s) for s in ckernel.SOURCES[1:]), f"-I{src}", *ckernel.FLAGS,
                    "-o", str(out)], check=True, capture_output=True, timeout=300)
    cdll = ctypes.CDLL(str(out))
    for name in ["sweep_f64", *(f"sweep_{i}" for i in instances)]:
        getattr(cdll, name).argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_ssize_t] * 3
    cdll.sweep_int_tile_pays.argtypes = [ctypes.c_ssize_t] * 3
    if len(instances) > 1:
        cdll.sweep_pick.argtypes = [ctypes.c_ssize_t] * 3
    return ckernel, cdll, instances, constants(source)


def best_times(calls: dict, rounds: int, floor=2e-4) -> dict:
    """The best per-call seconds of each callable, over ``rounds`` rounds that run each in turn,
    each a batch of calls lasting at least ``floor`` seconds."""
    reps = {}
    for name, f in calls.items():
        start = time.perf_counter()
        f()
        reps[name] = max(1, int(floor / max(time.perf_counter() - start, 1e-7)))
    best = dict.fromkeys(calls, float("inf"))
    names = list(calls)
    for r in range(rounds):
        for name in names[r % len(names):] + names[:r % len(names)]:
            f, n = calls[name], reps[name]
            start = time.perf_counter()
            for _ in range(n):
                f()
            best[name] = min(best[name], (time.perf_counter() - start) / n)
    return best


def product_sweep(cdll, instances, grid, rounds):
    """Times of each tile on every m×k·n product of a solve at C of m×n, m, n ≥ 2."""
    rng = np.random.default_rng(33)
    rows = []
    shapes = sorted({s for m, n in itertools.product(grid, grid) if m > 1 and n > 1 for s in ((m, m, n), (m, n, n))})
    for m, k, n in shapes:
        p, q = rng.integers(-512, 513, (m, k)).astype(float), rng.integers(-512, 513, (k, n)).astype(float)
        p[rng.random(p.shape) < 0.1] = -np.inf
        out = np.empty((m, n))
        args = (p.ctypes.data, q.ctypes.data, out.ctypes.data, m, k, n)
        calls = {"f64": lambda: cdll.sweep_f64(*args)}
        calls.update({i: (lambda f: lambda: f(*args))(getattr(cdll, f"sweep_{i}")) for i in instances})
        times = best_times(calls, rounds)
        if not cdll.sweep_int_tile_pays(m, k, n):
            rule = "f64"
        else:
            rule = instances[cdll.sweep_pick(m, k, n) if len(instances) > 1 else 0]
        rows.append({"shape": [m, k, n], "us": {w: round(t * 1e6, 3) for w, t in times.items()}, "rule_takes": rule})
    return rows


def _instance(form, m, n, p, seed):
    from maxplus_sylvester import instance_io, solver
    cfg = instance_io.GeneratorConfig(m=m, n=n, p=p, seed=seed)
    inst, witness = instance_io.generate_instance(cfg)
    if form == "linear":
        # C = A X0 B1 with B1 a 1×1 scalar, so A x = C has the solution X0 + B1
        return solver.SylvesterInstance(A=inst.A, B=(None,), C=inst.C)
    if form == "two-sided":
        terms = (inst.A[0], None), (None, inst.B[0])
        return solver.two_sided_instance(inst.A[0], inst.B[0], solver.sylvester_apply(*terms, witness))
    return inst


def solve_sweep(ckernel, cdll, shapes, rounds):
    """Times of each solve shape fused (the forced call) and composed (the call declined);
    a linear shape the tree's ``solve_linear`` does not offer to the call is timed composed only."""
    from maxplus_sylvester import solver

    offers = []

    class Composed(ckernel.Library):
        def solve(self, A_terms, B_terms, C):
            offers.append(True)
            return None

    shipped, forced = ckernel.LIBRARY, ckernel.Library(cdll)
    composed = Composed.__new__(Composed)
    composed.__dict__.update(shipped.__dict__)
    rows = []
    for form, m, n, p in shapes:
        inst = _instance(form, m, n, p, seed=m * 1000 + n * 10 + p)
        A = [None if F is None else F.data for F in inst.A]
        B = [None if F is None else F.data for F in inst.B]
        c = inst.C.data
        if forced.solve(A, B, c) is None:
            raise SystemExit(f"the forced call declines {form} {m}x{n} p={p}: its data does not qualify")
        query = shipped._solve(ckernel._marks(A), ckernel._marks(B), c.ctypes.data, None, None, None, len(A), m, n)

        def run(library):
            def call():
                ckernel.LIBRARY = library
                if form == "linear":
                    solver.solve_linear(inst.A[0], inst.C)
                else:
                    solver.solve_sylvester(inst)
            return call

        try:
            offers.clear()
            run(composed)()
            ways = {"fused": run(forced), "composed": run(composed)} if offers else {"composed": run(composed)}
            times = best_times(ways, rounds)
        finally:
            ckernel.LIBRARY = shipped
        rows.append({"form": form, "m": m, "n": n, "p": p, "us": {w: round(t * 1e6, 2) for w, t in times.items()},
                     "offered": bool(offers), "rule_fuses": bool(offers) and query >= 0})
    return rows


def loss(times: dict, taken: str) -> tuple[float, float]:
    """µs the taken way loses to the best other one, and that loss as a share of the best."""
    best = min(t for w, t in times.items() if w != taken)
    return times[taken] - best, (times[taken] - best) / best


def _pad(x, w):
    return (x + w - 1) // w * w


class Rule:
    """The current form of both rules in ``maxplus_product.c``, in Python, for any constants;
    ``main`` checks it against the shipped build's verdicts before any fit is trusted."""

    def __init__(self, constants: dict):
        self.c = constants

    def i16_works(self, r, k, n):
        return {"i16_6x128": _pad(r, 6) * k * _pad(n, 128) * self.c["WEIGHT_6X128"],
                "i16_12x64": _pad(r, 12) * k * _pad(n, 64) * self.c["WEIGHT_12X64"]}

    def i16_work(self, r, k, n):
        return min(self.i16_works(r, k, n).values()) // 100

    def product_takes(self, m, k, n):
        f64, works = _pad(m, 6) * k * _pad(n, 32), self.i16_works(m, k, n)
        if f64 - min(works.values()) // 100 < self.c["I16_ENTRY_COST"] * (m * k + k * n + m * n):
            return "f64"
        return "i16_6x128" if works["i16_6x128"] <= works["i16_12x64"] else "i16_12x64"

    def product_work(self, r, k, n):
        if r == 1 or n == 1:
            return r * k * n
        if self.product_takes(r, k, n) == "f64":
            return _pad(r, 6) * k * _pad(n, 32)
        return self.i16_work(r, k, n) + self.c["I16_ENTRY_COST"] * (r * k + k * n + r * n)

    def solve_threshold(self, form, m, n, p):
        """The SOLVE_CALL_COST above which solve_pays passes the shape: its gain is
        2·SOLVE_CALL_COST per product the caller would make, plus a part that does not depend on it."""
        factors = {"two-sided": [m, n], "linear": [m]}.get(form, [m] * p + [n] * p)
        rest = sum(2 * self.product_work(m, k, n) - self.i16_work(m, k, n) - self.i16_work(n, k, m) for k in factors)
        return -rest / (2 * len(factors))

    def solve_fuses(self, form, m, n, p):
        return self.c["SOLVE_CALL_COST"] > self.solve_threshold(form, m, n, p)


def fit(consts, products, solves) -> dict:
    """Constants fitted to the sweep: the instances' weights and I16_ENTRY_COST by least squares
    on the relative error of the times of the products that take 5 µs or more on the double tile,
    then SOLVE_CALL_COST by the least total loss over the solve grid: the middle of the first range
    of candidates that tie for it."""
    products = [r for r in products if r["us"]["f64"] >= 5]  # where a call's own cost and noise weigh little
    f64 = np.array([[_pad(m, 6) * k * _pad(n, 32), 1.0] for m, k, n in (r["shape"] for r in products)])
    t64 = np.array([r["us"]["f64"] for r in products])
    (a, _), *_ = np.linalg.lstsq(f64 / t64[:, None], np.ones_like(t64), rcond=None)
    rows, t = [], []
    for r in products:
        m, k, n = r["shape"]
        for i, (name, wr, wj) in enumerate((("i16_6x128", 6, 128), ("i16_12x64", 12, 64))):
            row = [0.0, 0.0, m * k + k * n + m * n, 1.0]
            row[i] = _pad(m, wr) * k * _pad(n, wj)
            rows.append(row)
            t.append(r["us"][name])
    X, t = np.array(rows), np.array(t)
    (b6, b12, e, _), *_ = np.linalg.lstsq(X / t[:, None], np.ones_like(t), rcond=None)
    fitted = dict(consts, WEIGHT_6X128=round(100 * b6 / a), WEIGHT_12X64=round(100 * b12 / a),
                  I16_ENTRY_COST=round(e / a))

    # the loss of every candidate SOLVE_CALL_COST, a step function with a
    # step at each shape's threshold; the rule must keep declining a shape of
    # BOUNDARY_GRID in each form, so the candidates stop below the least of
    # the forms' largest thresholds there
    rule = Rule(fitted)
    thresholds = [rule.solve_threshold(s["form"], s["m"], s["n"], s["p"]) for s in solves]
    bound = min(max(rule.solve_threshold(form, m, n, p) for m, n in BOUNDARY_GRID) for form, p in BOUNDARY_FORMS)
    steps = sorted({0.0, *(t for t in thresholds if 0 < t < bound)})
    scores = []
    for low, high in zip(steps, [*steps[1:], bound]):
        call = (low + high) / 2  # any candidate in [low, high) gives the same verdicts
        scores.append((sum(max(0.0, loss(s["us"], "fused" if call > t else "composed")[0])
                           for s, t in zip(solves, thresholds)), low, high))
    best, low, high = min(score for score, _, _ in scores), None, None
    for score, l, h in scores:  # the first run of candidates that tie for it
        if score == best and high in (None, l):
            low, high = l if low is None else low, h
        elif high is not None:
            break
    fitted["SOLVE_CALL_COST"] = int(round((low + high) / 2, -3))
    return {"us_per_double_multiply_add": a,
            "constants": {k: fitted[k] for k in ("WEIGHT_6X128", "WEIGHT_12X64", "I16_ENTRY_COST", "SOLVE_CALL_COST")},
            "solve_call_cost_range": [low, high], "solve_loss_us": best}


def misrouted(products, solves, rule=None) -> list:
    """Each shape the rules send the slower way, the shipped build's verdicts or ``rule``'s."""
    out = []
    for r in products:
        taken = rule.product_takes(*r["shape"]) if rule else r["rule_takes"]
        l_us, l_share = loss(r["us"], taken)
        if l_us > 0:
            out.append({"kind": "product", "shape": r["shape"], "takes": taken, "loss_us": round(l_us, 2),
                        "loss_share": round(l_share, 3)})
    for s in solves:
        fuses = rule.solve_fuses(s["form"], s["m"], s["n"], s["p"]) if rule else s["rule_fuses"]
        l_us, l_share = loss(s["us"], "fused" if fuses else "composed")
        if l_us > 0:
            out.append({"kind": f"{s['form']} solve", "shape": [s["m"], s["n"], s["p"]],
                        "takes": "fused" if fuses else "composed", "loss_us": round(l_us, 2),
                        "loss_share": round(l_share, 3)})
    return sorted(out, key=lambda x: -x["loss_share"])


def linear_summary(solves) -> dict:
    """The linear solves' route: the m the rule fuses and declines, and how much
    faster than composed each fused one runs, or that the tree offers no call."""
    linear = [s for s in solves if s["form"] == "linear"]
    if not any(s["offered"] for s in linear):
        return {"offered": False}
    fused = [s for s in linear if s["rule_fuses"]]
    return {"offered": True, "fuses_m": [s["m"] for s in fused],
            "declines_m": [s["m"] for s in linear if not s["rule_fuses"]],
            "fused_gain_share": [round(1 - s["us"]["fused"] / s["us"]["composed"], 3) for s in fused]}


def print_misrouted(title, shapes):
    over = sum(x["loss_share"] >= MISROUTE_BAR for x in shapes)
    print(f"{title}: {len(shapes)} misrouted, {over} losing {MISROUTE_BAR:.0%} or more")
    for x in shapes:
        flag = "  OVER BAR" if x["loss_share"] >= MISROUTE_BAR else ""
        print(f"  {x['kind']:>16} {'x'.join(map(str, x['shape'])):>12} takes {x['takes']:>9}: loses "
              f"{x['loss_us']:8.2f} us ({100 * x['loss_share']:5.1f}%){flag}")


def _scalar(value) -> bool:
    return not isinstance(value, (dict, list))


def _flat(value) -> bool:
    return _scalar(value) or isinstance(value, list) and all(map(_scalar, value))


def dumps(value, indent="") -> str:
    """JSON with one line per list of scalars, such as a table's row, or per dict of such values."""
    inner = indent + " "
    if isinstance(value, dict) and not all(map(_flat, value.values())):
        items = ",\n".join(f"{inner}{json.dumps(k)}: {dumps(v, inner)}" for k, v in value.items())
        return "{\n" + items + "\n" + indent + "}"
    if isinstance(value, list) and not _flat(value):
        return "[\n" + ",\n".join(inner + dumps(v, inner) for v in value) + "\n" + indent + "]"
    return json.dumps(value)


def table(rows: list, columns: list) -> dict:
    return {"columns": columns, "rows": [[r[c] for c in columns] for r in rows]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=ROOT, help="checkout whose src is swept")
    parser.add_argument("--out", type=Path, default=Path("cost_sweep.json"))
    parser.add_argument("--quick", action="store_true", help="a smaller grid")
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args()
    src = args.tree.resolve() / "src" / "maxplus_sylvester"
    grid = QUICK_GRID if args.quick else GRID
    with tempfile.TemporaryDirectory() as work:
        ckernel, cdll, instances, consts = build(src, Path(work))
        products = product_sweep(cdll, instances, grid, args.rounds)
        shapes = [(form, m, n, p) for form, p in FORMS for m, n in itertools.product(grid, grid)
                  if not (p == 8 and m * n > 128 * 128)]
        shapes += [s for s in CLI_MIXED if s[0] != "linear"]
        shapes += [("linear", m, 1, 1) for m in sorted({*grid, *(s[1] for s in CLI_MIXED if s[0] == "linear")})]
        solves = solve_sweep(ckernel, cdll, shapes, args.rounds)
    timed = [s for s in solves if s["offered"]]  # the solves with two ways to weigh
    result = {"tree": str(args.tree), "grid": list(grid), "instances": instances,
              "constants": {k: v for k, v in consts.items() if k.startswith(("WEIGHT", "I16_ENTRY", "SOLVE_CALL"))},
              "misrouted": misrouted(products, timed), "linear": linear_summary(solves)}
    print(f"{src}: {len(products)} products, {len(solves)} solves")
    print_misrouted("shipped rules", result["misrouted"])
    print(f"linear: {result['linear']}")
    if {"WEIGHT_6X128", "WEIGHT_12X64"} <= consts.keys():
        rule = Rule(consts)
        if any(rule.solve_fuses(s["form"], s["m"], s["n"], s["p"]) != s["rule_fuses"] for s in timed) or \
                any(rule.product_takes(*r["shape"]) != r["rule_takes"] for r in products):
            raise SystemExit("the Python rules disagree with the shipped build's verdicts")
        result["fit"] = fit(consts, products, timed)
        left = misrouted(products, timed, Rule(dict(consts, **result["fit"]["constants"])))
        result["fit"]["misrouted_over_bar"] = [x for x in left if x["loss_share"] >= MISROUTE_BAR]
        print(f"fitted constants: {result['fit']['constants']}")
        print_misrouted("fitted rules", result["fit"]["misrouted_over_bar"])
    for r in products:
        r.update(m=r["shape"][0], k=r["shape"][1], n=r["shape"][2], **{f"{w}_us": t for w, t in r["us"].items()})
    for s in solves:
        s.update(fused_us=s["us"].get("fused"), composed_us=s["us"]["composed"])
    result["products"] = table(products, ["m", "k", "n", "f64_us", *(f"{i}_us" for i in instances), "rule_takes"])
    result["solves"] = table(solves, ["form", "m", "n", "p", "fused_us", "composed_us", "offered", "rule_fuses"])
    args.out.write_text(dumps(result) + "\n")


if __name__ == "__main__":
    main()
