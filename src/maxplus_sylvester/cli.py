"""Command-line front end: solve, generate, bench.

Exit codes are a stable contract: 0 = solvable, 1 = unsolvable,
2 = an error: usage, parse or shape errors, a float64 overflow the
kernels refuse, an allocation that fails, or an ``--oracle`` check that
disagrees with the fast path.  All output is newline-terminated;
benchmark CSV goes to stdout and skip notes to stderr so the CSV stays
machine-parseable.
"""

import argparse
import functools
import sys

import numpy as np

from .bench import CSV_HEADER, METHODS, records_to_csv, run_grid
from .instance_io import (
    GeneratorConfig,
    format_matrix,
    generate_instance,
    load_matrix,
    write_instance,
)
from .oracle import SIZE_CAP, OracleSizeError, oracle_agrees, oracle_solve
from .solver import SylvesterInstance, solve_linear, solve_sylvester, two_sided_instance

EXIT_SOLVABLE = 0
EXIT_UNSOLVABLE = 1
EXIT_ERROR = 2

_CLI_MODES = {"solvable": "solvable_by_construction", "raw": "raw_random"}


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part != ""]


def _method_list(text: str) -> list[str]:
    methods = [part for part in text.split(",") if part != ""]
    if not methods:
        raise ValueError("no method")
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
    return methods


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxplus-sylvester",
        description="Solve max-plus Sylvester equations, generate instances, benchmark both solver paths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser(
        "solve",
        help="compute the greatest candidate solution and decide solvability",
        description=(
            "Reads matrix files (first line 'rows cols', one row per line, tokens "
            "are decimals or -inf/+inf), prints the greatest candidate solution in "
            "the same format followed by a 'solvable: true|false' line. Exit code 0 "
            "means solvable, 1 unsolvable, 2 any error."
        ),
    )
    solve.add_argument("--a", action="append", default=[], metavar="FILE",
                       help="left factor file; repeat once per term, in term order")
    solve.add_argument("--b", action="append", default=[], metavar="FILE",
                       help="right factor file; repeat once per term, in term order")
    solve.add_argument("--c", required=True, metavar="FILE",
                       help="right-hand side file (the vector b for --form linear)")
    solve.add_argument("--form", choices=("sylvester", "linear", "two-sided"), default="sylvester",
                       help="equation form: p-term sum (default), A x = b, or A X + X B = C")
    solve.add_argument("--mismatches", action="store_true",
                       help="list the cells where substitution misses the right-hand side")
    solve.add_argument("--oracle", action="store_true",
                       help="cross-check against the Kronecker reformulation and print oracle-agrees "
                            f"(skipped with a note on stderr when m*n exceeds {SIZE_CAP})")

    generate = sub.add_parser(
        "generate",
        help="write a seeded random instance as matrix files",
        description=(
            "Writes A1..Ap, B1..Bp, C (and X0 in solvable mode) into --out and prints "
            "the seed used. Identical seeds give byte-identical files."
        ),
    )
    generate.add_argument("--out", required=True, metavar="DIR", help="output directory")
    generate.add_argument("--m", type=int, required=True, help="row count of C (A factors are m x m)")
    generate.add_argument("--n", type=int, required=True, help="column count of C (B factors are n x n)")
    generate.add_argument("--p", type=int, required=True, help="number of terms")
    generate.add_argument("--seed", type=int, default=None,
                          help="64-bit seed; drawn fresh (and printed) when omitted")
    generate.add_argument("--mode", choices=sorted(_CLI_MODES), default="solvable",
                          help="'solvable' builds C from a random witness X0; 'raw' draws C independently")
    generate.add_argument("--entry-low", type=int, default=-10, help="smallest finite entry (default -10)")
    generate.add_argument("--entry-high", type=int, default=10, help="largest finite entry (default 10)")
    generate.add_argument("--neginf-density", type=float, default=0.1,
                          help="probability of a -inf entry in the factors (default 0.1)")

    bench = sub.add_parser(
        "bench",
        help="time both solver paths over a size grid and print CSV",
        description=(
            f"Runs every (m, n, p) combination with every method and prints one CSV row "
            f"per repetition with header '{CSV_HEADER}'. Oracle points with m*n above "
            f"{SIZE_CAP} are skipped with a note on stderr."
        ),
    )
    bench.add_argument("--m", type=_int_list, required=True, metavar="LIST",
                       help="comma-separated m values, e.g. 16,32,64")
    bench.add_argument("--n", type=_int_list, required=True, metavar="LIST",
                       help="comma-separated n values")
    bench.add_argument("--p", type=_int_list, required=True, metavar="LIST",
                       help="comma-separated term counts")
    bench.add_argument("--reps", type=int, default=3, help="repetitions per point, at least 3 (default 3)")
    bench.add_argument("--seed", type=int, default=0, help="base seed for the benchmark instances")
    bench.add_argument("--methods", type=_method_list, default=list(METHODS),
                       help="comma-separated subset of fast,oracle (default both)")

    # main parses a known command with its own parser, as this one would
    parser.commands = sub.choices
    return parser


def _print_report(args, report) -> None:
    sys.stdout.write(format_matrix(report.principal))
    print(f"solvable: {'true' if report.solvable else 'false'}")
    if args.mismatches:
        # one write: a raw 256×256 instance misses in about 62k cells
        sys.stdout.write("".join(f"mismatch: {row} {col}\n" for row, col in report.mismatches))


def _cmd_solve(args) -> int:
    if args.form == "linear":
        if len(args.a) != 1 or args.b:
            print("solve --form linear takes exactly one --a, no --b, and the vector as --c", file=sys.stderr)
            return EXIT_ERROR
        if args.oracle:
            print("--oracle applies to the sylvester and two-sided forms", file=sys.stderr)
            return EXIT_ERROR
        report = solve_linear(load_matrix(args.a[0]), load_matrix(args.c))
        inst = None
    elif args.form == "two-sided":
        if len(args.a) != 1 or len(args.b) != 1:
            print("solve --form two-sided takes exactly one --a and one --b", file=sys.stderr)
            return EXIT_ERROR
        inst = two_sided_instance(load_matrix(args.a[0]), load_matrix(args.b[0]), load_matrix(args.c))
        report = solve_sylvester(inst)
    else:
        if not args.a or len(args.a) != len(args.b):
            print("solve needs the same positive number of --a and --b files", file=sys.stderr)
            return EXIT_ERROR
        inst = SylvesterInstance(A=[load_matrix(path) for path in args.a],
                                 B=[load_matrix(path) for path in args.b], C=load_matrix(args.c))
        report = solve_sylvester(inst)

    _print_report(args, report)

    if args.oracle and inst is not None:
        try:
            check = oracle_solve(inst)
        except OracleSizeError as exc:
            print(f"oracle check skipped: {exc}", file=sys.stderr)
        else:
            agrees = oracle_agrees(inst, report, check)
            print(f"oracle-agrees: {'true' if agrees else 'false'}")
            if not agrees:
                print("oracle disagreement diagnostic:", file=sys.stderr)
                print(f"fast solvable={report.solvable} mismatches={report.mismatches}", file=sys.stderr)
                sys.stderr.write(format_matrix(report.principal))
                print(f"oracle solvable={check.solvable} mismatches={check.mismatches}", file=sys.stderr)
                sys.stderr.write(format_matrix(check.principal))
                return EXIT_ERROR

    return EXIT_SOLVABLE if report.solvable else EXIT_UNSOLVABLE


def _cmd_generate(args) -> int:
    seed = args.seed
    if seed is None:
        seed = int(np.random.SeedSequence().generate_state(1, dtype=np.uint64)[0])
    cfg = GeneratorConfig(
        m=args.m, n=args.n, p=args.p, seed=seed,
        entry_low=args.entry_low, entry_high=args.entry_high,
        neginf_density=args.neginf_density, mode=_CLI_MODES[args.mode],
    )
    inst, witness = generate_instance(cfg)
    write_instance(args.out, inst, witness)
    print(f"seed: {seed}")
    return EXIT_SOLVABLE


def _cmd_bench(args) -> int:
    if args.reps < 3:
        print(f"bench needs --reps >= 3, got {args.reps}", file=sys.stderr)
        return EXIT_ERROR
    for name, values in (("--m", args.m), ("--n", args.n), ("--p", args.p)):
        if not values or any(v < 1 for v in values):
            print(f"bench {name} needs a non-empty list of positive integers", file=sys.stderr)
            return EXIT_ERROR
    points = [(m, n, p) for m in args.m for n in args.n for p in args.p]
    records, skipped = run_grid(points, args.reps, seed=args.seed, methods=tuple(args.methods))
    for m, n, p in skipped:
        print(f"skipping oracle at m={m} n={n} p={p}: m*n={m * n} exceeds size cap {SIZE_CAP}",
              file=sys.stderr)
    sys.stdout.write(records_to_csv(records))
    return EXIT_SOLVABLE


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves a parser as it found it, so one build serves every
    # call; building it took about half of a small in-process solve
    return build_parser()


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """``parser.parse_args(argv)``, in one pass where it can be.

    The top parser hands everything after a command to that command's parser
    and fails only on what it leaves over, so a known command whose parser
    leaves nothing is parsed by that parser alone.  Anything else (no
    command, an unknown one, ``-h``, a leftover argument) is parsed by the
    top parser, whose usage and messages it then prints.
    """
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extra:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(_parser(), sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:  # argparse exits 2 on usage errors
        return exc.code if isinstance(exc.code, int) else EXIT_ERROR
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "generate":
            return _cmd_generate(args)
        return _cmd_bench(args)
    except (ValueError, OSError, MemoryError) as exc:  # parse, shape, config, file and allocation errors
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
