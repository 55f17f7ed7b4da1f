"""Command-line driver: compute certified bounds and reproduce the full
results table.  Every command builds its levels from their patterns;
`bound` and `table` solve on each level's minimal automaton and read no
walk history, not even to count the `states` column.

Commands
  loops   forbidden-pattern counts per order (optionally the patterns)
  bound   certified alpha lower bound at fixed p for one level
  table   per-level optimization over p, one row per level

Both certify at q = 1, where the bound is largest (see `search`), with
the alpha search's tolerance `DEFAULT_ALPHA_TOL` and the power-iteration
cap `DEFAULT_MAX_ITER`; none of the three is a flag.  `iterations` in
the `bound` report counts the alpha search's steps, one solve each.

Every command takes levels up to `MAX_LEVEL` (11), the largest level
measured.  Exit codes: 0 success, 1 usage or configuration error, such
as a `table --n-max` outside 1..11, 2 result not certified, 3 resource
limit refused: a `bound` or `loops` level above 11, before any pattern
is grown.
A closed stdout ends a run by SIGPIPE, with no traceback.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time

import numpy as np

from . import __version__
from .automaton import minimal
from .errors import ResourceLimitError
from .patterns import MAX_LEVEL, Parameters, build_forbidden_set
from .search import (DEFAULT_P_MAX, DEFAULT_P_MIN, _check_p_range, alpha_sup,
                     optimize_p)
from .spectral import apply_operator
from .statespace import TransitionTable

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CERTIFIED = 2
EXIT_RESOURCE = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for
    # "not certified", so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_level(n: int):
    """(state count, table, fset) for one level: the table is the
    minimal automaton of its patterns, which is its own quotient.  The
    states, the length-(3n-1) words that avoid the level-(n-1) patterns
    and so the level-n ones, are counted on it: slot d of a class holds
    the class its step d+1 enters, so each unit-weight application
    counts words one step longer.  Every count is below 3^(3n-1), which
    float64 holds exactly through n = 11."""
    fset = build_forbidden_set(n)
    pred, last_digit, start = minimal(fset)
    table = TransitionTable(n=n, pred=pred, last_digit=last_digit)
    unit, words = Parameters(1.0, 1.0, 1.0), np.ones(table.n_states)
    for _ in range(3 * n - 1):
        words = apply_operator(table, unit, words)
    return int(words[start]), table, fset


def _emit(report, fmt: str, columns=None) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2))
        return
    rows = report if isinstance(report, list) else [report]
    columns = columns or list(rows[0])
    if fmt == "csv":
        print(",".join(columns))
        for row in rows:
            print(",".join(str(row[c]) for c in columns))
        return
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in columns}
    print("  ".join(c.ljust(widths[c]) for c in columns))
    for row in rows:
        print("  ".join(str(row[c]).ljust(widths[c]) for c in columns))


def cmd_loops(args) -> int:
    if args.n < 0 or args.n > MAX_LEVEL:
        print(f"error: --n must be in 0..{MAX_LEVEL}, got {args.n}",
              file=sys.stderr)
        return EXIT_USAGE if args.n < 0 else EXIT_RESOURCE
    fset = build_forbidden_set(args.n)
    rows = [{"order": 0, "count": 2, "cumulative": 2}]
    running = 2
    for k in range(1, args.n + 1):
        c = fset.count_of_order(k)
        running += c
        rows.append({"order": k, "count": c, "cumulative": running})
    if args.format == "json":
        report = {"level": args.n, "orders": rows, "total": len(fset),
                  "version": __version__}
        if args.dump:
            report["patterns"] = fset.texts()
        print(json.dumps(report, indent=2))
    else:
        _emit(rows, args.format, ["order", "count", "cumulative"])
        if args.dump:
            for text in fset.texts():
                print(text)
    return EXIT_OK


def cmd_bound(args) -> int:
    if args.n < 1 or args.n > MAX_LEVEL:
        print(f"error: --n must be in 1..{MAX_LEVEL}, got {args.n}",
              file=sys.stderr)
        return EXIT_USAGE if args.n < 1 else EXIT_RESOURCE
    Parameters(args.p, 1.0, 0.0)
    started = time.perf_counter()
    states, table, fset = _build_level(args.n)
    result = alpha_sup(table, args.p)
    report = {
        "level": args.n,
        "p": args.p,
        "q": result.q,
        "alpha_lower_bound": result.alpha_low,
        "certificate": result.certificate,
        "iterations": result.iterations,
        "power_iterations": result.power_iterations,
        "states": states,
        "forbidden_patterns": len(fset),
        "elapsed_seconds": round(time.perf_counter() - started, 3),
        "version": __version__,
        "certified": result.certified,
    }
    _emit(report, args.format)
    return EXIT_OK if result.certified else EXIT_NOT_CERTIFIED


def cmd_table(args) -> int:
    if args.n_max < 1 or args.n_max > MAX_LEVEL:
        print(f"error: --n-max must be in 1..{MAX_LEVEL}, got {args.n_max}",
              file=sys.stderr)
        return EXIT_USAGE
    _check_p_range(args.p_min, args.p_max)
    rows = []
    all_certified = True
    for n in range(1, args.n_max + 1):
        started = time.perf_counter()
        states, table, fset = _build_level(n)
        best = optimize_p(n, args.p_min, args.p_max, table=table)
        all_certified &= not best.degenerate
        rows.append({
            "level": n,
            "forbidden_patterns": len(fset),
            "states": states,
            "p_opt": best.p_opt,
            "bound": best.bound,
            "elapsed_seconds": round(time.perf_counter() - started, 3),
        })
        print(f"level {n}: bound {best.bound:.8f} at p = {best.p_opt}",
              file=sys.stderr)
    _emit(rows, args.format)
    return EXIT_OK if all_certified else EXIT_NOT_CERTIFIED


def _add_format(sub) -> None:
    sub.add_argument("--format", choices=("json", "csv", "text"),
                     default="json", help="report format (default json)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stavskaya",
                     description="Certified lower bounds for the critical "
                                 "parameter of Stavskaya's process.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    loops = subs.add_parser("loops", help="forbidden-pattern counts per order")
    loops.add_argument("--n", type=int, required=True,
                       help=f"level (0..{MAX_LEVEL})")
    loops.add_argument("--dump", action="store_true",
                       help="also list the patterns as digit strings")
    _add_format(loops)
    loops.set_defaults(func=cmd_loops)

    bound = subs.add_parser("bound",
                            help="certified alpha bound at fixed p")
    bound.add_argument("--n", type=int, required=True,
                       help=f"level (1..{MAX_LEVEL})")
    bound.add_argument("--p", type=float, required=True)
    _add_format(bound)
    bound.set_defaults(func=cmd_bound)

    table = subs.add_parser("table",
                            help="optimize p per level and print the table")
    table.add_argument("--n-max", type=int, required=True,
                       help=f"highest level (1..{MAX_LEVEL})")
    table.add_argument("--p-min", type=float, default=DEFAULT_P_MIN,
                       help="low end of the p search (default 1.30)")
    table.add_argument("--p-max", type=float, default=DEFAULT_P_MAX,
                       help="high end of the p search (default 1.60)")
    _add_format(table)
    table.set_defaults(func=cmd_table)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


def entry() -> None:
    # a reader that closes the pipe early (`| head`) ends the run by
    # SIGPIPE, as it ends other Unix filters, not by a traceback
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
