"""Command-line driver: compute certified bounds and reproduce the full
results table.  Every command builds its levels from their patterns.

Commands
  loops   forbidden-pattern counts per order (optionally the patterns)
  bound   certified alpha lower bound at fixed (p, q) for one level
  table   per-level optimization over p, one row per level

Exit codes: 0 success, 1 usage or configuration error, 2 result not
certified, 3 resource limit refused.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .errors import ResourceLimitError
from .patterns import MAX_LEVEL, build_forbidden_set
from .search import (DEFAULT_ALPHA_TOL, DEFAULT_P_MAX, DEFAULT_P_MIN,
                     alpha_sup, optimize_p)
from .spectral import DEFAULT_MAX_ITER
from .statespace import build_state_space, build_transitions

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CERTIFIED = 2
EXIT_RESOURCE = 3

# Table rows show roughly 10.3x more states per level; used only to print
# a footprint estimate when refusing a run that needs --deep.
_GROWTH = 10.33
_DEEP_LEVEL = 7


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for
    # "not certified", so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _projected_bytes(n: int, q: float) -> int:
    # held during a solve: codes (8) + predecessor table (3 * 4) + last
    # digits (1) + three full-length float64 vectors, the warm start, the
    # iterate and its returned copy (3 * 8), + three work vectors that
    # span half the states at q = 1 and all of them otherwise; a quarter
    # more covers the interpreter and transients, as measured at level 7
    states = 7 * _GROWTH ** (n - 1)
    work = 3 * 4 if q == 1.0 else 3 * 8
    return int(states * 1.25 * (8 + 3 * 4 + 1 + 3 * 8 + work))


def _refused_without_deep(n: int, args) -> bool:
    """True, after saying why, when level n needs --deep and lacks it."""
    if n < _DEEP_LEVEL or args.deep:
        return False
    print(f"error: level {n} needs roughly "
          f"{_projected_bytes(n, args.q) / 2**30:.1f} GiB "
          "(states, predecessor table, iteration vectors); "
          "pass --deep to confirm", file=sys.stderr)
    return True


def _build_level(n: int):
    """(space, table, fset) for one level, built from its patterns."""
    fset = build_forbidden_set(n)
    space = build_state_space(n, fset.restrict(n - 1))
    return space, build_transitions(space, fset), fset


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
        print(f"error: --n must be in 0..{MAX_LEVEL}", file=sys.stderr)
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
        print(f"error: --n must be in 1..{MAX_LEVEL}", file=sys.stderr)
        return EXIT_USAGE
    if _refused_without_deep(args.n, args):
        return EXIT_RESOURCE
    started = time.time()
    try:
        space, table, fset = _build_level(args.n)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    result = alpha_sup(table, args.p, args.q, args.alpha_tol,
                       max_iter=args.max_iter)
    print(f"zero-out-degree states: {table.zero_out_degree_count()}",
          file=sys.stderr)
    report = {
        "level": args.n,
        "p": args.p,
        "q": args.q,
        "alpha_lower_bound": result.alpha_low,
        "certificate": result.certificate,
        "iterations": result.iterations,
        "power_iterations": result.power_iterations,
        "states": len(space),
        "forbidden_patterns": len(fset),
        "elapsed_seconds": round(time.time() - started, 3),
        "version": __version__,
        "certified": result.certified,
    }
    _emit(report, args.format)
    return EXIT_OK if result.certified else EXIT_NOT_CERTIFIED


def cmd_table(args) -> int:
    if args.n_max < 1 or args.n_max > _DEEP_LEVEL:
        print(f"error: --n-max must be in 1..{_DEEP_LEVEL}", file=sys.stderr)
        return EXIT_USAGE
    if _refused_without_deep(args.n_max, args):
        return EXIT_RESOURCE
    rows = []
    all_certified = True
    for n in range(1, args.n_max + 1):
        started = time.time()
        try:
            space, table, fset = _build_level(n)
        except ResourceLimitError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_RESOURCE
        best = optimize_p(n, args.p_min, args.p_max, args.q,
                          tol=args.alpha_tol, max_iter=args.max_iter,
                          table=table)
        all_certified &= not best.degenerate
        rows.append({
            "level": n,
            "forbidden_patterns": len(fset),
            "states": len(space),
            "p_opt": best.p_opt,
            "bound": best.bound,
            "elapsed_seconds": round(time.time() - started, 3),
        })
        print(f"level {n}: bound {best.bound:.8f} at p = {best.p_opt}",
              file=sys.stderr)
    _emit(rows, args.format)
    return EXIT_OK if all_certified else EXIT_NOT_CERTIFIED


def _add_common(sub, with_p_range: bool) -> None:
    sub.add_argument("--q", type=float, default=1.0,
                     help="second auxiliary parameter (default 1)")
    sub.add_argument("--alpha-tol", type=float, default=DEFAULT_ALPHA_TOL,
                     help="bisection width tolerance (default 1e-10)")
    sub.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER,
                     help="power-iteration cap per spectral solve")
    sub.add_argument("--format", choices=("json", "csv", "text"),
                     default="json", help="report format (default json)")
    sub.add_argument("--deep", action="store_true",
                     help="allow the large high-level runs")
    if with_p_range:
        sub.add_argument("--p-min", type=float, default=DEFAULT_P_MIN,
                         help="low end of the p search (default 1.30)")
        sub.add_argument("--p-max", type=float, default=DEFAULT_P_MAX,
                         help="high end of the p search (default 1.60)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stavskaya",
                     description="Certified lower bounds for the critical "
                                 "parameter of Stavskaya's process.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    loops = subs.add_parser("loops", help="forbidden-pattern counts per order")
    loops.add_argument("--n", type=int, required=True, help="level (0..13)")
    loops.add_argument("--dump", action="store_true",
                       help="also list the patterns as digit strings")
    loops.add_argument("--format", choices=("json", "csv", "text"),
                       default="json")
    loops.set_defaults(func=cmd_loops)

    bound = subs.add_parser("bound",
                            help="certified alpha bound at fixed (p, q)")
    bound.add_argument("--n", type=int, required=True, help="level (1..13)")
    bound.add_argument("--p", type=float, required=True)
    _add_common(bound, with_p_range=False)
    bound.set_defaults(func=cmd_bound)

    table = subs.add_parser("table",
                            help="optimize p per level and print the table")
    table.add_argument("--n-max", type=int, required=True,
                       help="highest level to include")
    _add_common(table, with_p_range=True)
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
    sys.exit(main())


if __name__ == "__main__":
    entry()
