"""One run of one workload, in a fresh process started by `run.py`.

Set-up is timed from the moment `run.py` started this process (passed
as `--t0`, a `time.monotonic()` reading) to the moment the last
operator is built, so it covers interpreter start, the package import,
patterns, state space and transitions.  Solve is timed from there to a
checked, certified answer.  The result is one JSON line on stdout.

`--mode setup` stops after the build (a set-up sample); `--mode full`
also solves and checks.  With `--trace 1` the public calls are wrapped
(see `tracing.py`), the spans are written to `--spans`, and the result
carries the per-layer metrics.
"""

from __future__ import annotations

import time

_STARTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import tracing  # noqa: E402
from workloads import (ALPHA_TOL, PAPER, SMOKE, UNREACHABLE_TOL,  # noqa: E402
                       WORKLOADS, check_bound, check_certificate,
                       check_counts, check_table_row)


def _build(api, n: int):
    fset = api["build_forbidden_set"](n)
    space = api["build_state_space"](n, fset.restrict(n - 1))
    table = api["build_transitions"](space, fset)
    return table, {"patterns.count": len(fset), "statespace.states": len(space),
                   "statespace.edges": table.edge_count}


def _solve(api, workload, tables) -> tuple[list[str], dict]:
    """Run the workload's solve on the built tables; (errors, counts)."""
    errors: list[str] = []
    counts: dict = {}
    if workload.kind == "bound":
        n = workload.levels[0]
        res = api["alpha_sup"](tables[n], PAPER[n][2], 1.0, ALPHA_TOL)
        errors += check_bound(n, res.alpha_low, res.certificate, res.certified)
        counts = {"search.bisection_steps": res.iterations,
                  "spectral.iterations": res.power_iterations}
    elif workload.kind == "table":
        for n in workload.levels:
            best = api["optimize_p"](n, table=tables[n], threads=os.cpu_count() or 1)
            errors += check_table_row(n, best.p_opt, best.bound)
    elif workload.kind == "build":
        n = workload.levels[0]
        params = api["Parameters"](workload.p, 1.0, workload.alpha)
        est = api["power_iteration"](tables[n], params, tol=UNREACHABLE_TOL,
                                     max_iter=workload.iterations)
        # re-checked on the separate matvec path, from the returned vector
        cert = api["certified_upper_bound"](tables[n], params, est.vector)
        errors += check_certificate(n, workload.alpha, cert)
        counts = {"spectral.iterations": est.iterations}
    else:
        raise ValueError(f"unknown workload kind {workload.kind!r}")
    return errors, counts


def _measure(api, workload, args, t0: float) -> dict:
    errors: list[str] = []
    counts = {"patterns.count": 0, "statespace.states": 0, "statespace.edges": 0}
    tables = {}
    for n in workload.levels:
        tables[n], built = _build(api, n)
        errors += check_counts(n, built["patterns.count"], built["statespace.states"])
        for key, value in built.items():
            counts[key] += value
    result = {"setup_s": time.monotonic() - t0}
    if args.mode == "full":
        started = time.monotonic()
        solve_errors, solve_counts = _solve(api, workload, tables)
        result["solve_s"] = time.monotonic() - started
        errors += solve_errors
        counts.update(solve_counts)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["counts"] = counts
    result["errors"] = errors
    return result


def run(args) -> dict:
    workload = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    t0 = args.t0 if args.t0 is not None else _STARTED

    import stavskaya
    from stavskaya import (Parameters, alpha_sup, build_forbidden_set,
                           build_state_space, build_transitions,
                           certified_upper_bound, optimize_p, power_iteration)

    src = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "src"))
    if not os.path.realpath(stavskaya.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported {stavskaya.__file__}, not the copy under {src}")

    api = {"Parameters": Parameters, "alpha_sup": alpha_sup,
           "build_forbidden_set": build_forbidden_set,
           "build_state_space": build_state_space,
           "build_transitions": build_transitions,
           "certified_upper_bound": certified_upper_bound,
           "optimize_p": optimize_p, "power_iteration": power_iteration}
    if not args.trace:
        return _measure(api, workload, args, t0)

    tracer = tracing.Tracer(workload.name, args.run_id)
    with tracing.instrumented(tracer, api) as traced:
        result = _measure(traced, workload, args, t0)
    tracer.write(args.spans)
    layers = tracing.layer_metrics(tracer.spans, result.get("solve_s", 0.0))
    result["layers"] = layers
    if args.mode == "full":
        for key in ("spectral.iterations", "search.bisection_steps"):
            result["counts"][key] = layers[key]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", choices=("setup", "full"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--run-id", default="0")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    if args.trace and not args.spans:
        parser.error("--trace 1 needs --spans")
    try:
        result = run(args)
    except Exception as exc:  # reported to run.py as a failed run
        traceback.print_exc()
        result = {"errors": [f"{type(exc).__name__}: {exc}"]}
    print(json.dumps(result))
    return 0 if not result["errors"] else 1


if __name__ == "__main__":
    sys.exit(main())
