"""Spans around the package's public calls, and the per-layer metrics
computed from them.

The package itself records nothing.  A `Tracer` wraps the public
functions the benchmark worker calls, plus the two names that
`stavskaya.search` looks up at call time (`alpha_sup`, used by
`optimize_p`, and `check_subcritical`, imported by name), so that every
spectral solve made by the search layer gets a span whose parent is the
`alpha_sup` span that caused it.

Spans are kept in memory and written out once, when the run ends.  Each
carries `{id, name, layer, start, end, parent, workload, run}` plus the
counts read off the call's result.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time

# float64 entries of an iteration vector
_F8 = 8

# name -> (unit, which way is better) of every metric `layer_metrics`
# returns; run.py adds trace.overhead_s
LAYER_METRICS = {
    "patterns.build_s": ("s", "lower"),
    "patterns.count": ("count", "lower"),
    "statespace.enumerate_s": ("s", "lower"),
    "statespace.transitions_s": ("s", "lower"),
    "statespace.states": ("count", "lower"),
    "statespace.edges": ("count", "lower"),
    "statespace.operator_mb": ("MiB", "lower"),
    "spectral.solves": ("count", "lower"),
    "spectral.iterations": ("count", "lower"),
    "spectral.iter_ms": ("ms", "lower"),
    "spectral.bytes_per_iter": ("B", "lower"),
    "spectral.gb_s": ("GB/s", "higher"),
    "spectral.self_s": ("s", "lower"),
    "search.alpha_sup_calls": ("count", "lower"),
    "search.bisection_steps": ("count", "lower"),
    "search.iters_per_bound": ("count", "lower"),
    "search.cold_iter_share": ("ratio", "lower"),
    "search.recheck_iter_share": ("ratio", "lower"),
    "search.self_share": ("ratio", "lower"),
}


class Tracer:
    """Collects spans; safe to use from `optimize_p`'s worker threads."""

    def __init__(self, workload: str, run: str):
        self.workload = workload
        self.run = run
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        # a pool thread started by a traced call inherits that call's span
        return self._main_stack[-1] if self._main_stack else None

    def wrap(self, name: str, fn, counts=None):
        """`fn` recorded as span `name`; `counts(args, kwargs, result)`
        returns extra fields for the span."""
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = {"id": next(self._ids), "name": name, "layer": layer,
                    "parent": self._parent(stack), "workload": self.workload,
                    "run": self.run}
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if counts is not None:
                span.update(counts(args, kwargs, result))
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(span) + "\n")


def _solve_counts(args, kwargs, result):
    est = result[2] if isinstance(result, tuple) else result
    table = args[0]
    v0 = kwargs["v0"] if "v0" in kwargs else (args[4] if len(args) > 4 else None)
    return {"iterations": int(est.iterations), "cold": v0 is None,
            "states": int(table.n_states),
            "index_bytes": int(table.pred.dtype.itemsize)}


@contextlib.contextmanager
def instrumented(tracer: Tracer, api: dict):
    """Traced copies of the public functions in `api`; while the context
    is open the search module's own references are patched to match."""
    import stavskaya.search as search

    traced = dict(api)
    traced["build_forbidden_set"] = tracer.wrap(
        "patterns.build_forbidden_set", api["build_forbidden_set"],
        lambda a, k, r: {"patterns": len(r)})
    traced["build_state_space"] = tracer.wrap(
        "statespace.build_state_space", api["build_state_space"],
        lambda a, k, r: {"states": len(r), "codes_bytes": int(r.codes.nbytes)})
    traced["build_transitions"] = tracer.wrap(
        "statespace.build_transitions", api["build_transitions"],
        lambda a, k, r: {"edges": int(r.edge_count),
                         "table_bytes": int(r.succ.nbytes + r.pred.nbytes
                                            + r.last_digit.nbytes)})
    traced["power_iteration"] = tracer.wrap(
        "spectral.power_iteration", api["power_iteration"], _solve_counts)
    traced["certified_upper_bound"] = tracer.wrap(
        "spectral.certified_upper_bound", api["certified_upper_bound"])
    traced["alpha_sup"] = tracer.wrap(
        "search.alpha_sup", api["alpha_sup"],
        lambda a, k, r: {"bisection_steps": int(r.iterations),
                         "degenerate": bool(r.degenerate)})
    traced["optimize_p"] = tracer.wrap("search.optimize_p", api["optimize_p"])

    saved = (search.alpha_sup, search.check_subcritical)
    search.alpha_sup = traced["alpha_sup"]
    search.check_subcritical = tracer.wrap(
        "spectral.check_subcritical", search.check_subcritical, _solve_counts)
    try:
        yield traced
    finally:
        search.alpha_sup, search.check_subcritical = saved


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total = 0.0
    end = -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"]) - _covered(children.get(s["id"], []))
            for s in spans}


def bytes_per_iteration(states: int, index_bytes: int) -> int:
    """Bytes one iteration of `power_iteration`'s loop moves, computed
    from array sizes (every gather and elementwise pass counted once,
    cache hits ignored).

    Three gathers each read an index array and write a temporary, two
    adds and the weight multiply read two vectors and write one, the
    ratio pass does the same, the max/min/norm scans read a vector each,
    and the normalise and floor passes read one and write one.  The
    gathered values themselves are random reads of the iterate.
    """
    gathers = 3 * states * (index_bytes + _F8 + _F8)
    weighted = 4 * states * 3 * _F8          # two adds, multiply, ratio
    scans = 3 * states * _F8                 # ratio max, ratio min, out max
    rescale = 2 * states * 2 * _F8           # normalise, floor
    return gathers + weighted + scans + rescale


def layer_metrics(spans: list[dict], solve_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run, named as in BENCHMARK.json.

    Search self time is given as a share of `solve_s`: `build-n7` calls
    no search function, and a time that is 0 on every run of a workload
    would read as a constant rather than a measurement.
    """
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def named(name):
        return [s for s in spans if s["name"] == name]

    def layer_self(layer):
        return float(sum(own[s["id"]] for s in spans if s["layer"] == layer))

    def total(items, key):
        return sum(s[key] for s in items)

    def duration(items):
        return sum(s["end"] - s["start"] for s in items)

    patterns = named("patterns.build_forbidden_set")
    enum = named("statespace.build_state_space")
    trans = named("statespace.build_transitions")
    solves = named("spectral.check_subcritical") + named("spectral.power_iteration")
    bounds = named("search.alpha_sup")

    iterations = total(solves, "iterations")
    spectral_s = duration(solves)
    moved = sum(s["iterations"] * bytes_per_iteration(s["states"], s["index_bytes"])
                for s in solves)
    operator_bytes = max((s["table_bytes"] for s in trans), default=0)
    operator_bytes += max((s["codes_bytes"] for s in enum), default=0)

    # search-layer iteration accounting: solves whose parent is alpha_sup
    in_search = [s for s in solves
                 if s["parent"] is not None
                 and by_id[s["parent"]]["name"] == "search.alpha_sup"]
    search_iters = total(in_search, "iterations")
    cold_iters = total([s for s in in_search if s["cold"]], "iterations")
    recheck_iters = 0
    for b in bounds:
        mine = [s for s in in_search if s["parent"] == b["id"]]
        # a non-degenerate alpha_sup ends with a fresh re-certification
        if not b["degenerate"] and len(mine) >= 2:
            recheck_iters += max(mine, key=lambda s: s["start"])["iterations"]

    def share(part, whole):
        return part / whole if whole else 0.0

    return {
        "patterns.build_s": duration(patterns),
        "patterns.count": total(patterns, "patterns"),
        "statespace.enumerate_s": duration(enum),
        "statespace.transitions_s": duration(trans),
        "statespace.states": total(enum, "states"),
        "statespace.edges": total(trans, "edges"),
        "statespace.operator_mb": operator_bytes / 2**20,
        "spectral.solves": len(solves),
        "spectral.iterations": iterations,
        "spectral.iter_ms": 1e3 * share(spectral_s, iterations),
        "spectral.bytes_per_iter": share(moved, iterations),
        "spectral.gb_s": share(moved, spectral_s) / 1e9,
        "spectral.self_s": layer_self("spectral"),
        "search.alpha_sup_calls": len(bounds),
        "search.bisection_steps": total(bounds, "bisection_steps"),
        "search.iters_per_bound": share(search_iters, len(bounds)),
        "search.cold_iter_share": share(cold_iters, search_iters),
        "search.recheck_iter_share": share(recheck_iters, search_iters),
        "search.self_share": share(layer_self("search"), solve_s),
    }
