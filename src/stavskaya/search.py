"""Bisection over the erasure parameter and Brent's method over p.

For fixed (p, q) the certified-subcritical region of alpha is an
interval starting at 0; bisection keeps its lower endpoint certified at
every step, so the returned value is a true lower bound on the critical
parameter no matter how the iteration behaved.  The outer search
maximizes that bound over p at q = 1 by Brent's method (Brent 1973,
"Algorithms for Minimization without Derivatives", ch. 5), which
replaced the golden-section search of Kiefer 1953: about 10 bisections
per level instead of 21.  Both ends of the p range and the golden point
are probed first.  The ends seed Brent's two older points, so after one
golden step every step is a parabola through three probes, unless the
parabola leaves the bracket or is not shorter than half the step before
last; then a golden step is taken.  No probe comes within P_TOL/4 of
the best point or of a bracket end.  The search stops when the p
bracket is narrower than `P_TOL` and reports the best probed point, so
the bound is certified at the very p reported.  It assumes the bound is
unimodal in p and checks it: sorted by p, the probed bounds must rise
and then fall, up to dips of the bisection tolerance, or
`ConsistencyError` is raised.  `optimize_p` still accepts a `threads`
keyword and ignores it; the search is sequential.

q = 1 is where the bound is largest, for every p and alpha.  The 1<->3
swap is a permutation of the states that exchanges the kind-1 and
kind-3 weights 1/(pq) and q/p, so rho(p, q) = rho(p, 1/q).  Every entry
of the operator is 0 or a weight times exp(k·log q) with k in
{-1, 0, 1}, a log-convex function of log q, so rho is log-convex in
log q (Kingman, "A convexity property of positive matrices", 1961).
A convex function that is even in log q is smallest at log q = 0 and
nondecreasing for log q >= 0.  So for the q >= 1 that `Parameters`
admits, rho(p, q) >= rho(p, 1) at every alpha: each alpha subcritical
at q is subcritical at q = 1.  Hence `optimize_p` and the CLI certify at
q = 1 only, with the bisection tolerance `DEFAULT_ALPHA_TOL`, and every
solve is capped at `spectral.DEFAULT_MAX_ITER` power iterations.

The bisection runs on the table's quotient (`TransitionTable.quotient`,
442 classes for the 839,009 states of level 6), built and checked once
per table, so the probes of `optimize_p` share it.  Why a ratio bound
on the quotient is one on the paper's matrix is set out once, in
`statespace`.

Each bisection step ends as soon as a Collatz–Wielandt ratio bound
decides it (`check_subcritical`): a max ratio below one moves the lower
endpoint, a min ratio above one moves the upper.  Only the alpha = 0
solve starts cold; every step warm-starts from the vector of the step
before.  The reported certificate is the max ratio of the vector that
certified the returned endpoint: the first max ratio below one on that
step, not the tightest.  One more solver step, capped at one
iteration and started from that vector, must re-derive it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConsistencyError
from .patterns import Parameters
from .spectral import DEFAULT_MAX_ITER, DEFAULT_TOL, check_subcritical
from .statespace import TransitionTable

DEFAULT_ALPHA_TOL = 1e-10

DEFAULT_P_MIN = 1.30
DEFAULT_P_MAX = 1.60
P_TOL = 1e-4

_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass
class BisectionResult:
    """Certified bracket for the critical alpha at fixed (p, q).

    alpha_low is certified subcritical, with `certificate` the max ratio
    of the vector that certified it; alpha_high is not certified.  A
    degenerate result means alpha = 0 itself could not be certified, so
    no positive bound exists here.
    """

    p: float
    q: float
    alpha_low: float
    alpha_high: float
    iterations: int
    degenerate: bool = False
    certificate: float = math.nan
    power_iterations: int = 0

    @property
    def certified(self) -> bool:
        return not self.degenerate


@dataclass
class OptimizationResult:
    """Best certified bound over p at q = 1; `grid` holds every probed
    (p, bound), sorted by p."""

    n: int
    p_opt: float
    bound: float
    grid: list[tuple[float, float]] = field(default_factory=list)

    @property
    def degenerate(self) -> bool:
        return self.bound <= 0.0


def alpha_sup(table: TransitionTable, p: float, q: float = 1.0,
              tol: float = DEFAULT_ALPHA_TOL) -> BisectionResult:
    """Largest certified-subcritical alpha for fixed (p, q), by bisection.

    Midpoints that certify move the lower endpoint; anything else
    (including non-convergence) moves the upper endpoint, so the answer
    errs low.  Each midpoint's solve stops as soon as a ratio bound
    decides it, and its iteration vector seeds the next (the first is
    seeded by the alpha = 0 solve), which cuts the near-critical
    iteration count sharply without touching the certificates.  The
    vector and certificate of the last step that certified travel with
    the lower endpoint; if one solver step from that vector does not
    re-derive that certificate bit for bit, `ConsistencyError` is
    raised.  Each solve is capped at `DEFAULT_MAX_ITER` power
    iterations and runs on the quotient table `table.quotient`, built
    and lift-checked on first use, after p, q and `tol` are checked.
    q = 1, the default, gives the largest bound (see the module
    docstring).
    """
    if not 0.0 < tol < 0.5:
        # from 0.5 on the bisection stops after at most one step, and
        # its alpha_low of 0 would read as a certified bound
        raise ValueError(f"tol must lie in (0, 0.5), got {tol}")
    start = Parameters(p, q, 0.0)
    quotient = table.quotient
    est = check_subcritical(quotient, start, DEFAULT_TOL, DEFAULT_MAX_ITER)
    spent = est.iterations
    certificate = est.certified_upper
    if not est.certified_subcritical:
        return BisectionResult(p=p, q=q, alpha_low=0.0, alpha_high=1.0,
                               iterations=0, degenerate=True,
                               certificate=certificate,
                               power_iterations=spent)

    low, high = 0.0, 1.0
    warm = certified = est.vector
    steps = 0
    while high - low > tol:
        mid = 0.5 * (low + high)
        est = check_subcritical(quotient, Parameters(p, q, mid),
                                DEFAULT_TOL, DEFAULT_MAX_ITER, v0=warm)
        spent += est.iterations
        warm = est.vector
        if est.certified_subcritical:
            low, certificate, certified = mid, est.certified_upper, warm
        else:
            high = mid
        steps += 1

    # one solver step from the certified vector re-derives its max ratio
    est = check_subcritical(quotient, Parameters(p, q, low), DEFAULT_TOL, 1,
                            v0=certified)
    spent += est.iterations
    if est.certified_upper != certificate:
        raise ConsistencyError(
            f"bisection invariant violated: alpha={low} at p={p}, q={q} "
            f"does not re-derive its certificate {certificate!r}")
    return BisectionResult(p=p, q=q, alpha_low=low, alpha_high=high,
                           iterations=steps, certificate=certificate,
                           power_iterations=spent)


def _check_p_range(p_min: float, p_max: float) -> None:
    Parameters(p_min, 1.0, 0.0)
    Parameters(p_max, 1.0, 0.0)
    if not p_min < p_max:
        raise ValueError(f"need 1 <= p_min < p_max, got [{p_min}, {p_max}]")


def optimize_p(n: int,
               p_min: float = DEFAULT_P_MIN, p_max: float = DEFAULT_P_MAX,
               *, threads: int | None = None,
               table: TransitionTable) -> OptimizationResult:
    """Maximize the certified alpha bound at q = 1 over p in
    [p_min, p_max], bisecting each probe to `DEFAULT_ALPHA_TOL`.

    Both ends and the golden point `p_min + (1 - 1/phi)(p_max - p_min)`
    are probed, then one new point per step of Brent's method (see the
    module docstring) until the bracket is narrower than `P_TOL`; no p
    is probed twice.  Degenerate probes count as bound 0.  `threads` is
    ignored: the benchmark worker still passes it.  Both ends of the p
    range, and that `table` is the level-n table, are checked before
    the first probe.
    """
    _check_p_range(p_min, p_max)
    if n != table.n:
        raise ValueError(f"level {n} given with a level {table.n} table")
    tol = DEFAULT_ALPHA_TOL

    probed: dict[float, float] = {}

    def probe(p: float) -> float:
        res = alpha_sup(table, p, 1.0, tol)
        probed[p] = 0.0 if res.degenerate else res.alpha_low
        return probed[p]

    # Brent's method for a maximum: x is the best probe inside the
    # bracket [lo, hi], w the next best, v the previous w.  The first
    # step is golden, as in Brent's own start; the ends seed w and v,
    # so the second is already a parabola through three probes.  No
    # probe comes within `least` of x or of a bracket end, so none
    # repeats.
    lo, hi = p_min, p_max
    (w, fw), (v, fv) = sorted([(lo, probe(lo)), (hi, probe(hi))],
                              key=lambda pb: pb[1], reverse=True)
    x = lo + _GOLDEN * (hi - lo)
    fx = probe(x)
    before = 0.0
    least = P_TOL / 4
    while hi - lo >= P_TOL:
        mid = 0.5 * (lo + hi)
        parabola = False
        if abs(before) > least:
            # the parabola through v, w and x peaks at x + num / den
            r = (x - w) * (fx - fv)
            s = (x - v) * (fx - fw)
            num, den = (x - v) * s - (x - w) * r, 2.0 * (s - r)
            if den > 0.0:
                num = -num
            den = abs(den)
            last, before = before, step
            # trusted only inside the bracket and shorter than half the
            # step before last
            parabola = (abs(num) < abs(0.5 * den * last)
                        and den * (lo - x) < num < den * (hi - x))
        if parabola:
            step = num / den
            if x + step - lo < 2 * least or hi - (x + step) < 2 * least:
                step = math.copysign(least, mid - x)
        else:
            # golden step into the larger side
            before = (hi if x < mid else lo) - x
            step = _GOLDEN * before
        u = x + (step if abs(step) >= least else math.copysign(least, step))
        fu = probe(u)
        if fu >= fx:
            lo, hi = (lo, x) if u < x else (x, hi)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            lo, hi = (u, hi) if u < x else (lo, u)
            if fu >= fw:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv:
                v, fv = u, fu

    grid = sorted(probed.items())
    bounds = [bound for _, bound in grid]
    for j, (p, bound) in enumerate(grid):
        # rise then fall: no probe below the highest on both of its sides
        if bound < min(max(bounds[:j + 1]), max(bounds[j:])) - tol:
            raise ConsistencyError(
                f"bound not unimodal in p on [{p_min}, {p_max}]: "
                f"{bound} at p={p} dips below probes on both sides")
    p_opt, bound = max(grid, key=lambda pb: pb[1])
    return OptimizationResult(n=n, p_opt=p_opt, bound=bound, grid=grid)
