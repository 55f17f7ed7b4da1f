"""Bisection over the erasure parameter and golden-section search over p.

For fixed (p, q) the certified-subcritical region of alpha is an
interval starting at 0; bisection keeps its lower endpoint certified at
every step, so the returned value is a true lower bound on the critical
parameter no matter how the iteration behaved.  The outer search
maximizes that bound over p (q stays at 1, where the maximum is
attained) by golden-section search (Kiefer 1953): one new bisection per
step until the p bracket is narrower than `P_TOL`, reporting the best
probed point, so the bound is certified at the very p reported.  The
search assumes the bound is unimodal in p and checks it: sorted by p,
the probed bounds must rise and then fall, up to dips of the bisection
tolerance, or `ConsistencyError` is raised.  `optimize_p` still accepts
a `threads` keyword and ignores it; the search is sequential.

Each bisection step ends as soon as a Collatz–Wielandt ratio bound
decides it (`check_subcritical`): a max ratio below one moves the lower
endpoint, a min ratio above one moves the upper.  The fresh final
re-certification of the returned endpoint stops the same way, so the
reported certificate is the first max ratio below one, not the tightest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConsistencyError
from .patterns import Parameters, build_forbidden_set
from .spectral import DEFAULT_MAX_ITER, DEFAULT_TOL, check_subcritical
from .statespace import TransitionTable, build_state_space, build_transitions

DEFAULT_ALPHA_TOL = 1e-10

DEFAULT_P_MIN = 1.30
DEFAULT_P_MAX = 1.60
P_TOL = 1e-4

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class BisectionResult:
    """Certified bracket for the critical alpha at fixed (p, q).

    alpha_low is certified subcritical (re-checked after the loop);
    alpha_high is not certified.  A degenerate result means alpha = 0
    itself could not be certified, so no positive bound exists here.
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
    """Best certified bound over p at fixed q; `grid` holds every
    probed (p, bound), sorted by p."""

    n: int
    p_opt: float
    q: float
    bound: float
    grid: list[tuple[float, float]] = field(default_factory=list)

    @property
    def degenerate(self) -> bool:
        return self.bound <= 0.0


def alpha_sup(table: TransitionTable, p: float, q: float = 1.0,
              tol: float = DEFAULT_ALPHA_TOL, *,
              max_iter: int = DEFAULT_MAX_ITER) -> BisectionResult:
    """Largest certified-subcritical alpha for fixed (p, q), by bisection.

    Midpoints that certify move the lower endpoint; anything else
    (including non-convergence) moves the upper endpoint, so the answer
    errs low.  Each midpoint's solve stops as soon as a ratio bound
    decides it, and its iteration vector seeds the next, which cuts the
    near-critical iteration count sharply without touching the
    certificates.  A returned endpoint that fails its fresh final
    re-certification raises `ConsistencyError`.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    spent = 0

    ok, certificate, est = check_subcritical(table, Parameters(p, q, 0.0),
                                             DEFAULT_TOL, max_iter)
    spent += est.iterations
    if not ok:
        return BisectionResult(p=p, q=q, alpha_low=0.0, alpha_high=1.0,
                               iterations=0, degenerate=True,
                               certificate=certificate,
                               power_iterations=spent)

    low, high = 0.0, 1.0
    warm = None
    steps = 0
    while high - low > tol:
        mid = 0.5 * (low + high)
        # warm starts only once the bracket is narrow: successive operators
        # are then close and the previous vector is a near-eigenvector
        seed = warm if high - low <= 0.05 else None
        ok, _, est = check_subcritical(table, Parameters(p, q, mid),
                                       DEFAULT_TOL, max_iter, v0=seed)
        spent += est.iterations
        warm = est.vector
        if ok:
            low = mid
        else:
            high = mid
        steps += 1

    # final check: the returned endpoint is certified on a fresh run
    ok, certificate, est = check_subcritical(table, Parameters(p, q, low),
                                             DEFAULT_TOL, max_iter)
    spent += est.iterations
    if not ok:
        raise ConsistencyError(
            f"bisection invariant violated: alpha={low} at p={p}, q={q} "
            "failed its final certification")
    return BisectionResult(p=p, q=q, alpha_low=low, alpha_high=high,
                           iterations=steps, certificate=certificate,
                           power_iterations=spent)


def optimize_p(n: int,
               p_min: float = DEFAULT_P_MIN, p_max: float = DEFAULT_P_MAX,
               q: float = 1.0, *,
               tol: float = DEFAULT_ALPHA_TOL,
               max_iter: int = DEFAULT_MAX_ITER,
               threads: int | None = None,
               table: TransitionTable | None = None) -> OptimizationResult:
    """Maximize the certified alpha bound over p in [p_min, p_max].

    Both ends and the two golden interior points are probed; each step
    then drops the side of the lower interior probe and probes one new
    point.  Degenerate probes count as bound 0.  `threads` is ignored: the
    benchmark worker still passes it.
    """
    if not (1.0 <= p_min < p_max):
        raise ValueError(f"need 1 <= p_min < p_max, got [{p_min}, {p_max}]")
    if table is None:
        fset = build_forbidden_set(n)
        space = build_state_space(n, fset.restrict(n - 1))
        table = build_transitions(space, fset)

    probed: dict[float, float] = {}

    def probe(p: float) -> float:
        res = alpha_sup(table, p, q, tol, max_iter=max_iter)
        probed[p] = 0.0 if res.degenerate else res.alpha_low
        return probed[p]

    lo, hi = p_min, p_max
    probe(lo)
    probe(hi)
    a, b = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    fa, fb = probe(a), probe(b)
    while hi - lo >= P_TOL:
        if fa < fb:
            lo, a, fa = a, b, fb
            b = lo + _INV_PHI * (hi - lo)
            fb = probe(b)
        else:
            hi, b, fb = b, a, fa
            a = hi - _INV_PHI * (hi - lo)
            fa = probe(a)

    grid = sorted(probed.items())
    bounds = [bound for _, bound in grid]
    for j, (p, bound) in enumerate(grid):
        # rise then fall: no probe below the highest on both of its sides
        if bound < min(max(bounds[:j + 1]), max(bounds[j:])) - tol:
            raise ConsistencyError(
                f"bound not unimodal in p on [{p_min}, {p_max}] at q={q}: "
                f"{bound} at p={p} dips below probes on both sides")
    p_opt, bound = max(grid, key=lambda pb: pb[1])
    return OptimizationResult(n=n, p_opt=p_opt, q=q, bound=bound, grid=grid)
