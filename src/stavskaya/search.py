"""Bisection over the erasure parameter and grid optimization over p.

For fixed (p, q) the certified-subcritical region of alpha is an
interval starting at 0; bisection keeps its lower endpoint certified at
every step, so the returned value is a true lower bound on the critical
parameter no matter how the iteration behaved.  The outer search simply
maximizes that bound over a coarse-then-refined grid in p (q stays at 1,
where the maximum is attained).

Each bisection step ends as soon as a Collatz–Wielandt ratio bound
decides it (`check_subcritical`): a max ratio below one moves the lower
endpoint, a min ratio above one moves the upper.  The fresh final
re-certification of the returned endpoint stops the same way, so the
reported certificate is the first max ratio below one, not the tightest.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .errors import ConsistencyError
from .patterns import Parameters, build_forbidden_set
from .spectral import DEFAULT_MAX_ITER, DEFAULT_TOL, check_subcritical
from .statespace import TransitionTable, build_state_space, build_transitions

DEFAULT_ALPHA_TOL = 1e-10

DEFAULT_P_MIN = 1.30
DEFAULT_P_MAX = 1.60
DEFAULT_COARSE_STEP = 0.005
DEFAULT_REFINE_STEP = 0.001


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
    """Best certified bound over a p grid at fixed q."""

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
              power_tol: float = DEFAULT_TOL,
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
                                             power_tol, max_iter)
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
                                       power_tol, max_iter, v0=seed)
        spent += est.iterations
        warm = est.vector
        if ok:
            low = mid
        else:
            high = mid
        steps += 1

    # final check: the returned endpoint is certified on a fresh run
    ok, certificate, est = check_subcritical(table, Parameters(p, q, low),
                                             power_tol, max_iter)
    spent += est.iterations
    if not ok:
        raise ConsistencyError(
            f"bisection invariant violated: alpha={low} at p={p}, q={q} "
            "failed its final certification")
    return BisectionResult(p=p, q=q, alpha_low=low, alpha_high=high,
                           iterations=steps, certificate=certificate,
                           power_iterations=spent)


def _grid(lo: float, hi: float, step: float) -> list[float]:
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [round(lo + i * step, 12) for i in range(count)]


def optimize_p(n: int,
               p_min: float = DEFAULT_P_MIN, p_max: float = DEFAULT_P_MAX,
               coarse_step: float = DEFAULT_COARSE_STEP,
               refine_step: float = DEFAULT_REFINE_STEP,
               q: float = 1.0, *,
               tol: float = DEFAULT_ALPHA_TOL,
               power_tol: float = DEFAULT_TOL,
               max_iter: int = DEFAULT_MAX_ITER,
               threads: int = 1,
               table: TransitionTable | None = None) -> OptimizationResult:
    """Maximize the certified alpha bound over p in [p_min, p_max].

    Coarse pass first, then a refined grid around the best coarse point.
    The reported bound is always a certified bisection endpoint, never an
    interpolation.  Degenerate grid points contribute bound 0.
    """
    if not (1.0 <= p_min < p_max):
        raise ValueError(f"need 1 <= p_min < p_max, got [{p_min}, {p_max}]")
    if coarse_step <= 0.0 or refine_step <= 0.0:
        raise ValueError("grid steps must be positive")
    if table is None:
        fset = build_forbidden_set(n)
        space = build_state_space(n, fset.restrict(n - 1))
        table = build_transitions(space, fset)

    results: dict[float, BisectionResult] = {}

    def evaluate(ps: list[float]) -> None:
        todo = [p for p in ps if p not in results]
        if threads > 1 and len(todo) > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                found = pool.map(
                    lambda p: alpha_sup(table, p, q, tol,
                                        power_tol=power_tol, max_iter=max_iter),
                    todo)
                for p, res in zip(todo, found):
                    results[p] = res
        else:
            for p in todo:
                results[p] = alpha_sup(table, p, q, tol,
                                       power_tol=power_tol, max_iter=max_iter)

    coarse = _grid(p_min, p_max, coarse_step)
    evaluate(coarse)
    best_p = max(coarse, key=lambda p: (0.0 if results[p].degenerate
                                        else results[p].alpha_low))
    fine = [p for p in _grid(max(p_min, best_p - coarse_step),
                             min(p_max, best_p + coarse_step), refine_step)]
    evaluate(fine)

    grid = sorted((p, 0.0 if r.degenerate else r.alpha_low)
                  for p, r in results.items())
    p_opt, bound = max(grid, key=lambda pb: pb[1])
    return OptimizationResult(n=n, p_opt=p_opt, q=q, bound=bound, grid=grid)
