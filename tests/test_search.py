import math
from dataclasses import replace

import pytest
from conftest import level_table

import stavskaya.search as search
from stavskaya.errors import ConsistencyError
from stavskaya.patterns import Parameters
from stavskaya.search import BisectionResult, alpha_sup, optimize_p
from stavskaya.spectral import check_subcritical, power_iteration


def test_bisection_iteration_count(small_levels):
    _, table = small_levels[1]
    res = alpha_sup(table, 1.464, 1.0, 1e-10)
    assert res.iterations == math.ceil(math.log2(1e10)) == 34
    assert res.alpha_high - res.alpha_low <= 1e-10
    assert 0.0 <= res.alpha_low < res.alpha_high <= 1.0


def test_level_one_published_point(small_levels):
    _, table = small_levels[1]
    res = alpha_sup(table, 1.464, 1.0, 1e-10)
    assert res.certified
    assert res.alpha_low == pytest.approx(0.125, abs=5e-4)
    assert res.certificate < 1.0


def test_level_three_published_point(small_levels):
    _, table = small_levels[3]
    res = alpha_sup(table, 1.43, 1.0, 1e-10)
    assert res.certified
    assert res.alpha_low == pytest.approx(0.13358660, abs=1e-6)


def test_degenerate_bracket(small_levels):
    # p = q = 1 keeps weight-1 runs alive at alpha = 0: nothing to certify
    _, table = small_levels[1]
    res = alpha_sup(table, 1.0, 1.0, 1e-10)
    assert res.degenerate
    assert not res.certified
    assert res.alpha_low == 0.0
    assert res.iterations == 0


def test_returned_endpoint_recertifies(small_levels):
    for n in (1, 2):
        _, table = small_levels[n]
        res = alpha_sup(table, 1.45, 1.0, 1e-8)
        low = check_subcritical(table, Parameters(1.45, 1.0, res.alpha_low))
        high = check_subcritical(table, Parameters(1.45, 1.0, res.alpha_high))
        assert low.certified_subcritical and not high.certified_subcritical


@pytest.mark.parametrize("tol", [0.0, math.nan, math.inf])
def test_alpha_tolerance_must_be_positive_and_finite(small_levels, tol):
    _, table = small_levels[1]
    with pytest.raises(ValueError, match="tol"):
        alpha_sup(table, 1.464, 1.0, tol)


def test_bound_is_conservative(small_levels):
    # coarse and fine tolerances certify nested values
    _, table = small_levels[2]
    coarse = alpha_sup(table, 1.44, 1.0, 1e-4)
    fine = alpha_sup(table, 1.44, 1.0, 1e-10)
    assert coarse.alpha_low <= fine.alpha_low + 1e-4
    assert fine.alpha_low >= coarse.alpha_low - 1e-12


def test_optimizer_level_two(small_levels):
    _, table = small_levels[2]
    best = optimize_p(2, 1.40, 1.50, table=table)
    pinned = alpha_sup(table, 1.44, 1.0, 1e-10)
    assert best.p_opt == pytest.approx(1.44, abs=0.01)
    assert best.bound >= pinned.alpha_low - 1e-8
    assert (best.p_opt, best.bound) in [(p, b) for p, b in best.grid]
    assert best.bound == max(b for _, b in best.grid)


def test_optimizer_handles_degenerate_points(small_levels):
    # p = 1 is degenerate and must surface as a zero-bound probe; the
    # bound rises over the whole bracket, so its far end is the optimum
    _, table = small_levels[1]
    best = optimize_p(1, 1.0, 1.02, table=table)
    assert (1.0, 0.0) in best.grid
    assert best.bound > 0.0
    assert best.p_opt == 1.02


def test_optimizer_validation(small_levels):
    _, table = small_levels[1]
    with pytest.raises(ValueError):
        optimize_p(1, 1.5, 1.4, table=table)
    with pytest.raises(ValueError):
        optimize_p(1, 1.4, 1.4, table=table)


# the p and q rows have a valid tolerance, so they are refused for p
# or q alone; from 0.5 on a tolerance allows at most one step
@pytest.mark.parametrize("p,q,tol", [
    (0.9, 1.0, 1e-10), (1.417, 0.5, 1e-10), (math.inf, 1.0, 1e-10),
    (1.417, 1.0, 0), (1.417, 1.0, 0.5), (1.417, 1.0, 100),
])
def test_alpha_sup_refuses_before_the_quotient(small_levels, fset5, p, q, tol):
    table = level_table(4, small_levels, fset5)
    with pytest.raises(ValueError):
        alpha_sup(table, p, q, tol)
    assert "quotient" not in table.__dict__


@pytest.mark.parametrize("args,kwargs", [
    ((1, 1.3, math.inf), {}), ((1,), {"p_min": 0.9}),
    # the level-1 table passed as level 2's
    ((2,), {}),
])
def test_optimizer_refuses_before_any_probe(small_levels, monkeypatch,
                                            args, kwargs):
    def no_probe(*args, **kwargs):
        raise AssertionError("a p was probed before the arguments were checked")
    monkeypatch.setattr(search, "alpha_sup", no_probe)
    _, table = small_levels[1]
    with pytest.raises(ValueError):
        optimize_p(*args, table=table, **kwargs)


PAPER_P = {1: 1.464, 2: 1.44, 3: 1.43, 4: 1.424}


@pytest.mark.parametrize("n", sorted(PAPER_P))
def test_q_one_gives_the_largest_bound(n, small_levels, fset5):
    # rho is even and log-convex in log q, so nondecreasing for q >= 1
    # (see `stavskaya.search`): no q above 1 certifies a larger alpha
    table = level_table(n, small_levels, fset5)
    lows = [alpha_sup(table, PAPER_P[n], q).alpha_low
            for q in (1.0, 1.0001, 1.01, 1.1, 1.5)]
    assert lows[0] > 0.0
    assert all(b <= a for a, b in zip(lows, lows[1:]))


def test_level_monotonicity(small_levels):
    # deeper memory never weakens the bound at its own optimum
    bounds = []
    for n in (1, 2, 3):
        _, table = small_levels[n]
        best = optimize_p(n, 1.40, 1.50, table=table)
        bounds.append(best.bound)
    for lo, hi in zip(bounds, bounds[1:]):
        assert hi >= lo - 1e-9


def _reference_grid_optimum(table):
    """The p grid that the p search replaced: steps of 0.005 over
    [1.30, 1.60], then 0.001 around the best point; (p, bound)."""
    def best_of(ps):
        return max(((p, alpha_sup(table, p).alpha_low) for p in ps),
                   key=lambda pb: pb[1])

    p, _ = best_of([round(1.30 + 0.005 * i, 12) for i in range(61)])
    return best_of([round(p + 0.001 * i, 12) for i in range(-5, 6)
                    if 1.30 <= round(p + 0.001 * i, 12) <= 1.60])


def _counted_probes(monkeypatch):
    """List that collects the p of every `alpha_sup` call of the search."""
    calls = []
    real = search.alpha_sup

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(search, "alpha_sup", counted)
    return calls


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_p_search_matches_grid(n, small_levels, fset5, monkeypatch):
    table = level_table(n, small_levels, fset5)
    grid_p, grid_bound = _reference_grid_optimum(table)
    calls = _counted_probes(monkeypatch)
    best = optimize_p(n, table=table)
    assert best.bound >= grid_bound - 1e-8
    assert abs(best.p_opt - grid_p) <= 0.002
    assert len(calls) <= 12
    assert sorted(calls) == [p for p, _ in best.grid]


# the rows of the golden-section search that Brent's method replaced,
# over the default p range; regression values, not from the paper
GOLDEN_SECTION_ROWS = {1: 0.12499999994179234, 2: 0.13101967808324844,
                       3: 0.13358659780351445, 4: 0.13502855086699128,
                       5: 0.13595342088956386}


@pytest.mark.parametrize("n", sorted(GOLDEN_SECTION_ROWS))
def test_p_search_keeps_the_golden_section_rows(n, small_levels, fset5,
                                                monkeypatch):
    table = level_table(n, small_levels, fset5)
    calls = _counted_probes(monkeypatch)
    best = optimize_p(n, table=table)
    assert best.bound >= GOLDEN_SECTION_ROWS[n]
    assert all(search.DEFAULT_P_MIN <= p <= search.DEFAULT_P_MAX
               for p in calls)
    assert len(set(calls)) == len(calls)


def _fake_alpha_sup(bound_of):
    def fake(table, p, q=1.0, tol=1e-10):
        low = bound_of(p)
        return BisectionResult(p=p, q=q, alpha_low=low, alpha_high=low + tol,
                               iterations=0)
    return fake


def test_unimodality_guard(small_levels, monkeypatch):
    _, table = small_levels[1]
    tol = 1e-4
    monkeypatch.setattr(search, "DEFAULT_ALPHA_TOL", tol)

    def two_peaks(p):
        return (math.exp(-((p - 1.36) / 0.02) ** 2)
                + 0.8 * math.exp(-((p - 1.55) / 0.02) ** 2))

    monkeypatch.setattr(search, "alpha_sup", _fake_alpha_sup(two_peaks))
    with pytest.raises(ConsistencyError, match="not unimodal"):
        optimize_p(1, table=table)

    # one peak, flat near the top, with dips up to `tol` (the resolution
    # of a bisected bound) between neighbouring probes
    def jitter(scale):
        return lambda p: 0.1 - (p - 1.45) ** 2 - scale * ((p * 1e6) % 1.0)

    monkeypatch.setattr(search, "alpha_sup", _fake_alpha_sup(jitter(tol)))
    best = optimize_p(1, table=table)
    assert best.p_opt == pytest.approx(1.45, abs=0.01)
    monkeypatch.setattr(search, "alpha_sup", _fake_alpha_sup(jitter(3 * tol)))
    with pytest.raises(ConsistencyError, match="not unimodal"):
        optimize_p(1, table=table)


def _converged_decision(table, params, v0=None):
    """A trial point decided only after power iteration has converged;
    (certified, certificate, est)."""
    est = power_iteration(table, params, v0=v0)
    if est.converged and est.certified_upper < 1.0:
        return True, est.certified_upper, est
    return False, est.certified_upper, est


def _reference_alpha_sup(table, p, tol=1e-10):
    """Bisection with every step run to convergence, cold while the
    bracket is wider than 0.05, and a fresh converged check of the
    returned endpoint: an independent route to `alpha_sup`'s bracket."""
    ok, _, est = _converged_decision(table, Parameters(p, 1.0, 0.0))
    spent = est.iterations
    assert ok
    low, high, warm = 0.0, 1.0, None
    while high - low > tol:
        mid = 0.5 * (low + high)
        seed = warm if high - low <= 0.05 else None
        ok, _, est = _converged_decision(table, Parameters(p, 1.0, mid), seed)
        spent += est.iterations
        warm = est.vector
        low, high = (mid, high) if ok else (low, mid)
    ok, certificate, est = _converged_decision(table, Parameters(p, 1.0, low))
    assert ok
    return low, high, certificate, spent + est.iterations


REFERENCE_POINTS = {1: (1.44, 1.464, 1.5), 2: (1.42, 1.44, 1.47),
                    3: (1.41, 1.43, 1.46), 4: (1.40, 1.424, 1.45)}


@pytest.mark.parametrize("n", sorted(REFERENCE_POINTS))
def test_early_decisions_match_converged_bisection(n, small_levels, fset5):
    table = level_table(n, small_levels, fset5)
    for p in REFERENCE_POINTS[n]:
        low, high, certificate, spent = _reference_alpha_sup(table, p)
        res = alpha_sup(table, p, 1.0, 1e-10)
        assert (res.alpha_low, res.alpha_high) == (low, high)
        # the reference's converged max ratio at alpha_low is the radius to
        # within 1e-12; the reported one comes from a step stopped at its
        # first max ratio below one, on a vector not yet converged
        assert certificate <= res.certificate < 1.0
        assert res.power_iterations < spent


def test_failed_final_check_raises_consistency_error(small_levels, monkeypatch):
    # the final one-step re-derivation of the certificate, the only solve
    # capped at one iteration, is made to return one ulp more
    _, table = small_levels[1]
    real = search.check_subcritical

    def off_by_one_ulp(table, params, tol, max_iter, v0=None):
        est = real(table, params, tol, max_iter, v0=v0)
        if max_iter == 1:
            est = replace(est, certified_upper=math.nextafter(
                est.certified_upper, 1.0))
        return est

    monkeypatch.setattr(search, "check_subcritical", off_by_one_ulp)
    with pytest.raises(ConsistencyError, match="bisection invariant"):
        alpha_sup(table, 1.464, 1.0, 1e-4)


@pytest.mark.parametrize("n", sorted(PAPER_P))
def test_one_cold_solve_per_bound(n, small_levels, fset5, monkeypatch):
    # only the alpha = 0 solve starts cold; every step is warm-started.
    # Every solve is one call of the module-level name, so a tracer that
    # patches it sees the alpha = 0 solve, each step and the re-check.
    table = level_table(n, small_levels, fset5)
    real = search.check_subcritical
    calls = []

    def counted(table, params, *args, **kwargs):
        est = real(table, params, *args, **kwargs)
        calls.append((params.alpha, kwargs.get("v0"), est.iterations))
        return est

    monkeypatch.setattr(search, "check_subcritical", counted)
    res = alpha_sup(table, PAPER_P[n], 1.0, 1e-10)
    assert res.certified and res.iterations == 34
    assert len(calls) == res.iterations + 2
    assert [alpha for alpha, v0, _ in calls if v0 is None] == [0.0]
    assert calls[0][1] is None
    assert sum(spent for _, _, spent in calls) == res.power_iterations
