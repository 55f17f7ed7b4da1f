import math
import random
from dataclasses import astuple, replace

import numpy as np
import pytest
from conftest import (LEVELS, exact_left_sides, exact_subcritical, fresh,
                      history, make_table, minimal_table)

import stavskaya.search as search
from stavskaya import spectral
from stavskaya.errors import ConsistencyError
from stavskaya.patterns import Parameters
from stavskaya.search import BisectionResult, alpha_sup, optimize_p
from stavskaya.spectral import check_subcritical, power_iteration


# k = 34 at the default tolerance 1e-10: the grid spacing is 2**-34,
# which bisection takes 34 steps to reach and ITP at most k + 1
GRID_STEPS = 34

# level 1 solved by hand: rho(M) = 1 at alpha*(p), largest at
# p = 2*sqrt(3) - 2, where alpha* = 1/8; an oracle this code does not
# compute
LEVEL1_P = (1.3, 1.35, 1.4, 1.45, 1.464, 1.5, 1.55, 1.6)


def _level1_alpha_star(p: float) -> float:
    return (math.sqrt(p * p + 4 * p - 4) - p) / (2 * p * p)


def test_level_one_meets_its_closed_form():
    table = minimal_table(1)[0]
    for p in LEVEL1_P:
        gap = _level1_alpha_star(p) - alpha_sup(table, p).alpha_low
        assert 0 < gap < 2 * 2.0 ** -GRID_STEPS, (p, gap)
    best = optimize_p(1, table=table)
    assert abs(best.p_opt - (2 * math.sqrt(3) - 2)) < search.P_TOL
    assert 0 < 1 / 8 - best.bound <= 2.0 ** -33


def test_bisection_iteration_count():
    _, table = history(1)
    res = alpha_sup(table, 1.464, 1.0, 1e-10)
    assert math.ceil(math.log2(1e10)) == GRID_STEPS
    assert res.iterations < GRID_STEPS
    assert res.alpha_high - res.alpha_low == 2.0 ** -GRID_STEPS <= 1e-10
    assert 0.0 <= res.alpha_low < res.alpha_high <= 1.0


def test_degenerate_bracket():
    # p = q = 1 keeps weight-1 runs alive at alpha = 0: nothing to certify
    _, table = history(1)
    res = alpha_sup(table, 1.0, 1.0, 1e-10)
    assert res.degenerate
    assert not res.certified
    assert res.alpha_low == 0.0
    assert res.iterations == 0


def test_returned_endpoint_recertifies():
    for n in (1, 2):
        _, table = history(n)
        res = alpha_sup(table, 1.45, 1.0, 1e-8)
        low = check_subcritical(table, Parameters(1.45, 1.0, res.alpha_low))
        high = check_subcritical(table, Parameters(1.45, 1.0, res.alpha_high))
        assert low.certified_subcritical and not high.certified_subcritical


@pytest.mark.parametrize("tol", [0.0, math.nan, math.inf])
def test_alpha_tolerance_must_be_positive_and_finite(tol):
    _, table = history(1)
    with pytest.raises(ValueError, match="tol"):
        alpha_sup(table, 1.464, 1.0, tol)


def test_bound_is_conservative():
    # coarse and fine tolerances certify nested values
    _, table = history(2)
    coarse = alpha_sup(table, 1.44, 1.0, 1e-4)
    fine = alpha_sup(table, 1.44, 1.0, 1e-10)
    assert coarse.alpha_low <= fine.alpha_low + 1e-4
    assert fine.alpha_low >= coarse.alpha_low - 1e-12


def test_optimizer_level_two():
    _, table = history(2)
    best = optimize_p(2, 1.40, 1.50, table=table)
    pinned = alpha_sup(table, 1.44, 1.0, 1e-10)
    assert best.p_opt == pytest.approx(1.44, abs=0.01)
    assert best.bound >= pinned.alpha_low - 1e-8
    assert (best.p_opt, best.bound) in [(p, b) for p, b in best.grid]
    assert best.bound == max(b for _, b in best.grid)


def test_optimizer_handles_degenerate_points():
    # p = 1 is degenerate and must surface as a zero-bound probe; the
    # bound rises over the whole bracket, so its far end is the optimum
    _, table = history(1)
    best = optimize_p(1, 1.0, 1.02, table=table)
    assert (1.0, 0.0) in best.grid
    assert best.bound > 0.0
    assert best.p_opt == 1.02


def test_optimizer_validation():
    _, table = history(1)
    with pytest.raises(ValueError):
        optimize_p(1, 1.5, 1.4, table=table)
    with pytest.raises(ValueError):
        optimize_p(1, 1.4, 1.4, table=table)


# the p and q rows have a valid tolerance, so they are refused for p
# or q alone; from 0.5 on a tolerance allows at most one step
@pytest.mark.parametrize("p,q,tol", [
    (0.9, 1.0, 1e-10), (1.417, 0.5, 1e-10), (math.inf, 1.0, 1e-10),
    (1.417, 1.0, 0), (1.417, 1.0, 0.5), (1.417, 1.0, 100),
    (1.417, 1.0, 1e-20),
])
def test_alpha_sup_refuses_before_the_quotient(p, q, tol, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the quotient was solved before the arguments were checked")
    monkeypatch.setattr(search, "check_subcritical", no_solve)
    with pytest.raises(ValueError):
        alpha_sup(history(4)[1], p, q, tol)


@pytest.mark.parametrize("args,kwargs", [
    ((1, 1.3, math.inf), {}), ((1,), {"p_min": 0.9}),
    # the level-1 table passed as level 2's
    ((2,), {}),
])
def test_optimizer_refuses_before_any_probe(monkeypatch, args, kwargs):
    def no_probe(*args, **kwargs):
        raise AssertionError("a p was probed before the arguments were checked")
    monkeypatch.setattr(search, "alpha_sup", no_probe)
    _, table = history(1)
    with pytest.raises(ValueError):
        optimize_p(*args, table=table, **kwargs)


@pytest.mark.parametrize("n", range(1, 5))
def test_q_one_gives_the_largest_bound(n):
    # rho is even and log-convex in log q, so nondecreasing for q >= 1
    # (see `stavskaya.search`): no q above 1 certifies a larger alpha
    table = history(n)[1]
    lows = [alpha_sup(table, LEVELS[n].p_opt, q).alpha_low
            for q in (1.0, 1.0001, 1.01, 1.1, 1.5)]
    assert lows[0] > 0.0
    assert all(b <= a for a, b in zip(lows, lows[1:]))


def test_level_monotonicity():
    # deeper memory never weakens the bound at its own optimum
    bounds = []
    for n in (1, 2, 3):
        _, table = history(n)
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
def test_p_search_matches_grid(n, monkeypatch):
    table = history(n)[1]
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
def test_p_search_keeps_the_golden_section_rows(n, monkeypatch):
    table = history(n)[1]
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


def test_unimodality_guard(monkeypatch):
    _, table = history(1)
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
def test_early_decisions_match_converged_bisection(n):
    table = history(n)[1]
    for p in REFERENCE_POINTS[n]:
        low, high, certificate, spent = _reference_alpha_sup(table, p)
        res = alpha_sup(table, p, 1.0, 1e-10)
        assert (res.alpha_low, res.alpha_high) == (low, high)
        # the reference's converged max ratio at alpha_low is the radius to
        # within 1e-12; the reported one comes from a step stopped at its
        # first max ratio below one, on a vector not yet converged
        assert certificate <= res.certificate < 1.0
        assert res.power_iterations < spent


def test_failed_final_check_raises_consistency_error(monkeypatch):
    # the final one-step re-derivation of the certificate, the only solve
    # capped at one iteration, is made to return one ulp more
    _, table = history(1)
    real = search.check_subcritical

    def off_by_one_ulp(table, params, max_iter, v0=None):
        est = real(table, params, max_iter, v0=v0)
        if max_iter == 1:
            est = replace(est, certified_upper=math.nextafter(
                est.certified_upper, 1.0))
        return est

    monkeypatch.setattr(search, "check_subcritical", off_by_one_ulp)
    with pytest.raises(ConsistencyError, match="bisection invariant"):
        alpha_sup(table, 1.464, 1.0, 1e-4)


@pytest.mark.parametrize("n", range(1, 5))
def test_one_cold_solve_per_bound(n, monkeypatch):
    # only the alpha = 0 solve starts cold; every step is warm-started.
    # Every solve is one call of the module-level name, so a tracer that
    # patches it sees the alpha = 0 solve, each step and the re-check.
    table = history(n)[1]
    real = search.check_subcritical
    calls = []

    def counted(table, params, *args, **kwargs):
        est = real(table, params, *args, **kwargs)
        calls.append((params.alpha, kwargs.get("v0"), est.iterations))
        return est

    monkeypatch.setattr(search, "check_subcritical", counted)
    res = alpha_sup(table, LEVELS[n].p_opt, 1.0, 1e-10)
    assert res.certified and res.iterations < GRID_STEPS
    assert len(calls) == res.iterations + 2
    # the first query is the midpoint: no uncertified end is solved yet
    assert calls[1][0] == 0.5
    assert [alpha for alpha, v0, _ in calls if v0 is None] == [0.0]
    assert calls[0][1] is None
    assert sum(spent for _, _, spent in calls) == res.power_iterations


def test_tolerance_finer_than_the_doubles_is_refused(monkeypatch):
    # a 2**-67 grid is finer than the doubles near the bound, where a
    # query rounds onto an end and the search never ends; refused before
    # any solve
    _, table = history(1)
    real = search.check_subcritical
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(search, "check_subcritical", counted)
    for tol in (1e-20, math.nextafter(2.0 ** -53, 0.0)):
        with pytest.raises(ValueError, match="tol"):
            alpha_sup(table, 1.464, 1.0, tol)
    assert calls == []


def test_finest_tolerance_ends_on_grid_neighbours():
    # every multiple of 2**-53 in [0, 1] is a double, so the search ends
    # in at most k + 1 = 54 steps
    _, table = history(1)
    res = alpha_sup(table, 1.464, 1.0, 2.0 ** -53)
    assert res.certified
    assert res.alpha_high - res.alpha_low == 2.0 ** -53
    assert res.iterations <= 54


# alpha_low at the paper's p, bit for bit those of the 34-step bisection
# the ITP search replaced; regression values, not from the paper
BISECTION_LOWS = {1: 0.12499999813735485, 2: 0.1310196552076377,
                  3: 0.13358659762889147, 4: 0.13502855086699128,
                  5: 0.13595342048211023, 6: 0.13659747340716422,
                  7: 0.1370721062994562}


@pytest.mark.parametrize("n", sorted(BISECTION_LOWS))
def test_paper_points_keep_the_bisection_bounds(n):
    low = BISECTION_LOWS[n]
    res = alpha_sup(minimal_table(n)[0], LEVELS[n].p_opt)
    assert (res.alpha_low, res.alpha_high) == (low, low + 2.0 ** -GRID_STEPS)
    assert res.certificate < 1.0 and res.iterations < GRID_STEPS


@pytest.mark.parametrize("n", range(1, 8))
def test_paper_points_hold_in_exact_arithmetic(n, monkeypatch):
    # the vector the closing one-step re-check starts from proves the
    # bound in exact rationals; the grid point above it, twice the bound,
    # an entry just below its own left side, a zero entry or a negated
    # vector is refused
    table, p = minimal_table(n)[0], LEVELS[n].p_opt
    real = search.check_subcritical
    closing = []

    def spy(table, params, max_iter, *, v0=None):
        if max_iter == 1:
            closing.append(v0.copy())
        return real(table, params, max_iter, v0=v0)

    monkeypatch.setattr(search, "check_subcritical", spy)
    res = alpha_sup(table, p)
    alpha = res.alpha_low
    [v] = closing
    assert exact_subcritical(table, p, alpha, v)
    for above in (res.alpha_high, 2 * alpha):
        assert not exact_subcritical(table, p, above, v)
    # a class with no move into itself, so lowering its entry leaves its
    # left side as it is
    c = next(c for c in range(table.n_states) if c not in table.pred[:, c])
    lowered = v.copy()
    lowered[c] = np.nextafter(float(exact_left_sides(table, p, alpha, v)[c]), 0)
    zero = v.copy()
    zero[c] = 0.0
    for bad in (lowered, zero, -v):
        assert not exact_subcritical(table, p, alpha, bad)


def test_gather_form_changes_no_number(monkeypatch):
    # a quotient fits in one block and is gathered as one stacked intp
    # array; in blocks of 4 every quotient spans several blocks and is
    # gathered as int32 row views.  Both give every field bit for bit
    tables = {n: fresh(minimal_table(n)[0]) for n in (1, 2, 3, 4)}

    def run(block):
        monkeypatch.setattr(spectral, "_BLOCK", block)
        bounds = [repr(astuple(alpha_sup(tables[n], LEVELS[n].p_opt)))
                  for n in (1, 2, 3, 4)]
        rows = [optimize_p(n, table=tables[n]) for n in (1, 2, 3)]
        # the plans the solves used, one per (block, m)
        forms = {type(plan) for table in tables.values()
                 for (size, _), plan in table.quotient.plans.items()
                 if size == block}
        return bounds, [repr((r.p_opt, r.bound, r.grid)) for r in rows], forms

    *stacked, forms = run(spectral._BLOCK)
    assert forms == {tuple}
    assert all(t.quotient.n_states > 4 for t in tables.values())
    *blocked, forms = run(4)
    assert forms == {list}
    assert blocked == stacked


# estimates that say nothing, or the opposite, about where rho crosses
# one; every decision is the solve's own
BAD_ESTIMATES = {
    "constant": lambda est, rng: 0.5,
    "nan": lambda est, rng: math.nan,
    "random": lambda est, rng: rng.uniform(0.0, 2.0),
    # regula falsi is unchanged by f -> -f, so this one queries as the
    # real estimates do
    "inverted": lambda est, rng: 2.0 - est.estimate,
    # f(alpha) = estimate - 1 never negative, so the regula-falsi point
    # lies outside the bracket
    "one-sided": lambda est, rng: 1.0 + abs(est.estimate - 1.0),
    "+1e300": lambda est, rng: 1e300,
    "-1e300": lambda est, rng: -1e300,
    "inverted 1e300": lambda est, rng: (1e300 if est.certified_subcritical
                                        else -1e300),
}


def test_itp_point_is_the_midpoint_at_a_nan_end():
    # the alpha search's queries until an uncertified end is solved,
    # whose f it starts as NaN: the midpoint, whatever the radius
    for low, high, f_low in ((0.0, 1.0, -0.9), (0.5, 0.75, -1e-3),
                             (0.125, 0.1875, -0.0)):
        for radius in (0.0, 1e-12, 0.25, 0.5, math.inf):
            assert (search._itp_point(low, high, f_low, math.nan, radius)
                    == 0.5 * (low + high))


@pytest.mark.parametrize("kind", sorted(BAD_ESTIMATES))
def test_any_estimate_ends_on_the_same_bracket(kind, monkeypatch):
    # the estimates steer the queries only: the search still ends at the
    # same grid neighbours, in at most k + 1 steps
    expected = {n: alpha_sup(history(n)[1], LEVELS[n].p_opt)
                for n in (1, 2, 3)}
    real = search.check_subcritical
    rng = random.Random(25)
    bad = BAD_ESTIMATES[kind]

    def misleading(*args, **kwargs):
        est = real(*args, **kwargs)
        return replace(est, estimate=bad(est, rng))

    monkeypatch.setattr(search, "check_subcritical", misleading)
    for n, want in expected.items():
        res = alpha_sup(history(n)[1], LEVELS[n].p_opt)
        assert (res.alpha_low, res.alpha_high) == (want.alpha_low,
                                                   want.alpha_high)
        assert res.iterations <= GRID_STEPS + 1


def test_certified_everywhere_ends_below_one():
    # one state with a kind-1 self-loop: rho = 1/p at every alpha, so
    # every query certifies and the search bisects up to 1
    toy = make_table([[0], [1], [1]], [0])
    res = alpha_sup(toy, 1.464)
    assert (res.alpha_low, res.alpha_high) == (1.0 - 2.0 ** -GRID_STEPS, 1.0)
    assert res.iterations == GRID_STEPS and res.certificate < 1.0


@pytest.mark.parametrize("tol,k", [(1e-8, 27), (1e-4, 14)])
def test_tolerance_sets_the_grid(tol, k):
    _, table = history(3)
    res = alpha_sup(table, LEVELS[3].p_opt, 1.0, tol)
    grid = 2.0 ** -k
    assert grid <= tol < 2.0 * grid
    assert res.alpha_high - res.alpha_low == grid
    assert (res.alpha_low / grid).is_integer()
    assert res.iterations <= k + 1
