"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with -s to see the lines.  Bounds are certified
on the table's quotient, so the level-7 headline and the level-6 and
level-7 table rows take seconds.
"""

import time

import bruteforce
import numpy as np
import pytest
from conftest import check_lift, word_weights

from stavskaya import automaton
from stavskaya.cli import _build_level
from stavskaya.errors import ConsistencyError
from stavskaya.patterns import (MAX_LEVEL, POW3, Parameters, _grow,
                                build_forbidden_set)
from stavskaya.search import alpha_sup, optimize_p
from stavskaya.spectral import (apply_operator, certified_upper_bound,
                                check_subcritical, power_iteration)
from stavskaya.statespace import build_state_space, build_transitions

TABLE_COUNTS = {1: (4, 7), 2: (6, 73), 3: (12, 759), 4: (36, 7859),
                5: (146, 81231), 6: (694, 839009), 7: (3584, 8663071)}

# not from the paper: the edge and quotient class counts this
# construction gives, as recorded in CHANGES.md
EDGE_COUNTS = {6: 1826825, 7: 18862473}
CLASS_COUNTS = {6: 442, 7: 1046}

PINNED_BOUNDS = {2: (1.44, 0.13101966), 3: (1.43, 0.13358660),
                 4: (1.424, 0.13502855), 5: (1.42, 0.13595342)}

HEADLINE_LEVEL = 7
HEADLINE_P = 1.415
HEADLINE_BOUND = 0.1370721

TABLE_ROW_LEVEL = 6
TABLE_ROW_P = 1.417
TABLE_ROW_BOUND = 0.13659747

# the paper's level-7 row: p_opt to 0.01, and a bound at least the
# headline bound at the paper's p
LEVEL7_ROW_P = 1.415

# not from the paper: a regression value, the max ratio of the level-7
# history table's iterate after 50 applications from all-ones at
# (p, q, alpha) = (1.415, 1, 0.137), as this code computes it
LEVEL7_FIXED_RUN = (Parameters(1.415, 1.0, 0.137), 50, 0.9998554914461517)

# not from the paper: regression values for the two levels past its
# table that tier-1 runs, as this code computes them: level ->
# (patterns, states, p_opt, bound), the row pinned at the level-7 row's
# tolerances (p_opt to 0.01, a bound at least the one given)
BEYOND_THE_PAPER = {8: (19466, 89435873, 1.41343, 0.13743655),
                    9: (109516, 923252245, 1.41207, 0.13772528)}


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _counts(n: int):
    fset = build_forbidden_set(n)
    space = build_state_space(n, fset.restrict(n - 1))
    return len(fset), len(space), _build_level(n)[0]


def test_criterion_1_combinatorics_fast():
    # the CLI counts the states on the minimal automaton; each count
    # must equal the history table's length
    started = time.time()
    got = {n: _counts(n) for n in range(1, 6)}
    elapsed = time.time() - started
    exact = all(got[n] == TABLE_COUNTS[n] + TABLE_COUNTS[n][1:]
                for n in range(1, 6))
    _report(1, exact and elapsed < 10.0,
            f"loop/state/counted-state counts n=1..5 {got}, "
            f"{elapsed:.1f}s (budget 10s)")


@pytest.fixture(scope="module")
def deep_levels():
    """level -> (patterns, states, table, build seconds) for levels 6 and
    7, each built once for the module."""
    built = {}
    for n in (6, 7):
        started = time.time()
        fset = build_forbidden_set(n)
        space = build_state_space(n, fset.restrict(n - 1))
        table = build_transitions(space, fset)
        built[n] = (len(fset), len(space), table, time.time() - started)
    return built


def _lifts(table) -> bool:
    try:
        check_lift(table)
    except (AssertionError, ConsistencyError):
        return False
    return True


def test_criterion_2_combinatorics_extended(deep_levels):
    # the only tier-1 build of the transitions at a scale of many chunks,
    # and the check that the quotient every bound solves on lifts onto
    # the histories at the two levels the other tests do not build
    started = time.time()
    got = {n: (patterns, states, table.edge_count, table.quotient.n_states,
               _build_level(n)[0])
           for n, (patterns, states, table, _) in deep_levels.items()}
    lifted = all(_lifts(table) for _, _, table, _ in deep_levels.values())
    elapsed = time.time() - started + sum(b[3] for b in deep_levels.values())
    exact = all(got[n] == TABLE_COUNTS[n] + (EDGE_COUNTS[n], CLASS_COUNTS[n],
                                             TABLE_COUNTS[n][1])
                for n in (6, 7))
    _report(2, exact and lifted and elapsed < 600.0,
            f"loop/state/edge/class/counted-state counts n=6,7 {got}, "
            f"quotient lifts {'yes' if lifted else 'NO'}, {elapsed:.1f}s "
            "(budget 600s)")


def test_criterion_3_pinned_bounds(fset5):
    lines = []
    ok = True
    space1 = build_state_space(1, fset5.restrict(0))
    table1 = build_transitions(space1, fset5.restrict(1))
    started = time.time()
    res1 = alpha_sup(table1, 1.464, 1.0, 1e-10)
    ok &= res1.certified and abs(res1.alpha_low - 0.125) <= 5e-4
    lines.append(f"n=1 {res1.alpha_low:.7f} (0.125 +/- 5e-4)")
    for n, (p, want) in PINNED_BOUNDS.items():
        started_n = time.time()
        space = build_state_space(n, fset5.restrict(n - 1))
        table = build_transitions(space, fset5.restrict(n))
        res = alpha_sup(table, p, 1.0, 1e-10)
        elapsed_n = time.time() - started_n
        budget = 120.0 if n <= 4 else 600.0
        ok &= res.certified and abs(res.alpha_low - want) <= 1e-6
        ok &= elapsed_n < budget
        lines.append(f"n={n} {res.alpha_low:.10f} (want {want}, "
                     f"{elapsed_n:.1f}s/{budget:.0f}s)")
    _report(3, ok, "; ".join(lines) + f"; total {time.time() - started:.1f}s")


def test_criterion_4_headline(deep_levels):
    table = deep_levels[HEADLINE_LEVEL][2]
    res = alpha_sup(table, HEADLINE_P, 1.0, 1e-10)
    ok = res.certified and res.alpha_low >= HEADLINE_BOUND and res.certificate < 1.0
    _report(4, ok, f"n=7 p={HEADLINE_P}: bound {res.alpha_low:.10f} "
                   f">= {HEADLINE_BOUND}, certificate {res.certificate:.12f}")


def test_criterion_5_optimizer_consistency(small_levels):
    _, table = small_levels[2]
    best = optimize_p(2, 1.30, 1.60, table=table)
    pinned = alpha_sup(table, 1.44, 1.0, 1e-10)
    ok = (abs(best.p_opt - 1.44) <= 0.01
          and best.bound >= pinned.alpha_low - 1e-8)
    _report(5, ok, f"p_opt {best.p_opt} (1.44 +/- 0.01), bound "
                   f"{best.bound:.10f} >= pinned {pinned.alpha_low:.10f} - 1e-8")


def test_criterion_6_oracle_equivalence(small_levels, fset5):
    rng = np.random.RandomState(2024)
    # (a) brute-force totals vs operator-iterated sums
    ok_a = True
    for n in (1, 2):
        space, table = small_levels[n]
        for _ in range(5):
            params = Parameters(1 + rng.rand(), 1 + rng.rand(), rng.rand())
            v = word_weights(space, params)
            for m in range(0, 9):
                want = bruteforce.total_weight_bruteforce(
                    n, space.length + m, params).total
                ok_a &= abs(v.sum() - want) <= 1e-12 * max(want, 1e-300)
                v = apply_operator(table, params, v)
    # (b) dense growth rate vs power iteration
    ok_b = True
    worst_b = 0.0
    for i in range(20):
        n = (i % 3) + 1
        _, table = small_levels[n]
        params = Parameters(1 + rng.rand(), 1 + rng.rand(), rng.rand())
        dense = bruteforce.dense_growth_rate(table, params)
        est = power_iteration(table, params)
        worst_b = max(worst_b, abs(dense - est.estimate))
        ok_b &= est.converged and abs(dense - est.estimate) <= 1e-8
    # (c) suffix-only vs full-factor filtering
    ok_c = True
    for n in (1, 2):
        for k in range(1, 11):
            fast = _grow(k, fset5.restrict(n))[0]
            slow = bruteforce.valid_path_codes(n, k)
            ok_c &= np.array_equal(fast, slow)
    _report(6, ok_a and ok_b and ok_c,
            f"(a) path sums {'ok' if ok_a else 'MISMATCH'}; "
            f"(b) dense vs power worst {worst_b:.2e} (tol 1e-8); "
            f"(c) filters {'identical' if ok_c else 'DIFFER'}")


def test_criterion_7_property_suite(small_levels, fset5):
    # forbidden-set closures for n <= 5
    ok_closure = True
    for n in range(0, 6):
        pats = set(fset5.restrict(n).patterns)
        ok_closure &= {tuple(4 - k for k in p) for p in pats} == pats
        ok_closure &= {tuple(reversed(p)) for p in pats} == pats
    # alpha-monotone certificates, 10 ladder points
    ok_mono = True
    for n in (1, 2, 3):
        _, table = small_levels[n]
        uppers = [power_iteration(table, Parameters(1.43, 1.0, a)).certified_upper
                  for a in np.linspace(0.01, 0.5, 10)]
        ok_mono &= all(lo <= hi + 1e-10 for lo, hi in zip(uppers, uppers[1:]))
    # alpha search post-assertion
    ok_post = True
    for n in (1, 2, 3):
        _, table = small_levels[n]
        res = alpha_sup(table, 1.43, 1.0, 1e-8)
        ok_post &= check_subcritical(
            table, Parameters(1.43, 1.0, res.alpha_low)).certified_subcritical
    # every predecessor sits in the slot of its oldest step
    ok_slots = True
    for space, t in small_levels.values():
        for s in range(3):
            real = t.pred[s] < t.n_states
            want = (space.codes[real] // np.uint64(3)
                    + np.uint64(s) * POW3[space.length - 1])
            ok_slots &= np.array_equal(space.codes[t.pred[s][real]], want)
    # the 1<->3 swap, state i <-> state N-1-i, maps every table onto itself
    ok_mirror = all(t.mirrored for _, t in small_levels.values())
    _report(7, ok_closure and ok_mono and ok_post and ok_slots and ok_mirror,
            f"closures {'ok' if ok_closure else 'BAD'}, monotone "
            f"{'ok' if ok_mono else 'BAD'}, post-assert "
            f"{'ok' if ok_post else 'BAD'}, slots "
            f"{'ok' if ok_slots else 'BAD'}, mirror "
            f"{'ok' if ok_mirror else 'BAD'}")


def test_criterion_8_table_row(deep_levels):
    started = time.time()
    best = optimize_p(TABLE_ROW_LEVEL, table=deep_levels[TABLE_ROW_LEVEL][2])
    elapsed = time.time() - started
    ok = (abs(best.p_opt - TABLE_ROW_P) <= 0.01
          and abs(best.bound - TABLE_ROW_BOUND) <= 1e-6)
    _report(8, ok, f"n={TABLE_ROW_LEVEL} p_opt {best.p_opt:.5f} "
                   f"({TABLE_ROW_P} +/- 0.01), bound {best.bound:.10f} "
                   f"({TABLE_ROW_BOUND} +/- 1e-6), {elapsed:.0f}s")


def test_criterion_9_level7_table_row(deep_levels):
    started = time.time()
    best = optimize_p(HEADLINE_LEVEL, table=deep_levels[HEADLINE_LEVEL][2])
    elapsed = time.time() - started
    ok = (abs(best.p_opt - LEVEL7_ROW_P) <= 0.01
          and best.bound >= HEADLINE_BOUND)
    _report(9, ok, f"n={HEADLINE_LEVEL} p_opt {best.p_opt:.5f} "
                   f"({LEVEL7_ROW_P} +/- 0.01), bound {best.bound:.10f} "
                   f"(>= {HEADLINE_BOUND}), {elapsed:.0f}s")


def test_level7_fixed_run_keeps_its_certificate(deep_levels):
    # the half-state iteration on the 8,663,071 histories and the
    # certificate re-derived, in place, from the vector it returns
    params, steps, want = LEVEL7_FIXED_RUN
    table = deep_levels[HEADLINE_LEVEL][2]
    est = power_iteration(table, params, tol=1e-300, max_iter=steps)
    cert = certified_upper_bound(table, params, est.vector)
    assert est.iterations == steps and not est.converged
    assert cert == est.certified_upper == want


@pytest.fixture(scope="module")
def beyond_levels():
    """level -> `_build_level(level)` for the levels past the paper's
    table that tier-1 runs."""
    return {n: _build_level(n) for n in BEYOND_THE_PAPER}


@pytest.mark.parametrize("n", sorted(BEYOND_THE_PAPER))
def test_counted_states_match_the_unminimised_automaton(n, beyond_levels):
    # no history table checks the counts past level 7, so the live
    # Aho–Corasick nodes, before any refinement, count the
    # length-(3n-1) words read from the root (node 0) instead
    states, _, fset = beyond_levels[n]
    moves, _ = automaton._live(fset)
    size = moves.shape[1]
    words = np.ones(size + 1, dtype=np.int64)
    words[size] = 0  # a move into a dead node ends no word
    for _ in range(3 * n - 1):
        words[:size] = words[moves].sum(axis=0)
    assert (len(fset), states) == BEYOND_THE_PAPER[n][:2]
    assert words[0] == states


def test_state_counts_stay_exact_through_the_level_cap():
    # `_build_level` counts in float64, exact while 3^(3n-1) <= 2^53
    assert 3 ** (3 * MAX_LEVEL - 1) <= 2 ** 53


def test_rows_past_the_paper(beyond_levels):
    # the bound rises at every level through 9
    rows = {n: optimize_p(n, table=(beyond_levels.get(n)
                                    or _build_level(n))[1])
            for n in range(1, 10)}
    bounds = [rows[n].bound for n in sorted(rows)]
    assert all(lo < hi for lo, hi in zip(bounds, bounds[1:])), bounds
    for n, (_, _, p_opt, bound) in BEYOND_THE_PAPER.items():
        assert abs(rows[n].p_opt - p_opt) <= 0.01, (n, rows[n].p_opt)
        assert rows[n].bound >= bound, (n, rows[n].bound)
