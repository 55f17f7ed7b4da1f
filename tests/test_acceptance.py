"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with -s to see the lines; the deep checks, the
level-7 headline bound and the level-6 table row, need --run-deep.
"""

import time

import numpy as np
import pytest

from stavskaya import bruteforce
from stavskaya.patterns import (POW3, Parameters, build_forbidden_set,
                                swap_pattern)
from stavskaya.search import alpha_sup, optimize_p
from stavskaya.spectral import (apply_operator, is_subcritical,
                                power_iteration, word_weight_vector)
from stavskaya.statespace import (build_state_space, build_transitions,
                                  enumerate_valid_words)

TABLE_COUNTS = {1: (4, 7), 2: (6, 73), 3: (12, 759), 4: (36, 7859),
                5: (146, 81231), 6: (694, 839009), 7: (3584, 8663071)}

PINNED_BOUNDS = {2: (1.44, 0.13101966), 3: (1.43, 0.13358660),
                 4: (1.424, 0.13502855), 5: (1.42, 0.13595342)}

HEADLINE_LEVEL = 7
HEADLINE_P = 1.415
HEADLINE_BOUND = 0.1370721

TABLE_ROW_LEVEL = 6
TABLE_ROW_P = 1.417
TABLE_ROW_BOUND = 0.13659747


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _counts(n: int):
    fset = build_forbidden_set(n)
    space = build_state_space(n, fset.restrict(n - 1))
    return len(fset), len(space)


def test_criterion_1_combinatorics_fast():
    started = time.time()
    got = {n: _counts(n) for n in range(1, 6)}
    elapsed = time.time() - started
    exact = all(got[n] == TABLE_COUNTS[n] for n in range(1, 6))
    _report(1, exact and elapsed < 10.0,
            f"loop/state counts n=1..5 {got}, {elapsed:.1f}s (budget 10s)")


def test_criterion_2_combinatorics_extended():
    started = time.time()
    got = {n: _counts(n) for n in (6, 7)}
    elapsed = time.time() - started
    exact = all(got[n] == TABLE_COUNTS[n] for n in (6, 7))
    _report(2, exact and elapsed < 600.0,
            f"loop/state counts n=6,7 {got}, {elapsed:.1f}s (budget 600s)")


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


@pytest.mark.deep
def test_criterion_4_headline_deep():
    fset = build_forbidden_set(HEADLINE_LEVEL)
    space = build_state_space(HEADLINE_LEVEL, fset.restrict(HEADLINE_LEVEL - 1))
    table = build_transitions(space, fset)
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
            v = word_weight_vector(space, params)
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
            fast = enumerate_valid_words(k, fset5.restrict(n))
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
        ok_closure &= {swap_pattern(p) for p in pats} == pats
        ok_closure &= {tuple(reversed(p)) for p in pats} == pats
    # alpha-monotone certificates, 10 ladder points
    ok_mono = True
    for n in (1, 2, 3):
        _, table = small_levels[n]
        uppers = [power_iteration(table, Parameters(1.43, 1.0, a)).certified_upper
                  for a in np.linspace(0.01, 0.5, 10)]
        ok_mono &= all(lo <= hi + 1e-10 for lo, hi in zip(uppers, uppers[1:]))
    # bisection post-assertion
    ok_post = True
    for n in (1, 2, 3):
        _, table = small_levels[n]
        res = alpha_sup(table, 1.43, 1.0, 1e-8)
        ok_post &= is_subcritical(table, Parameters(1.43, 1.0, res.alpha_low))
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


@pytest.mark.deep
def test_criterion_8_table_row_deep():
    started = time.time()
    best = optimize_p(TABLE_ROW_LEVEL)
    elapsed = time.time() - started
    ok = (abs(best.p_opt - TABLE_ROW_P) <= 0.01
          and abs(best.bound - TABLE_ROW_BOUND) <= 1e-6)
    _report(8, ok, f"n={TABLE_ROW_LEVEL} p_opt {best.p_opt:.5f} "
                   f"({TABLE_ROW_P} +/- 0.01), bound {best.bound:.10f} "
                   f"({TABLE_ROW_BOUND} +/- 1e-6), {elapsed:.0f}s")
