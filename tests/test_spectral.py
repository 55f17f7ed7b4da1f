import tracemalloc

import numpy as np
import pytest
from conftest import make_table, unmirrored

from stavskaya import spectral
from stavskaya.patterns import Parameters
from stavskaya.spectral import (SpectralEstimate, apply_operator,
                                certified_upper_bound, check_subcritical,
                                power_iteration)
from stavskaya.statespace import build_state_space, build_transitions


def test_apply_counts_predecessors(small_levels):
    _, table = small_levels[1]
    out = apply_operator(table, Parameters(1, 1, 0.0), np.ones(7))
    # alpha = 0 kills the kind-2 term; survivors count kind-1/3 predecessors
    pred_count = (table.pred < table.n_states).sum(axis=0)
    want = np.where(np.isin(table.last_digit, (0, 2)), pred_count, 0.0)
    assert np.allclose(out, want, atol=1e-15)


def test_apply_total_is_edge_count(small_levels):
    _, table = small_levels[1]
    out = apply_operator(table, Parameters(1, 1, 1.0), np.ones(7))
    assert out.sum() == pytest.approx(15.0, abs=1e-12)


def test_apply_zero_vector(small_levels):
    _, table = small_levels[2]
    assert not apply_operator(table, Parameters(1.3, 1.1, 0.4),
                              np.zeros(table.n_states)).any()


def test_apply_dimension_mismatch(small_levels):
    _, table = small_levels[1]
    with pytest.raises(ValueError):
        apply_operator(table, Parameters(1, 1, 0.5), np.ones(8))


def test_apply_linearity(small_levels):
    _, table = small_levels[3]
    rng = np.random.RandomState(11)
    params = Parameters(1.4, 1.2, 0.3)
    v1 = rng.rand(table.n_states)
    v2 = rng.rand(table.n_states)
    c = 2.75
    lhs = apply_operator(table, params, v1 + c * v2)
    rhs = apply_operator(table, params, v1) + c * apply_operator(table, params, v2)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-300)


def test_power_iteration_examples(small_levels):
    _, table = small_levels[1]
    # alpha = 0: only monochromatic runs survive, each step halves weight
    est = power_iteration(table, Parameters(2, 1, 0.0))
    assert est.converged
    assert est.estimate == pytest.approx(0.5, abs=1e-10)
    # weight-1 monochromatic runs persist at p = q = 1
    est = power_iteration(table, Parameters(1, 1, 0.0))
    assert est.converged
    assert est.estimate == pytest.approx(1.0, abs=1e-10)


def test_certified_below_one_near_published_point(small_levels):
    _, table = small_levels[1]
    est = power_iteration(table, Parameters(1.464, 1, 0.124))
    assert est.converged
    assert est.certified_upper < 1.0


def test_certificate_exact_on_eigenvector():
    # two-state swap with kind-1 weight c: radius is exactly c
    table = make_table([[1, 0], [2, 2], [2, 2]], [0, 0])
    params = Parameters(2.5, 1.0, 0.3)
    c = 1 / 2.5
    assert certified_upper_bound(table, params, np.ones(2)) == pytest.approx(c, rel=1e-15)


def test_certificate_is_max_row_sum_on_ones(small_levels):
    _, table = small_levels[1]
    got = certified_upper_bound(table, Parameters(1, 1, 1.0), np.ones(7))
    assert got == pytest.approx(3.0, abs=1e-14)


def test_certificate_requires_positive_vector(small_levels):
    _, table = small_levels[1]
    v = np.ones(7)
    v[3] = 0.0
    with pytest.raises(ValueError):
        certified_upper_bound(table, Parameters(1, 1, 0.5), v)


def test_non_finite_vectors_are_rejected(small_levels):
    # one +inf entry would normalise to a NaN iterate, which never
    # converges, never decides and certifies nothing; a negative, an
    # all-zero or a wrongly shaped start is refused with the same texts
    _, table = small_levels[2]
    params = Parameters(1.44, 1.0, 0.12)
    n = table.n_states
    refused = "^v0 must be finite, nonnegative and not all zero$"
    for bad in (np.inf, np.nan):
        v = np.ones(n)
        v[5] = bad
        with pytest.raises(ValueError, match=refused):
            check_subcritical(table, params, v0=v)
        with pytest.raises(ValueError, match=refused):
            power_iteration(table, params, v0=v)
        with pytest.raises(ValueError):
            certified_upper_bound(table, params, v)
    negative = np.ones(n)
    negative[7] = -1e-300
    wrong_shape = rf"^v0 has shape \({n + 1},\), expected \({n},\)$"
    for v, message in ((negative, refused), (np.zeros(n), refused),
                       (np.ones(n + 1), wrong_shape)):
        for solve in (check_subcritical, power_iteration):
            with pytest.raises(ValueError, match=message):
                solve(table, params, v0=v)


@pytest.fixture(scope="module")
def tables_to_5(small_levels, fset5):
    """Transition tables for levels 1..5; level 5 (81,231 states) spans
    more than one default block."""
    tables = {n: small_levels[n][1] for n in (1, 2, 3)}
    for n in (4, 5):
        space = build_state_space(n, fset5.restrict(n - 1))
        tables[n] = build_transitions(space, fset5.restrict(n))
    return tables


@pytest.mark.parametrize("block", [spectral._BLOCK, 7])
def test_certificate_matches_full_length_reference(tables_to_5, block,
                                                   monkeypatch):
    # the blocked re-check against the whole-array operator, bit for bit
    monkeypatch.setattr(spectral, "_BLOCK", block)
    rng = np.random.default_rng(3)
    for table in tables_to_5.values():
        for q in (1.0, 1.1):
            params = Parameters(1.43, q, 0.13)
            v = 0.01 + rng.random(table.n_states)
            v[-3:] *= 1e-3  # puts the max ratio in the last, ragged block
            want = float((apply_operator(table, params, v) / v).max())
            assert certified_upper_bound(table, params, v) == want


def test_certificate_holds_no_full_length_temporary(tables_to_5, monkeypatch):
    # numpy reports its buffers to tracemalloc.  Past the padded copy of
    # v only block-sized buffers may be live; a block of 2**12 keeps them
    # small against N = 81,231, so one full-length float64 or int32
    # temporary would break the bound
    monkeypatch.setattr(spectral, "_BLOCK", 1 << 12)
    table = tables_to_5[5]
    n = table.n_states
    params = Parameters(1.42, 1.0, 0.13)
    v = 0.5 + np.random.default_rng(0).random(n)
    tracemalloc.start()
    try:
        certified_upper_bound(table, params, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * n


@pytest.mark.parametrize("bad,match", [(0.0, "strictly positive"),
                                       (np.nan, "strictly positive"),
                                       (np.inf, "finite")],
                         ids=["zero", "nan", "inf"])
def test_certificate_refuses_a_bad_entry_in_the_last_block(tables_to_5, bad,
                                                          match):
    # the checks reduce over all of v, so the last entry of the last of
    # three blocks is checked as the first is
    table = tables_to_5[5]
    assert table.n_states > 2 * spectral._BLOCK
    v = np.ones(table.n_states)
    v[-1] = bad
    with pytest.raises(ValueError, match=match):
        certified_upper_bound(table, Parameters(1.42, 1.0, 0.13), v)


@pytest.mark.parametrize("out_entries", ["all", "block"])
def test_sweep_keeps_a_nan_from_any_block(small_levels, monkeypatch,
                                          out_entries):
    # a NaN ratio in the second of twelve blocks: max() and min() over
    # the blocks' floats would drop it; a whole-array reduction keeps it
    monkeypatch.setattr(spectral, "_BLOCK", 64)
    _, table = small_levels[3]
    n = table.n_states
    vp = np.ones(n + 1)
    vp[n] = 0.0
    # a state in block 1 with a move out, so a sum turns NaN too
    moves = (table.succ[:, 64:128] < n).any(axis=0)
    t = 64 + int(np.nonzero(moves)[0][0])
    vp[t] = np.nan
    w = np.array([0.7, 0.1, 0.7])
    out = np.empty(n if out_entries == "all" else 64)
    blocks = spectral._blocks(vp, table, w, n, out, np.empty(64))
    upper, lower, top = spectral._sweep(vp, blocks)
    assert np.isnan(upper) and np.isnan(lower) and np.isnan(top)


def test_certificate_dominates_estimate(small_levels):
    _, table = small_levels[2]
    rng = np.random.RandomState(5)
    for _ in range(10):
        params = Parameters(1 + rng.rand(), 1 + rng.rand(), rng.rand())
        est = power_iteration(table, params)
        assert est.certified_upper >= est.estimate - 1e-9
        v = np.maximum(est.vector, 1e-12)
        assert certified_upper_bound(table, params, v) >= est.estimate - 1e-9


def test_scale_invariance(small_levels):
    _, table = small_levels[2]
    params = Parameters(1.44, 1.0, 0.12)
    v0 = 1.0 + np.linspace(0, 1, table.n_states)
    a = power_iteration(table, params, v0=v0)
    b = power_iteration(table, params, v0=731.0 * v0)
    assert abs(a.estimate - b.estimate) <= 1e-14 * a.estimate
    assert abs(a.certified_upper - b.certified_upper) <= 1e-14 * a.certified_upper


def test_monotone_in_alpha(small_levels):
    for n in (1, 2, 3):
        _, table = small_levels[n]
        ladder = np.linspace(0.01, 0.5, 10)
        uppers = [power_iteration(table, Parameters(1.43, 1.0, a)).certified_upper
                  for a in ladder]
        for lo, hi in zip(uppers, uppers[1:]):
            assert lo <= hi + 1e-10


def certifies(table, params):
    return check_subcritical(table, params).certified_subcritical


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_tolerance_must_be_positive_and_finite(small_levels, tol):
    # a NaN tolerance would never stop the iteration before max_iter
    _, table = small_levels[1]
    params = Parameters(1.464, 1.0, 0.1)
    with pytest.raises(ValueError, match="tol"):
        power_iteration(table, params, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        check_subcritical(table, params, tol=tol)


def test_subcritical_examples(small_levels):
    _, table = small_levels[2]
    assert certifies(table, Parameters(1.44, 1.0, 0.13))
    assert not certifies(table, Parameters(1.44, 1.0, 0.14))
    # total path weight never decays at p = q = 1, alpha = 1
    assert not certifies(table, Parameters(1, 1, 1.0))


def test_subcritical_at_alpha_zero(small_levels):
    # reducible case (kind 2 weighs 0): the ratio bound of the returned
    # vector certifies on its own, across the search's p range and off q = 1
    for n in (1, 2, 3):
        _, table = small_levels[n]
        for p in (1.30, 1.45, 1.60):
            for q in (1.0, 1.1):
                params = Parameters(p, q, 0.0)
                est = check_subcritical(table, params)
                assert est.certified_subcritical and est.certified_upper < 1.0
                assert est.certified_upper == certified_upper_bound(
                    table, params, est.vector)
    _, table = small_levels[1]
    assert certifies(table, Parameters(1.464, 1.0, 0.0))
    assert not certifies(table, Parameters(1, 1, 0.0))


def test_nonconvergence_reports_not_raises(small_levels):
    _, table = small_levels[2]
    est = power_iteration(table, Parameters(1.44, 1.0, 0.13), max_iter=3)
    assert not est.converged
    assert not est.certified_subcritical


def test_sandwich_tight_at_reproduction_points(small_levels):
    # near the published operating points the certificate hugs the estimate
    for n, p in ((1, 1.464), (2, 1.44), (3, 1.43)):
        _, table = small_levels[n]
        for alpha in (0.12, 0.13):
            est = power_iteration(table, Parameters(p, 1.0, alpha))
            assert est.converged
            assert 0.0 <= est.certified_upper - est.estimate < 1e-6


def test_max_ratio_below_one_certifies_without_convergence(small_levels):
    _, table = small_levels[2]
    params = Parameters(1.44, 1.0, 0.12)
    near = power_iteration(table, params).vector
    # one step from a near-eigenvector, with a tolerance no sandwich meets
    est = power_iteration(table, params, tol=1e-300, max_iter=1, v0=near)
    assert not est.converged
    assert est.certified_upper < 1.0 and est.certified_subcritical
    est = check_subcritical(table, params, tol=1e-300, v0=near)
    assert est.certified_subcritical
    assert not est.converged and est.iterations == 1
    assert est.certified_upper == pytest.approx(
        certified_upper_bound(table, params, near), rel=1e-14)
    assert SpectralEstimate(0.9, 0.95, 3, converged=False).certified_subcritical


def test_min_ratio_above_one_stops_not_certified(small_levels):
    _, table = small_levels[2]
    params = Parameters(1.44, 1.0, 0.3)  # far above the level-2 bound 0.131
    full = power_iteration(table, params)
    assert full.converged and full.estimate > 1.0
    est = check_subcritical(table, params)
    assert not est.certified_subcritical and est.certified_upper > 1.0
    assert not est.converged and est.iterations < full.iterations
    # the returned iterate already proves the radius above one
    v = est.vector
    assert (apply_operator(table, params, v) / v).min() > 1.0


def test_direct_power_iteration_runs_its_full_length(small_levels):
    # subcritical, so a decided solve would stop early; a direct call
    # with an unreachable tolerance must not
    _, table = small_levels[3]
    params = Parameters(1.43, 1.0, 0.132)
    est = power_iteration(table, params, tol=1e-300, max_iter=50)
    assert est.iterations == 50 and not est.converged
    decided = check_subcritical(table, params, tol=1e-300, max_iter=50)
    assert decided.certified_subcritical and decided.iterations < 50


@pytest.mark.parametrize("case", ["certified", "supercritical", "direct"])
def test_returned_vector_rederives_certificate(small_levels, case):
    # the certificate is the max ratio of the vector that comes with it
    if case == "certified":
        _, table = small_levels[2]
        params = Parameters(1.44, 1.0, 0.12)
        est = check_subcritical(table, params)
        assert est.certified_subcritical and not est.converged
    elif case == "supercritical":
        _, table = small_levels[2]
        params = Parameters(1.44, 1.0, 0.3)
        est = check_subcritical(table, params)
        assert not est.certified_subcritical and not est.converged
    else:
        # stopped by max_iter, as in a fixed-length run
        _, table = small_levels[3]
        params = Parameters(1.43, 1.0, 0.132)
        est = power_iteration(table, params, tol=1e-300, max_iter=50)
        assert est.iterations == 50
    assert certified_upper_bound(table, params, est.vector) == est.certified_upper


def _full_length_reference(table, params, v0, steps):
    """`steps` full-length power steps from v0: apply the operator, take
    the ratios, then normalise and floor.  Returns the last iterate with
    its norm and max ratio."""
    v = np.maximum(v0 / v0.max(), spectral._POSITIVITY_FLOOR)
    for step in range(1, steps + 1):
        out = apply_operator(table, params, v)
        upper = float((out / v).max())
        nrm = float(out.max())
        if step == steps:
            return v, nrm, upper
        v = np.maximum(out / nrm, spectral._POSITIVITY_FLOOR)


@pytest.mark.parametrize("k", [1, 7, 50])
def test_iteration_matches_full_length_reference(small_levels, fset5, k,
                                                 monkeypatch):
    # at q = 1 on a mirrored table from a symmetric start only half of
    # each iterate is computed; every other case runs at full length;
    # both must give the full-length result bit for bit, in one block
    # or in many (blocks of 7 and 64 leave ragged last blocks, and one of
    # them spans the middle state)
    at_q1 = Parameters(1.43, 1.0, 0.13)
    cases = []
    for n in (1, 2, 3, 4):
        if n in small_levels:
            table = small_levels[n][1]
        else:
            space = build_state_space(n, fset5.restrict(n - 1))
            table = build_transitions(space, fset5.restrict(n))
        cases.append((table, at_q1, np.ones(table.n_states)))
    table3 = small_levels[3][1]
    ramp = 1.0 + np.linspace(0.0, 1.0, table3.n_states)
    # warm starts: a previous solve's vector (max exactly 1.0, nothing
    # below the floor), the same with a mirrored pair of entries below
    # the floor, and the same scaled so that its max is not 1
    warm = power_iteration(table3, at_q1, tol=1e-300, max_iter=7).vector
    assert warm.max() == 1.0 and warm.min() >= spectral._POSITIVITY_FLOOR
    faint = warm.copy()
    faint[[3, -4]] = 1e-15
    cases += [(table3, Parameters(1.43, 1.1, 0.13), np.ones(table3.n_states)),
              (table3, at_q1, ramp),
              (unmirrored(table3), at_q1, np.ones(table3.n_states)),
              (table3, at_q1, warm), (table3, at_q1, faint),
              (table3, at_q1, 3.0 * warm)]
    for block in (spectral._BLOCK, 7, 64):
        monkeypatch.setattr(spectral, "_BLOCK", block)
        for table, params, v0 in cases:
            before = v0.copy()
            est = power_iteration(table, params, tol=1e-300, max_iter=k,
                                  v0=v0)
            assert est.iterations == k
            v, estimate, upper = _full_length_reference(table, params, v0, k)
            assert np.array_equal(est.vector, v)
            assert est.estimate == estimate
            assert est.certified_upper == upper
            # the solve copies its start: the caller's v0 is never written
            assert np.array_equal(v0, before)
            assert not np.shares_memory(est.vector, v0)
