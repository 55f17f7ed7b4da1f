import tracemalloc

import numpy as np
import pytest
from conftest import fresh, history, make_table, minimal_table, unmirrored

from stavskaya import spectral
from stavskaya.patterns import Parameters
from stavskaya.spectral import (SpectralEstimate, apply_operator,
                                certified_upper_bound, check_subcritical,
                                power_iteration)


def test_apply_counts_predecessors():
    _, table = history(1)
    out = apply_operator(table, Parameters(1, 1, 0.0), np.ones(7))
    # alpha = 0 kills the kind-2 term; survivors count kind-1/3 predecessors
    pred_count = (table.pred < table.n_states).sum(axis=0)
    want = np.where(np.isin(table.last_digit, (0, 2)), pred_count, 0.0)
    assert np.allclose(out, want, atol=1e-15)


def test_apply_total_is_edge_count():
    _, table = history(1)
    out = apply_operator(table, Parameters(1, 1, 1.0), np.ones(7))
    assert out.sum() == pytest.approx(15.0, abs=1e-12)


def test_apply_zero_vector():
    _, table = history(2)
    assert not apply_operator(table, Parameters(1.3, 1.1, 0.4),
                              np.zeros(table.n_states)).any()


def test_apply_dimension_mismatch():
    _, table = history(1)
    with pytest.raises(ValueError):
        apply_operator(table, Parameters(1, 1, 0.5), np.ones(8))


def test_apply_linearity():
    _, table = history(3)
    rng = np.random.RandomState(11)
    params = Parameters(1.4, 1.2, 0.3)
    v1 = rng.rand(table.n_states)
    v2 = rng.rand(table.n_states)
    c = 2.75
    lhs = apply_operator(table, params, v1 + c * v2)
    rhs = apply_operator(table, params, v1) + c * apply_operator(table, params, v2)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-300)


def test_power_iteration_examples():
    _, table = history(1)
    # alpha = 0: only monochromatic runs survive, each step halves weight
    est = power_iteration(table, Parameters(2, 1, 0.0))
    assert est.converged
    assert est.estimate == pytest.approx(0.5, abs=1e-10)
    # weight-1 monochromatic runs persist at p = q = 1
    est = power_iteration(table, Parameters(1, 1, 0.0))
    assert est.converged
    assert est.estimate == pytest.approx(1.0, abs=1e-10)


def test_certified_below_one_near_published_point():
    _, table = history(1)
    est = power_iteration(table, Parameters(1.464, 1, 0.124))
    assert est.converged
    assert est.certified_upper < 1.0


def test_certificate_exact_on_eigenvector():
    # two-state swap with kind-1 weight c: radius is exactly c
    table = make_table([[1, 0], [2, 2], [2, 2]], [0, 0])
    params = Parameters(2.5, 1.0, 0.3)
    c = 1 / 2.5
    assert certified_upper_bound(table, params, np.ones(2)) == pytest.approx(c, rel=1e-15)


def test_certificate_is_max_row_sum_on_ones():
    _, table = history(1)
    got = certified_upper_bound(table, Parameters(1, 1, 1.0), np.ones(7))
    assert got == pytest.approx(3.0, abs=1e-14)


def test_certificate_requires_positive_vector():
    _, table = history(1)
    v = np.ones(7)
    v[3] = 0.0
    with pytest.raises(ValueError):
        certified_upper_bound(table, Parameters(1, 1, 0.5), v)


def test_non_finite_vectors_are_rejected():
    # one +inf entry would normalise to a NaN iterate, which never
    # converges, never decides and certifies nothing; a negative, an
    # all-zero or a wrongly shaped start is refused with the same texts
    _, table = history(2)
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


def test_a_start_is_passed_by_keyword_only():
    # a positional fifth (fourth) argument would have to be read as v0
    # by anything that wraps the solvers, in a slot whose meaning
    # differs between them
    _, table = history(2)
    params = Parameters(1.44, 1.0, 0.12)
    v = np.ones(table.n_states)
    with pytest.raises(TypeError):
        power_iteration(table, params, spectral.DEFAULT_TOL, 10, v)
    with pytest.raises(TypeError):
        check_subcritical(table, params, 10, v)


@pytest.mark.parametrize("block", [spectral._BLOCK, 7, 64])
def test_certificate_matches_full_length_reference(block, monkeypatch):
    # the blocked re-check against the whole-array operator, bit for bit
    monkeypatch.setattr(spectral, "_BLOCK", block)
    rng = np.random.default_rng(3)
    # level 5 (81,231 states) spans more than one default block
    for table in (history(n)[1] for n in range(1, 6)):
        for q in (1.0, 1.1):
            params = Parameters(1.43, q, 0.13)
            v = 0.01 + rng.random(table.n_states)
            v[-3:] *= 1e-3  # puts the max ratio in the last, ragged block
            want = float((apply_operator(table, params, v) / v).max())
            assert certified_upper_bound(table, params, v) == want


def test_certificate_holds_no_full_length_temporary(monkeypatch):
    # numpy reports its buffers to tracemalloc.  Past the padded copy of
    # v only block-sized buffers may be live; a block of 2**12 keeps them
    # small against N = 81,231, so one full-length float64 or int32
    # temporary would break the bound
    monkeypatch.setattr(spectral, "_BLOCK", 1 << 12)
    table = history(5)[1]
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


def test_half_state_solve_and_its_certificate_stay_small(monkeypatch):
    # the half-state loop holds m + 1 entries of v, m of output and m of
    # weights, with m = ceil(N/2); on exit, once those are freed, the
    # full N + 1 vector is written beside the half.  Either way about
    # 1.5 full-length float64 arrays, where a full-length iterate would
    # add half of one.  Certifying the returned vector sweeps its own
    # buffer, so past it only block-sized buffers may be made
    monkeypatch.setattr(spectral, "_BLOCK", 1 << 12)
    table = history(5)[1]
    n = table.n_states
    assert table.mirrored
    params = Parameters(1.42, 1.0, 0.13)
    tracemalloc.start()
    try:
        est = power_iteration(table, params, tol=1e-300, max_iter=20)
        solve_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        cert = certified_upper_bound(table, params, est.vector)
        cert_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert est.iterations == 20 and cert == est.certified_upper
    assert solve_peak < 1.8 * 8 * n
    assert cert_peak < 0.5 * 8 * n


def test_certificate_sweeps_in_place_only_a_padded_head(monkeypatch):
    # v is swept in its own buffer only when it is the first N entries of
    # a longer contiguous float64 buffer with +0.0 at N; every other v is
    # copied into a padded buffer and gives apply_operator's max ratio
    _, table = history(3)
    n = table.n_states
    params = Parameters(1.43, 1.0, 0.13)
    swept = []
    sweep = spectral._sweep

    def spy(vp, blocks):
        swept.append(vp)
        return sweep(vp, blocks)

    monkeypatch.setattr(spectral, "_sweep", spy)
    v = 0.5 + np.random.default_rng(4).random(n)
    want = float((apply_operator(table, params, v) / v).max())

    def padded(size, offset=0, stride=1, end=0.0, dtype=np.float64):
        # zeros past v; `end` at N only where N is past the view
        buf = np.zeros(size, dtype=dtype)
        head = buf[offset:offset + stride * n:stride]
        head[:] = v
        if offset == 0 and stride == 1:
            buf[n] = end
        return buf, head

    assert n % 2 == 1  # so entry N of the strided buffer is a gap, 0.0
    # float64 entries over int64 storage, whose entry N reads as 0
    words = np.zeros(n + 1, dtype=np.int64)
    words.view(np.float64)[:n] = v
    copied = {
        # 0.5 at N would be read as a move's weight by an in-place sweep
        "nonzero end": padded(n + 1, end=0.5),
        "negative zero end": padded(n + 1, end=-0.0),
        "offset": padded(n + 2, offset=1),
        # entry N of the buffer, before the view, is 0.0
        "far offset": padded(2 * n + 2, offset=n + 1),
        "strided": padded(2 * n + 1, stride=2),
        "float32": padded(n + 1, dtype=np.float32),
        "int64 base": (words, words.view(np.float64)[:n]),
        "plain": (None, v.copy()),
    }
    for name, (buf, head) in copied.items():
        got = certified_upper_bound(table, params, head)
        exact = np.asarray(head, dtype=np.float64)
        assert got == float((apply_operator(table, params, exact)
                             / exact).max()), name
        if name != "float32":
            assert got == want, name
        assert buf is None or not np.shares_memory(swept[-1], buf), name
        assert swept[-1].shape == (n + 1,) and swept[-1][n] == 0.0, name
    for size in (n + 1, n + 4):
        buf, head = padded(size)
        assert certified_upper_bound(table, params, head) == want
        assert swept[-1] is buf
    # a solve's vector, half-state or not, is swept in its own buffer and
    # left as it was, its padding entry included
    for q in (1.0, 1.1):
        est = power_iteration(table, Parameters(1.43, q, 0.13),
                              tol=1e-300, max_iter=7)
        base = est.vector.base
        before = base.copy()
        assert base.shape == (n + 1,) and est.vector.ctypes.data == base.ctypes.data
        cert = certified_upper_bound(table, Parameters(1.43, q, 0.13),
                                     est.vector)
        assert swept[-1] is base and cert == est.certified_upper
        assert base.tobytes() == before.tobytes()


@pytest.mark.parametrize("bad,match",[(0.0, "strictly positive"),
                                       (np.nan, "strictly positive"),
                                       (np.inf, "finite")],
                         ids=["zero", "nan", "inf"])
def test_certificate_refuses_a_bad_entry_in_the_last_block(bad, match):
    # the checks reduce over all of v, so the last entry of the last of
    # three blocks is checked as the first is
    table = history(5)[1]
    assert table.n_states > 2 * spectral._BLOCK
    v = np.ones(table.n_states)
    v[-1] = bad
    with pytest.raises(ValueError, match=match):
        certified_upper_bound(table, Parameters(1.42, 1.0, 0.13), v)


@pytest.mark.parametrize("out_entries", ["all", "block", "stacked"])
def test_sweep_keeps_a_nan_from_any_block(monkeypatch, out_entries):
    # a NaN ratio in the second of twelve blocks: max() and min() over
    # the blocks' floats would drop it; a whole-array reduction keeps it.
    # At the default block the table is one block, gathered stacked
    block = None if out_entries == "stacked" else 64
    if block is not None:
        monkeypatch.setattr(spectral, "_BLOCK", block)
    _, table = history(3)
    n = table.n_states
    vp = np.ones(n + 1)
    vp[n] = 0.0
    # a state in block 1 with a move out, so a sum turns NaN too
    moves = (table.succ[:, 64:128] < n).any(axis=0)
    t = 64 + int(np.nonzero(moves)[0][0])
    vp[t] = np.nan
    w = np.array([0.7, 0.1, 0.7])
    out = np.empty(64 if out_entries == "block" else n)
    blocks = list(spectral._blocks(vp, table, w, n, out))
    assert len(blocks) == (1 if block is None else 12)
    upper, lower, top = spectral._sweep(vp, blocks)
    assert np.isnan(upper) and np.isnan(lower) and np.isnan(top)


def test_certificate_dominates_estimate():
    _, table = history(2)
    rng = np.random.RandomState(5)
    for _ in range(10):
        params = Parameters(1 + rng.rand(), 1 + rng.rand(), rng.rand())
        est = power_iteration(table, params)
        assert est.certified_upper >= est.estimate - 1e-9
        v = np.maximum(est.vector, 1e-12)
        assert certified_upper_bound(table, params, v) >= est.estimate - 1e-9


def test_scale_invariance():
    _, table = history(2)
    params = Parameters(1.44, 1.0, 0.12)
    v0 = 1.0 + np.linspace(0, 1, table.n_states)
    a = power_iteration(table, params, v0=v0)
    b = power_iteration(table, params, v0=731.0 * v0)
    assert abs(a.estimate - b.estimate) <= 1e-14 * a.estimate
    assert abs(a.certified_upper - b.certified_upper) <= 1e-14 * a.certified_upper


def certifies(table, params):
    return check_subcritical(table, params).certified_subcritical


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_tolerance_must_be_positive_and_finite(tol):
    # a NaN tolerance would never stop the iteration before max_iter;
    # `check_subcritical` takes none and decides at DEFAULT_TOL
    _, table = history(1)
    params = Parameters(1.464, 1.0, 0.1)
    with pytest.raises(ValueError, match="tol"):
        power_iteration(table, params, tol=tol)
    with pytest.raises(TypeError, match="tol"):
        check_subcritical(table, params, tol=tol)


def test_subcritical_examples():
    _, table = history(2)
    assert certifies(table, Parameters(1.44, 1.0, 0.13))
    assert not certifies(table, Parameters(1.44, 1.0, 0.14))
    # total path weight never decays at p = q = 1, alpha = 1
    assert not certifies(table, Parameters(1, 1, 1.0))


def test_subcritical_at_alpha_zero():
    # reducible case (kind 2 weighs 0): the ratio bound of the returned
    # vector certifies on its own, across the search's p range and off q = 1
    for n in (1, 2, 3):
        _, table = history(n)
        for p in (1.30, 1.45, 1.60):
            for q in (1.0, 1.1):
                params = Parameters(p, q, 0.0)
                est = check_subcritical(table, params)
                assert est.certified_subcritical and est.certified_upper < 1.0
                assert est.certified_upper == certified_upper_bound(
                    table, params, est.vector)
    _, table = history(1)
    assert certifies(table, Parameters(1.464, 1.0, 0.0))
    assert not certifies(table, Parameters(1, 1, 0.0))


def test_nonconvergence_reports_not_raises():
    _, table = history(2)
    est = power_iteration(table, Parameters(1.44, 1.0, 0.13), max_iter=3)
    assert not est.converged
    assert not est.certified_subcritical


def test_sandwich_tight_at_reproduction_points():
    # near the published operating points the certificate hugs the estimate
    for n, p in ((1, 1.464), (2, 1.44), (3, 1.43)):
        _, table = history(n)
        for alpha in (0.12, 0.13):
            est = power_iteration(table, Parameters(p, 1.0, alpha))
            assert est.converged
            assert 0.0 <= est.certified_upper - est.estimate < 1e-6


def test_max_ratio_below_one_certifies_without_convergence():
    _, table = history(2)
    params = Parameters(1.44, 1.0, 0.12)
    # 20 steps in, the ratio sandwich is still about 2e-6 wide, far
    # from DEFAULT_TOL, but its max ratio is already below one
    near = power_iteration(table, params, tol=1e-300, max_iter=20).vector
    # one step from it, with a tolerance no sandwich meets
    est = power_iteration(table, params, tol=1e-300, max_iter=1, v0=near)
    assert not est.converged
    assert est.certified_upper < 1.0 and est.certified_subcritical
    est = check_subcritical(table, params, v0=near)
    assert est.certified_subcritical
    assert not est.converged and est.iterations == 1
    assert est.certified_upper == pytest.approx(
        certified_upper_bound(table, params, near), rel=1e-14)
    assert SpectralEstimate(0.9, 0.95, 3, converged=False).certified_subcritical


def test_min_ratio_above_one_stops_not_certified():
    _, table = history(2)
    params = Parameters(1.44, 1.0, 0.3)  # far above the level-2 bound 0.131
    full = power_iteration(table, params)
    assert full.converged and full.estimate > 1.0
    est = check_subcritical(table, params)
    assert not est.certified_subcritical and est.certified_upper > 1.0
    assert not est.converged and est.iterations < full.iterations
    # the returned iterate already proves the radius above one
    v = est.vector
    assert (apply_operator(table, params, v) / v).min() > 1.0


def test_direct_power_iteration_runs_its_full_length():
    # subcritical, so a decided solve would stop early; a direct call
    # with an unreachable tolerance must not
    _, table = history(3)
    params = Parameters(1.43, 1.0, 0.132)
    est = power_iteration(table, params, tol=1e-300, max_iter=50)
    assert est.iterations == 50 and not est.converged
    decided = check_subcritical(table, params, max_iter=50)
    assert decided.certified_subcritical and decided.iterations < 50


def test_check_subcritical_decides_at_the_default_tolerance():
    # rho - 1 is about -8.4e-14 here (the `search` docstring's level-4
    # point): the ratio bounds close to DEFAULT_TOL while the max ratio
    # is still above one, so the solve stops not certified; run on to a
    # tolerance no sandwich meets, the same start certifies
    table = minimal_table(4)[0]
    params = Parameters(1.424215772312642, 1.0, 0.13502853823592886)
    est = check_subcritical(table, params)
    assert est.converged and not est.certified_subcritical
    assert (est.certified_upper - est.estimate
            <= spectral.DEFAULT_TOL * est.certified_upper)
    finer = power_iteration(table, params, tol=1e-300, max_iter=1000)
    assert finer.certified_subcritical
    assert finer.iterations > est.iterations


@pytest.mark.parametrize("case", ["certified", "supercritical", "direct"])
def test_returned_vector_rederives_certificate(case):
    # the certificate is the max ratio of the vector that comes with it
    if case == "certified":
        _, table = history(2)
        params = Parameters(1.44, 1.0, 0.12)
        est = check_subcritical(table, params)
        assert est.certified_subcritical and not est.converged
    elif case == "supercritical":
        _, table = history(2)
        params = Parameters(1.44, 1.0, 0.3)
        est = check_subcritical(table, params)
        assert not est.certified_subcritical and not est.converged
    else:
        # stopped by max_iter, as in a fixed-length run
        _, table = history(3)
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
def test_iteration_matches_full_length_reference(k, monkeypatch):
    # at q = 1 on a mirrored table from a cold start only half of each
    # iterate is computed; every other case, warm starts included, runs
    # at full length; both must give the full-length result bit for
    # bit, in one block or in many (blocks of 7 and 64 leave ragged last
    # blocks, and one of them spans the middle state)
    at_q1 = Parameters(1.43, 1.0, 0.13)
    cases = []
    for n in (1, 2, 3, 4):
        table = history(n)[1]
        cases.append((table, at_q1, np.ones(table.n_states)))
    table3 = history(3)[1]
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


def test_warm_start_runs_at_full_length():
    # a mirrored table at q = 1: a cold start sweeps half of the states,
    # a warm start from its vector, itself equal to its reverse, sweeps
    # all of them
    table = fresh(history(3)[1])
    size = table.n_states
    params = Parameters(1.43, 1.0, 0.12)
    cold = check_subcritical(table, params)
    assert table.mirrored and np.array_equal(cold.vector, cold.vector[::-1])
    assert set(table.plans) == {(spectral._BLOCK, (size + 1) // 2)}
    warm = check_subcritical(table, params, v0=cold.vector)
    assert set(table.plans) == {(spectral._BLOCK, (size + 1) // 2),
                                (spectral._BLOCK, size)}
    assert warm.certified_upper == certified_upper_bound(table, params,
                                                         warm.vector)


def _plan_rows(plan):
    """Each block's (lo, hi, rows) of a plan in either form: the one
    stacked block as (0, m, its rows), which must be intp, with intp
    last digits; row views as stored."""
    if isinstance(plan, tuple):
        rows, digits = plan
        assert rows.dtype == digits.dtype == np.intp
        assert rows.ndim == 2 and rows.shape[1] == digits.shape[0]
        return [(0, rows.shape[1], list(rows))]
    return plan


@pytest.mark.parametrize("level", [3, 4])
def test_plan_gathers_exactly_the_rows_with_moves(level, monkeypatch):
    # the one stacked block the default block gives these tables, and
    # blocks of 64 targets: each block gathers its slot rows that hold a
    # real move, in the order 0, 2, 1, and drops only all-sentinel rows;
    # in half mode every gathered index is below m or the sentinel
    table = fresh(history(level)[1])
    n = table.n_states
    for block in (None, 64):
        if block is not None:
            monkeypatch.setattr(spectral, "_BLOCK", block)
        dropped = remapped = 0
        for m in (n, (n + 1) // 2):
            plan = spectral._plan(table, m)
            assert isinstance(plan, tuple) == (block is None)
            if block is None:
                assert np.array_equal(plan[1], table.last_digit[:m])
            size = block or m
            blocks = _plan_rows(plan)
            assert [(lo, hi) for lo, hi, _ in blocks] == [
                (lo, min(lo + size, m)) for lo in range(0, m, size)]
            for lo, hi, gathered in blocks:
                live = [table.pred[s, lo:hi] for s in (0, 2, 1)
                        if table.pred[s, lo:hi].min() < n]
                dropped += 3 - len(live)
                assert len(gathered) == len(live)
                for row, g in zip(gathered, live):
                    assert row.min() < n
                    if m < n:
                        assert ((row < m) | (row == n)).all()
                        far = (g >= m) & (g < n)
                        remapped += int(far.any())
                        g = np.where(far, n - 1 - g, g)
                    assert np.array_equal(row, g)
        assert remapped and (dropped or block is None)


def test_plan_is_not_reused_at_another_block(monkeypatch):
    # the same table swept at two block sizes, one after the other, and
    # each sweep compared with the whole-array operator bit for bit
    table = fresh(history(4)[1])
    at_q1 = Parameters(1.43, 1.0, 0.13)
    v = 0.01 + np.random.default_rng(5).random(table.n_states)
    want = float((apply_operator(table, at_q1, v) / v).max())
    for block in (64, 7, 64):
        monkeypatch.setattr(spectral, "_BLOCK", block)
        assert certified_upper_bound(table, at_q1, v) == want
        est = power_iteration(table, at_q1, tol=1e-300, max_iter=5)
        ones = np.ones(table.n_states)
        ref, estimate, upper = _full_length_reference(table, at_q1, ones, 5)
        assert np.array_equal(est.vector, ref)
        assert (est.estimate, est.certified_upper) == (estimate, upper)


def test_plan_reads_a_mixed_row_through_the_mirror(monkeypatch):
    # a mirrored toy whose slot-1 row over targets 0..m-1 has sources on
    # both sides of m = 3: only the one past m is read through its mirror,
    # in the stacked block as in blocks of two
    table = make_table([[5, 5, 2, 5, 5], [4, 1, 5, 3, 0], [5, 5, 2, 5, 5]],
                       [0, 1, 1, 1, 2])
    assert table.mirrored
    # slots 0, 2, 1 over targets 0..2, each block keeping the rows with
    # a move
    want = np.array([[5, 5, 2], [5, 5, 2], [0, 1, 5]])
    params = Parameters(1.43, 1.0, 0.13)
    ref, estimate, upper = _full_length_reference(table, params, np.ones(5), 5)
    for block in (None, 2):
        if block is not None:
            monkeypatch.setattr(spectral, "_BLOCK", block)
        blocks = _plan_rows(spectral._plan(table, 3))
        assert len(blocks) == (1 if block is None else 2)
        for lo, hi, rows in blocks:
            assert [row.tolist() for row in rows] == [
                row[lo:hi].tolist() for row in want if row[lo:hi].min() < 5]
        est = power_iteration(table, params, tol=1e-300, max_iter=5)
        assert np.array_equal(est.vector, ref)
        assert (est.estimate, est.certified_upper) == (estimate, upper)


# eight toy states in blocks of two: targets 2, 3 and 7 have no
# predecessor, so block 1 has no move at all; block 3 has slot 1 only
TOY_PRED = [[1, 4, 8, 8, 0, 8, 8, 8],
            [8, 0, 8, 8, 5, 1, 7, 8],
            [5, 8, 8, 8, 8, 4, 8, 8]]
TOY_DIGITS = [0, 1, 0, 2, 1, 2, 1, 0]


def _check_toy_against_the_reference(table):
    """The toy's certificate, sweep and iterates, against the
    whole-array operator bit for bit at the current block size."""
    params = Parameters(1.43, 1.1, 0.13)
    v = 0.5 + np.random.default_rng(2).random(8)
    ratios = apply_operator(table, params, v) / v
    assert certified_upper_bound(table, params, v) == float(ratios.max())
    # the targets without a move give 0, and a NaN at target 2, which
    # has none (in blocks of two, nor has its block), makes both ratio
    # bounds NaN, as over the whole array
    w = np.asarray(params.step_weights())
    for bad in (None, 2):
        vp = np.append(v, 0.0)
        if bad is not None:
            vp[bad] = np.nan
        out = np.empty(8)
        upper, lower, top = spectral._sweep(
            vp, spectral._blocks(vp, table, w, 8, out))
        ref = apply_operator(table, params, vp[:8])
        assert np.array_equal(out, ref)
        assert out[[2, 3, 7]].tolist() == [0.0, 0.0, 0.0]
        whole = ref / vp[:8]
        assert np.array_equal([upper, lower, top],
                              [whole.max(), whole.min(), ref.max()],
                              equal_nan=True)
        assert (lower == 0.0) if bad is None else np.isnan(upper)
    for k in (1, 4, 30):
        est = power_iteration(table, params, tol=1e-300, max_iter=k)
        ref, estimate, upper = _full_length_reference(table, params,
                                                      np.ones(8), k)
        assert np.array_equal(est.vector, ref)
        assert (est.estimate, est.certified_upper) == (estimate, upper)
    est = check_subcritical(table, params)
    ref, estimate, upper = _full_length_reference(table, params, np.ones(8),
                                                  est.iterations)
    assert np.array_equal(est.vector, ref)
    assert (est.estimate, est.certified_upper) == (estimate, upper)


def test_blocks_without_moves_match_the_reference(monkeypatch):
    # as one stacked block of all three rows, then in blocks of two
    table = make_table(TOY_PRED, TOY_DIGITS)
    assert spectral._plan(table, 8)[0].shape == (3, 8)
    _check_toy_against_the_reference(table)
    monkeypatch.setattr(spectral, "_BLOCK", 2)
    plan = spectral._plan(table, 8)
    assert plan[1][2] == ()
    assert len(plan[3][2]) == 1 and plan[3][2][0].min() < 8
    _check_toy_against_the_reference(table)


@pytest.mark.parametrize("block", [2, None], ids=["blocks", "one-block"])
def test_a_table_without_moves_sweeps_to_zero(block, monkeypatch):
    # no row to gather: the stacked block has none, and so has every
    # block of two; both sweep to 0, as the whole-array operator does
    if block is not None:
        monkeypatch.setattr(spectral, "_BLOCK", block)
    table = make_table([[3, 3, 3]] * 3, [0, 1, 2])
    assert table.mirrored
    for m in (3, 2):
        rows = [row for _, _, block_rows in _plan_rows(spectral._plan(table, m))
                for row in block_rows]
        assert rows == []
    for q in (1.0, 1.1):
        params = Parameters(1.43, q, 0.13)
        assert certified_upper_bound(table, params, np.ones(3)) == 0.0
        est = power_iteration(table, params)
        ref, estimate, upper = _full_length_reference(table, params,
                                                      np.ones(3), 1)
        assert est.iterations == 1 and estimate == upper == 0.0
        assert np.array_equal(est.vector, ref)
        assert (est.estimate, est.certified_upper) == (estimate, upper)


@pytest.mark.parametrize("case", ["sandwich", "stable", "decided",
                                  "max_iter", "norm 0"])
def test_half_state_vector_is_mirrored_at_every_exit(case, monkeypatch):
    # the half-state loop leaves the targets past the middle unwritten
    # and writes them on exit, whichever exit it takes
    _, table = history(2)
    if case == "sandwich":
        monkeypatch.setattr(spectral, "_STABLE_ITERS", 10**9)
        params = Parameters(1.44, 1.0, 0.12)
        est = power_iteration(table, params)
        assert est.converged
    elif case == "stable":
        # alpha = 0 keeps the min ratio at 0, so the sandwich never closes
        params = Parameters(1.44, 1.0, 0.0)
        est = power_iteration(table, params)
        assert est.converged and est.iterations >= spectral._STABLE_ITERS
    elif case == "decided":
        params = Parameters(1.44, 1.0, 0.12)
        est = check_subcritical(table, params)
        assert est.certified_subcritical and not est.converged
    elif case == "max_iter":
        params = Parameters(1.44, 1.0, 0.12)
        est = power_iteration(table, params, tol=1e-300, max_iter=7)
        assert est.iterations == 7
    else:
        # only the middle state has moves, and it is of kind 2
        table = make_table([[3, 0, 3], [3, 1, 3], [3, 2, 3]], [0, 1, 2])
        params = Parameters(1.44, 1.0, 0.0)
        est = power_iteration(table, params)
        assert est.estimate == 0.0 and est.iterations == 1
    assert table.mirrored
    v = est.vector
    assert np.array_equal(v, v[::-1])
    assert certified_upper_bound(table, params, v) == est.certified_upper
