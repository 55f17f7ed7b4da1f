import numpy as np
import pytest
from conftest import make_table

from stavskaya.patterns import Parameters
from stavskaya.spectral import (SpectralEstimate, apply_operator,
                                certified_upper_bound, check_subcritical,
                                is_subcritical, power_iteration,
                                word_weight_vector)


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
    table = make_table([[1, 0], [-1, -1], [-1, -1]], [0, 0])
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


def test_subcritical_examples(small_levels):
    _, table = small_levels[2]
    assert is_subcritical(table, Parameters(1.44, 1.0, 0.13))
    assert not is_subcritical(table, Parameters(1.44, 1.0, 0.14))
    # total path weight never decays at p = q = 1, alpha = 1
    assert not is_subcritical(table, Parameters(1, 1, 1.0))


def test_subcritical_at_alpha_zero(small_levels):
    # reducible case: the fallback certificate must still decide correctly
    _, table = small_levels[1]
    assert is_subcritical(table, Parameters(1.464, 1.0, 0.0))
    assert not is_subcritical(table, Parameters(1, 1, 0.0))
    ok, certificate, _ = check_subcritical(table, Parameters(1.464, 1.0, 0.0))
    assert ok and certificate < 1.0


def test_word_weight_vector(small_levels):
    space, _ = small_levels[1]
    params = Parameters(2.0, 1.0, 0.5)
    w1, w2, w3 = params.step_weights()
    v = word_weight_vector(space, params)
    # "12" carries w1*w2, "33" carries w3*w3
    assert v[space.index_of(1)] == pytest.approx(w1 * w2, rel=1e-15)
    assert v[space.index_of(8)] == pytest.approx(w3 * w3, rel=1e-15)


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
    ok, certificate, est = check_subcritical(table, params, tol=1e-300, v0=near)
    assert ok and not est.converged and est.iterations == 1
    assert certificate == pytest.approx(
        certified_upper_bound(table, params, near), rel=1e-14)
    assert SpectralEstimate(0.9, 0.95, 3, converged=False).certified_subcritical


def test_min_ratio_above_one_stops_not_certified(small_levels):
    _, table = small_levels[2]
    params = Parameters(1.44, 1.0, 0.3)  # far above the level-2 bound 0.131
    full = power_iteration(table, params)
    assert full.converged and full.estimate > 1.0
    ok, certificate, est = check_subcritical(table, params)
    assert not ok and certificate > 1.0
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
    ok, _, decided = check_subcritical(table, params, tol=1e-300, max_iter=50)
    assert ok and decided.iterations < 50
