import warnings

import numpy as np
import pytest

from wsvd import (StoppingRule, WeightMatrix, add_noise, build_problem,
                  lcurve_curvature, lcurve_points, lsqr_baseline, spr_solve,
                  stop_dp, stop_lcurve, stop_oracle, tikhonov_opt,
                  tikhonov_wsvd, wlsqr_run, wsvd)


@pytest.fixture(scope="module")
def shaw_small():
    problem = build_problem("shaw", 120, 101)
    noisy = add_noise(problem, 1e-3, 0)
    return problem, noisy


def corner_polyline(n_points=15, corner=6):
    # steep drop then flat, corner at the given 1-based index
    log_res = np.concatenate([np.linspace(4.0, 0.0, corner),
                              np.linspace(0.0, -0.4, n_points - corner + 1)[1:]])
    log_mn = np.concatenate([np.linspace(0.0, 0.5, corner),
                             np.linspace(0.5, 6.0, n_points - corner + 1)[1:]])
    return np.exp(log_res), np.exp(log_mn)


def test_stop_dp_first_crossing():
    # residual sequence (5, 2, 0.9, 0.5) against threshold tau*noise = 1:
    # crossing at k = 2 (the 0.9 entry)
    k, degenerate = stop_dp(np.array([5.0, 2.0, 0.9, 0.5]), 2.0, 0.5)
    assert k == 2
    assert not degenerate


def test_stop_dp_degenerate():
    k, degenerate = stop_dp(np.array([5.0, 2.0]), 1.01, 10.0)
    assert k == 1
    assert degenerate


def test_stop_dp_never():
    k, degenerate = stop_dp(np.array([5.0, 4.0, 3.0]), 1.01, 0.1)
    assert k is None
    assert not degenerate


def test_stop_oracle_argmin_first():
    assert stop_oracle(np.array([0.5, 0.2, 0.1, 0.3])) == 3
    assert stop_oracle(np.array([0.5, 0.2, 0.2, 0.3])) == 2
    assert stop_oracle(np.array([0.5, 0.4, 0.3])) == 3  # monotone: last index


def test_stop_lcurve_synthetic_corner():
    res, mn = corner_polyline()
    got = stop_lcurve(res, mn)
    assert got.index == 6
    assert not got.no_corner


def test_lcurve_curvature_sign():
    # the corner of an L has positive Menger curvature in this orientation
    res, mn = corner_polyline()
    ks, curv = lcurve_curvature(res, mn)
    corner_pos = list(ks).index(6)
    assert curv[corner_pos] > 0
    assert curv[corner_pos] == max(curv)


def test_stop_lcurve_needs_five_points():
    with pytest.raises(ValueError):
        stop_lcurve(np.ones(4), np.ones(4))


def test_stop_lcurve_collinear_flags_no_corner():
    t = np.linspace(1.0, 2.0, 10)
    got = stop_lcurve(np.exp(-t), np.exp(t))
    assert got.no_corner


def test_lcurve_points_dedup():
    res = np.array([1.0, 1.0, 0.5, 0.25, 0.1, 0.05])
    mn = np.array([1.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    pts, ks = lcurve_points(res, mn)
    assert len(ks) == 5
    assert 2 not in ks or 1 not in ks  # one of the duplicates dropped


def test_lcurve_points_stop_at_first_non_finite_log():
    # a breakdown step reports a zero residual; it and everything after it go
    res = np.array([1.0, 0.5, 0.2, 0.0, 0.1])
    mn = np.array([1.0, 2.0, 4.0, 1e13, 5.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        pts, ks = lcurve_points(res, mn)
        assert list(ks) == [1, 2, 3]
        assert np.all(np.isfinite(pts))
        assert lcurve_points([0.0, 1.0], [1.0, 1.0])[1].size == 0
        assert stop_lcurve(np.r_[np.nan, np.ones(5)], np.ones(6)) == (1, True)


def test_stopping_rule_validation():
    with pytest.raises(ValueError):
        StoppingRule("dp")  # noise_norm missing
    with pytest.raises(ValueError):
        StoppingRule("dp", tau=1.0, noise_norm=1.0)
    with pytest.raises(ValueError):
        StoppingRule("oracle")
    with pytest.raises(ValueError):
        StoppingRule("bogus")
    StoppingRule("dp", noise_norm=0.5)
    StoppingRule("lc")
    StoppingRule("maxiter")


def test_spr_dp_stops_eagerly(shaw_small):
    problem, noisy = shaw_small
    rule = StoppingRule("dp", noise_norm=float(np.linalg.norm(noisy.e)))
    x, record = spr_solve(problem.a, problem.weight, noisy.b, rule,
                          max_iter=60, x_true=problem.x_true)
    # the run halts at the crossing instead of exhausting max_iter
    assert record.stop_index == len(record.ks) < 60
    assert record.satisfied
    assert record.residual_norms[record.stop_index - 1] <= 1.01 * rule.noise_norm


def test_spr_dp_degenerate_returns_first_iterate(shaw_small):
    problem, noisy = shaw_small
    rule = StoppingRule("dp", noise_norm=10 * float(np.linalg.norm(noisy.b)))
    x, record = spr_solve(problem.a, problem.weight, noisy.b, rule, max_iter=30)
    assert record.stop_index == 1
    assert record.degenerate


def test_spr_oracle_picks_error_minimum(shaw_small):
    problem, noisy = shaw_small
    rule = StoppingRule("oracle", x_true=problem.x_true)
    x, record = spr_solve(problem.a, problem.weight, noisy.b, rule, max_iter=40)
    errs = record.rel_errors
    assert record.stop_index == int(np.argmin(errs)) + 1
    err_x = np.linalg.norm(x - problem.x_true) / np.linalg.norm(problem.x_true)
    assert err_x == pytest.approx(errs[record.stop_index - 1], rel=1e-12)


def test_spr_lcurve_runs(shaw_small):
    problem, noisy = shaw_small
    x, record = spr_solve(problem.a, problem.weight, noisy.b,
                          StoppingRule("lc"), max_iter=25, x_true=problem.x_true)
    assert 1 <= record.stop_index <= record.ks[-1]
    # the corner solution is a sensible regularizer on this problem
    assert record.rel_errors[record.stop_index - 1] < 0.5


def test_spr_maxiter(shaw_small):
    problem, noisy = shaw_small
    x, record = spr_solve(problem.a, problem.weight, noisy.b,
                          StoppingRule("maxiter"), max_iter=9)
    assert record.stop_index == len(record.ks) == 9


def test_spr_replay_matches_stored(shaw_small):
    problem, noisy = shaw_small
    rule = StoppingRule("oracle", x_true=problem.x_true)
    x_kept, rec_kept = spr_solve(problem.a, problem.weight, noisy.b, rule,
                                 max_iter=30)
    x_replay, rec_replay = spr_solve(problem.a, problem.weight, noisy.b, rule,
                                     max_iter=30, keep_iterates=False)
    assert rec_kept.stop_index == rec_replay.stop_index
    assert np.array_equal(x_kept, x_replay)


def test_spr_deterministic(shaw_small):
    problem, noisy = shaw_small
    rule = StoppingRule("dp", noise_norm=float(np.linalg.norm(noisy.e)))
    x1, r1 = spr_solve(problem.a, problem.weight, noisy.b, rule, max_iter=40)
    x2, r2 = spr_solve(problem.a, problem.weight, noisy.b, rule, max_iter=40)
    assert np.array_equal(x1, x2)
    assert r1.stop_index == r2.stop_index


def test_lsqr_baseline_is_identity_weight(shaw_small):
    problem, noisy = shaw_small
    rule = StoppingRule("maxiter")
    x_base, rec_base = lsqr_baseline(problem.a, noisy.b, rule, max_iter=12)
    ident = WeightMatrix.identity(problem.n)
    x_ident, rec_ident = spr_solve(problem.a, ident, noisy.b, rule, max_iter=12)
    assert np.allclose(x_base, x_ident, rtol=1e-12, atol=1e-15)
    assert np.allclose(rec_base.residual_norms, rec_ident.residual_norms)


def test_weighted_beats_unweighted_here(shaw_small):
    problem, noisy = shaw_small
    rule = StoppingRule("oracle", x_true=problem.x_true)
    _, rec_w = spr_solve(problem.a, problem.weight, noisy.b, rule, max_iter=40)
    _, rec_i = lsqr_baseline(problem.a, noisy.b, rule, max_iter=40,
                             x_true=problem.x_true)
    err_w = rec_w.rel_errors[rec_w.stop_index - 1]
    err_i = rec_i.rel_errors[rec_i.stop_index - 1]
    assert err_i >= 5 * err_w


def test_tikhonov_opt_noise_free():
    # well-conditioned consistent data: the search runs to the lower bound
    rng = np.random.default_rng(70)
    a = rng.standard_normal((30, 10))
    weight = WeightMatrix.diagonal(rng.uniform(0.5, 2.0, 10))
    x_true = rng.standard_normal(10)
    b = a @ x_true
    fact = wsvd(a, weight)
    lam, x = tikhonov_opt(fact, b, x_true)
    assert lam <= 1e-12 * fact.sigma[0] ** 2
    assert np.linalg.norm(x - x_true) <= 1e-6 * np.linalg.norm(x_true)


def test_tikhonov_opt_matches_grid(shaw_small):
    problem, noisy = shaw_small
    fact = wsvd(problem.a, problem.weight)
    lam_opt, x_opt = tikhonov_opt(fact, noisy.b, problem.x_true)
    nx = np.linalg.norm(problem.x_true)
    err_opt = np.linalg.norm(x_opt - problem.x_true) / nx
    grid = np.logspace(np.log10(fact.sigma[0] ** 2 * 1e-16),
                       np.log10(fact.sigma[0] ** 2), 200)
    grid_errs = [np.linalg.norm(tikhonov_wsvd(fact, noisy.b, lam) - problem.x_true) / nx
                 for lam in grid]
    assert err_opt <= min(grid_errs) * 1.001


def test_run_record_consistency(shaw_small):
    problem, noisy = shaw_small
    rule = StoppingRule("oracle", x_true=problem.x_true)
    _, rec = spr_solve(problem.a, problem.weight, noisy.b, rule, max_iter=15)
    assert rec.initial_residual == pytest.approx(np.linalg.norm(noisy.b))
    assert list(rec.ks) == list(range(1, 16))
    assert len(rec.residual_norms) == len(rec.solution_m_norms) == len(rec.rel_errors)
    assert rec.rule == "oracle"
    assert rec.wall_ms >= 0


@pytest.mark.parametrize("name, corner", [("shaw", 8), ("expst", 3)])
def test_spr_lcurve_skips_breakdown_step(name, corner):
    # at table size both recursions break down (shaw at step 21, expst at
    # step 9) with a recurrence residual of exactly 0; the corner must come
    # from the history before it, not from the blown-up breakdown iterate
    problem = build_problem(name)
    noisy = add_noise(problem, 1e-3, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x, record = spr_solve(problem.a, problem.weight, noisy.b,
                              StoppingRule("lc"), x_true=problem.x_true)
    assert record.terminated_at is not None
    assert record.residual_norms[-1] == 0.0
    assert record.stop_index == corner and record.satisfied
    assert np.linalg.norm(x - problem.x_true) / np.linalg.norm(problem.x_true) < 0.1


@pytest.mark.parametrize("where", ["b", "a"])
def test_non_finite_input_rejected(shaw_small, where):
    problem, noisy = shaw_small
    a, b = problem.a, noisy.b
    if where == "b":
        b = b.copy()
        b[5] = np.nan
    else:
        a = a.copy()
        a[17, 40] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        wlsqr_run(a, problem.weight, b)
    with pytest.raises(ValueError, match="non-finite"):
        spr_solve(a, problem.weight, b, StoppingRule("lc"))
