import warnings

import numpy as np
import pytest

from wsvd import (StoppingRule, WeightMatrix, add_noise, build_problem, covers,
                  lcurve_curvature, lcurve_points, lsqr_baseline, min_m_norm_ls, select,
                  spr_solve, stop_dp, stop_lcurve, stop_oracle, tikhonov_opt,
                  tikhonov_wsvd, twsvd_record, twsvd_solution, wlsqr_run, wsvd)
from wsvd.solver import DEFAULT_MAX_ITER


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


def test_stop_dp_ignores_entries_after_a_non_finite_one():
    # the crossing at k = 2 follows a NaN, so it is not trusted
    assert stop_dp([1.0, np.nan, 1e-3], 1.01, 0.01) == (None, False)
    assert stop_dp([np.inf, 1e-3], 1.01, 0.01) == (None, False)
    # a crossing inside the leading finite run still counts
    assert stop_dp([1.0, 1e-3, np.nan], 1.01, 0.01) == (1, False)


def test_stop_oracle_argmin_first():
    assert stop_oracle(np.array([0.5, 0.2, 0.1, 0.3])) == 3
    assert stop_oracle(np.array([0.5, 0.2, 0.2, 0.3])) == 2
    assert stop_oracle(np.array([0.5, 0.4, 0.3])) == 3  # monotone: last index


def test_stop_oracle_scans_only_the_leading_finite_run():
    # nothing after a NaN or inf is trusted, as in stop_dp and lcurve_points
    assert stop_oracle([0.3, np.nan, 0.1]) == 1
    assert stop_oracle([0.3, 0.2, np.inf, 0.1]) == 2
    assert stop_oracle([0.3, 0.2, -np.inf, 0.1]) == 2


@pytest.mark.parametrize("errs", [[], [np.nan, 0.1], [np.inf], [-np.inf, 0.2]])
def test_stop_oracle_rejects_a_history_without_a_finite_first_error(errs):
    with pytest.raises(ValueError):
        stop_oracle(errs)


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


def test_lcurve_points_rejects_histories_of_different_lengths():
    with pytest.raises(ValueError, match="differ in length"):
        lcurve_points([3.0, 2.0, 1.0], [1.0, 2.0])


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


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_a_non_finite_tau_or_noise_norm_is_rejected(bad):
    # NaN fails every comparison, so "tau <= 1" alone would let it through
    with pytest.raises(ValueError, match="tau"):
        StoppingRule("dp", tau=bad, noise_norm=1.0)
    with pytest.raises(ValueError, match="noise_norm"):
        StoppingRule("dp", noise_norm=bad)
    with pytest.raises(ValueError, match="tau"):
        stop_dp([5.0, 2.0, 0.9], bad, 0.5)
    with pytest.raises(ValueError, match="noise_norm"):
        stop_dp([5.0, 2.0, 0.9], 1.01, bad)


def test_stop_dp_rejects_an_empty_history():
    with pytest.raises(ValueError, match="empty residual history"):
        stop_dp([], 1.01, 0.5)


def _bad_x_true(problem, case):
    x = problem.x_true.copy()
    if case == "nan":
        x[7] = np.nan
    elif case == "inf":
        x[7] = np.inf
    elif case == "short":
        x = x[:50]
    elif case == "matrix":
        x = x[:, None]
    else:
        x[:] = 0.0
    return x


X_TRUE_CASES = ["nan", "inf", "short", "matrix", "zero"]


@pytest.mark.parametrize("case", X_TRUE_CASES)
def test_spr_solve_rejects_a_bad_x_true_before_any_step(shaw_small, monkeypatch, case):
    problem, noisy = shaw_small
    x_true = _bad_x_true(problem, case)
    monkeypatch.setattr("wsvd.regularization.wlsqr_run", None)  # never reached
    with pytest.raises(ValueError, match="x_true"):
        spr_solve(problem.a, problem.weight, noisy.b, StoppingRule("oracle", x_true=x_true))
    with pytest.raises(ValueError, match="x_true"):
        spr_solve(problem.a, problem.weight, noisy.b, StoppingRule("lc"), x_true=x_true)


def test_spr_solve_rejects_a_matrix_that_is_not_two_dimensional(shaw_small):
    problem, noisy = shaw_small
    with pytest.raises(ValueError, match="two-dimensional"):
        spr_solve(problem.a[:, 0], problem.weight, noisy.b, StoppingRule("lc"),
                  x_true=problem.x_true)


@pytest.mark.parametrize("case", X_TRUE_CASES)
def test_spectral_histories_reject_a_bad_x_true(shaw_small, case):
    problem, noisy = shaw_small
    fact = wsvd(problem.a, problem.weight)
    x_true = _bad_x_true(problem, case)
    with pytest.raises(ValueError, match="x_true"):
        twsvd_record(fact, noisy.b, x_true)
    with pytest.raises(ValueError, match="x_true"):
        tikhonov_opt(fact, noisy.b, x_true)


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


def replayed(problem, noisy, state, k):
    """x_k read as spr_solve reads it: by continuing the run for k steps."""
    return wlsqr_run(problem.a, problem.weight, noisy.b, max_iter=k,
                     _bidiag=state.bidiag).x


def test_recovered_iterate_matches_callback(shaw_small):
    # x_k = Q_k y_k from B_k is the iterate the recurrence produced
    problem, noisy = shaw_small
    xs = []
    state = wlsqr_run(problem.a, problem.weight, noisy.b, max_iter=30,
                      callback=lambda k, x, res, mnorm: xs.append(x))
    assert state.k == len(xs) >= 15
    for k, x in enumerate(xs, start=1):
        assert np.array_equal(replayed(problem, noisy, state, k), x), k
    # and spr_solve returns it for an earlier selected index
    x_sel, rec = spr_solve(problem.a, problem.weight, noisy.b,
                           StoppingRule("oracle", x_true=problem.x_true), max_iter=30)
    assert rec.stop_index < state.k
    assert np.array_equal(x_sel, xs[rec.stop_index - 1])


@pytest.mark.parametrize("name, terminated_at", [("shaw", 20), ("phillips", None)])
def test_every_recovered_iterate_is_the_solvers_own(name, terminated_at):
    # live steps and iterate recovery share one update, so continuing the
    # run for k steps gives the callback's x_k bit for bit at every k, the
    # terminating one included, and spr_solve returns the iterate whose
    # error it reports
    problem = build_problem(name, 120, 101)
    noisy = add_noise(problem, 1e-3, 0)
    xs = []
    state = wlsqr_run(problem.a, problem.weight, noisy.b, max_iter=30,
                      callback=lambda k, x, res, mnorm: xs.append(x))
    assert state.bidiag.termination_step == terminated_at
    assert state.k == len(xs) == (terminated_at or 30)
    for k, x in enumerate(xs, start=1):
        assert np.array_equal(replayed(problem, noisy, state, k), x), k
    nx = np.linalg.norm(problem.x_true)
    for kind in ("lc", "oracle"):
        x, rec = spr_solve(problem.a, problem.weight, noisy.b,
                           StoppingRule(kind, x_true=problem.x_true), max_iter=30)
        k = rec.stop_index
        assert k < state.k, kind
        assert np.array_equal(x, xs[k - 1]), kind
        assert np.linalg.norm(x - problem.x_true) / nx == rec.rel_errors[k - 1], kind


def _orthogonal_case():
    # A maps onto span(e1); b along e2 is orthogonal to its range
    a = np.zeros((6, 5))
    a[0, 0] = 1.0
    b = np.array([0.0, 2.0, 0.0, 0.0, 0.0, 0.0])
    return a, WeightMatrix.identity(5), b, np.ones(5), 0.5, None


@pytest.mark.parametrize("case", ["noisy", "dp-met-at-x0", "dp-never-crosses",
                                  "b-orthogonal-to-range"])
def test_select_on_maxiter_history_matches_spr_solve(shaw_small, case):
    # the sweep selects every rule from one maxiter history; that must pick
    # what a solve under the rule itself picks
    problem, noisy = shaw_small
    noise = float(np.linalg.norm(noisy.e))
    a, weight, b, x_true, max_iter = (problem.a, problem.weight, noisy.b,
                                      problem.x_true, 30)
    if case == "dp-met-at-x0":
        noise = 10 * float(np.linalg.norm(noisy.b))
    elif case == "dp-never-crosses":
        noise, max_iter = 1e-6 * noise, 8
    elif case == "b-orthogonal-to-range":
        a, weight, b, x_true, noise, max_iter = _orthogonal_case()
    _, history = spr_solve(a, weight, b, StoppingRule("maxiter"), max_iter=max_iter,
                           x_true=x_true)
    for rule in (StoppingRule("dp", noise_norm=noise), StoppingRule("lc"),
                 StoppingRule("oracle", x_true=x_true)):
        chosen = select(rule, history)
        _, direct = spr_solve(a, weight, b, rule, max_iter=max_iter, x_true=x_true)
        assert chosen.rule == direct.rule == rule.kind
        assert (chosen.stop_index, chosen.satisfied, chosen.degenerate) == \
            (direct.stop_index, direct.satisfied, direct.degenerate), rule.kind
    if case == "dp-met-at-x0":
        assert select(StoppingRule("dp", noise_norm=noise), history).degenerate
    elif case == "dp-never-crosses":
        dp = select(StoppingRule("dp", noise_norm=noise), history)
        assert dp.stop_index == max_iter and not dp.satisfied
    elif case == "b-orthogonal-to-range":
        assert len(history.ks) == 0
        assert all(select(r, history).stop_index == 0
                   for r in (StoppingRule("lc"), StoppingRule("maxiter")))


def test_select_leaves_the_history_alone(shaw_small):
    problem, noisy = shaw_small
    _, history = spr_solve(problem.a, problem.weight, noisy.b, StoppingRule("maxiter"),
                           max_iter=12)
    chosen = select(StoppingRule("lc"), history)
    assert history.rule == "maxiter" and history.stop_index == 12
    assert chosen.residual_norms is history.residual_norms
    with pytest.raises(ValueError, match="x_true"):
        select(StoppingRule("oracle", x_true=problem.x_true), history)


def test_twsvd_record_matches_the_expansions(shaw_small):
    problem, noisy = shaw_small
    fact = wsvd(problem.a, problem.weight)
    rec = twsvd_record(fact, noisy.b, problem.x_true, max_iter=15)
    nx = np.linalg.norm(problem.x_true)
    for k in rec.ks:
        x = twsvd_solution(fact, noisy.b, k)
        res = np.linalg.norm(problem.a @ x - noisy.b)
        assert rec.residual_norms[k - 1] == pytest.approx(res, rel=1e-8)
        assert rec.solution_m_norms[k - 1] == pytest.approx(problem.weight.norm(x), rel=1e-10)
        assert rec.rel_errors[k - 1] == pytest.approx(np.linalg.norm(x - problem.x_true) / nx,
                                                      rel=1e-10)
    assert (rec.stop_index, rec.rule, len(rec.ks)) == (15, "maxiter", 15)
    assert twsvd_record(fact, noisy.b).rel_errors is None


@pytest.mark.parametrize("name", ["shaw", "phillips"])  # Krylov and dense route
def test_twsvd_record_residuals_match_the_true_residuals(name):
    # at eps 1e-8 ||b||^2 - sum (u_i^T b)^2 cancels to noise; the residual of
    # the part of b outside span(U) plus the tail sum does not
    problem = build_problem(name, 120, 101)
    noisy = add_noise(problem, 1e-8, 0)
    fact = wsvd(problem.a, problem.weight, start=noisy.b)
    rec = twsvd_record(fact, noisy.b)
    true = [np.linalg.norm(problem.a @ twsvd_solution(fact, noisy.b, k) - noisy.b)
            for k in rec.ks]
    assert len(rec.ks) >= 20 and np.all(rec.residual_norms > 0)
    assert np.allclose(rec.residual_norms, true, rtol=1e-5, atol=0)


def test_a_twsvd_history_takes_the_solvers_default_budget():
    # as wlsqr_run does, so an lc corner is not sought among the full rank's
    # noise-dominated expansions; the entries it keeps keep their bits
    problem = build_problem("phillips", 240, 221)
    b = add_noise(problem, 1e-3, 0).b
    fact = wsvd(problem.a, problem.weight)
    assert fact.rank == 221 and DEFAULT_MAX_ITER == 200
    rec = twsvd_record(fact, b, problem.x_true)
    full = twsvd_record(fact, b, problem.x_true, max_iter=fact.rank)
    assert (len(rec.ks), rec.stop_index, len(full.ks)) == (200, 200, 221)
    for name in ("residual_norms", "solution_m_norms", "rel_errors"):
        assert np.array_equal(getattr(rec, name), getattr(full, name)[:200]), name


@pytest.fixture(scope="module")
def shaw_scaled_case():
    # shaw 200x101 at eps 1e-3: under lc, dp and maxiter with max_iter 30
    problem = build_problem("shaw", 200, 101)
    noisy = add_noise(problem, 1e-3, 0)
    rules = (StoppingRule("lc"), StoppingRule("maxiter"),
             StoppingRule("dp", noise_norm=float(np.linalg.norm(noisy.e))))
    runs = [spr_solve(problem.a, problem.weight, noisy.b, r, max_iter=30) for r in rules]
    assert [(rec.stop_index, rec.satisfied, rec.terminated_at) for _, rec in runs] == [
        (8, True, 21), (21, True, 21), (7, True, None)]
    return problem, noisy, rules, runs


@pytest.mark.parametrize("scale", [1e-290, 1e-200, 1e-155, 1e200, 1e280])
def test_a_rescaled_matrix_gives_the_same_stop_indices(shaw_scaled_case, scale):
    # A -> c A maps x_k to x_k / c and leaves every residual unchanged; the
    # squared norms underflow or overflow at these scales, and are rescued
    # in scaled form (RuntimeWarnings fail the suite).  The maxiter iterate
    # is that of the breakdown step, which amplifies rounding, so only the
    # lc and dp iterates are compared.
    problem, noisy, rules, runs = shaw_scaled_case
    for rule, (x1, rec1) in zip(rules, runs):
        x, rec = spr_solve(problem.a * scale, problem.weight, noisy.b, rule, max_iter=30)
        assert (rec.stop_index, rec.satisfied, rec.terminated_at) == (
            rec1.stop_index, rec1.satisfied, rec1.terminated_at)
        if rule.kind != "maxiter":
            assert np.allclose(x * scale, x1, rtol=0, atol=1e-12 * np.abs(x1).max())


@pytest.fixture(scope="module")
def shaw_noisy_1e2():
    problem = build_problem("shaw", 120, 101)
    return problem, add_noise(problem, 1e-2, 0)


@pytest.mark.parametrize("route", ["dense", "krylov"])
@pytest.mark.parametrize("scale", [2.0**-700, 2.0**700], ids=["2^-700", "2^700"])
def test_the_spectral_methods_hold_under_a_rescaled_problem(shaw_noisy_1e2, route, scale):
    # A, b and e scaled by c leave x_true, every pick and every rel_err as
    # they are.  The squares of sigma, of u_i^T b and of b's remainder leave
    # the float range at these scales, and are formed in scaled form
    # (RuntimeWarnings fail the suite).
    problem, noisy = shaw_noisy_1e2
    x_true = problem.x_true

    def run(c):
        b = noisy.b * c
        fact = wsvd(problem.a * c, problem.weight, start=b if route == "krylov" else None)
        assert (fact.krylov_steps is None) == (route == "dense")
        history = twsvd_record(fact, b, x_true)
        noise_norm = float(np.linalg.norm(noisy.e)) * c
        picks = [select(StoppingRule(kind, noise_norm=noise_norm, x_true=x_true),
                        history).stop_index for kind in ("dp", "lc", "oracle")]
        _, x = tikhonov_opt(fact, b, x_true)
        return fact, b, picks, np.linalg.norm(x - x_true) / np.linalg.norm(x_true)

    _, _, picks1, err1 = run(1.0)
    fact, b, picks, err = run(scale)
    assert picks == picks1 == [4, 5, 7]
    assert np.array_equal(tikhonov_wsvd(fact, b, 0.0), min_m_norm_ls(fact, b))
    assert err == pytest.approx(err1, rel=1e-8)


def _picks_and_errors(problem, noisy, ca, cb):
    """(pick, rel_err) per method and rule, and whether each factorization
    covers its own b, on the problem (A ca, b cb, e cb, x_true cb / ca), an
    exact rescaling of the natural one when ca and cb are powers of two."""
    a, b, x_true = problem.a * ca, noisy.b * cb, problem.x_true * (cb / ca)
    noise_norm = float(np.linalg.norm(noisy.e)) * cb
    rules = [StoppingRule(kind, noise_norm=noise_norm, x_true=x_true)
             for kind in ("dp", "lc", "oracle")]
    out = {}

    def read(method, history):
        out[method] = [(r.stop_index, float(r.rel_errors[r.stop_index - 1]))
                       for r in (select(rule, history) for rule in rules)]

    read("wlsqr", spr_solve(a, problem.weight, b, StoppingRule("maxiter"), max_iter=40,
                            x_true=x_true)[1])
    for route, start in (("krylov", b), ("dense", None)):
        fact = wsvd(a, problem.weight, start=start)
        out[f"{route} covers b"] = covers(fact, a, b)
        read(f"twsvd {route}", twsvd_record(fact, b, x_true))
        _, x = tikhonov_opt(fact, b, x_true)
        # x - x_true scales like x_true; undone exactly before the plain norm
        out[f"tikh-opt {route}"] = (np.linalg.norm((x - x_true) * (ca / cb))
                                    / np.linalg.norm(problem.x_true))
    return out


@pytest.fixture(scope="module")
def shaw_natural_picks(shaw_noisy_1e2):
    out = _picks_and_errors(*shaw_noisy_1e2, 1.0, 1.0)
    assert [k for k, _ in out["wlsqr"]] == [4, 6, 5]
    assert [k for k, _ in out["twsvd krylov"]] == [k for k, _ in out["twsvd dense"]] == [4, 5, 7]
    return out


@pytest.mark.parametrize("scaled", ["A", "b", "A and b"])
@pytest.mark.parametrize("c", [2.0**-700, 2.0**700], ids=["2^-700", "2^700"])
def test_a_matrix_or_data_scaled_alone_keeps_every_pick(shaw_noisy_1e2, shaw_natural_picks,
                                                        scaled, c):
    # (A c, b, x_true / c), (A, b c, x_true c) and (A c, b c, x_true): x,
    # x_true, e, b's remainder in covers, the twsvd coefficients and the
    # terminating WLSQR residual then have sums of squares outside the float
    # range, which the package forms in scaled form (RuntimeWarnings fail
    # the suite).  Every pick and covers decision is the natural one, and
    # every rel_err agrees with it to rounding.
    ca, cb = {"A": (c, 1.0), "b": (1.0, c), "A and b": (c, c)}[scaled]
    out = _picks_and_errors(*shaw_noisy_1e2, ca, cb)
    assert out.keys() == shaw_natural_picks.keys()
    for key, natural in shaw_natural_picks.items():
        if key.endswith("covers b"):
            assert out[key] is natural is True, key
        elif key.startswith("tikh-opt"):
            assert out[key] == pytest.approx(natural, rel=1e-8), key
        else:
            assert [k for k, _ in out[key]] == [k for k, _ in natural], key
            for (_, err), (_, err1) in zip(out[key], natural):
                assert err == pytest.approx(err1, rel=1e-10), key


@pytest.mark.parametrize("max_iter", [0, -1])
def test_twsvd_record_rejects_a_max_iter_below_one(max_iter):
    fact = wsvd(np.diag([3.0, 2.0, 1.0]), WeightMatrix.identity(3))
    with pytest.raises(ValueError, match=f"max_iter must be >= 1, got {max_iter}"):
        twsvd_record(fact, np.ones(3), max_iter=max_iter)


def test_spr_deterministic(shaw_small):
    problem, noisy = shaw_small
    rule = StoppingRule("dp", noise_norm=float(np.linalg.norm(noisy.e)))
    x1, r1 = spr_solve(problem.a, problem.weight, noisy.b, rule, max_iter=40)
    x2, r2 = spr_solve(problem.a, problem.weight, noisy.b, rule, max_iter=40)
    assert np.array_equal(x1, x2)
    assert r1.stop_index == r2.stop_index


@pytest.mark.parametrize("a", [np.ones(5), np.float64(1.0), np.ones((3, 0))],
                         ids=["1-d", "0-d", "no-columns"])
def test_lsqr_baseline_rejects_a_malformed_a_like_spr_solve(a):
    with pytest.raises(ValueError, match="A must be two-dimensional .* got shape"):
        lsqr_baseline(a, np.ones(3), StoppingRule("maxiter"))


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


def test_tikhonov_opt_rejects_a_rank_0_factorization():
    fact = wsvd(np.zeros((3, 2)), WeightMatrix.identity(2))
    assert fact.rank == 0
    with pytest.raises(ValueError, match="factorization has rank 0"):
        tikhonov_opt(fact, np.ones(3), np.ones(2))


def test_run_record_consistency(shaw_small):
    problem, noisy = shaw_small
    rule = StoppingRule("oracle", x_true=problem.x_true)
    _, rec = spr_solve(problem.a, problem.weight, noisy.b, rule, max_iter=15)
    assert rec.initial_residual == pytest.approx(np.linalg.norm(noisy.b))
    assert list(rec.ks) == list(range(1, 16))
    assert len(rec.residual_norms) == len(rec.solution_m_norms) == len(rec.rel_errors)
    assert rec.rule == "oracle"


@pytest.mark.parametrize("name, corner", [("shaw", 8), ("expst", 3)])
def test_spr_lcurve_skips_breakdown_step(name, corner):
    # at table size both recursions break down (shaw at step 21, expst at
    # step 9); that step's truncated iterate is blown up and its residual is
    # positive, so it is an L-curve point, but the corner must come from the
    # history before it
    problem = build_problem(name)
    noisy = add_noise(problem, 1e-3, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x, record = spr_solve(problem.a, problem.weight, noisy.b,
                              StoppingRule("lc"), x_true=problem.x_true)
    assert record.terminated_at is not None
    assert record.residual_norms[-1] > 0.0
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
