"""Acceptance suite: thirteen behavior gates, one test per gate.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
gate.  Gates 10-12 reproduce the qualitative experiment findings (error
bands, stop indices, semi-convergence, noise sweeps) at reduced scale with
fresh noise realizations, so they assert bands rather than exact values.
"""

import time

import numpy as np
import pytest
import scipy.linalg

from wsvd import (StoppingRule, WeightMatrix, add_noise, approx_triplets,
                  build_problem, low_rank_approx, min_m_norm_ls,
                  project_bidiagonal, simpson_weights, spr_solve, stop_dp,
                  tikhonov_wsvd, weighted_operator_norm, wgkb_init, wgkb_step,
                  wlsqr_run, wsvd)

from test_weights import random_spd

PROBLEMS = ("shaw", "phillips", "expst", "green")
N_SMALL = 501
M_SMALL = int(round(1.2 * N_SMALL)) | 1

# reference experiment values the bands are anchored to
WLSQR_ORACLE_REF = {"shaw": 0.031, "phillips": 0.0057, "expst": 0.0037,
                    "green": 0.0029}
DP_STOP_REF = {"shaw": 7, "phillips": 8, "expst": 2, "green": 5}
TABLE_RATIO = {"shaw": 2500 / 2001, "phillips": 3000 / 2501,
               "expst": 3500 / 3001, "green": 4000 / 3501}
SWEEP_EPSILONS = (3.2e-2, 1.6e-2, 8e-3, 4e-3, 2e-3, 1e-3)


@pytest.fixture(scope="module")
def problems_small():
    return {name: build_problem(name, M_SMALL, N_SMALL) for name in PROBLEMS}


def run_collect(a, weight, b, steps):
    """WLSQR iterates x_1..x_steps (fewer if the recursion terminates)."""
    xs = []
    wlsqr_run(a, weight, b, max_iter=steps,
              callback=lambda k, x, res, mn: xs.append(x.copy()) and False)
    return xs


def histories(problem, noisy, weight, max_iter):
    rule = StoppingRule("maxiter")
    _, rec = spr_solve(problem.a, weight, noisy.b, rule, max_iter=max_iter,
                       x_true=problem.x_true)
    return rec


def test_c01_factorization_invariant_suite():
    # 200 random instances, diagonal and dense weights with condition <= 1e4:
    # orthonormality, M-orthonormality, reconstruction, ordered positive values
    rng = np.random.default_rng(100)
    t0 = time.perf_counter()
    for trial in range(200):
        m = int(rng.integers(2, 101))
        n = int(rng.integers(2, 101))
        a = rng.standard_normal((m, n))
        if trial % 2:
            weight = WeightMatrix.diagonal(10.0 ** rng.uniform(-2, 2, n))
        else:
            weight = WeightMatrix.dense(
                random_spd(rng, n, cond=10.0 ** rng.uniform(0, 4)))
        f = wsvd(a, weight)
        r = f.rank
        u, v, sig = f.u[:, :r], f.v[:, :r], f.sigma
        m_mat = weight.as_array()
        assert np.max(np.abs(u.T @ u - np.eye(r))) <= 1e-10
        assert np.max(np.abs(v.T @ m_mat @ v - np.eye(r))) <= 1e-10
        assert np.max(np.abs(a @ v - u * sig)) <= 1e-10 * sig[0]
        assert np.max(np.abs((u * sig) @ v.T @ m_mat - a)) <= 1e-10 * sig[0]
        assert np.all(sig > 0) and np.all(np.diff(sig) <= 0)
    assert time.perf_counter() - t0 < 30.0


def test_c02_identity_weight_reduces_to_svd():
    rng = np.random.default_rng(101)
    for _ in range(50):
        m = int(rng.integers(2, 80))
        n = int(rng.integers(2, 80))
        a = rng.standard_normal((m, n))
        f = wsvd(a, WeightMatrix.identity(n))
        ref = scipy.linalg.svd(a, compute_uv=False)
        ref = ref[ref > max(m, n) * np.finfo(float).eps * ref[0]]
        assert len(f.sigma) == len(ref)
        assert np.allclose(f.sigma, ref, rtol=1e-12)


def test_c03_low_rank_optimality():
    # truncation attains the weighted operator-norm distance sigma_{k+1},
    # and random rank-k competitors never do better
    rng = np.random.default_rng(102)
    for k in (1, 2, 3):
        for _ in range(20):
            m = int(rng.integers(k + 3, 20))
            n = int(rng.integers(k + 3, 20))
            a = rng.standard_normal((m, n))
            weight = WeightMatrix.dense(random_spd(rng, n, cond=30.0))
            f = wsvd(a, weight)
            ak = low_rank_approx(f, k)
            err_k = weighted_operator_norm(a - ak, weight)
            assert err_k == pytest.approx(f.sigma[k], rel=1e-10)
            # competitors: random factor pairs plus jitters of the optimum
            left = (f.u[:, :k] * f.sigma[:k])
            right = weight.matvec(f.v[:, :k]).T
            for j in range(50):
                if j % 2:
                    lj = left * (1 + 0.01 * rng.standard_normal(left.shape))
                    rj = right * (1 + 0.01 * rng.standard_normal(right.shape))
                else:
                    lj = rng.standard_normal((m, k))
                    rj = rng.standard_normal((k, n))
                comp = lj @ rj
                assert weighted_operator_norm(a - comp, weight) \
                    >= f.sigma[k] - 1e-12


def test_c04_min_norm_solution_optimality():
    # stationarity and M-orthogonality to the null space on rank-deficient
    # instances
    rng = np.random.default_rng(103)
    for _ in range(25):
        n = int(rng.integers(6, 40))
        m = int(rng.integers(6, 40))
        r = int(rng.integers(2, min(m, n)))
        a = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        weight = WeightMatrix.dense(random_spd(rng, n, cond=100.0))
        b = rng.standard_normal(m)
        f = wsvd(a, weight, full_matrices=True)
        x = min_m_norm_ls(f, b)
        scale = f.sigma[0] * max(np.linalg.norm(b), f.sigma[0] * np.linalg.norm(x))
        assert np.linalg.norm(a.T @ (a @ x - b)) <= 1e-10 * scale
        ns = f.null_space
        assert ns.shape[1] == n - f.rank
        assert np.max(np.abs(ns.T @ weight.matvec(x))) <= 1e-10 * weight.norm(x)


def test_c05_bidiagonal_factorization_relations(problems_small):
    problem = problems_small["phillips"]
    noisy = add_noise(problem, 1e-3, 0)
    state = wgkb_init(problem.a, problem.weight, noisy.b)
    for _ in range(30):
        wgkb_step(state, problem.a, problem.weight)
    k = state.k
    assert k == 30
    bk = project_bidiagonal(state)
    p, q = state.P, state.Q
    sigma1 = weighted_operator_norm(problem.a, problem.weight)
    res1 = np.linalg.norm(problem.a @ q[:, :k] - p @ bk, 2)
    assert res1 <= 1e-10 * sigma1
    rhs = q[:, :k] @ bk.T
    rhs[:, k] += state.alphas[k] * state.Q[:, k]
    res2 = np.linalg.norm(problem.weight.solve(problem.a.T @ p) - rhs, 2)
    assert res2 <= 1e-10 * sigma1


def test_c06_triplet_residual_identity(problems_small):
    # A^T u_bar - sigma_bar M v_bar = alpha_{k+1} (e^T y) M q_{k+1} at k = 20,
    # or at the termination step when the recursion exhausts the numerical
    # Krylov space first (the tail term is then zero)
    for name in PROBLEMS:
        problem = problems_small[name]
        noisy = add_noise(problem, 1e-3, 0)
        state = wgkb_init(problem.a, problem.weight, noisy.b)
        while not state.terminated and state.k < 20:
            wgkb_step(state, problem.a, problem.weight)
        k = state.k
        bk = project_bidiagonal(state)
        y = np.linalg.svd(bk, full_matrices=False)[0]
        trips = approx_triplets(state, 5)
        s1 = trips[0].sigma_bar
        if len(state.alphas) > k and state.Q.shape[1] > k:
            tail = state.alphas[k] * problem.weight.matvec(state.Q[:, k])
        else:
            tail = np.zeros(problem.n)
        for i, t in enumerate(trips):
            lhs = problem.a.T @ t.u_bar - t.sigma_bar * problem.weight.matvec(t.v_bar)
            resid = np.linalg.norm(lhs - y[-1, i] * tail)
            assert resid <= 1e-10 * s1, f"{name} k={k} triplet {i + 1}: {resid:.2e}"


def test_c07_transform_route_equivalence(problems_small):
    # weighted iterates against the factor-transformed ordinary route,
    # x_k vs L^{-1} xbar_k, k = 1..20, relative 1e-8
    profiles = {}
    for name in PROBLEMS:
        problem = problems_small[name]
        noisy = add_noise(problem, 1e-3, 0)
        weight = problem.weight
        xs_w = run_collect(problem.a, weight, noisy.b, 20)
        a_t = weight.solve_factor(problem.a.T, transpose=True).T
        xs_t = run_collect(a_t, WeightMatrix.identity(problem.n), noisy.b, 20)
        diffs = []
        for xw, xt in zip(xs_w, xs_t):
            xb = weight.solve_factor(xt)
            diffs.append(np.linalg.norm(xw - xb) / np.linalg.norm(xb))
        profiles[name] = diffs
    report = "; ".join(
        f"{name}: max {max(d):.2e} at k={int(np.argmax(d)) + 1} of {len(d)}"
        for name, d in profiles.items())
    worst = max(max(d) for d in profiles.values())
    assert worst <= 1e-8, (
        "per-iterate divergence between the two routes exceeds 1e-8: "
        + report
        + ".  The divergence grows like eps * sigma_1/sigma_k(B_k); once the "
        "projected problem is numerically singular the two routes amplify "
        "rounding differently, so the bound is unreachable on the fast-decay "
        "problems in floating point even though both routes are individually "
        "correct (their regularized solutions agree to working accuracy)."
    )


def test_c08_termination_reaches_min_norm_solution():
    rng = np.random.default_rng(104)
    a = rng.standard_normal((60, 25)) @ rng.standard_normal((25, 40))
    weight = WeightMatrix.dense(random_spd(rng, 40, cond=50.0))
    b = a @ rng.standard_normal(40)
    state = wlsqr_run(a, weight, b, max_iter=200)
    assert state.done, "recursion should terminate on a rank-deficient system"
    x_ref = min_m_norm_ls(wsvd(a, weight), b)
    assert np.linalg.norm(state.x - x_ref) <= 1e-8 * np.linalg.norm(x_ref)


def test_c09_filtered_solution_matches_normal_equations():
    rng = np.random.default_rng(105)
    # condition ~1e2 keeps the dense reference itself trustworthy
    u, _ = np.linalg.qr(rng.standard_normal((80, 60)))
    vt = np.linalg.qr(rng.standard_normal((60, 60)))[0]
    sig = np.logspace(-2, 0, 60)[::-1]
    a = (u * sig) @ vt
    weight = WeightMatrix.dense(random_spd(rng, 60, cond=100.0))
    m_mat = weight.as_array()
    b = rng.standard_normal(80)
    f = wsvd(a, weight)
    s1 = f.sigma[0]
    for j in range(9):
        lam = s1**2 * 10.0 ** (-j)
        x = tikhonov_wsvd(f, b, lam)
        x_ref = np.linalg.solve(a.T @ a + lam * m_mat, a.T @ b)
        assert np.linalg.norm(x - x_ref) <= 1e-8 * np.linalg.norm(x_ref), \
            f"lambda = sigma_1^2 * 1e-{j}"


def test_c10_error_bands_and_stop_indices():
    # five seeds at n ~ 1000: median oracle error within 3x of the reference
    # values, unweighted baseline stuck >= 0.1, median DP stop within +-5
    for name in PROBLEMS:
        t0 = time.perf_counter()
        n = 1001
        m = int(round(TABLE_RATIO[name] * n))
        problem = build_problem(name, m, n)
        w_errs, i_errs, dp_ks = [], [], []
        for seed in range(5):
            noisy = add_noise(problem, 1e-3, seed)
            rec_w = histories(problem, noisy, problem.weight, 60)
            rec_i = histories(problem, noisy, WeightMatrix.identity(n), 60)
            w_errs.append(min(rec_w.rel_errors))
            i_errs.append(min(rec_i.rel_errors))
            k, _ = stop_dp(np.concatenate([[rec_w.initial_residual],
                                           rec_w.residual_norms]),
                           1.01, float(np.linalg.norm(noisy.e)))
            dp_ks.append(k if k is not None else len(rec_w.residual_norms))
        med_w = float(np.median(w_errs))
        med_i = float(np.median(i_errs))
        med_dp = float(np.median(dp_ks))
        assert med_w <= 3 * WLSQR_ORACLE_REF[name], \
            f"{name}: weighted oracle error {med_w:.4f}"
        assert med_i >= 0.1, f"{name}: baseline oracle error {med_i:.4f}"
        assert abs(med_dp - DP_STOP_REF[name]) <= 5, \
            f"{name}: median DP stop {med_dp}"
        assert time.perf_counter() - t0 < 30.0, f"{name}: runtime budget"


def test_c11_semi_convergence(problems_small):
    # at eps = 1e-2 the error dips then climbs: the minimum sits strictly
    # inside the run and the error 20 steps later is >= 20% worse
    for name in PROBLEMS:
        problem = problems_small[name]
        noisy = add_noise(problem, 1e-2, 1)
        rec = histories(problem, noisy, problem.weight, 90)
        errs = rec.rel_errors
        k_star = int(np.argmin(errs)) + 1
        assert 1 < k_star < 60, f"{name}: k* = {k_star}"
        later = errs[min(k_star + 20, len(errs)) - 1]
        assert later >= 1.2 * errs[k_star - 1], \
            f"{name}: error climbs only {later / errs[k_star - 1]:.3f}x"


def test_c12_noise_sweep(problems_small):
    # weighted oracle error decreases with the noise level (at most one
    # inversion); the unweighted baseline stays flat
    for name in PROBLEMS:
        problem = problems_small[name]
        w_errs, i_errs = [], []
        for eps in SWEEP_EPSILONS:
            noisy = add_noise(problem, eps, 0)
            rec_w = histories(problem, noisy, problem.weight, 60)
            rec_i = histories(problem, noisy, WeightMatrix.identity(problem.n), 60)
            w_errs.append(min(rec_w.rel_errors))
            i_errs.append(min(rec_i.rel_errors))
        inversions = sum(b > a for a, b in zip(w_errs, w_errs[1:]))
        assert inversions <= 1, f"{name}: errors {w_errs}"
        flat = max(i_errs) / min(i_errs)
        assert flat < 1.2, f"{name}: baseline spread {flat:.3f}"


def test_c13_quadrature_exactness():
    rng = np.random.default_rng(106)
    for _ in range(10):
        t1, t2 = sorted(rng.uniform(-5, 5, 2))
        if t2 - t1 < 0.1:
            continue
        n = int(rng.integers(1, 20)) * 2 + 1
        t = np.linspace(t1, t2, n)
        w = simpson_weights(n, t1, t2)
        coef = rng.standard_normal(4)
        vals = coef[0] + coef[1] * t + coef[2] * t**2 + coef[3] * t**3
        exact = sum(c * (t2 ** (p + 1) - t1 ** (p + 1)) / (p + 1)
                    for p, c in enumerate(coef))
        assert w @ vals == pytest.approx(exact, rel=1e-12, abs=1e-14)
    t = np.linspace(-np.pi / 2, np.pi / 2, 2001)
    w = simpson_weights(2001, -np.pi / 2, np.pi / 2)
    assert abs(w @ np.cos(t) - 2.0) <= 1e-10
