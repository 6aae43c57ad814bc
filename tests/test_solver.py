import re

import numpy as np
import pytest
import scipy.sparse.linalg

from wsvd import (WeightMatrix, add_noise, build_problem, min_m_norm_ls, project_bidiagonal,
                  wgkb_init, wgkb_run, wlsqr_init, wlsqr_run, wlsqr_step, wsvd)

from conftest import traced_peak
from test_weights import random_spd


def setup_random(seed, m=50, n=40, dense_weight=True, cond=50.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    if dense_weight:
        weight = WeightMatrix.dense(random_spd(rng, n, cond))
    else:
        weight = WeightMatrix.diagonal(rng.uniform(0.2, 5.0, n))
    b = rng.standard_normal(m)
    return a, weight, b


def collect_iterates(a, weight, b, k):
    xs = []
    wlsqr_run(a, weight, b, max_iter=k,
              callback=lambda i, x, res, mn: xs.append(x.copy()) and False)
    return xs


def test_init_state():
    a, weight, b = setup_random(50)
    state = wlsqr_init(a, weight, b)
    assert np.array_equal(state.x, np.zeros(40))
    assert state.phibar == pytest.approx(np.linalg.norm(b))
    assert state.rhobar == pytest.approx(state.bidiag.alphas[0])
    assert np.array_equal(state.w, state.bidiag.Q[:, 0])
    assert state.k == 0


def test_init_rejects_zero_b():
    a, weight, _ = setup_random(51)
    with pytest.raises(ValueError):
        wlsqr_init(a, weight, np.zeros(50))


@pytest.mark.parametrize("entry", [wgkb_init, lambda a, w, b: wgkb_run(a, w, b, 3),
                                   wlsqr_init, wlsqr_run],
                         ids=["wgkb_init", "wgkb_run", "wlsqr_init", "wlsqr_run"])
@pytest.mark.parametrize("shape", [(5,), (0, 5)], ids=["1-D", "empty"])
def test_a_malformed_matrix_is_rejected_naming_its_shape(entry, shape):
    a = np.ones(shape)
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        entry(a, WeightMatrix.identity(5), np.ones(shape[0]))


def test_first_step_closed_form():
    # x_1 = (phi_1/rho_1) q_1 with rho_1 = hypot(alpha_1, beta_2), phi_1 = c_1 beta_1
    a, weight, b = setup_random(52)
    state = wlsqr_init(a, weight, b)
    q1 = state.bidiag.Q[:, 0].copy()
    alpha1 = state.bidiag.alphas[0]
    beta1 = state.bidiag.betas[0]
    wlsqr_step(state, a, weight)
    beta2 = state.bidiag.betas[1]
    rho1 = np.hypot(alpha1, beta2)
    phi1 = (alpha1 / rho1) * beta1
    assert np.allclose(state.x, (phi1 / rho1) * q1, rtol=1e-12)


def test_iterates_match_projected_ls():
    # x_k = Q_k B_k^+ (beta_1 e_1), solved densely as the oracle
    a, weight, b = setup_random(53)
    state = wlsqr_init(a, weight, b)
    beta1 = state.bidiag.betas[0]
    for k in range(1, 16):
        wlsqr_step(state, a, weight)
        bk = project_bidiagonal(state.bidiag, k)
        rhs = np.zeros(k + 1)
        rhs[0] = beta1
        y, *_ = np.linalg.lstsq(bk, rhs, rcond=None)
        x_ref = state.bidiag.Q[:, :k] @ y
        assert np.linalg.norm(state.x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


def test_identity_weight_matches_scipy_lsqr():
    a, _, b = setup_random(54, m=40, n=25)
    weight = WeightMatrix.identity(25)
    for k in (1, 3, 7, 12):
        xs = collect_iterates(a, weight, b, k)
        ref = scipy.sparse.linalg.lsqr(a, b, atol=0, btol=0, conlim=0,
                                       iter_lim=k)[0]
        assert np.linalg.norm(xs[-1] - ref) <= 1e-10 * np.linalg.norm(ref)


def test_phibar_monotone_and_matches_residual():
    a, weight, b = setup_random(55)
    state = wlsqr_init(a, weight, b)
    prev = state.phibar
    for _ in range(20):
        wlsqr_step(state, a, weight)
        assert state.phibar <= prev + 1e-14
        prev = state.phibar
        recomputed = np.linalg.norm(a @ state.x - b)
        assert recomputed == pytest.approx(state.residual_norms[-1], rel=1e-8)


def test_solution_m_norm_tracked():
    a, weight, b = setup_random(56)
    xs = []
    state = wlsqr_run(a, weight, b, max_iter=10,
                      callback=lambda i, x, res, mn: xs.append(x.copy()) and False)
    for x, mn in zip(xs, state.solution_m_norms):
        assert weight.norm(x) == pytest.approx(mn, rel=1e-12)


def test_m_norm_equals_projected_y_norm():
    # ||x_k||_M = ||y_k||_2 while orthogonality holds
    a, weight, b = setup_random(57)
    state = wlsqr_init(a, weight, b)
    beta1 = state.bidiag.betas[0]
    for k in range(1, 11):
        wlsqr_step(state, a, weight)
        bk = project_bidiagonal(state.bidiag, k)
        rhs = np.zeros(k + 1)
        rhs[0] = beta1
        y, *_ = np.linalg.lstsq(bk, rhs, rcond=None)
        assert state.solution_m_norms[-1] == pytest.approx(np.linalg.norm(y), rel=1e-8)


def test_subspace_membership():
    # x_k lies in span(Q_k): M-orthogonal projection reproduces it
    a, weight, b = setup_random(58)
    state = wlsqr_init(a, weight, b)
    for k in range(1, 8):
        wlsqr_step(state, a, weight)
        q = state.bidiag.Q[:, :k]
        proj = q @ (q.T @ weight.matvec(state.x))
        assert np.linalg.norm(state.x - proj) <= 1e-10 * np.linalg.norm(state.x)


def test_krylov_space_characterization():
    # span(Q_k) = span{(M^{-1}A^T A)^i M^{-1}A^T b}
    a, weight, b = setup_random(59, m=20, n=12, cond=10.0)
    state = wlsqr_init(a, weight, b)
    for _ in range(5):
        wlsqr_step(state, a, weight)
    vec = weight.solve(a.T @ b)
    for k in range(1, 6):
        q = state.bidiag.Q[:, :k]
        v = vec / weight.norm(vec)
        proj = q @ (q.T @ weight.matvec(v))
        assert np.linalg.norm(v - proj) <= 1e-8, f"krylov vector {k} outside span"
        vec = weight.solve(a.T @ (a @ vec))


def test_consistent_system_solved_exactly():
    rng = np.random.default_rng(60)
    a = rng.standard_normal((30, 12))
    x_true = rng.standard_normal(12)
    b = a @ x_true
    weight = WeightMatrix.diagonal(rng.uniform(0.5, 2.0, 12))
    state = wlsqr_run(a, weight, b, max_iter=50)
    assert np.linalg.norm(a @ state.x - b) <= 1e-10 * np.linalg.norm(b)


def test_termination_gives_min_m_norm_solution():
    # rank-deficient consistent system: the terminal iterate is the
    # minimum-M-norm least-squares solution
    rng = np.random.default_rng(61)
    a = rng.standard_normal((25, 6)) @ rng.standard_normal((6, 15))
    weight = WeightMatrix.dense(random_spd(rng, 15, cond=20.0))
    b = a @ rng.standard_normal(15)
    state = wlsqr_run(a, weight, b, max_iter=100)
    assert state.done
    x_ref = min_m_norm_ls(wsvd(a, weight), b)
    assert np.linalg.norm(state.x - x_ref) <= 1e-8 * np.linalg.norm(x_ref)


def test_max_iter_and_callback_stop():
    a, weight, b = setup_random(62)
    state = wlsqr_run(a, weight, b, max_iter=4)
    assert state.k == 4
    state = wlsqr_run(a, weight, b, callback=lambda k, x, res, mn: k >= 2)
    assert state.k == 2
    with pytest.raises(ValueError):
        wlsqr_run(a, weight, b, max_iter=0)


def test_step_after_done_raises():
    rng = np.random.default_rng(63)
    u = rng.standard_normal(8)
    a = np.outer(u, rng.standard_normal(5))
    weight = WeightMatrix.identity(5)
    state = wlsqr_run(a, weight, u, max_iter=50)
    assert state.done
    with pytest.raises(RuntimeError):
        wlsqr_step(state, a, weight)


def test_b_orthogonal_to_range_returns_zero():
    a = np.zeros((4, 3))
    a[0, 0] = 1.0
    b = np.array([0.0, 2.0, 0.0, 0.0])
    state = wlsqr_init(a, WeightMatrix.identity(3), b)
    assert state.done
    assert np.array_equal(state.x, np.zeros(3))


def test_run_allocates_its_bases_once_for_max_iter():
    # 100 steps fill 101 columns of P (m x) and Q (n x); beyond those the run
    # holds O(m + n): no spare columns and no copy made by growing a basis
    problem = build_problem("phillips", 600, 501)
    b = add_noise(problem, 1e-3, 0).b
    wlsqr_run(problem.a, problem.weight, b, max_iter=3)  # warm caches outside the trace
    state, peak = traced_peak(
        lambda: wlsqr_run(problem.a, problem.weight, b, max_iter=100))
    m, n = problem.a.shape
    assert state.k == 100 and not state.done
    assert peak <= 1.1 * 8 * 101 * (m + n) + 16 * 8 * (m + n)


@pytest.mark.parametrize("max_iter,columns", [
    (5, 6),
    # the budget is capped at min(m, n) steps, past which the recursion stops
    (10_000, 32),
])
def test_bases_are_sized_from_max_iter(max_iter, columns):
    problem = build_problem("green", 40, 31)
    state = wlsqr_run(problem.a, problem.weight, add_noise(problem, 1e-3, 0).b,
                      max_iter=max_iter)
    bid = state.bidiag
    assert bid.p_buf.shape == (40, columns) and bid.q_buf.shape == (31, columns)
