import numpy as np
import pytest

from wsvd import (WeightMatrix, add_noise, approx_triplets, bidiag, build_problem,
                  project_bidiagonal, weighted_operator_norm, wgkb_init, wgkb_run,
                  wgkb_step, wsvd)

from test_weights import random_spd


def run_steps(a, weight, b, steps, reorth=True):
    state = wgkb_init(a, weight, b)
    while not state.terminated and state.k < steps:
        wgkb_step(state, a, weight, reorth=reorth)
    return state


def setup_random(seed=30, m=30, n=20, dense_weight=True):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    if dense_weight:
        weight = WeightMatrix.dense(random_spd(rng, n, cond=50.0))
    else:
        weight = WeightMatrix.diagonal(rng.uniform(0.2, 5.0, n))
    b = rng.standard_normal(m)
    return a, weight, b


def test_init_beta_and_p():
    a, weight, _ = setup_random()
    b = np.zeros(30)
    b[0] = 3.0
    state = wgkb_init(a, weight, b)
    assert state.betas[0] == 3.0
    assert np.allclose(state.ps[0], b / 3.0)


def test_init_alpha_identity():
    # alpha_1^2 = s^T M s for s = M^{-1} A^T p_1
    a, weight, b = setup_random(31)
    state = wgkb_init(a, weight, b)
    p1 = state.ps[0]
    s = weight.solve(a.T @ p1)
    assert state.alphas[0] ** 2 == pytest.approx(s @ weight.matvec(s), rel=1e-12)


def test_init_rejects_zero_b():
    a, weight, _ = setup_random()
    with pytest.raises(ValueError):
        wgkb_init(a, weight, np.zeros(30))


def test_init_b_orthogonal_to_range():
    # A maps onto span(e1); b along e2 gives alpha_1 = 0
    a = np.zeros((4, 3))
    a[0, 0] = 1.0
    b = np.array([0.0, 1.0, 0.0, 0.0])
    state = wgkb_init(a, WeightMatrix.identity(3), b)
    assert state.terminated
    assert state.termination_step == 0


def test_basis_orthonormality():
    a, weight, b = setup_random(32)
    state = run_steps(a, weight, b, 15)
    p, q = state.P, state.Q
    assert np.max(np.abs(p.T @ p - np.eye(p.shape[1]))) <= 1e-10
    m_mat = weight.as_array()
    assert np.max(np.abs(q.T @ m_mat @ q - np.eye(q.shape[1]))) <= 1e-10


def test_factorization_relations():
    a, weight, b = setup_random(33)
    state = run_steps(a, weight, b, 12)
    k = state.k
    bk = project_bidiagonal(state)
    p, q = state.P, state.Q
    sigma1 = weighted_operator_norm(a, weight)
    # AQ_k = P_{k+1} B_k
    assert np.max(np.abs(a @ q[:, :k] - p @ bk)) <= 1e-10 * sigma1
    # M^{-1} A^T P_{k+1} = Q_k B_k^T + alpha_{k+1} q_{k+1} e_{k+1}^T
    lhs = weight.solve(a.T @ p)
    rhs = q[:, :k] @ bk.T
    if len(state.alphas) > k and len(state.qs) > k:
        rhs = rhs.copy()
        rhs[:, k] += state.alphas[k] * state.qs[k]
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * sigma1


def test_identity_weight_matches_standard_gkb():
    # hand-rolled standard Golub-Kahan as oracle at M = I
    rng = np.random.default_rng(34)
    a = rng.standard_normal((15, 10))
    b = rng.standard_normal(15)
    state = run_steps(a, WeightMatrix.identity(10), b, 8)

    beta = np.linalg.norm(b)
    p = b / beta
    alphas, betas = [], [beta]
    s = a.T @ p
    alpha = np.linalg.norm(s)
    q = s / alpha
    alphas.append(alpha)
    ps, qs = [p], [q]
    for _ in range(7):
        r = a @ q - alpha * p
        for pj in ps:
            r -= (pj @ r) * pj
        beta = np.linalg.norm(r)
        p = r / beta
        s = a.T @ p - beta * q
        for qj in qs:
            s -= (qj @ s) * qj
        alpha = np.linalg.norm(s)
        q = s / alpha
        ps.append(p)
        qs.append(q)
        alphas.append(alpha)
        betas.append(beta)

    assert np.allclose(state.alphas[:8], alphas, rtol=1e-12)
    assert np.allclose(state.betas[:8], betas, rtol=1e-12)


def test_projection_shape_and_structure():
    a, weight, b = setup_random(35)
    state = run_steps(a, weight, b, 6)
    bk = project_bidiagonal(state)
    k = state.k
    assert bk.shape == (k + 1, k)
    assert np.allclose(np.diag(bk), state.alphas[:k])
    assert np.allclose(np.diag(bk, -1)[: k], state.betas[1 : k + 1])
    # everything off the two diagonals is zero
    mask = np.tril(np.triu(np.ones_like(bk), -1))
    assert np.all(bk[mask == 0] == 0)
    # B_k^T B_k symmetric tridiagonal
    t = bk.T @ bk
    assert np.allclose(t, t.T)
    assert np.all(np.triu(np.abs(t), 2) == 0)


def test_projection_partial_k():
    a, weight, b = setup_random(36)
    state = run_steps(a, weight, b, 8)
    b3 = project_bidiagonal(state, 3)
    assert b3.shape == (4, 3)
    assert np.array_equal(b3, project_bidiagonal(state)[:4, :3])


def test_projection_norm_bounded_by_sigma1():
    a, weight, b = setup_random(37)
    state = run_steps(a, weight, b, 10)
    bk = project_bidiagonal(state)
    assert np.linalg.norm(bk, 2) <= weighted_operator_norm(a, weight) + 1e-10


def test_rank_one_terminates():
    rng = np.random.default_rng(38)
    u = rng.standard_normal(12)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(9)
    a = np.outer(u, v)
    state = run_steps(a, WeightMatrix.identity(9), u, 10)
    assert state.terminated
    assert state.k == 1


def test_step_after_termination_raises():
    rng = np.random.default_rng(39)
    u = rng.standard_normal(6)
    a = np.outer(u, rng.standard_normal(4))
    weight = WeightMatrix.identity(4)
    state = run_steps(a, weight, u, 10)
    assert state.terminated
    with pytest.raises(RuntimeError):
        wgkb_step(state, a, weight)


def test_triplets_match_dense_wsvd():
    # run to full termination on 40x30: recovered values match the dense factorization
    a, weight, b = setup_random(40, m=40, n=30)
    state = run_steps(a, weight, b, 30)
    fact = wsvd(a, weight)
    trips = approx_triplets(state, min(state.k, fact.rank))
    got = np.array([t.sigma_bar for t in trips])
    assert np.allclose(got, fact.sigma[: len(got)], rtol=1e-8)
    for t in trips:
        assert np.linalg.norm(t.u_bar) == pytest.approx(1.0, abs=1e-10)
        assert weight.norm(t.v_bar) == pytest.approx(1.0, abs=1e-10)


def test_triplet_first_relation_exact():
    # A v_bar = sigma_bar u_bar holds to roundoff at every k
    a, weight, b = setup_random(41)
    state = run_steps(a, weight, b, 9)
    trips = approx_triplets(state, 4)
    s1 = trips[0].sigma_bar
    for t in trips:
        assert np.linalg.norm(a @ t.v_bar - t.sigma_bar * t.u_bar) <= 1e-10 * s1


def test_triplet_second_relation_and_bound():
    # A^T u_bar - sigma_bar M v_bar = alpha_{k+1} (e^T y) M q_{k+1}, and the
    # residual bound equals the M^{-1}-norm of the left side
    a, weight, b = setup_random(42)
    state = run_steps(a, weight, b, 9)
    k = state.k
    bk = project_bidiagonal(state)
    trips = approx_triplets(state, 4)
    alpha_next = state.alphas[k]
    q_next = state.qs[k]
    s1 = trips[0].sigma_bar
    uu, _, _ = np.linalg.svd(bk, full_matrices=False)
    for i, t in enumerate(trips):
        y = uu[:, i]
        resid = a.T @ t.u_bar - t.sigma_bar * weight.matvec(t.v_bar)
        rhs = alpha_next * y[-1] * weight.matvec(q_next)
        assert np.linalg.norm(resid - rhs) <= 1e-10 * s1
        minv_norm = np.sqrt(resid @ weight.solve(resid))
        assert minv_norm == pytest.approx(t.residual_bound, rel=1e-6, abs=1e-10 * s1)


def test_triplets_sorted_and_bounded_count():
    a, weight, b = setup_random(43)
    state = run_steps(a, weight, b, 7)
    trips = approx_triplets(state, state.k)
    vals = [t.sigma_bar for t in trips]
    assert vals == sorted(vals, reverse=True)
    with pytest.raises(ValueError):
        approx_triplets(state, 0)
    with pytest.raises(ValueError):
        approx_triplets(state, state.k + 1)


def test_residual_bound_zero_after_termination():
    a, weight, b = setup_random(44, m=20, n=12)
    state = run_steps(a, weight, b, 12)
    assert state.terminated
    trips = approx_triplets(state, 3)
    for t in trips:
        assert t.residual_bound <= 1e-10 * trips[0].sigma_bar


def test_no_reorth_still_runs():
    a, weight, b = setup_random(45)
    state = run_steps(a, weight, b, 5, reorth=False)
    assert state.k == 5


# -- column buffers -----------------------------------------------------------

def reference_wgkb(a, weight, b, steps):
    """List-of-vectors weighted recursion with two classical Gram-Schmidt
    passes per vector, the basis rebuilt from the lists at every step.

    np.array(ps).T has the column layout of the engine's buffers, so both
    run the same products in the same summation order and any difference is
    a bookkeeping fault.  (A C-ordered rebuild such as np.column_stack sums
    in another order; on this problem that moves the late, small alphas by
    up to 3e-12 relative.)
    """
    beta = np.linalg.norm(b)
    ps = [b / beta]
    betas, alphas = [beta], []
    s = weight.solve(a.T @ ps[0])
    alpha = np.sqrt(s @ weight.matvec(s))
    qs = [s / alpha]
    alphas.append(alpha)
    for _ in range(steps):
        r = a @ qs[-1] - alpha * ps[-1]
        pm = np.array(ps).T
        for _ in range(2):
            r = r - pm @ (pm.T @ r)
        beta = np.linalg.norm(r)
        ps.append(r / beta)
        s = weight.solve(a.T @ ps[-1] - beta * weight.matvec(qs[-1]))
        qm = np.array(qs).T
        for _ in range(2):
            s = s - qm @ (qm.T @ weight.matvec(s))
        alpha = np.sqrt(s @ weight.matvec(s))
        qs.append(s / alpha)
        alphas.append(alpha)
        betas.append(beta)
    return alphas, betas


@pytest.fixture(scope="module")
def phillips_70():
    # 70 steps pass the buffer's first two growths (32 and 64 columns)
    problem = build_problem("phillips", 120, 101)
    b = add_noise(problem, 1e-3, 0).b
    state = run_steps(problem.a, problem.weight, b, 70)
    assert state.k == 70 and not state.terminated
    assert state.p_buf.shape[1] > 64 and state.q_buf.shape[1] > 64
    return problem, b, state


def test_buffers_keep_orthonormality_past_growth(phillips_70):
    problem, _, state = phillips_70
    p, q = state.P, state.Q
    assert p.shape == (120, 71) and q.shape == (101, 71)
    assert np.linalg.norm(p.T @ p - np.eye(71), 2) <= 1e-14
    assert np.linalg.norm(q.T @ problem.weight.matvec(q) - np.eye(71), 2) <= 1e-14


def test_buffers_match_list_reference(phillips_70):
    problem, b, state = phillips_70
    alphas, betas = reference_wgkb(problem.a, problem.weight, b, 70)
    assert np.allclose(state.alphas, alphas, rtol=1e-12, atol=0)
    assert np.allclose(state.betas, betas, rtol=1e-12, atol=0)


def test_bases_are_read_only_views(phillips_70):
    _, _, state = phillips_70
    for view, buf in ((state.P, state.p_buf), (state.Q, state.q_buf)):
        assert not view.flags.writeable
        assert np.shares_memory(view, buf)
        with pytest.raises(ValueError):
            view[0, 0] = 1.0
    # the list-style accessors are the same views transposed
    assert np.shares_memory(state.ps, state.p_buf) and not state.ps.flags.writeable
    assert np.shares_memory(state.qs, state.q_buf) and not state.qs.flags.writeable
    assert len(state.ps) == state.k + 1 and np.array_equal(state.qs[3], state.Q[:, 3])


def test_step_within_capacity_copies_no_basis():
    a, weight, b = setup_random(46)
    state = run_steps(a, weight, b, 3)
    p_before = state.P
    wgkb_step(state, a, weight)
    # the earlier view is a prefix of the new one: same memory, no rebuild
    assert np.shares_memory(p_before, state.P)
    assert np.array_equal(state.P[:, :4], p_before)



def test_a_budget_sizes_the_bases_and_a_longer_run_still_grows():
    a, weight, b = setup_random(47)
    free = run_steps(a, weight, b, 5)
    state = wgkb_init(a, weight, b, max_steps=2)
    assert state.p_buf.shape == (30, 3) and state.q_buf.shape == (20, 3)
    for _ in range(5):
        wgkb_step(state, a, weight)
    # past its budget the run takes the growth path, with the same numbers
    assert state.p_buf.shape[1] >= 6 and state.q_buf.shape[1] >= 6
    assert state.alphas == free.alphas and state.betas == free.betas
    assert np.array_equal(state.P, free.P) and np.array_equal(state.Q, free.Q)


def test_init_rejects_a_negative_budget():
    a, weight, b = setup_random()
    with pytest.raises(ValueError, match="max_steps"):
        wgkb_init(a, weight, b, max_steps=-1)
    assert wgkb_init(a, weight, b, max_steps=0).p_buf.shape == (30, 1)


@pytest.mark.parametrize("steps", [5, 50])
def test_run_sizes_each_buffer_from_its_budget(steps):
    a, weight, b = setup_random(48)
    state = wgkb_run(a, weight, b, steps)
    cols = min(steps, 30, 20) + 1
    assert state.p_buf.shape == (30, cols) and state.q_buf.shape == (20, cols)


def test_run_stops_at_a_terminating_step():
    problem = build_problem("shaw", 60, 41)
    state = wgkb_run(problem.a, problem.weight, problem.b_exact, 64)
    assert state.terminated and state.k == state.termination_step < 64


def test_run_passes_reorth_to_every_step(monkeypatch):
    a, weight, b = setup_random(49)
    seen = []
    original = bidiag.wgkb_step

    def spy(state, a, weight, reorth=True):
        seen.append(reorth)
        return original(state, a, weight, reorth=reorth)

    monkeypatch.setattr(bidiag, "wgkb_step", spy)
    state = wgkb_run(a, weight, b, 4, reorth=False)
    assert state.k == 4 and seen == [False] * 4


def test_run_of_zero_steps_is_the_init_state():
    a, weight, b = setup_random(50)
    state = wgkb_run(a, weight, b, 0)
    init = wgkb_init(a, weight, b, max_steps=0)
    assert state.k == 0 and not state.terminated
    assert state.alphas == init.alphas and state.betas == init.betas
    assert np.array_equal(state.P, init.P) and np.array_equal(state.Q, init.Q)


@pytest.mark.parametrize("reorth", [True, False])
def test_run_is_bit_identical_to_the_hand_loop(reorth):
    a, weight, b = setup_random(51, dense_weight=False)
    hand = wgkb_init(a, weight, b, max_steps=12)
    while not hand.terminated and hand.k < 12:
        wgkb_step(hand, a, weight, reorth=reorth)
    state = wgkb_run(a, weight, b, 12, reorth=reorth)
    assert state.alphas == hand.alphas and state.betas == hand.betas
    assert np.array_equal(state.P, hand.P) and np.array_equal(state.Q, hand.Q)
    assert (state.terminated, state.termination_step) == (hand.terminated,
                                                          hand.termination_step)
