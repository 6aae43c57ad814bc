import itertools

import numpy as np
import pytest

from wsvd import (StoppingRule, WeightMatrix, add_noise, approx_triplets, bidiag,
                  build_problem, project_bidiagonal, spr_solve, weighted_operator_norm,
                  wgkb_init, wgkb_run, wgkb_step, wsvd)
from wsvd import regularization

from test_weights import random_spd


def run_steps(a, weight, b, steps):
    state = wgkb_init(a, weight, b)
    while not state.terminated and state.k < steps:
        wgkb_step(state, a, weight)
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
    assert np.allclose(state.P[:, 0], b / 3.0)


def test_init_alpha_identity():
    # alpha_1^2 = s^T M s for s = M^{-1} A^T p_1
    a, weight, b = setup_random(31)
    state = wgkb_init(a, weight, b)
    p1 = state.P[:, 0]
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
    if state.Q.shape[1] > k:
        rhs = rhs.copy()
        rhs[:, k] += state.alphas[k] * state.Q[:, k]
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


@pytest.mark.parametrize("k", [0, 9])
def test_projection_rejects_a_k_outside_the_completed_steps(k):
    a, weight, b = setup_random(36)
    state = run_steps(a, weight, b, 8)
    with pytest.raises(ValueError, match=f"k must satisfy 1 <= k <= 8, got {k}"):
        project_bidiagonal(state, k)


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
    q_next = state.Q[:, k]
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


# -- column buffers -----------------------------------------------------------

def gram_schmidt(v, basis, inner):
    """v less its part in span(basis), and its norm after: one classical pass
    with coefficients basis^T inner(v), and a second when the first kept less
    than 1/sqrt(2) of the norm; inner(v) is M v for the M-inner product."""
    norm = np.sqrt(v @ inner(v))
    for _ in range(2):
        v = v - basis @ (basis.T @ inner(v))
        before, norm = norm, np.sqrt(v @ inner(v))
        if norm >= before / np.sqrt(2.0):
            break
    return v, norm


def reference_wgkb(a, weight, b, steps):
    """List-of-vectors weighted recursion, the basis rebuilt from the lists at
    every step, each new vector orthogonalized by gram_schmidt with explicit
    M products.

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
        r, beta = gram_schmidt(a @ qs[-1] - alpha * ps[-1], np.array(ps).T, lambda v: v)
        ps.append(r / beta)
        s = weight.solve(a.T @ ps[-1] - beta * weight.matvec(qs[-1]))
        s, alpha = gram_schmidt(s, np.array(qs).T, weight.matvec)
        qs.append(s / alpha)
        alphas.append(alpha)
        betas.append(beta)
    return alphas, betas


def cancelling(rng, basis, inner_factor):
    """basis c plus an orthogonal part 1e-10 of its size, where inner_factor
    maps the inner product to the 2-norm (the identity, or L for M = L^T L)."""
    m, k = basis.shape
    v = rng.standard_normal(m)
    v -= basis @ (basis.T @ inner_factor.T @ inner_factor @ v)
    along = basis @ rng.standard_normal(k)
    return along + 1e-10 * np.linalg.norm(inner_factor @ along) / np.linalg.norm(
        inner_factor @ v) * v


def orthonormal_bases(rng):
    """A 2-orthonormal 40 x 6 basis, a dense weight M and an M-orthonormal
    30 x 6 basis."""
    pm = np.linalg.qr(rng.standard_normal((40, 6)))[0]
    weight = WeightMatrix.dense(random_spd(rng, 30, cond=50.0))
    return pm, weight, weight.solve_factor(np.linalg.qr(rng.standard_normal((30, 6)))[0])


def test_a_cancelling_vector_takes_the_second_pass():
    rng = np.random.default_rng(53)
    pm, weight, qm = orthonormal_bases(rng)
    left = cancelling(rng, pm, np.eye(40))
    right = cancelling(rng, qm, weight.factor())
    for (v, norm), basis, mv in ((bidiag._reorth(left, pm), pm, lambda x: x),
                                 (bidiag._reorth(right, qm, weight), qm,
                                  weight.matvec)):
        # one pass would leave basis^T M v near 1e-6 of ||v||
        assert np.linalg.norm(basis.T @ mv(v)) <= 1e-14 * norm
        assert norm == np.sqrt(v @ mv(v))


def test_a_vector_that_keeps_its_norm_takes_one_pass():
    rng = np.random.default_rng(54)
    pm, weight, qm = orthonormal_bases(rng)
    r, s = rng.standard_normal(40), rng.standard_normal(30)
    once = r - pm @ (pm.T @ r)
    assert np.array_equal(bidiag._reorth(r, pm)[0], once)
    once = s - qm @ (qm.T @ weight.matvec(s))
    assert np.array_equal(bidiag._reorth(s, qm, weight)[0], once)


@pytest.fixture(scope="module")
def phillips_70():
    # without a budget the bases are sized for min(m, n) = 101 steps
    problem = build_problem("phillips", 120, 101)
    b = add_noise(problem, 1e-3, 0).b
    state = run_steps(problem.a, problem.weight, b, 70)
    assert state.k == 70 and not state.terminated
    assert state.p_buf.shape == (120, 102) and state.q_buf.shape == (101, 102)
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


def test_step_within_capacity_copies_no_basis():
    a, weight, b = setup_random(46)
    state = run_steps(a, weight, b, 3)
    p_before = state.P
    wgkb_step(state, a, weight)
    # the earlier view is a prefix of the new one: same memory, no rebuild
    assert np.shares_memory(p_before, state.P)
    assert np.array_equal(state.P[:, :4], p_before)



def test_a_step_past_the_budget_raises():
    a, weight, b = setup_random(47)
    state = wgkb_init(a, weight, b, max_steps=2)
    assert state.p_buf.shape == (30, 3) and state.q_buf.shape == (20, 3)
    for _ in range(2):
        wgkb_step(state, a, weight)
    alphas, betas, p, q = list(state.alphas), list(state.betas), state.P, state.Q
    with pytest.raises(RuntimeError, match="step 3 is past the budget of 2 steps"):
        wgkb_step(state, a, weight)
    assert state.k == 2 and not state.terminated
    assert state.alphas == alphas and state.betas == betas
    assert np.array_equal(state.P, p) and np.array_equal(state.Q, q)


def test_a_step_whose_beta_overflows_raises_and_leaves_the_state():
    # sigma_1 of the lower 2x2 block is 2.1e308: alpha_1 = 2.1e298 is in
    # range, but A q_1 overflows, and the step raises without a
    # RuntimeWarning (they fail the suite)
    a = np.array([[1.0, 0.0, 0.0], [0.0, 1.5e308, 1.5e308], [0.0, 1.5e308, -1.5e308]])
    weight = WeightMatrix.identity(3)
    state = wgkb_init(a, weight, np.array([1.0, 1e-10, 0.0]))
    assert state.k == 0 and not state.terminated
    alphas, betas, p, q = list(state.alphas), list(state.betas), state.P, state.Q
    with pytest.raises(ValueError, match=r"past the float range: \(beta_2, alpha_2\)"):
        wgkb_step(state, a, weight)
    assert state.alphas == alphas and state.betas == betas
    assert np.array_equal(state.P, p) and np.array_equal(state.Q, q)


def orthogonal_start():
    # A maps onto span(e1) and b = e2: alpha_1 = 0
    a = np.zeros((4, 3))
    a[0, 0] = 1.0
    return a, np.array([0.0, 1.0, 0.0, 0.0])


def beta_breakdown():
    # rank one with b along its range: beta_2 = 0
    rng = np.random.default_rng(38)
    u = rng.standard_normal(12)
    return np.outer(u, rng.standard_normal(9)), u


def alpha_breakdown():
    # two columns and b off their span: q_3 has no room left, alpha_3 = 0
    rng = np.random.default_rng(52)
    return rng.standard_normal((6, 2)), rng.standard_normal(6)


@pytest.mark.parametrize("case, k", [(orthogonal_start, 0), (beta_breakdown, 1),
                                     (alpha_breakdown, 2)],
                         ids=["orthogonal-start", "beta-breakdown", "alpha-breakdown"])
def test_a_terminated_run_stores_alpha_next_as_zero(case, k):
    a, b = case()
    state = run_steps(a, WeightMatrix.identity(a.shape[1]), b, 10)
    assert state.terminated and state.k == k
    assert len(state.alphas) == len(state.betas) == k + 1
    assert state.alphas[k] == 0.0
    assert (state.betas[k] == 0.0) == (case is beta_breakdown)


def running():
    # ten steps from a b whose norm beta_1 exceeds every entry of B_k
    a, _, b = setup_random(55, dense_weight=False)
    return a, 1e3 * b


@pytest.mark.parametrize("case, k, p_cols, q_cols",
                         [(running, 10, 11, 11), (orthogonal_start, 0, 1, 0),
                          (alpha_breakdown, 2, 3, 2), (beta_breakdown, 1, 1, 1)],
                         ids=["running", "orthogonal-start", "alpha-breakdown",
                              "beta-breakdown"])
def test_every_run_fact_follows_from_the_recorded_scalars(case, k, p_cols, q_cols):
    a, b = case()
    state = run_steps(a, WeightMatrix.identity(a.shape[1]), b, 10)
    done = case is not running
    assert state.k == k
    assert state.P.shape[1] == p_cols == k + (state.betas[k] != 0.0)
    assert state.Q.shape[1] == q_cols == k + (state.alphas[k] != 0.0)
    assert state.terminated == done == (state.alphas[k] == 0.0)
    assert state.termination_step == (k if done else None)
    # the scale is the largest entry of B_k and alpha_{k+1}; beta_1 is none
    entries = [state.alphas[k], *(project_bidiagonal(state).ravel() if k else ())]
    assert state.scale == max(entries)
    if case is running:
        assert state.scale < state.betas[0]


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


def test_run_of_zero_steps_is_the_init_state():
    a, weight, b = setup_random(50)
    state = wgkb_run(a, weight, b, 0)
    init = wgkb_init(a, weight, b, max_steps=0)
    assert state.k == 0 and not state.terminated
    assert state.alphas == init.alphas and state.betas == init.betas
    assert np.array_equal(state.P, init.P) and np.array_equal(state.Q, init.Q)


def test_run_accepts_a_matrix_given_as_nested_lists():
    # the steps read the array that the entry check made, not the lists
    a, weight, b = setup_random(52)
    state = wgkb_run(a.tolist(), weight, b.tolist(), 5)
    ref = wgkb_run(a, weight, b, 5)
    assert state.alphas == ref.alphas and state.betas == ref.betas


def test_run_is_bit_identical_to_the_hand_loop():
    a, weight, b = setup_random(51, dense_weight=False)
    hand = wgkb_init(a, weight, b, max_steps=12)
    while not hand.terminated and hand.k < 12:
        wgkb_step(hand, a, weight)
    state = wgkb_run(a, weight, b, 12)
    assert state.alphas == hand.alphas and state.betas == hand.betas
    assert np.array_equal(state.P, hand.P) and np.array_equal(state.Q, hand.Q)
    assert (state.terminated, state.termination_step) == (hand.terminated,
                                                          hand.termination_step)


# -- the envelope: products read only the row blocks' nonzero column panels --

def banded(m=1300, n=700, width=150, seed=60):
    """A slanted band: row i is nonzero only within width columns of i n / m."""
    rng = np.random.default_rng(seed)
    rows, cols = np.indices((m, n))
    return np.where(np.abs(rows * n / m - cols) < width, rng.standard_normal((m, n)), 0.0)


def second_block(m):
    return tuple(bidiag._row_bounds(m)[1:3])


def zero_row_block(a):
    a = a.copy()
    r0, r1 = second_block(a.shape[0])
    a[r0:r1] = 0.0
    return a


def zero_leading_columns(a):
    # dense but for 150 zero leading columns in every row
    a = np.random.default_rng(61).standard_normal(a.shape)
    a[:, :150] = 0.0
    return a


def stray_entries(a):
    # a nonzero at both ends of a middle row of every block, outside the
    # columns the block's first and last row span
    a = a.copy()
    bounds = bidiag._row_bounds(a.shape[0])
    a[[(r0 + r1) // 2 for r0, r1 in zip(bounds[:-1], bounds[1:])], [[0], [-1]]] = 1.0
    return a


def sliced(a):
    # a non-contiguous view: every other row of a wider matrix
    big = np.zeros((2 * a.shape[0], a.shape[1] + 5))
    big[::2, 3:-2] = a
    return big[::2, 3:-2]


@pytest.mark.parametrize("layout", [np.ascontiguousarray, zero_row_block,
                                    zero_leading_columns, stray_entries,
                                    np.asfortranarray, sliced],
                         ids=lambda f: f.__name__)
def test_envelope_products_match_the_plain_products(layout):
    a = layout(banded())
    m, n = a.shape
    envelope = bidiag._envelope(a)
    # the blocks cover the rows in order, and some of them are trimmed
    assert [blk[0] for blk in envelope] == [0, *[blk[1] for blk in envelope[:-1]]]
    assert envelope[-1][1] == m
    if layout is not stray_entries:
        assert sum((r1 - r0) * (c1 - c0) for r0, r1, c0, c1 in envelope) < m * n
    rng = np.random.default_rng(62)
    q, p = rng.standard_normal(n), rng.standard_normal(m)
    y, z = a @ q, a.T @ p
    tol = 1e-14 * np.sqrt(m * n)
    assert np.max(np.abs(bidiag._matvec(a, envelope, q) - y)) <= tol * np.max(np.abs(y))
    assert np.max(np.abs(bidiag._rmatvec(a, envelope, p) - z)) <= tol * np.max(np.abs(z))


def test_envelope_trims_zero_rows_and_leading_columns():
    assert (*second_block(1300), 0, 0) in bidiag._envelope(zero_row_block(banded()))
    # 150 zero columns leave the panels from 128 (ENVELOPE_COLS = 64) in one block
    assert bidiag._envelope(zero_leading_columns(banded())) == ((0, 1300, 128, 700),)


def test_row_blocks_have_equal_heights_and_stay_threaded():
    # 3000 rows are six 500-row blocks, not five of 512 and a 440-row rest:
    # each of phillips' blocks then has enough entries for a threaded GEMV
    a = build_problem("phillips").a
    envelope = bidiag._envelope(a)
    assert [(r0, r1) for r0, r1, _, _ in envelope] == [(r, r + 500) for r in range(0, 3000, 500)]
    assert min((r1 - r0) * (c1 - c0) for r0, r1, c0, c1 in envelope) >= 5e5
    assert bidiag._row_bounds(1300) == [0, 433, 866, 1300]


@pytest.mark.parametrize("a", [setup_random()[0], np.ones((1100, 200)),
                               build_problem("shaw", 1200, 1001).a],
                         ids=["random", "ones", "shaw"])
def test_a_dense_matrix_is_one_full_block(a):
    assert bidiag._envelope(a) == ((0, *a.shape[:1], 0, a.shape[1]),)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("block, col", [(0, -1), (1, 0)], ids=["right", "left"])
def test_a_non_finite_entry_where_a_block_would_be_trimmed_still_raises(bad, block, col):
    a = banded()
    r0, r1, c0, c1 = bidiag._envelope(a)[block]
    assert c0 > 0 if col == 0 else c1 < a.shape[1]
    # an inner row, in a column panel that holds no other nonzero of the block
    a[(r0 + r1) // 2, col] = bad
    with pytest.raises(ValueError, match="matrix has non-finite entries"):
        wgkb_init(a, WeightMatrix.identity(a.shape[1]), np.ones(a.shape[0]))


def brute_force_envelope(a):
    """_envelope's blocks from every nonzero column of each row block,
    rounded out to whole panels, with equal neighbours merged."""
    n, width = a.shape[1], bidiag.ENVELOPE_COLS
    bounds = bidiag._row_bounds(a.shape[0])
    blocks = []
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        cols = np.flatnonzero(a[r0:r1].any(axis=0))
        span = (0, 0)
        if cols.size:
            span = (int(cols[0]) // width * width, min(n, (int(cols[-1]) // width + 1) * width))
        blocks.append((r0, r1, *span))
    merged = []
    for span, group in itertools.groupby(blocks, key=lambda b: b[2:]):
        group = list(group)
        merged.append((group[0][0], group[-1][1], *span))
    return tuple(merged)


def block_sparse(seed):
    """A few random dense rectangles in a zero matrix whose m lies below or
    above ENVELOPE_ROWS and whose n is no multiple of ENVELOPE_COLS.  One
    row block is emptied and then given a lone 1, NaN, inf or -inf at
    column 0 or n - 1 of an inner row; another, where there is one, stays
    empty.  seed runs over 0..11."""
    rng = np.random.default_rng(seed)
    m, n = (300, 1100, 1600)[seed % 3], (65, 333, 1000, 130)[seed % 4]
    a = np.zeros((m, n))
    for _ in range(rng.integers(1, 4)):
        r0, c0 = rng.integers(0, m - 1), rng.integers(1, n - 2)
        r1, c1 = rng.integers(r0 + 1, m), rng.integers(c0 + 1, n - 1)
        a[r0:r1, c0:c1] = rng.standard_normal((r1 - r0, c1 - c0))
    bounds = bidiag._row_bounds(m)
    emptied = rng.permutation(len(bounds) - 1)[:2]
    for i in emptied:
        a[bounds[i]:bounds[i + 1]] = 0.0
    row = rng.integers(bounds[emptied[0]] + 1, bounds[emptied[0] + 1] - 1)
    a[row, (0, n - 1)[seed % 2]] = (1.0, np.nan, np.inf, -np.inf)[seed // 3]
    return a


@pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray, sliced],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("seed", range(12))
def test_the_scan_matches_a_brute_force_reference(seed, layout):
    a = layout(block_sparse(seed))
    assert bidiag._envelope(a) == brute_force_envelope(a)


def test_an_all_zero_last_panel_is_trimmed_however_narrow():
    # at n = 65 the last panel is column 64 alone
    a = np.ones((600, 65))
    a[:, -1] = 0.0
    assert bidiag._envelope(a) == brute_force_envelope(a) == ((0, 600, 0, 64),)


def three_rules(name, steps):
    """spr_solve's dp, lc and oracle records, as a function of no arguments,
    on name at 1200x1001, eps 1e-3, seed 0.  Each rule runs a recursion of
    its own, under whatever patches are in place when the function is
    called: the kept run is dropped first, and steps (the fixture) shows
    that no call replays one."""
    problem = build_problem(name, 1200, 1001)
    noisy = add_noise(problem, 1e-3, 0)
    noise = float(np.linalg.norm(noisy.e))

    def solve():
        records = []
        for kind in ("dp", "lc", "oracle"):
            regularization._kept = None
            steps[0] = 0
            records.append(spr_solve(problem.a, problem.weight, noisy.b,
                                     StoppingRule(kind, noise_norm=noise,
                                                  x_true=problem.x_true))[1])
            assert steps[0] == len(records[-1].ks) > 0
        return records

    return solve


def assert_same_stops(records, references):
    for got, ref in zip(records, references):
        assert (got.stop_index, got.terminated_at) == (ref.stop_index, ref.terminated_at)
        k = got.stop_index
        assert got.rel_errors[k - 1] == pytest.approx(ref.rel_errors[k - 1], rel=1e-10)


@pytest.mark.parametrize("name, blocks", [("phillips", 3), ("shaw", 1)])
def test_the_envelope_keeps_every_stop_of_a_solve(name, blocks, monkeypatch, steps):
    solve = three_rules(name, steps)
    assert len(bidiag._envelope(build_problem(name, 1200, 1001).a)) == blocks
    trimmed = solve()
    monkeypatch.setattr(bidiag, "_envelope", lambda a: ((0, a.shape[0], 0, a.shape[1]),))
    full = solve()
    assert_same_stops(trimmed, full)
    if blocks == 1:
        # one block is the plain product, bit for bit
        for got, ref in zip(trimmed, full):
            assert np.array_equal(got.residual_norms, ref.residual_norms)
            assert np.array_equal(got.rel_errors, ref.rel_errors)


@pytest.mark.parametrize("name", ["phillips", "shaw"])
def test_one_pass_unless_it_cancels_keeps_every_stop_of_a_solve(name, monkeypatch, steps):
    # against a Gram-Schmidt helper that always makes two passes
    def twice(v, basis, weight=None):
        mv = (lambda x: x) if weight is None else weight.matvec
        for _ in range(2):
            v = v - basis @ (basis.T @ mv(v))
        return v, np.sqrt(v @ mv(v))

    solve = three_rules(name, steps)
    lean = solve()
    monkeypatch.setattr(bidiag, "_reorth", twice)
    assert_same_stops(lean, solve())
