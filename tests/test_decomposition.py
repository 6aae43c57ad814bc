import numpy as np
import pytest

from wsvd import (WeightMatrix, add_noise, build_problem, covers, low_rank_approx,
                  min_m_norm_ls, tikhonov_wsvd, twsvd_solution,
                  weighted_operator_norm, wsvd)

from test_weights import random_spd


def random_weight(rng, n, dense=False, cond=100.0):
    if dense:
        return WeightMatrix.dense(random_spd(rng, n, cond))
    return WeightMatrix.diagonal(rng.uniform(0.1, 10.0, n))


def check_invariants(a, weight, fact, tol=1e-10):
    m_mat = weight.as_array()
    r = fact.rank
    u, v, sig = fact.u[:, :r], fact.v[:, :r], fact.sigma
    assert np.max(np.abs(u.T @ u - np.eye(r))) <= tol
    assert np.max(np.abs(v.T @ m_mat @ v - np.eye(r))) <= tol
    scale = sig[0] if r else 1.0
    assert np.max(np.abs(a @ v - u * sig)) <= tol * scale
    assert np.max(np.abs((u * sig) @ v.T @ m_mat - a)) <= tol * scale
    assert np.all(sig > 0)
    assert np.all(np.diff(sig) <= 0)


def test_hand_example():
    # A = [[1,0],[0,0]], M = diag(4,1): rank 1, sigma = 1/2, u = e1, v = (1/2, 0)
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    w = WeightMatrix.diagonal([4.0, 1.0])
    f = wsvd(a, w)
    assert f.rank == 1
    assert f.sigma[0] == pytest.approx(0.5, abs=1e-15)
    assert np.allclose(f.u[:, 0], [1.0, 0.0])
    assert np.allclose(f.v[:, 0], [0.5, 0.0])
    assert np.allclose(a @ f.v[:, 0], f.sigma[0] * f.u[:, 0])
    assert f.v[:, 0] @ w.matvec(f.v[:, 0]) == pytest.approx(1.0)


def test_identity_input():
    w = WeightMatrix.identity(4)
    f = wsvd(np.eye(4), w)
    assert f.rank == 4
    assert np.allclose(f.sigma, 1.0)


def test_reduces_to_standard_svd():
    rng = np.random.default_rng(10)
    for _ in range(10):
        m, n = rng.integers(3, 30, 2)
        a = rng.standard_normal((m, n))
        f = wsvd(a, WeightMatrix.identity(n))
        s_ref = np.linalg.svd(a, compute_uv=False)
        q = min(len(f.sigma), len(s_ref))
        assert np.allclose(f.sigma[:q], s_ref[:q], rtol=1e-12)


def test_invariants_random():
    rng = np.random.default_rng(11)
    for trial in range(20):
        m = int(rng.integers(2, 40))
        n = int(rng.integers(2, 40))
        a = rng.standard_normal((m, n))
        w = random_weight(rng, n, dense=trial % 2 == 0)
        check_invariants(a, w, wsvd(a, w))


def test_sign_convention():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((8, 6))
    f = wsvd(a, random_weight(rng, 6))
    for j in range(f.rank):
        col = f.u[:, j]
        first = col[np.nonzero(np.abs(col) > 1e-14)[0][0]]
        assert first > 0


def test_full_matrices_null_space():
    rng = np.random.default_rng(13)
    # rank-3 matrix, 6 columns: null space has dimension 3
    a = rng.standard_normal((10, 3)) @ rng.standard_normal((3, 6))
    w = random_weight(rng, 6, dense=True)
    f = wsvd(a, w, full_matrices=True)
    assert f.rank == 3
    assert f.v.shape == (6, 6)
    ns = f.null_space
    assert ns.shape == (6, 3)
    assert np.max(np.abs(a @ ns)) <= 1e-10 * f.sigma[0]
    m_mat = w.as_array()
    assert np.allclose(f.v.T @ m_mat @ f.v, np.eye(6), atol=1e-10)


def test_operator_norm_scalar():
    # max |2x| / (2|x|) = 1
    assert weighted_operator_norm(np.array([[2.0]]), WeightMatrix.dense([[4.0]])) \
        == pytest.approx(1.0, rel=1e-14)


def test_operator_norm_equals_sigma1():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((9, 7))
    w = random_weight(rng, 7, dense=True)
    assert weighted_operator_norm(a, w) == pytest.approx(wsvd(a, w).sigma[0], rel=1e-12)


def test_operator_norm_zero_matrix():
    assert weighted_operator_norm(np.zeros((3, 2)), WeightMatrix.identity(2)) == 0.0


def test_low_rank_error_is_sigma_kplus1():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((12, 9))
    w = random_weight(rng, 9, dense=True)
    f = wsvd(a, w)
    for k in (1, 3, 5):
        ak = low_rank_approx(f, k)
        err = weighted_operator_norm(a - ak, w)
        assert err == pytest.approx(f.sigma[k], rel=1e-10)


def test_low_rank_validates_k():
    rng = np.random.default_rng(16)
    f = wsvd(rng.standard_normal((6, 5)), WeightMatrix.identity(5))
    with pytest.raises(ValueError):
        low_rank_approx(f, 0)
    with pytest.raises(ValueError):
        low_rank_approx(f, f.rank)


def test_min_m_norm_ls_normal_equations():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((10, 4)) @ rng.standard_normal((4, 8))
    w = random_weight(rng, 8, dense=True)
    b = rng.standard_normal(10)
    f = wsvd(a, w)
    x = min_m_norm_ls(f, b)
    # least-squares stationarity
    assert np.linalg.norm(a.T @ (a @ x - b)) <= 1e-10 * np.linalg.norm(a.T @ b)


def test_min_m_norm_identity_matches_pinv():
    rng = np.random.default_rng(18)
    a = rng.standard_normal((9, 3)) @ rng.standard_normal((3, 7))
    b = rng.standard_normal(9)
    x = min_m_norm_ls(wsvd(a, WeightMatrix.identity(7)), b)
    assert np.allclose(x, np.linalg.pinv(a) @ b, atol=1e-10)


def test_twsvd_full_rank_equals_min_norm():
    rng = np.random.default_rng(19)
    a = rng.standard_normal((8, 6))
    w = random_weight(rng, 6)
    f = wsvd(a, w)
    b = rng.standard_normal(8)
    assert np.allclose(twsvd_solution(f, b, f.rank), min_m_norm_ls(f, b))


def test_twsvd_truncation_order():
    rng = np.random.default_rng(20)
    a = rng.standard_normal((8, 6))
    w = random_weight(rng, 6)
    f = wsvd(a, w)
    b = rng.standard_normal(8)
    # k-term expansion plus the dropped terms reconstructs the full solution
    x2 = twsvd_solution(f, b, 2)
    tail = sum((f.u[:, i] @ b / f.sigma[i]) * f.v[:, i] for i in range(2, f.rank))
    assert np.allclose(x2 + tail, min_m_norm_ls(f, b), atol=1e-12)
    with pytest.raises(ValueError):
        twsvd_solution(f, b, 0)
    with pytest.raises(ValueError):
        twsvd_solution(f, b, f.rank + 1)


def test_tikhonov_zero_lambda_is_min_norm():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((7, 5))
    w = random_weight(rng, 5)
    f = wsvd(a, w)
    b = rng.standard_normal(7)
    assert np.array_equal(tikhonov_wsvd(f, b, 0.0), min_m_norm_ls(f, b))


def test_tikhonov_matches_normal_equations():
    rng = np.random.default_rng(22)
    a = rng.standard_normal((10, 6))
    w = random_weight(rng, 6, dense=True)
    m_mat = w.as_array()
    f = wsvd(a, w)
    b = rng.standard_normal(10)
    for lam in (1e-3, 1.0, 50.0):
        x = tikhonov_wsvd(f, b, lam)
        x_ref = np.linalg.solve(a.T @ a + lam * m_mat, a.T @ b)
        assert np.allclose(x, x_ref, rtol=1e-8, atol=1e-12)


def test_tikhonov_rejects_negative_lambda():
    f = wsvd(np.eye(3), WeightMatrix.identity(3))
    with pytest.raises(ValueError):
        tikhonov_wsvd(f, np.ones(3), -1.0)


def test_wsvd_input_validation():
    w = WeightMatrix.identity(3)
    with pytest.raises(ValueError):
        wsvd(np.array([[np.nan, 0, 0]]), w)
    with pytest.raises(ValueError):
        wsvd(np.ones((2, 4)), w)  # dimension mismatch


def test_solution_b_shape_validation():
    f = wsvd(np.eye(3), WeightMatrix.identity(3))
    with pytest.raises(ValueError):
        min_m_norm_ls(f, np.ones(4))


# -- the Krylov route (a starting vector) ------------------------------------

@pytest.mark.parametrize("name", ["shaw", "expst"])
def test_krylov_route_matches_dense(name):
    problem = build_problem(name, 600, 501)
    a, w = problem.a, problem.weight
    fk = wsvd(a, w, start=add_noise(problem, 1e-3, 0).b)
    fd = wsvd(a, w)
    assert fk.krylov_steps is not None and fd.krylov_steps is None
    assert fk.rank == fd.rank
    k = fk.krylov_steps
    assert fk.u.shape == (600, k) and fk.v.shape == (501, k)
    # a singular value is accurate to about eps * sigma_1 on either route,
    # which is all expst's sigma_8 (1e-12 sigma_1) allows; values above
    # 1e-3 sigma_1 agree to 1e-12 relative
    gap = np.abs(fk.sigma[:8] - fd.sigma[:8])
    assert np.all(gap <= 1e-12 * fd.sigma[0])
    big = fd.sigma[:8] >= 1e-3 * fd.sigma[0]
    assert np.all(gap[big] <= 1e-12 * fd.sigma[:8][big])
    assert np.max(np.abs(fk.u.T @ fk.u - np.eye(k))) <= 1e-12
    assert np.max(np.abs(fk.v.T @ w.matvec(fk.v) - np.eye(k))) <= 1e-12
    r = fk.rank
    u, v, sig = fk.u[:, :r], fk.v[:, :r], fk.sigma
    assert np.max(np.abs(a @ v - u * sig)) <= 1e-12 * sig[0]
    assert np.max(np.abs(a.T @ u - w.matvec(v) * sig)) <= 1e-12 * sig[0]


def test_krylov_route_falls_back_to_dense():
    problem = build_problem("phillips", 120, 101)
    fk = wsvd(problem.a, problem.weight, start=add_noise(problem, 1e-3, 0).b)
    fd = wsvd(problem.a, problem.weight)
    assert fk.krylov_steps is None
    assert fk.rank == fd.rank == 101
    assert np.array_equal(fk.sigma, fd.sigma) and np.array_equal(fk.u, fd.u)


def test_krylov_route_start_orthogonal_to_range_falls_back():
    # alpha_1 = 0: no projection to build, so the dense route runs
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    f = wsvd(a, WeightMatrix.diagonal([4.0, 1.0]), start=np.array([0.0, 1.0]))
    assert f.krylov_steps is None and f.rank == 1


def repeated_value_problem():
    """A 40 x 31 matrix whose value 0.25 has multiplicity 27, its weight, and
    a random b; the rng is returned for further draws."""
    rng = np.random.default_rng(23)
    m, n = 40, 31
    d = rng.uniform(0.1, 10.0, n)
    w = WeightMatrix.diagonal(d)
    u, _ = np.linalg.qr(rng.standard_normal((m, n)))
    vh, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v = vh / np.sqrt(d)[:, None]  # V^T M V = I
    sigma = np.array([1.0, 0.5] + [0.25] * (n - 4) + [0.1, 0.05])
    a = (u * sigma) @ (d[:, None] * v).T  # A = U S V^T M
    return a, w, rng.standard_normal(m), rng


def test_krylov_route_with_a_repeated_singular_value():
    a, w, b, _ = repeated_value_problem()
    n = a.shape[1]
    fk = wsvd(a, w, start=b)
    fd = wsvd(a, w)
    # partial: about one triplet per distinct value, each a dense value
    assert fk.krylov_steps is not None and fk.rank < fd.rank == n
    assert all(np.min(np.abs(fd.sigma - s)) <= 1e-12 for s in fk.sigma)
    x = min_m_norm_ls(fd, b)
    assert np.linalg.norm(min_m_norm_ls(fk, b) - x) <= 1e-10 * np.linalg.norm(x)
    for lam in (1e-6, 1e-3, 1.0):
        x = tikhonov_wsvd(fd, b, lam)
        assert np.linalg.norm(tikhonov_wsvd(fk, b, lam) - x) <= 1e-10 * np.linalg.norm(x)


def test_krylov_route_rejects_full_matrices():
    rng = np.random.default_rng(24)
    with pytest.raises(ValueError, match="full_matrices"):
        wsvd(rng.standard_normal((6, 5)), WeightMatrix.identity(5),
             full_matrices=True, start=rng.standard_normal(6))


# -- coverage: which right-hand sides a factorization serves ------------------

def rel(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


@pytest.mark.parametrize("name", ["shaw", "expst"])
def test_krylov_factorization_covers_a_noise_sweep(name):
    problem = build_problem(name, 600, 501)
    a, w = problem.a, problem.weight
    fk = wsvd(a, w, start=add_noise(problem, 1e-3, 0).b)
    fd = wsvd(a, w)
    assert fk.krylov_steps is not None and fk.rank == fd.rank
    sig = fd.sigma
    for eps in (1e-1, 1e-2, 1e-3):
        for seed in (0, 1, 2):
            b = add_noise(problem, eps, seed).b
            assert covers(fk, a, b)
            for lam in (1e-3, 1e-2, 1.0):
                assert rel(tikhonov_wsvd(fk, b, lam), tikhonov_wsvd(fd, b, lam)) <= 1e-10
            # either route fixes a triplet only to about eps * sigma_1, so a
            # k-term expansion is determined to about eps * sigma_1 / sigma_k
            # (the start b itself agrees no better): 1e-12 at k = 1, and the
            # min-M-norm solution is the expansion at k = rank
            for k in range(1, fd.rank + 1):
                bound = 1e-12 * sig[0] / sig[k - 1]
                assert rel(twsvd_solution(fk, b, k), twsvd_solution(fd, b, k)) <= bound
            assert rel(min_m_norm_ls(fk, b), min_m_norm_ls(fd, b)) <= 1e-12 * sig[0] / sig[-1]


def test_partial_factorization_covers_its_own_b_only():
    a, w, b, rng = repeated_value_problem()
    fk = wsvd(a, w, start=b)
    other = rng.standard_normal(a.shape[0])
    assert covers(fk, a, b)
    assert covers(fk, a, np.zeros_like(b))
    assert not covers(fk, a, other)
    # reusing it for the other b would be far off
    x = tikhonov_wsvd(wsvd(a, w), other, 1e-3)
    assert rel(tikhonov_wsvd(fk, other, 1e-3), x) > 0.5


def test_dense_factorization_covers_every_b():
    rng = np.random.default_rng(25)
    a = rng.standard_normal((8, 6))
    fd = wsvd(a, random_weight(rng, 6))
    assert all(covers(fd, a, rng.standard_normal(8)) for _ in range(5))


def test_covers_validates_its_input():
    a, w, b, _ = repeated_value_problem()
    for fact in (wsvd(a, w, start=b), wsvd(a, w)):
        for bad in (np.ones(a.shape[0] + 1), np.ones((a.shape[0], 1)),
                    np.where(np.arange(a.shape[0]) == 3, np.nan, b),
                    np.where(np.arange(a.shape[0]) == 3, np.inf, b)):
            with pytest.raises(ValueError):
                covers(fact, a, bad)
        with pytest.raises(ValueError):
            covers(fact, a[:, :-1], b)
