"""Facts of the paper's test problems at their table sizes (TABLE_DIMS),
read off one WLSQR run per problem: build_problem, noise at eps 1e-3 and
seed 0, and 200 steps, the solver's default budget.  The facts come from
the run's own B_k, bases and iterate, so they cost one product with A, the
true residual, beyond the run itself."""

import numpy as np
import pytest

from wsvd import add_noise, build_problem, project_bidiagonal, wlsqr_run

# The smallest cond(B_200) each problem must show.  By interlacing, the
# singular values of B_k lie within those of A L^{-1} (M = L^T L), so
# cond(B_k) is a lower bound on the weighted condition cond(A L^{-1}) that
# WLSQR works with.  The Simpson weights run 1:4, so cond(L) = 2 and the
# weighted condition is within a factor 2 of cond_2(A).  Measured: 1.93e7
# on phillips and 1.51e6 on green.
MIN_COND = {"phillips": 1e7, "green": 1e5}


@pytest.fixture(scope="module", params=sorted(MIN_COND))
def table_run(request):
    """(name, problem, noisy, WlsqrState) of a 200-step run at table size."""
    problem = build_problem(request.param)
    noisy = add_noise(problem, 1e-3, 0)
    state = wlsqr_run(problem.a, problem.weight, noisy.b, max_iter=200)
    assert state.k == 200 and not state.done
    return request.param, problem, noisy, state


def test_the_projection_is_severely_ill_conditioned(table_run):
    name, _, _, state = table_run
    assert np.linalg.cond(project_bidiagonal(state.bidiag)) >= MIN_COND[name]


def test_the_bases_stay_orthonormal_over_200_steps(table_run):
    # P^T P = I and Q^T M Q = I with full reorthogonalization; measured
    # 1.4e-15 and 1.5e-15 on both problems
    _, problem, _, state = table_run
    p, q = state.bidiag.P, state.bidiag.Q
    assert np.linalg.norm(p.T @ p - np.eye(p.shape[1]), 2) <= 1e-13
    assert np.linalg.norm(q.T @ problem.weight.matvec(q) - np.eye(q.shape[1]), 2) <= 1e-13


def test_the_recurrence_residual_is_the_true_residual(table_run):
    # phibar_201 against ||A x_200 - b||_2; measured 1.2e-11 relative on
    # phillips and 5.5e-15 on green
    _, problem, noisy, state = table_run
    true = np.linalg.norm(problem.a @ state.x - noisy.b)
    assert state.residual_norms[-1] == pytest.approx(true, rel=1e-9)
