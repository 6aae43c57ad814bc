"""Weighted LSQR: minimum-M-norm least squares by projected bidiagonalization.

Each step advances the weighted Golub-Kahan recursion once and applies a
Givens rotation to the projected bidiagonal system, so that the iterate
x_k solves min ||A x - b||_2 over the Krylov subspace span(Q_k) while the
recurrence tracks the residual norm phibar_{k+1} = ||A x_k - b||_2 exactly
(in exact arithmetic).

At the step where the recursion terminates, B_k is numerically singular
on the ill-posed problems (cond 6e15-3e16 on shaw and expst), and the
Givens update would divide by a rounding-level rho.  That step instead
solves the projected problem by the SVD of B_k, truncated at the dense rank
rule max(m, n) eps theta_1, and takes the residual norm from the projected
system.  The iterate is then the minimum-M-norm least-squares solution of
the Krylov wsvd route, min_m_norm_ls(wsvd(a, weight, start=b), b).

The solver can also continue the recursion that spr_solve keeps (see
spr_solve and wlsqr_run's _bidiag).  That continuation is the one path that
replays stored columns: spr_solve reads an earlier selected iterate x_k by
continuing its own run for k steps, which replays _advance over the k
columns it holds and never steps the recursion.
"""

from dataclasses import dataclass, field

import numpy as np

from .bidiag import (BidiagState, _checked_matrix, project_bidiagonal, wgkb_init,
                     wgkb_step)
from .decomposition import _rank
from .weights import _sqrt_dot

DEFAULT_MAX_ITER = 200


@dataclass
class WlsqrState:
    """Solver state after k completed steps.

    residual_norms[k-1] is phibar_{k+1} = ||A x_k - b||_2 (at a terminating
    step, the residual of the truncated projected solution; see the module
    docstring) and solution_m_norms[k-1] is ||x_k||_M.  phibar_1 = ||b||_2
    is available as initial_residual, and phibar is the latest phibar.  Only
    x, w and rhobar, which the next rotation updates, are stored beside the
    histories.  done is true once the solver has reached the step where the
    bidiagonalization terminated; the recursion of a continued run (see
    spr_solve) may already have terminated past step k.
    """

    x: np.ndarray
    w: np.ndarray | None
    rhobar: float
    bidiag: BidiagState
    residual_norms: list = field(default_factory=list)
    solution_m_norms: list = field(default_factory=list)

    @property
    def k(self):
        return len(self.residual_norms)

    @property
    def phibar(self):
        """phibar_{k+1} = ||A x_k - b||_2 as the recurrence tracks it."""
        return self.residual_norms[-1] if self.residual_norms else self.initial_residual

    @property
    def done(self):
        return self.bidiag.termination_step == self.k

    @property
    def initial_residual(self):
        return self.bidiag.betas[0]


def wlsqr_init(a, weight, b, max_steps=None):
    """x_0 = 0 with w_1 = q_1, phibar_1 = beta_1, rhobar_1 = alpha_1.

    max_steps is the step budget that sizes the bases, min(m, n) when None
    (see wgkb_init).  If b is orthogonal to the range of A the state is
    immediately done, with alpha_1 = 0.0, and x = 0 is the solution.
    wgkb_init checks a and b.
    """
    return _start(wgkb_init(a, weight, b, max_steps=max_steps))


def _start(bid):
    """The solver state x_0 = 0 of wlsqr_init on the recursion bid, which
    may already hold later steps."""
    w = None if bid.termination_step == 0 else bid.Q[:, 0].copy()
    return WlsqrState(x=np.zeros(bid.q_buf.shape[0]), w=w, rhobar=bid.alphas[0],
                      bidiag=bid)


def _advance(state):
    """Move state from x_k to x_{k+1} and append phibar_{k+2}: by the Givens
    rotation that eliminates beta_{k+2} below rhobar, reading q_{k+2} from a
    recursion that must hold it, or at the terminating step by the truncated
    SVD of B_k (see _terminal_solution).  The solver's only iterate update.
    """
    bid = state.bidiag
    i = state.k + 1
    if bid.termination_step == i:
        state.x, phibar = _terminal_solution(bid)
        state.w = None
    else:
        beta, alpha = bid.betas[i], bid.alphas[i]
        rho = float(np.hypot(state.rhobar, beta))
        c, s = state.rhobar / rho, beta / rho
        state.x = state.x + (c * state.phibar / rho) * state.w
        state.w = bid.Q[:, i] - (s * alpha / rho) * state.w
        state.rhobar, phibar = -c * alpha, s * state.phibar
    state.residual_norms.append(phibar)


def wlsqr_step(state, a, weight):
    """One step: advance the bidiagonalization, rotate, update the iterate.

    Returns the same state object.  The bidiagonalization is stepped only
    when it holds no column for step k + 1 yet (a continued recursion may);
    _advance then updates the iterate, and its M-norm is appended.  After a
    terminating bidiagonalization step the state is done.
    """
    if state.done:
        raise RuntimeError("solver already finished")
    if state.bidiag.k <= state.k:
        wgkb_step(state.bidiag, a, weight)
    _advance(state)
    state.solution_m_norms.append(weight.norm(state.x))
    return state


def wlsqr_run(a, weight, b, max_iter=None, callback=None, *, _bidiag=None):
    """Run the solver until termination or max_iter steps.  Every step
    reorthogonalizes fully (see wgkb_step).

    max_iter defaults to min(m, n, 200) and is also the step budget that
    sizes the bases once (see wgkb_init).  _bidiag is private to spr_solve,
    whose docstring states the kept-run contract: a recursion of these same
    a, weight and b, sized for at least max_iter steps, that the solver
    continues instead of calling wlsqr_init, replaying the columns it holds
    and stepping it only past them.  spr_solve passes its kept run with its
    own budget, and its finished run with max_iter = k to read an earlier
    x_k.  Nothing checks that it fits.
    callback(k, x, residual_norm, solution_m_norm) is invoked after each
    step; a truthy return stops the run.  The x passed to the callback is
    never mutated by later steps.
    """
    a = _checked_matrix(a, weight, scan=False)
    if max_iter is None:
        max_iter = min(*a.shape, DEFAULT_MAX_ITER)
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if _bidiag is None:
        state = wlsqr_init(a, weight, b, max_steps=max_iter)
    else:
        state = _start(_bidiag)
    while not state.done and state.k < max_iter:
        wlsqr_step(state, a, weight)
        if callback is not None and callback(
            state.k, state.x, state.phibar, state.solution_m_norms[-1]
        ):
            break
    return state


def _terminal_solution(bidiag):
    """(x_k, ||B_k y_k - beta_1 e_1||_2) at the terminating step k, with y_k
    from the truncated SVD B_k = Y Theta H^T (see the module docstring).
    Only the k-vector y_k is lifted, so the cost is O(k^3 + n k)."""
    y, theta, ht = np.linalg.svd(project_bidiagonal(bidiag), full_matrices=False)
    rank = _rank(theta, (bidiag.p_buf.shape[0], bidiag.q_buf.shape[0]))
    coef = bidiag.betas[0] * y[0, :rank]
    residual = -(y[:, :rank] @ coef)
    residual[0] += bidiag.betas[0]
    x = bidiag.Q[:, :bidiag.k] @ (ht[:rank].T @ (coef / theta[:rank]))
    return x, _sqrt_dot(residual)

