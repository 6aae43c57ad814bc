"""Weighted LSQR: minimum-M-norm least squares by projected bidiagonalization.

Each step advances the weighted Golub-Kahan recursion once and applies a
Givens rotation to the projected bidiagonal system, so that the iterate
x_k solves min ||A x - b||_2 over the Krylov subspace span(Q_k) while the
recurrence tracks the residual norm phibar_{k+1} = ||A x_k - b||_2 exactly
(in exact arithmetic).  At termination of the recursion the iterate is the
minimum-M-norm least squares solution.
"""

from dataclasses import dataclass, field

import numpy as np

from .bidiag import BidiagState, wgkb_init, wgkb_step
from .weights import WeightMatrix

DEFAULT_MAX_ITER = 200


@dataclass
class WlsqrState:
    """Solver state after k completed steps.

    residual_norms[k-1] is phibar_{k+1} = ||A x_k - b||_2 and
    solution_m_norms[k-1] is ||x_k||_M.  phibar_1 = ||b||_2 is available as
    initial_residual.  done is set when the bidiagonalization terminates.
    """

    x: np.ndarray
    w: np.ndarray | None
    phibar: float
    rhobar: float
    bidiag: BidiagState
    residual_norms: list = field(default_factory=list)
    solution_m_norms: list = field(default_factory=list)
    done: bool = False

    @property
    def k(self):
        return len(self.residual_norms)

    @property
    def initial_residual(self):
        return self.bidiag.betas[0]


def wlsqr_init(a, weight, b):
    """x_0 = 0 with w_1 = q_1, phibar_1 = beta_1, rhobar_1 = alpha_1.

    If b is orthogonal to the range of A the state is immediately done and
    x = 0 is the solution.
    """
    a = np.asarray(a, dtype=float)
    bid = wgkb_init(a, weight, b)
    x = np.zeros(a.shape[1])
    if bid.terminated:
        return WlsqrState(x=x, w=None, phibar=bid.betas[0], rhobar=0.0,
                          bidiag=bid, done=True)
    return WlsqrState(x=x, w=bid.Q[:, 0].copy(), phibar=bid.betas[0],
                      rhobar=bid.alphas[0], bidiag=bid)


def wlsqr_step(state, a, weight, reorth=True):
    """One step: advance the bidiagonalization, rotate, update the iterate.

    Returns the same state object.  A terminating bidiagonalization step
    still completes its solution update (with the missing alpha or beta
    taken as zero) and then flags the state done.
    """
    if state.done:
        raise RuntimeError("solver already finished")
    bid = state.bidiag
    wgkb_step(bid, a, weight, reorth=reorth)
    i = bid.k
    beta_next = bid.betas[i]
    alpha_next = bid.alphas[i] if len(bid.alphas) > i else 0.0
    q = bid.Q
    q_next = q[:, i] if q.shape[1] > i else None

    rho = float(np.hypot(state.rhobar, beta_next))
    c = state.rhobar / rho
    s = beta_next / rho
    theta_next = s * alpha_next
    rhobar_next = -c * alpha_next
    phi = c * state.phibar
    phibar_next = s * state.phibar

    state.x = state.x + (phi / rho) * state.w
    state.w = q_next - (theta_next / rho) * state.w if q_next is not None else None
    state.phibar = phibar_next
    state.rhobar = rhobar_next
    state.residual_norms.append(phibar_next)
    state.solution_m_norms.append(weight.norm(state.x))
    if bid.terminated:
        state.done = True
    return state


def wlsqr_run(a, weight, b, max_iter=None, reorth=True, callback=None):
    """Run the solver until termination or max_iter steps.

    max_iter defaults to min(m, n, 200).  callback(k, x, residual_norm,
    solution_m_norm) is invoked after each step; a truthy return stops the
    run.  The x passed to the callback is never mutated by later steps.
    """
    a = np.asarray(a, dtype=float)
    m, n = a.shape
    if max_iter is None:
        max_iter = min(m, n, DEFAULT_MAX_ITER)
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    state = wlsqr_init(a, weight, b)
    while not state.done and state.k < max_iter:
        wlsqr_step(state, a, weight, reorth=reorth)
        if callback is not None and callback(
            state.k, state.x, state.phibar, state.solution_m_norms[-1]
        ):
            break
    return state
