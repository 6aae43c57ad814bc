"""Weighted Golub-Kahan bidiagonalization.

Starting from b, the recursion builds a 2-orthonormal left basis p_1, p_2,
... and an M-orthonormal right basis q_1, q_2, ... together with scalars
alpha_i, beta_i forming the lower bidiagonal projected matrix B_k:

    beta_1 p_1 = b
    alpha_1 q_1 = M^{-1} A^T p_1
    beta_{i+1} p_{i+1} = A q_i - alpha_i p_i
    alpha_{i+1} q_{i+1} = M^{-1} (A^T p_{i+1} - beta_{i+1} M q_i)

The recursion stops when an alpha or beta falls to zero (relative to the
largest bidiagonal entry seen); at that point the Krylov space is exhausted
and the projected problem is exact.
"""

from dataclasses import dataclass, field

import numpy as np

from .weights import _sqrt_dot

# Relative breakdown threshold against the running bidiagonal scale, which
# is a factor-2 proxy for sigma_1(B_k).
BREAK_TOL = 1e-14


@dataclass
class ApproxTriplet:
    """Approximate weighted singular triplet extracted from B_k."""

    sigma_bar: float
    u_bar: np.ndarray
    v_bar: np.ndarray
    residual_bound: float


@dataclass
class BidiagState:
    """State of the recursion after k completed steps.

    alphas holds alpha_1..alpha_{k+1} and betas holds beta_1..beta_{k+1},
    so len(alphas) == len(betas) == k + 1.  A terminating step records the
    value it could not compute as 0.0: alpha_{k+1} = 0.0 at an alpha
    breakdown, and beta_{k+1} = alpha_{k+1} = 0.0 at a beta breakdown.

    The basis vectors live as columns of two F-ordered buffers, allocated
    once by wgkb_init with cap = min(max_steps, m, n) + 1 columns; k steps
    fill k + 1 columns of each, less the vectors a breakdown could not form.
    P and Q are read-only views of their filled columns, so P[:, i] is
    p_{i+1} and Q[:, i] is q_{i+1}.
    """

    p_buf: np.ndarray
    q_buf: np.ndarray
    p_count: int = 0
    q_count: int = 0
    alphas: list = field(default_factory=list)
    betas: list = field(default_factory=list)
    terminated: bool = False
    scale: float = 0.0

    @property
    def k(self):
        return len(self.betas) - 1

    @property
    def termination_step(self):
        """k once the recursion has terminated, else None."""
        return self.k if self.terminated else None

    @property
    def P(self):
        """Left basis as columns, m x p_count, a read-only view."""
        return _view(self.p_buf, self.p_count)

    @property
    def Q(self):
        """Right basis as columns, n x q_count, a read-only view."""
        return _view(self.q_buf, self.q_count)

    def append_p(self, p):
        """Store p as the next left basis column."""
        self.p_buf[:, self.p_count] = p
        self.p_count += 1

    def append_q(self, q):
        """Store q as the next right basis column."""
        self.q_buf[:, self.q_count] = q
        self.q_count += 1


def _view(buf, cols):
    view = buf[:, :cols]
    view.flags.writeable = False
    return view


def _reorth_left(r, pm):
    # two classical Gram-Schmidt passes against the 2-orthonormal columns
    for _ in range(2):
        r = r - pm @ (pm.T @ r)
    return r


def _reorth_right(s, qm, weight):
    # two passes in the M-inner product; coefficients via M s
    for _ in range(2):
        s = s - qm @ (qm.T @ weight.matvec(s))
    return s


def wgkb_init(a, weight, b, max_steps=None):
    """First vectors of the recursion.

    max_steps is the number of steps the caller will take at most; None
    means min(m, n), within which the recursion terminates in exact
    arithmetic.  Each basis buffer is allocated once with min(max_steps, m,
    n) + 1 columns; a step past that budget raises RuntimeError.  Raises
    ValueError for a negative max_steps, for b = 0 and for non-finite
    entries in b or A.  A is not scanned: any NaN or inf in it reaches
    A^T p_1 (NaN * 0 and inf * 0 are NaN), which is checked instead.  If b
    is orthogonal to the range of A the returned state is already
    terminated with termination_step 0 and alphas == [0.0].
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if max_steps is not None and max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    if b.ndim != 1 or b.shape[0] != a.shape[0]:
        raise ValueError(f"b has shape {b.shape}, expected ({a.shape[0]},)")
    if a.shape[1] != weight.n:
        raise ValueError(
            f"matrix has {a.shape[1]} columns, weight matrix is {weight.n}x{weight.n}"
        )
    if not np.isfinite(b).all():
        raise ValueError("starting vector b has non-finite entries")
    beta1 = _sqrt_dot(b)
    if beta1 == 0.0:
        raise ValueError("starting vector b must be nonzero")
    p1 = b / beta1
    sbar = a.T @ p1
    if not np.isfinite(sbar).all():
        raise ValueError("matrix has non-finite entries")
    s = weight.solve(sbar)
    alpha1 = _sqrt_dot(s, sbar)
    m, n = a.shape
    cols = (min(m, n) if max_steps is None else min(max_steps, m, n)) + 1
    state = BidiagState(p_buf=np.empty((m, cols), order="F"),
                        q_buf=np.empty((n, cols), order="F"), betas=[beta1])
    state.append_p(p1)
    # no bidiagonal scale exists yet; compare against the matrix scale
    if alpha1 <= _sqrt_dot(a.ravel(order="K"), factor=BREAK_TOL):
        state.alphas.append(0.0)
        state.terminated = True
        return state
    state.alphas.append(alpha1)
    state.append_q(s / alpha1)
    state.scale = alpha1
    return state


def wgkb_step(state, a, weight):
    """Advance the recursion one step; returns the same state object.

    Each new vector is reorthogonalized against the full stored basis (two
    classical passes), which keeps the exactness relations near machine
    precision on ill-conditioned problems; without it the bases lose
    orthogonality and copies of converged singular values appear.  A step
    past the budget the bases were sized for raises RuntimeError and leaves
    the state unchanged.
    """
    if state.terminated:
        raise RuntimeError("bidiagonalization already terminated")
    if state.p_count == state.p_buf.shape[1]:
        raise RuntimeError(f"step {state.k + 1} is past the budget of {state.k} steps")
    pm, qm = state.P, state.Q
    q_last = qm[:, -1]
    r = _reorth_left(a @ q_last - state.alphas[-1] * pm[:, -1], pm)
    beta = _sqrt_dot(r)
    if beta <= BREAK_TOL * state.scale:
        state.betas.append(0.0)
        state.alphas.append(0.0)
        state.terminated = True
        return state
    state.betas.append(beta)
    state.scale = max(state.scale, beta)
    p = r / beta
    state.append_p(p)
    sbar = a.T @ p - beta * weight.matvec(q_last)
    s = _reorth_right(weight.solve(sbar), qm, weight)
    sbar = weight.matvec(s)
    alpha = _sqrt_dot(s, sbar)
    if alpha <= BREAK_TOL * state.scale:
        state.alphas.append(0.0)
        state.terminated = True
        return state
    state.alphas.append(alpha)
    state.scale = max(state.scale, alpha)
    state.append_q(s / alpha)
    return state


def wgkb_run(a, weight, b, steps):
    """The recursion from b, stepped until it terminates or has taken
    `steps` steps; the bases are sized once for that budget (see
    wgkb_init).  steps = 0 returns the state of wgkb_init."""
    state = wgkb_init(a, weight, b, max_steps=steps)
    while not state.terminated and state.k < steps:
        wgkb_step(state, a, weight)
    return state


def project_bidiagonal(state, k=None):
    """The (k+1) x k lower bidiagonal matrix B_k with diagonal alpha_1..alpha_k
    and subdiagonal beta_2..beta_{k+1}; k defaults to the completed step count."""
    if k is None:
        k = state.k
    if not 1 <= k <= state.k:
        raise ValueError(f"k must satisfy 1 <= k <= {state.k}, got {k}")
    b = np.zeros((k + 1, k))
    idx = np.arange(k)
    b[idx, idx] = state.alphas[:k]
    b[idx + 1, idx] = state.betas[1:k + 1]
    return b


def _lifted_svd(state, count=None):
    """SVD of the projection mapped back through the bases.

    With B_k = Y Theta H^T the compact SVD of B_k, returns
    (theta, P Y, Q_k H, last row of Y) restricted to the leading `count`
    columns (all k by default), in decreasing theta order.  At a beta
    breakdown P holds k columns and the zero last row of Y is dropped.
    """
    k = state.k
    y, theta, ht = np.linalg.svd(project_bidiagonal(state), full_matrices=False)
    y, ht = y[:, :count], ht[:count]
    pmat = state.P
    return theta[:count], pmat @ y[:pmat.shape[1]], state.Q[:, :k] @ ht.T, y[-1]


def approx_triplets(state, count):
    """Leading approximate weighted singular triplets from the projection.

    The compact SVD of B_k gives B_k = Y Theta H^T; the triplets are
    (theta_i, P y_i, Q h_i) with the residual bound
    |alpha_{k+1} * (last entry of y_i)| certifying convergence; alpha_{k+1}
    is 0.0 once the recursion has terminated, so every bound is then 0.
    Returned in decreasing sigma_bar order.
    """
    k = state.k
    if not 1 <= count <= k:
        raise ValueError(f"count must satisfy 1 <= count <= {k}, got {count}")
    theta, u, v, y_last = _lifted_svd(state, count)
    return [
        ApproxTriplet(sigma_bar=float(theta[i]), u_bar=u[:, i], v_bar=v[:, i],
                      residual_bound=abs(state.alphas[k] * y_last[i]))
        for i in range(count)
    ]
