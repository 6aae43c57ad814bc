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

Each step reads A twice, for A q and A^T p, and those products dominate a
run.  wgkb_init therefore scans A once for its envelope: A is cut into
ceil(m / ENVELOPE_ROWS) row blocks of equal height, and each block keeps
only the whole ENVELOPE_COLS-column panels from its first to its last
nonzero.  Every product of the run reads only those blocks, so the
all-zero columns at either end of a block (as in a banded kernel such as
phillips) are never read again.  Adjacent blocks with the same columns
merge, so a dense A is one block and its products are the plain BLAS
calls.  Zeros inside a block's column range are still read and multiplied.

A product's rounding, and with it every bit of a run down to its
termination step, depends on the BLAS thread count, so a run is
reproducible bit for bit only at a fixed count.
"""

from dataclasses import dataclass

import numpy as np

from .weights import _sqrt_dot

# Relative breakdown threshold against the running bidiagonal scale, which
# is a factor-2 proxy for sigma_1(B_k).
BREAK_TOL = 1e-14

# Envelope granularity in rows and columns of A.  Taller blocks trim less
# of a slanted band; a block below OpenBLAS's GEMV threading size runs on
# one core.  With OpenBLAS 0.3.31 on 2 threads a block of 456,960 entries
# ran single-threaded and one of 478,720 threaded, which is why 256-row
# blocks were slower (2.6 ms for an A q plus A^T p pair on phillips
# 3000x2501, against 1.8 ms at 512 rows).  Equal heights keep the last block
# from being a short remainder: phillips gets six 500-row blocks of 5.4e5 to
# 8.6e5 entries, all threaded, and the pair fell from 1.87 ms to 1.71 ms.
# 32- to 128-column panels were within 0.1 ms.
ENVELOPE_ROWS = 512
ENVELOPE_COLS = 64


@dataclass
class ApproxTriplet:
    """Approximate weighted singular triplet extracted from B_k."""

    sigma_bar: float
    u_bar: np.ndarray
    v_bar: np.ndarray
    residual_bound: float


@dataclass
class BidiagState:
    """State of the recursion after k completed steps: the basis buffers, the
    envelope of A and the recorded scalars, from which every other fact of
    the run is derived.

    alphas holds alpha_1..alpha_{k+1} and betas holds beta_1..beta_{k+1},
    so len(alphas) == len(betas) == k + 1.  A terminating step records the
    value it could not compute as 0.0: alpha_{k+1} = 0.0 at an alpha
    breakdown, and beta_{k+1} = alpha_{k+1} = 0.0 at a beta breakdown.  No
    other recorded value is 0.0, so the run has terminated exactly when
    alpha_{k+1} = 0.0.

    envelope holds the (r0, r1, c0, c1) row blocks of A that every product
    reads (see _envelope).

    The basis vectors live as columns of two F-ordered buffers sized once by
    wgkb_init.  k steps fill k + 1 columns of each, less the vector a zero
    beta_{k+1} or alpha_{k+1} stands for.  P and Q are read-only views of
    the filled columns, so P[:, i] is p_{i+1} and Q[:, i] is q_{i+1}.
    """

    p_buf: np.ndarray
    q_buf: np.ndarray
    envelope: tuple
    alphas: list
    betas: list

    @property
    def k(self):
        return len(self.betas) - 1

    @property
    def terminated(self):
        return self.alphas[-1] == 0.0

    @property
    def termination_step(self):
        """k once the recursion has terminated, else None."""
        return self.k if self.terminated else None

    @property
    def scale(self):
        """The largest entry of B_k and alpha_{k+1}, the running bidiagonal
        scale of the breakdown test (beta_1 = ||b||_2 is not one)."""
        return max(self.alphas + self.betas[1:])

    @property
    def P(self):
        """Left basis as columns, a read-only view of the filled ones."""
        return _view(self.p_buf, self.k + (self.betas[-1] != 0.0))

    @property
    def Q(self):
        """Right basis as columns, a read-only view of the filled ones."""
        return _view(self.q_buf, self.k + (self.alphas[-1] != 0.0))


def _view(buf, cols):
    view = buf[:, :cols]
    view.flags.writeable = False
    return view


def _row_bounds(m):
    """Boundaries of ceil(m / ENVELOPE_ROWS) row blocks whose heights differ
    by at most one row."""
    count = -(-m // ENVELOPE_ROWS)
    return [i * m // count for i in range(count + 1)]


def _envelope(a):
    """Row blocks (r0, r1, c0, c1) covering the rows of a in order: outside
    columns c0:c1, rows r0:r1 of a are all zero.  c0 and c1 are panel
    boundaries (or n); an all-zero block is (r0, r1, 0, 0), and a dense a
    gives ((0, m, 0, n),).  Each block is searched panel by panel from each
    side.  NaN and inf are nonzero here (.any() is true for them), so they
    are never skipped.
    """
    m, n = a.shape
    panels = range(0, n, ENVELOPE_COLS)
    bounds = _row_bounds(m)
    blocks = []
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        rows = a[r0:r1]
        c0 = next((c for c in panels if rows[:, c:c + ENVELOPE_COLS].any()), n)
        # from the right, never past c0: an all-zero block is not read twice
        c1 = next((min(n, c + ENVELOPE_COLS) for c in panels[::-1]
                   if c >= c0 and rows[:, c:c + ENVELOPE_COLS].any()), 0)
        if c0 >= c1:
            c0 = c1 = 0
        if blocks and blocks[-1][2:] == (c0, c1):
            blocks[-1] = (blocks[-1][0], r1, c0, c1)
        else:
            blocks.append((r0, r1, c0, c1))
    return tuple(blocks)


def _matvec(a, envelope, q):
    """A q, reading only the envelope of A."""
    y = np.empty(a.shape[0])
    for r0, r1, c0, c1 in envelope:
        y[r0:r1] = a[r0:r1, c0:c1] @ q[c0:c1]
    return y


def _rmatvec(a, envelope, p):
    """A^T p, reading only the envelope of A."""
    z = np.zeros(a.shape[1])
    for r0, r1, c0, c1 in envelope:
        z[c0:c1] += a[r0:r1, c0:c1].T @ p[r0:r1]
    return z


# A Gram-Schmidt pass that keeps at least this share of the norm did not
# cancel, so a second pass would change the vector only at rounding level
# (Daniel, Gragg, Kaufman and Stewart, 1976; "twice is enough").
_KEPT = 1.0 / np.sqrt(2.0)


def _reorth(v, basis, weight=None):
    """v less its part in the span of the columns of basis, and the norm of
    v after.  The columns are 2-orthonormal, or M-orthonormal with weight
    M, and the norm is the matching one.  One classical Gram-Schmidt pass,
    and a second only when the first cancelled (kept less than _KEPT of the
    norm).  The M-coefficients come from an explicit M v: a caller's M^{-1}
    input is M v only to within cond(M)."""
    mv = v if weight is None else weight.matvec(v)
    norm = _sqrt_dot(v, mv)
    for _ in range(2):
        v = v - basis @ (basis.T @ mv)
        mv = v if weight is None else weight.matvec(v)
        before, norm = norm, _sqrt_dot(v, mv)
        if norm >= _KEPT * before:
            break
    return v, norm


def _checked_matrix(a, weight, scan=True):
    """a as a float array with at least one row and as many columns as
    weight has (any number when weight is None), else ValueError; the one
    matrix check of the package.  scan=False skips the finiteness scan, two
    reads of A, for a caller that runs the recursion on A first: wgkb_init
    rejects NaN and inf through A^T p_1."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or 0 in a.shape:
        raise ValueError("A must be two-dimensional with at least one row and one "
                         f"column, got shape {a.shape}")
    # NaN propagates through min and max and an infinity is one of them, so
    # this needs no bool array of A's size
    if scan and not (np.isfinite(a.min()) and np.isfinite(a.max())):
        raise ValueError("matrix has non-finite entries")
    if weight is not None and a.shape[1] != weight.n:
        raise ValueError(
            f"matrix has {a.shape[1]} columns, weight matrix is {weight.n}x{weight.n}"
        )
    return a


def _checked_vector(v, m, what):
    """v as a float vector of shape (m,) with finite entries, else
    ValueError naming what; the one vector check of the package."""
    v = np.asarray(v, dtype=float)
    if v.shape != (m,):
        raise ValueError(f"{what} has shape {v.shape}, expected ({m},)")
    if not np.isfinite(v).all():
        raise ValueError(f"{what} has non-finite entries")
    return v


def _finite(value, what):
    """value (a scalar or a tuple of them), else ValueError naming what.
    NaN or inf in A, and a weighted singular value past the float range,
    make alpha_1, a later beta or alpha, or sigma_1 non-finite: this is the
    package's one check of both, made on those scalars."""
    if not np.isfinite(value).all():
        raise ValueError(f"matrix has non-finite entries or a weighted singular value "
                         f"past the float range: {what} = {value}")
    return value


def wgkb_init(a, weight, b, max_steps=None):
    """First vectors of the recursion.

    max_steps is the number of steps the caller will take at most; None
    means min(m, n), within which the recursion terminates in exact
    arithmetic.  Each basis buffer is allocated once with min(max_steps, m,
    n) + 1 columns; a step past that budget raises RuntimeError.  Raises
    ValueError for a negative max_steps, for an A that _checked_matrix or
    a b that _checked_vector rejects (either names the shape), for b = 0
    and for a non-finite alpha_1.  A is scanned once for its envelope,
    which never skips a NaN or inf, so each one reaches A^T p_1 (NaN * 0
    and inf * 0 are NaN) and alpha_1; so does an A whose weighted singular
    values pass the float range, where M^{-1} A^T p_1 overflows.  Both are
    rejected without a RuntimeWarning.  If b is orthogonal to the range of
    A the returned state is already terminated with termination_step 0 and
    alphas == [0.0].
    """
    if max_steps is not None and max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    a = _checked_matrix(a, weight, scan=False)
    b = _checked_vector(b, a.shape[0], "starting vector b")
    beta1 = _sqrt_dot(b)
    if beta1 == 0.0:
        raise ValueError("starting vector b must be nonzero")
    p1 = b / beta1
    envelope = _envelope(a)
    with np.errstate(over="ignore", invalid="ignore"):  # each reaches alpha_1
        sbar = _rmatvec(a, envelope, p1)
        s = weight.solve(sbar)
        alpha1 = _finite(_sqrt_dot(s, sbar), "alpha_1")
    m, n = a.shape
    cols = (min(m, n) if max_steps is None else min(max_steps, m, n)) + 1
    p_buf, q_buf = np.empty((m, cols), order="F"), np.empty((n, cols), order="F")
    p_buf[:, 0] = p1
    # no bidiagonal scale exists yet; compare against the matrix scale
    if alpha1 <= _sqrt_dot(a.ravel(order="K"), factor=BREAK_TOL):
        alpha1 = 0.0
    else:
        q_buf[:, 0] = s / alpha1
    return BidiagState(p_buf, q_buf, envelope, alphas=[alpha1], betas=[beta1])


def wgkb_step(state, a, weight):
    """Advance the recursion one step; returns the same state object.

    Each new vector is reorthogonalized against the full stored basis by one
    classical Gram-Schmidt pass, and by a second only when the first
    cancelled (see _reorth), which keeps the exactness relations near
    machine precision on ill-conditioned problems; without it the bases lose
    orthogonality and copies of converged singular values appear.  The step
    writes its columns into the buffers and appends its beta and alpha last,
    so a step that raises leaves the state unchanged; a step past the budget
    the bases were sized for raises RuntimeError, and a non-finite beta or
    alpha (an overflow, as in wgkb_init) raises ValueError, without a
    RuntimeWarning first.
    """
    if state.terminated:
        raise RuntimeError("bidiagonalization already terminated")
    pm, qm = state.P, state.Q
    i = pm.shape[1]
    if i == state.p_buf.shape[1]:
        raise RuntimeError(f"step {i} is past the budget of {state.k} steps")
    q_last = qm[:, -1]
    scale = state.scale
    with np.errstate(over="ignore", invalid="ignore"):  # each reaches beta or alpha
        r = _matvec(a, state.envelope, q_last) - state.alphas[-1] * pm[:, -1]
        r, beta = _reorth(r, pm)
        if beta <= BREAK_TOL * scale:
            beta = alpha = 0.0
        else:
            scale = max(scale, beta)
            p = r / beta
            state.p_buf[:, i] = p
            sbar = _rmatvec(a, state.envelope, p) - beta * weight.matvec(q_last)
            s, alpha = _reorth(weight.solve(sbar), qm, weight)
            if alpha <= BREAK_TOL * scale:
                alpha = 0.0
            else:
                state.q_buf[:, i] = s / alpha
    _finite((beta, alpha), f"(beta_{i + 1}, alpha_{i + 1})")
    state.betas.append(beta)
    state.alphas.append(alpha)
    return state


def wgkb_run(a, weight, b, steps):
    """The recursion from b, stepped until it terminates or has taken
    `steps` steps; the bases are sized once for that budget (see
    wgkb_init).  steps = 0 returns the state of wgkb_init.  The Krylov wsvd
    route and the triplets command run through it; the solver steps the
    recursion inside its own step (wlsqr_step)."""
    a = _checked_matrix(a, weight, scan=False)  # the steps read a as an array
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
