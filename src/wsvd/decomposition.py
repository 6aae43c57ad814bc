"""Weighted singular value decomposition and the solutions built on it.

For an SPD weight matrix M, the factorization is A = U S V^T M with
U^T U = I (columns 2-orthonormal), V^T M V = I (columns M-orthonormal),
and S holding the positive weighted singular values in nonincreasing order.

There are two routes.  The dense route, the reference, uses a Cholesky
transform: with M = L^T L, the standard SVD of A L^{-1} = Uh S Vh^T gives
U = Uh and V = L^{-1} Vh.  The Krylov route, taken when a starting vector b
is given, runs the weighted Golub-Kahan recursion from b with full
reorthogonalization for at most KRYLOV_MAX_STEPS steps.  If it terminates,
the compact SVD B_k = Y Theta H^T of the projection gives U = P Y, V = Q H
and S = Theta; if it does not, the dense route runs instead.  Both routes
keep the values above max(m, n) * eps * sigma_1 of the singular values they
computed.

At termination the Krylov space contains b and is numerically invariant
under the weighted normal operator, so every quantity that only sees b
through U^T b equals its dense counterpart: the Tikhonov and
minimum-M-norm solutions for that b are the dense ones.  The Krylov
factorization is partial, though.  It holds one triplet per distinct
singular value that b excites (a repeated value gives one u, the
normalized projection of b onto its singular space; rounding may add
further triplets of that value which b excites only at rounding level),
so the truncation index of twsvd counts those values and matches the
dense index unless singular values repeat.  It does not reconstruct A.

A Krylov factorization also serves every other right-hand side that its
space captures.  covers(fact, a, b) certifies this with the test the
recursion applies to a new alpha: with r = b - U U^T b and s the part of
M^{-1} A^T r that is M-orthogonal to V, it accepts b when r = 0 or
||s||_M <= BREAK_TOL * sigma_1 * ||r||_2.  Continuing the recursion from
b's remainder would then stop at once, so the Tikhonov, minimum-M-norm and
twsvd solutions for b equal the dense ones as closely as those of the
start do: either route fixes a triplet only to about eps * sigma_1, so a
k-term expansion agrees to about eps * sigma_1 / sigma_k relative.  A
dense factorization covers every b.
"""

from dataclasses import dataclass

import numpy as np

from .bidiag import BREAK_TOL, _lifted_svd, _reorth_left, _reorth_right, wgkb_run
from .weights import WeightMatrix

# Steps the Krylov route takes before it gives up and runs the dense route.
KRYLOV_MAX_STEPS = 64


@dataclass(frozen=True)
class WsvdFactorization:
    """Weighted SVD of a matrix.

    u and v keep every computed column (min(m, n) in economy form, m and n
    columns when full, k on the Krylov route); sigma keeps only the
    rank-many values above the rank tolerance max(m, n) * eps * sigma_1.
    krylov_steps is the step count k of a Krylov-route factorization and
    None for the dense route.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    rank: int
    weight: WeightMatrix
    krylov_steps: int | None = None

    @property
    def null_space(self):
        """Columns of v beyond the rank; an M-orthonormal null-space basis
        of A when the factorization was computed with full_matrices."""
        return self.v[:, self.rank:]


def _checked_matrix(a, weight):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    if a.shape[0] == 0 or a.shape[1] == 0:
        raise ValueError("matrix must have at least one row and one column")
    # NaN propagates through min and max and an infinity is one of them, so
    # this needs no bool array of A's size
    if not (np.isfinite(a.min()) and np.isfinite(a.max())):
        raise ValueError("matrix entries must be finite")
    if a.shape[1] != weight.n:
        raise ValueError(
            f"matrix has {a.shape[1]} columns, weight matrix is {weight.n}x{weight.n}"
        )
    return a


def _transform(a, weight):
    # B = A L^{-1}, via L^T B^T = A^T
    return weight.solve_factor(a.T, transpose=True).T


def _fix_signs(u, v, coupled):
    """Make each u column's first nonzero entry positive; the first `coupled`
    v columns flip together with their u partner, later v columns (null-space
    vectors in full form) are normalized by their own first nonzero entry."""
    for j in range(u.shape[1]):
        col = u[:, j]
        nz = np.flatnonzero(col)
        if nz.size and col[nz[0]] < 0:
            u[:, j] = -col
            if j < coupled:
                v[:, j] = -v[:, j]
    for j in range(coupled, v.shape[1]):
        col = v[:, j]
        nz = np.flatnonzero(col)
        if nz.size and col[nz[0]] < 0:
            v[:, j] = -col
    return u, v


def _rank(s, shape):
    tol = max(shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    return int(np.count_nonzero(s > tol))


def _krylov_wsvd(a, weight, start):
    """Partial factorization from the recursion started at `start`, or None
    when it has not terminated within KRYLOV_MAX_STEPS steps or terminated
    at step 0 (start orthogonal to the range of A, nothing to project)."""
    state = wgkb_run(a, weight, start, KRYLOV_MAX_STEPS)
    if not state.terminated or state.k == 0:
        return None
    theta, u, v, _ = _lifted_svd(state)
    u, v = _fix_signs(u, v, coupled=state.k)
    rank = _rank(theta, a.shape)
    return WsvdFactorization(u=u, sigma=theta[:rank].copy(), v=v, rank=rank,
                             weight=weight, krylov_steps=state.k)


def wsvd(a, weight, full_matrices=False, start=None):
    """Weighted SVD of a, A = U S V^T M.

    Parameters
    ----------
    a : (m, n) array
    weight : WeightMatrix of size n
    full_matrices : bool
        When set, u is m x m and v is n x n (v then carries a complete
        M-orthonormal basis including the null space of A).
    start : (m,) array, optional
        Try the Krylov route from this vector first (see the module
        docstring); the result is then partial, exact for solutions with
        this right-hand side and with every other one that covers(fact, a,
        b) certifies.  Not allowed with full_matrices.

    Returns
    -------
    WsvdFactorization
    """
    a = _checked_matrix(a, weight)
    if start is not None:
        if full_matrices:
            raise ValueError("a starting vector gives a partial factorization; "
                             "full_matrices needs the dense route")
        fact = _krylov_wsvd(a, weight, start)
        if fact is not None:
            return fact
    m, n = a.shape
    b = _transform(a, weight)
    uh, s, vht = np.linalg.svd(b, full_matrices=full_matrices)
    v = weight.solve_factor(vht.T)
    u, v = _fix_signs(uh, v, coupled=min(m, n))
    rank = _rank(s, a.shape)
    return WsvdFactorization(u=u, sigma=s[:rank].copy(), v=v, rank=rank, weight=weight)


def covers(fact, a, b):
    """Whether fact gives the solutions for right-hand side b that a
    factorization of a started from b would give.

    A dense factorization covers every b.  A Krylov one covers b when b's
    remainder outside the span of u passes the recursion's breakdown test
    (see the module docstring); the check costs one A^T product and
    O((m + n) k).  Raises ValueError when a or b does not fit fact or b has
    non-finite entries.
    """
    a = np.asarray(a)
    b = np.asarray(b, dtype=float)
    m, n = fact.u.shape[0], fact.v.shape[0]
    if a.shape != (m, n):
        raise ValueError(f"matrix has shape {a.shape}, factorization is of {m}x{n}")
    if b.shape != (m,):
        raise ValueError(f"right-hand side has shape {b.shape}, expected ({m},)")
    if not np.isfinite(b).all():
        raise ValueError("right-hand side has non-finite entries")
    if fact.krylov_steps is None:
        return True
    r = _reorth_left(b, fact.u)  # r = 0 gives s = 0 and passes
    s = _reorth_right(fact.weight.solve(a.T @ r), fact.v, fact.weight)
    return bool(fact.weight.norm(s) <= BREAK_TOL * fact.sigma[0] * np.linalg.norm(r))


def weighted_operator_norm(a, weight):
    """||A||_{M,2} = max ||A x||_2 / ||x||_M, the largest weighted singular
    value; 0 for the zero matrix."""
    a = _checked_matrix(a, weight)
    s = np.linalg.svd(_transform(a, weight), compute_uv=False)
    return float(s[0]) if s.size else 0.0


def low_rank_approx(fact, k):
    """Best rank-k approximation A_k = sum_{i<=k} sigma_i u_i v_i^T M.

    Requires 1 <= k < rank.
    """
    if not 1 <= k < fact.rank:
        raise ValueError(f"k must satisfy 1 <= k < rank ({fact.rank}), got {k}")
    mv = fact.weight.matvec(fact.v[:, :k])
    return (fact.u[:, :k] * fact.sigma[:k]) @ mv.T


def _coefficients(fact, b):
    b = np.asarray(b, dtype=float)
    if b.ndim != 1 or b.shape[0] != fact.u.shape[0]:
        raise ValueError(
            f"right-hand side has shape {b.shape}, expected ({fact.u.shape[0]},)"
        )
    r = fact.rank
    return fact.u[:, :r].T @ b


def min_m_norm_ls(fact, b):
    """Minimum-M-norm least squares solution sum_i (u_i^T b / sigma_i) v_i."""
    r = fact.rank
    coef = _coefficients(fact, b) / fact.sigma
    return fact.v[:, :r] @ coef


def twsvd_solution(fact, b, k):
    """Truncated solution keeping the first k spectral terms; 1 <= k <= rank."""
    if not 1 <= k <= fact.rank:
        raise ValueError(f"k must satisfy 1 <= k <= rank ({fact.rank}), got {k}")
    coef = (fact.u[:, :k].T @ np.asarray(b, dtype=float)) / fact.sigma[:k]
    return fact.v[:, :k] @ coef


def tikhonov_wsvd(fact, b, lam):
    """Tikhonov-regularized solution with filter factors sigma^2/(sigma^2+lam).

    Solves (A^T A + lam M) x = A^T b through the factorization; lam = 0
    reduces to the minimum-M-norm least squares solution.
    """
    if lam < 0:
        raise ValueError(f"regularization parameter must be >= 0, got {lam}")
    r = fact.rank
    sig = fact.sigma
    filt = sig**2 / (sig**2 + lam)
    coef = (_coefficients(fact, b) / sig) * filt
    return fact.v[:, :r] @ coef
