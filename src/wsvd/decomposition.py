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
and S = Theta; if it does not, the dense route runs instead.

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
recursion applies to a new alpha: with r = b - U U^T b, p = r / ||r||_2
and s the part of M^{-1} A^T p that is M-orthogonal to V, it accepts b when
r = 0 or ||s||_M <= BREAK_TOL * sigma_1.  p is a unit vector, so
||M^{-1} A^T p||_M <= sigma_1 and the test holds at any scale of A and b
that a double holds, 2^+-700 included.  Continuing the recursion from
b's remainder would then stop at once, so the Tikhonov, minimum-M-norm and
twsvd solutions for b equal the dense ones as closely as those of the
start do: either route fixes a triplet only to about eps * sigma_1, so a
k-term expansion agrees to about eps * sigma_1 / sigma_k relative.  A
dense factorization covers every b.
"""

from dataclasses import dataclass

import numpy as np

from .bidiag import (BREAK_TOL, _checked_matrix, _checked_vector, _finite, _lifted_svd,
                     _reorth, wgkb_run)
from .weights import WeightMatrix, _pow2_scale

# Steps the Krylov route takes before it gives up and runs the dense route.
KRYLOV_MAX_STEPS = 64


@dataclass(frozen=True)
class WsvdFactorization:
    """Weighted SVD of a matrix.

    u and v keep every computed column (min(m, n) in economy form, m and n
    columns when full, k on the Krylov route); sigma keeps only the values
    above the rank tolerance max(m, n) * eps * sigma_1, so the rank is
    sigma.size.  krylov_steps is the step count k of a Krylov-route
    factorization and None for the dense route.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    weight: WeightMatrix
    krylov_steps: int | None = None

    @property
    def rank(self):
        return self.sigma.size

    @property
    def null_space(self):
        """Columns of v beyond the rank; an M-orthonormal null-space basis
        of A when the factorization was computed with full_matrices."""
        return self.v[:, self.rank:]


def _transform(a, weight):
    # B = A L^{-1}, via L^T B^T = A^T
    return weight.solve_factor(a.T, transpose=True).T


def _fix_signs(u, v, coupled):
    """Make each u column's first nonzero entry positive; the first `coupled`
    v columns flip together with their u partner, later v columns (null-space
    vectors in full form) are normalized by their own first nonzero entry."""
    flips = [x[np.argmax(x != 0, axis=0), np.arange(x.shape[1])] < 0 for x in (u, v)]
    flips[1][:coupled] = flips[0][:coupled]
    for x, flip in zip((u, v), flips):
        np.negative(x, out=x, where=flip)
    return u, v


def _rank(s, shape):
    """Count of the singular values s (nonincreasing, at least one) above
    the rank tolerance max(shape) * eps * s[0].  ValueError (see _finite)
    when s[0], sigma_1, overflowed.  Both wsvd routes and WLSQR's terminating
    step take their rank here."""
    tol = max(shape) * np.finfo(float).eps * _finite(s[0], "sigma_1")
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
    return WsvdFactorization(u=u, sigma=theta[:_rank(theta, a.shape)].copy(), v=v,
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

    Raises ValueError for an A that _checked_matrix rejects, for NaN or
    inf in A, which the dense route scans for and the Krylov route finds in
    alpha_1 (see wgkb_init), and for a weighted singular value past the
    float range, where sigma_1 or an alpha or beta overflows (see _finite).
    """
    # with a start, the recursion runs before any dense work and checks A
    a = _checked_matrix(a, weight, scan=start is None)
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
    return WsvdFactorization(u=u, sigma=s[:_rank(s, a.shape)].copy(), v=v, weight=weight)


def covers(fact, a, b):
    """Whether fact gives the solutions for right-hand side b that a
    factorization of a started from b would give.

    A dense factorization covers every b.  A Krylov one covers b when b's
    remainder outside the span of u passes the recursion's breakdown test
    (see the module docstring); the check costs one A^T product and
    O((m + n) k).  Raises ValueError when a does not have fact's shape and
    for a b that _checked_vector rejects.
    """
    a = np.asarray(a)
    m, n = fact.u.shape[0], fact.v.shape[0]
    if a.shape != (m, n):
        raise ValueError(f"matrix has shape {a.shape}, factorization is of {m}x{n}")
    b = _checked_vector(b, m, "right-hand side")
    if fact.krylov_steps is None:
        return True
    r, r_norm = _reorth(b, fact.u)
    p = r / r_norm if r_norm else r  # a unit vector; r = 0 gives s = 0 and passes
    _, s_norm = _reorth(fact.weight.solve(a.T @ p), fact.v, fact.weight)
    return bool(s_norm <= BREAK_TOL * fact.sigma[0])


def weighted_operator_norm(a, weight):
    """||A||_{M,2} = max ||A x||_2 / ||x||_M, the largest weighted singular
    value; 0 for the zero matrix.  ValueError (see _finite) when it lies
    past the float range."""
    a = _checked_matrix(a, weight)
    s = np.linalg.svd(_transform(a, weight), compute_uv=False)
    return float(_finite(s[0], "sigma_1"))


def low_rank_approx(fact, k):
    """Best rank-k approximation A_k = sum_{i<=k} sigma_i u_i v_i^T M.

    Requires a dense-route factorization and 1 <= k < rank, else
    ValueError.  A Krylov-route one is partial: it holds only the triplets
    its start excites, so its leading k need not be A's.
    """
    if fact.krylov_steps is not None:
        raise ValueError("a Krylov-route factorization is partial; the best rank-k "
                         "approximation needs the dense route, wsvd(a, weight)")
    if not 1 <= k < fact.rank:
        raise ValueError(f"k must satisfy 1 <= k < rank ({fact.rank}), got {k}")
    mv = fact.weight.matvec(fact.v[:, :k])
    return (fact.u[:, :k] * fact.sigma[:k]) @ mv.T


def _coefficients(fact, b, k=None):
    """u_i^T b for the first k columns (k defaults to the rank), after
    checking b with _checked_vector."""
    b = _checked_vector(b, fact.u.shape[0], "right-hand side")
    return fact.u[:, :fact.rank if k is None else k].T @ b


def min_m_norm_ls(fact, b):
    """Minimum-M-norm least squares solution sum_i (u_i^T b / sigma_i) v_i.

    Raises ValueError for a b that _checked_vector rejects: a shape other
    than (m,), or non-finite entries.
    """
    r = fact.rank
    coef = _coefficients(fact, b) / fact.sigma
    return fact.v[:, :r] @ coef


def twsvd_solution(fact, b, k):
    """Truncated solution keeping the first k spectral terms; 1 <= k <= rank.

    Raises ValueError for a k outside that range and for a b that
    _checked_vector rejects, as min_m_norm_ls does.
    """
    if not 1 <= k <= fact.rank:
        raise ValueError(f"k must satisfy 1 <= k <= rank ({fact.rank}), got {k}")
    coef = _coefficients(fact, b, k) / fact.sigma[:k]
    return fact.v[:, :k] @ coef


def tikhonov_wsvd(fact, b, lam):
    """Tikhonov-regularized solution with filter factors sigma^2/(sigma^2+lam).

    Solves (A^T A + lam M) x = A^T b through the factorization; lam = 0
    reduces to the minimum-M-norm least squares solution.  The filter is
    formed from sigma and lam scaled by _pow2_scale(sigma) and its square,
    so it holds for any sigma_1 a double holds, 2^-700 and 2^700 included.
    Raises ValueError for a lam that is not finite and >= 0 and for a b
    that _checked_vector rejects, as min_m_norm_ls does.
    """
    if not 0 <= lam < np.inf:
        raise ValueError(f"regularization parameter must be finite and >= 0, got {lam}")
    r = fact.rank
    c = _pow2_scale(fact.sigma)
    sig = fact.sigma * c
    filt = sig**2 / (sig**2 + float(lam) * c * c)
    coef = (_coefficients(fact, b) / fact.sigma) * filt
    return fact.v[:, :r] @ coef
