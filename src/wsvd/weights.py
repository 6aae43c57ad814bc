"""Symmetric positive definite weight matrices and M-inner-product primitives.

A weight matrix M defines the inner product <x, y>_M = x^T M y and the norm
||x||_M = <x, x>_M^{1/2}.  Everything downstream (the weighted SVD, the
weighted bidiagonalization, the weighted solver) consumes M only through the
operations exposed here: multiply, solve, inner product, norm, and a
triangular factor L with M = L^T L, so that ||L x||_2 = ||x||_M exactly.
scipy is imported only for a dense M: importing the package or its command
line, or solving with a diagonal M, never loads it.

The package's two range guards live here too: _sqrt_dot for every vector
norm it reports, and _pow2_scale for the squares of the spectral methods.
(covers needs neither: it applies A^T to a unit vector.)
"""

import math
import re
import sys
import warnings

import numpy as np

_COND_WARN = 1e12

# a plain sum of squares below this may have lost digits to underflow
_UNDERFLOW = np.finfo(float).tiny / np.finfo(float).eps


def _sqrt_dot(x, y=None, factor=1.0):
    """factor * sqrt(max(x^T y, 0)) with y defaulting to x, so a multiple of
    ||x||_2 or, for y = M x, of ||x||_M.  Only when the plain product
    overflows, or falls below tiny/eps in magnitude with x and y nonzero, is
    it recomputed from x and y scaled by their largest magnitudes, so every
    in-range value keeps the bits of the plain formula and the factor
    brings an out-of-range norm back into range.  Every vector norm the
    package reports goes through it: the recursion's alphas and betas,
    WeightMatrix.norm, residuals, noise norms and relative errors.  So
    scaling A by any constant from 1e-290 to 1e280, or A, b or both by
    2^+-700 with x_true and the noise scaled to match, leaves every stop
    index unchanged.  A contiguous x gets np.linalg.norm's bits, so a
    strided one is passed as a contiguous copy."""
    with np.errstate(over="ignore"):
        sq = float(x @ (x if y is None else y))
    if _UNDERFLOW <= abs(sq) < np.inf:
        return factor * float(np.sqrt(max(sq, 0.0)))
    cx = float(np.abs(x).max())
    cy = cx if y is None else float(np.abs(y).max())
    if cx == 0.0 or cy == 0.0:
        return 0.0
    xs = x / cx
    sq = xs @ (xs if y is None else y / cy)
    return float(factor * np.sqrt(cx) * np.sqrt(cy) * np.sqrt(max(sq, 0.0)))


def _pow2_scale(x):
    """A power of two c that brings the largest of the entries of x (all
    >= 0) within 2^+-400, so that squares and sums of squares of c-scaled
    values neither overflow nor underflow.  It is 1.0 when that entry lies
    there already, as at any natural scale, so those values keep their
    bits; an empty or zero x gives 1.0 too."""
    e = int(np.frexp(np.max(x, initial=0.0))[1])
    return 1.0 if abs(e) <= 400 else math.ldexp(1.0, -max(e, -1000))


def _read_only(arr):
    arr.flags.writeable = False
    return arr


def _rows(d, x):
    """The vector d shaped to scale or divide the rows of x, a vector or a
    matrix of columns."""
    return d if x.ndim == 1 else d[:, None]


class WeightMatrix:
    """SPD weight matrix M, stored as its diagonal or as a dense array.

    WeightMatrix(m) takes M's array: 1-D for the diagonal of a diagonal M,
    2-D square for a dense M, which is symmetrized as (M + M^T)/2.  The
    classmethods :meth:`diagonal`, :meth:`dense` and :meth:`identity` only
    fix the dimension, so every construction is validated alike and eagerly:
    a wrong shape, an empty or non-finite M, and a non-SPD M raise
    ValueError at construction, the last naming the failing diagonal entry
    or pivot.  The triangular factor is computed once at construction and
    cached.  M is stored as a private copy, and it and the factor are
    read-only, so instances are immutable (an in-place edit raises
    ValueError) and sharing across threads is safe.
    """

    def __init__(self, m):
        m = np.asarray(m, dtype=float)
        if m.ndim not in (1, 2) or m.shape[0] != m.shape[-1]:
            raise ValueError("weight matrix must be a 1-D diagonal or a square 2-D "
                             f"array, got shape {m.shape}")
        if m.size == 0:
            raise ValueError("weight matrix must be at least 1x1")
        if not np.isfinite(m).all():
            raise ValueError("weight matrix has non-finite entries")
        if m.ndim == 1:
            m = m.copy()
            bad = np.flatnonzero(m <= 0)
            if bad.size:
                raise ValueError(
                    f"not positive definite: diagonal entry {bad[0]} is {m[bad[0]]!r}")
            factor = np.sqrt(m)
            cond = m.max() / m.min()
        else:
            import scipy.linalg

            # 0.5 * (m + m.T) wherever that sum stays finite; an entry whose
            # sum overflows is halved first, which cannot overflow.  Halving
            # first everywhere would round subnormal entries.
            with np.errstate(over="ignore"):
                sym = 0.5 * (m + m.T)
            over = np.isinf(sym)
            sym[over] = 0.5 * m[over] + 0.5 * m.T[over]
            m = sym
            # Factor with M = L^T L and L lower triangular: the flipped
            # Cholesky L = (J C J)^T where J M J = C C^T and J is the exchange
            # matrix.  Its pivots run up from the last row of M, so a failing
            # j-th leading minor of J M J names row n - j of M.
            try:
                c = scipy.linalg.cholesky(m[::-1, ::-1], lower=True, check_finite=False)
            except scipy.linalg.LinAlgError as exc:
                hit = re.search(r"(\d+)", str(exc))
                pivot = f" (pivot {m.shape[0] - int(hit.group(1))})" if hit else ""
                raise ValueError(f"not positive definite{pivot}") from exc
            factor = c[::-1, ::-1].T
            d = np.abs(np.diag(factor))
            cond = (d.max() / d.min()) ** 2
        self._m = _read_only(m)
        self._factor = _read_only(factor)
        if cond > _COND_WARN:
            # name the line that constructs the weight, past this module's
            # frames (a classmethod calling cls)
            frame, level = sys._getframe(1), 2
            while frame.f_globals is globals():
                frame, level = frame.f_back, level + 1
            warnings.warn(f"weight matrix condition estimate {cond:.2e} exceeds "
                          f"{_COND_WARN:.0e}", stacklevel=level)

    @classmethod
    def diagonal(cls, weights):
        """Weight matrix diag(weights); all entries must be positive."""
        w = np.atleast_1d(np.asarray(weights, dtype=float))
        if w.ndim != 1:
            raise ValueError("diagonal weights must be one-dimensional")
        return cls(w)

    @classmethod
    def dense(cls, matrix):
        """Dense SPD weight matrix; the input is symmetrized as (M + M^T)/2."""
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("dense weight matrix must be square")
        return cls(a)

    @classmethod
    def identity(cls, n):
        return cls(np.ones(n))

    # -- basic properties --------------------------------------------------

    @property
    def kind(self):
        """'diagonal' or 'dense', as M is stored."""
        return "diagonal" if self._m.ndim == 1 else "dense"

    @property
    def n(self):
        return self._m.shape[0]

    @property
    def diag(self):
        """Diagonal entries (diagonal kind only), a read-only array."""
        if self._m.ndim != 1:
            raise ValueError("diag is only stored for the diagonal kind")
        return self._m

    def as_array(self):
        """M as a dense array."""
        return np.diag(self._m) if self._m.ndim == 1 else self._m.copy()

    def _check_dim(self, x, what="vector"):
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.n:
            raise ValueError(
                f"{what} has leading dimension {x.shape[0]}, weight matrix is {self.n}x{self.n}"
            )
        return x

    # -- operations ---------------------------------------------------------

    def matvec(self, x):
        """M @ x for a vector or a matrix of columns."""
        x = self._check_dim(x)
        if self._m.ndim == 1:
            return _rows(self._m, x) * x
        return self._m @ x

    def inner(self, x, y):
        """<x, y>_M = x^T M y."""
        x = self._check_dim(x)
        y = self._check_dim(y)
        return float(x @ self.matvec(y))

    def norm(self, x):
        """||x||_M, by _sqrt_dot."""
        x = self._check_dim(x)
        return _sqrt_dot(x, self.matvec(x))

    def solve(self, v):
        """Solve M w = v for a vector or a matrix of columns."""
        v = self._check_dim(v)
        if self._m.ndim == 1:
            return v / _rows(self._m, v)
        return self.solve_factor(self.solve_factor(v, transpose=True))

    def factor(self):
        """Lower-triangular L with M = L^T L, as a dense array."""
        return np.diag(self._factor) if self._factor.ndim == 1 else self._factor

    def solve_factor(self, y, transpose=False):
        """Solve L z = y, or L^T z = y when transpose is set."""
        y = self._check_dim(y)
        if self._factor.ndim == 1:
            return y / _rows(self._factor, y)
        import scipy.linalg

        return scipy.linalg.solve_triangular(
            self._factor, y, lower=True, trans="T" if transpose else "N",
            check_finite=False,
        )
