"""Symmetric positive definite weight matrices and M-inner-product primitives.

A weight matrix M defines the inner product <x, y>_M = x^T M y and the norm
||x||_M = <x, x>_M^{1/2}.  Everything downstream (the weighted SVD, the
weighted bidiagonalization, the weighted solver) consumes M only through the
operations exposed here: multiply, solve, inner product, norm, and a
triangular factor L with M = L^T L, so that ||L x||_2 = ||x||_M exactly.
"""

import re
import warnings

import numpy as np

_COND_WARN = 1e12


class WeightMatrix:
    """SPD weight matrix, stored either as a diagonal or as a dense array.

    Construct through the classmethods :meth:`diagonal`, :meth:`dense`, or
    :meth:`identity`.  Validation is eager: non-SPD input raises ValueError at
    construction, naming the failing pivot.  The triangular factor is computed
    once at construction and cached; instances are immutable afterwards, so
    sharing across threads is safe.
    """

    def __init__(self, kind, diag=None, matrix=None):
        if kind not in ("diagonal", "dense"):
            raise ValueError(f"unknown weight kind {kind!r}")
        self.kind = kind
        self._diag = diag
        self._matrix = matrix
        self._sqrt_diag = None
        self._factor = None
        if kind == "diagonal":
            self._validate_diagonal()
        else:
            self._validate_dense()

    @classmethod
    def diagonal(cls, weights):
        """Weight matrix diag(weights); all entries must be positive."""
        w = np.atleast_1d(np.asarray(weights, dtype=float))
        if w.ndim != 1:
            raise ValueError("diagonal weights must be one-dimensional")
        return cls("diagonal", diag=w)

    @classmethod
    def dense(cls, matrix):
        """Dense SPD weight matrix; the input is symmetrized as (M + M^T)/2."""
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("dense weight matrix must be square")
        if not np.all(np.isfinite(a)):
            raise ValueError("dense weight matrix must be finite")
        return cls("dense", matrix=0.5 * (a + a.T))

    @classmethod
    def identity(cls, n):
        return cls("diagonal", diag=np.ones(n))

    # -- construction-time validation ------------------------------------

    def _validate_diagonal(self):
        w = self._diag
        if w.size == 0:
            raise ValueError("weight matrix must be at least 1x1")
        if not np.all(np.isfinite(w)):
            raise ValueError("diagonal weights must be finite")
        bad = np.flatnonzero(w <= 0)
        if bad.size:
            raise ValueError(
                f"not positive definite: diagonal entry {bad[0]} is {w[bad[0]]!r}"
            )
        self._sqrt_diag = np.sqrt(w)
        cond = w.max() / w.min()
        if cond > _COND_WARN:
            warnings.warn(
                f"weight matrix condition estimate {cond:.2e} exceeds {_COND_WARN:.0e}",
                stacklevel=3,
            )

    def _validate_dense(self):
        import scipy.linalg

        a = self._matrix
        if a.shape[0] == 0:
            raise ValueError("weight matrix must be at least 1x1")
        try:
            scipy.linalg.cholesky(a, lower=True, check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            hit = re.search(r"(\d+)", str(exc))
            pivot = f" (pivot {int(hit.group(1)) - 1})" if hit else ""
            raise ValueError(f"not positive definite{pivot}") from exc
        # Factor with M = L^T L and L lower triangular: the flipped Cholesky
        # L = (J C J)^T where J M J = C C^T and J is the exchange matrix.
        c = scipy.linalg.cholesky(a[::-1, ::-1], lower=True, check_finite=False)
        self._factor = c[::-1, ::-1].T
        d = np.abs(np.diag(self._factor))
        cond = (d.max() / d.min()) ** 2
        if cond > _COND_WARN:
            warnings.warn(
                f"weight matrix condition estimate {cond:.2e} exceeds {_COND_WARN:.0e}",
                stacklevel=3,
            )

    # -- basic properties --------------------------------------------------

    @property
    def n(self):
        return self._diag.size if self.kind == "diagonal" else self._matrix.shape[0]

    @property
    def diag(self):
        """Diagonal entries (diagonal kind only)."""
        if self.kind != "diagonal":
            raise ValueError("diag is only stored for the diagonal kind")
        return self._diag

    def as_array(self):
        """M as a dense array."""
        if self.kind == "diagonal":
            return np.diag(self._diag)
        return self._matrix.copy()

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
        if self.kind == "diagonal":
            return self._diag * x if x.ndim == 1 else self._diag[:, None] * x
        return self._matrix @ x

    def inner(self, x, y):
        """<x, y>_M = x^T M y."""
        x = self._check_dim(x)
        y = self._check_dim(y)
        return float(x @ self.matvec(y))

    def norm(self, x):
        """||x||_M; the quadratic form is clamped at zero against roundoff."""
        return float(np.sqrt(max(self.inner(x, x), 0.0)))

    def solve(self, v):
        """Solve M w = v for a vector or a matrix of columns."""
        v = self._check_dim(v)
        if self.kind == "diagonal":
            return v / self._diag if v.ndim == 1 else v / self._diag[:, None]
        return self.solve_factor(self.solve_factor(v, transpose=True))

    def factor(self):
        """Lower-triangular L with M = L^T L, as a dense array."""
        if self.kind == "diagonal":
            return np.diag(self._sqrt_diag)
        return self._factor

    def apply_factor(self, x):
        """L @ x."""
        x = self._check_dim(x)
        if self.kind == "diagonal":
            s = self._sqrt_diag
            return s * x if x.ndim == 1 else s[:, None] * x
        return self._factor @ x

    def solve_factor(self, y, transpose=False):
        """Solve L z = y, or L^T z = y when transpose is set."""
        y = self._check_dim(y)
        if self.kind == "diagonal":
            s = self._sqrt_diag
            return y / s if y.ndim == 1 else y / s[:, None]
        import scipy.linalg

        return scipy.linalg.solve_triangular(
            self._factor, y, lower=True, trans="T" if transpose else "N",
            check_finite=False,
        )
