"""Subspace-projection regularization: stopping rules and solve drivers.

The solver's iteration index is the regularization parameter; the rules here
pick it.  'dp' is the discrepancy principle (first residual crossing of
tau * ||e||_2), 'lc' the L-curve corner by discrete Menger curvature in
log-log coordinates, 'oracle' the error-minimizing index (needs x_true),
and 'maxiter' simply the last computed iterate.
"""

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .decomposition import tikhonov_wsvd
from .solver import wlsqr_run
from .weights import WeightMatrix

RULES = ("dp", "lc", "oracle", "maxiter")

DEFAULT_TAU = 1.01

# points closer than this in log-log coordinates collapse to one
_LC_DEDUP = 1e-12
# largest corner curvature at or below this means "no corner"
_LC_FLAT = 1e-10


@dataclass
class StoppingRule:
    """Stopping rule selector, validated at construction."""

    kind: str
    tau: float = DEFAULT_TAU
    noise_norm: float | None = None
    x_true: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in RULES:
            raise ValueError(f"unknown stopping rule {self.kind!r}; choose from {RULES}")
        if self.kind == "dp":
            if self.noise_norm is None or self.noise_norm <= 0:
                raise ValueError("dp rule needs a positive noise_norm")
            if self.tau <= 1:
                raise ValueError(f"dp safety factor tau must be > 1, got {self.tau}")
        if self.kind == "oracle" and self.x_true is None:
            raise ValueError("oracle rule needs x_true")


@dataclass
class RunRecord:
    """History of one regularized run and the chosen index.

    ks[i] = i + 1; residual_norms[i] = ||A x_{i+1} - b||_2 as tracked by the
    recurrence; rel_errors is present when x_true was known.  stop_index is
    the 1-based iteration whose iterate was returned.  satisfied is False
    when a dp rule never crossed or an lc rule found no corner; degenerate
    marks the dp threshold already holding at x_0.
    """

    ks: np.ndarray
    residual_norms: np.ndarray
    solution_m_norms: np.ndarray
    rel_errors: np.ndarray | None
    initial_residual: float
    stop_index: int
    rule: str
    satisfied: bool = True
    degenerate: bool = False
    terminated_at: int | None = None
    wall_ms: float = 0.0


def stop_dp(residual_norms, tau, noise_norm):
    """Discrepancy index on a residual history.

    residual_norms[0] must be phibar_1 = ||b||_2 (the x_0 residual) followed
    by phibar_{k+1} for k = 1, 2, ...  Returns (k, degenerate): the first k
    with residual_norms[k] <= tau * noise_norm, or (None, False) if never
    satisfied.  A threshold already met at x_0 returns k = 1 with the
    degenerate flag set.
    """
    if tau <= 1:
        raise ValueError(f"tau must be > 1, got {tau}")
    if noise_norm <= 0:
        raise ValueError(f"noise_norm must be positive, got {noise_norm}")
    thr = tau * noise_norm
    seq = np.asarray(residual_norms, dtype=float)
    if seq.size == 0:
        raise ValueError("empty residual history")
    if seq[0] <= thr:
        return 1, True
    for k in range(1, seq.size):
        if seq[k] <= thr:
            return k, False
    return None, False


class LCurveStop(NamedTuple):
    index: int
    no_corner: bool


def lcurve_points(residual_norms, solution_m_norms):
    """Deduplicated log-log points and the 1-based iteration index of each.

    Only the leading run of points with both norms positive and finite is
    used: a breakdown step reports a residual of exactly 0, whose log is
    -inf, and nothing after a non-finite point is trusted.
    """
    res = np.asarray(residual_norms, dtype=float)
    mn = np.asarray(solution_m_norms, dtype=float)
    if res.shape != mn.shape:
        raise ValueError("residual and solution norm histories differ in length")
    ok = np.isfinite(res) & np.isfinite(mn) & (res > 0) & (mn > 0)
    lead = ok.size if ok.all() else int(np.argmin(ok))
    pts = np.column_stack([np.log(res[:lead]), np.log(mn[:lead])])
    keep = [0] if lead else []
    for i in range(1, pts.shape[0]):
        if np.linalg.norm(pts[i] - pts[keep[-1]]) >= _LC_DEDUP:
            keep.append(i)
    idx = np.asarray(keep, dtype=int)
    return pts[idx], idx + 1


def lcurve_curvature(residual_norms, solution_m_norms):
    """Menger curvature at each interior deduplicated point.

    Returns (ks, curvatures): curvature is positive when the polyline turns
    in the corner direction of an L-shaped curve (residual axis first,
    M-norm axis second).  Endpoints carry no curvature and are omitted.
    """
    pts, ks = lcurve_points(residual_norms, solution_m_norms)
    if pts.shape[0] < 3:
        return ks[1:0], np.zeros(0)
    p1, p2, p3 = pts[:-2], pts[1:-1], pts[2:]
    d21 = p2 - p1
    d32 = p3 - p2
    d31 = p3 - p1
    cross = d21[:, 0] * d32[:, 1] - d21[:, 1] * d32[:, 0]
    lengths = (
        np.linalg.norm(d21, axis=1)
        * np.linalg.norm(d32, axis=1)
        * np.linalg.norm(d31, axis=1)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        curv = np.where(lengths > 0, -2.0 * cross / lengths, 0.0)
    return ks[1:-1], curv


def stop_lcurve(residual_norms, solution_m_norms):
    """L-curve corner: iteration of maximum discrete corner curvature.

    Needs at least 5 history points.  A flat (collinear) history sets the
    no_corner flag and still returns the interior index of largest
    curvature.  Only the leading run of points whose log residual and log
    M-norm are both finite is used (see lcurve_points).  At a beta
    breakdown the recurrence reports a residual of exactly 0 for the last
    step, so that step is dropped and its iterate, often blown up, is never
    the corner.  Fewer than 3 usable points give index 1 with no_corner set.
    """
    if len(residual_norms) < 5:
        raise ValueError(
            f"L-curve selection needs >= 5 points, got {len(residual_norms)}"
        )
    ks, curv = lcurve_curvature(residual_norms, solution_m_norms)
    if curv.size == 0:
        # everything deduplicated away; fall back to the first iterate
        return LCurveStop(index=1, no_corner=True)
    j = int(np.argmax(curv))
    return LCurveStop(index=int(ks[j]), no_corner=bool(curv[j] <= _LC_FLAT))


def stop_oracle(rel_errors):
    """Index of smallest relative error; ties resolve to the smaller index."""
    errs = np.asarray(rel_errors, dtype=float)
    if errs.size == 0:
        raise ValueError("empty error history")
    return int(np.argmin(errs)) + 1


def spr_solve(a, weight, b, rule, max_iter=None, reorth=True, x_true=None,
              keep_iterates=True):
    """Regularized solve of min ||A x - b||_2 by early-stopped iteration.

    Returns (x, RunRecord).  x_true (defaulting to rule.x_true) enables the
    rel_errors history.  The dp rule stops the iteration eagerly at the first
    crossing; lc/oracle run to max_iter and select afterwards.  With
    keep_iterates unset, a selected earlier iterate is recovered by replaying
    the run up to the chosen index, which is bit-identical because the
    recursion is deterministic.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if x_true is None:
        x_true = rule.x_true
    if rule.kind == "oracle" and x_true is None:
        raise ValueError("oracle selection needs x_true")
    x_true_norm = np.linalg.norm(x_true) if x_true is not None else None
    t0 = time.perf_counter()

    errs = [] if x_true is not None else None
    iterates = [] if keep_iterates else None
    degenerate = False
    satisfied = True
    thr = None
    if rule.kind == "dp":
        thr = rule.tau * rule.noise_norm
        degenerate = float(np.linalg.norm(b)) <= thr

    def cb(k, x, res, mnorm):
        if iterates is not None:
            iterates.append(x)
        if errs is not None:
            errs.append(float(np.linalg.norm(x - x_true) / x_true_norm))
        if rule.kind == "dp":
            return degenerate or res <= thr
        return False

    state = wlsqr_run(a, weight, b, max_iter=max_iter, reorth=reorth, callback=cb)

    if state.k == 0:
        # b orthogonal to the range of A; x = 0 is already the solution
        stop_index = 0
    elif rule.kind == "dp":
        satisfied = degenerate or state.phibar <= thr
        stop_index = state.k
    elif rule.kind == "oracle":
        stop_index = stop_oracle(errs)
    elif rule.kind == "lc":
        corner = stop_lcurve(state.residual_norms, state.solution_m_norms)
        stop_index = corner.index
        satisfied = not corner.no_corner
    else:
        stop_index = state.k

    if stop_index in (0, state.k):
        x = state.x
    elif iterates is not None:
        x = iterates[stop_index - 1]
    else:
        x = wlsqr_run(a, weight, b, max_iter=stop_index, reorth=reorth).x

    record = RunRecord(
        ks=np.arange(1, state.k + 1),
        residual_norms=np.asarray(state.residual_norms),
        solution_m_norms=np.asarray(state.solution_m_norms),
        rel_errors=np.asarray(errs) if errs is not None else None,
        initial_residual=state.initial_residual,
        stop_index=stop_index,
        rule=rule.kind,
        satisfied=satisfied,
        degenerate=degenerate,
        terminated_at=state.bidiag.termination_step if state.bidiag.terminated else None,
        wall_ms=(time.perf_counter() - t0) * 1e3,
    )
    return x, record


def lsqr_baseline(a, b, rule, max_iter=None, reorth=True, x_true=None,
                  keep_iterates=True):
    """Unweighted baseline: the same driver at M = I (plain LSQR, 2-norms)."""
    a = np.asarray(a, dtype=float)
    return spr_solve(a, WeightMatrix.identity(a.shape[1]), b, rule,
                     max_iter=max_iter, reorth=reorth, x_true=x_true,
                     keep_iterates=keep_iterates)


def tikhonov_opt(fact, b, x_true):
    """Error-optimal Tikhonov parameter by golden-section search.

    Minimizes ||x_lam - x_true||_2 / ||x_true||_2 over log lam in
    [log(1e-16 sigma_1^2), log(sigma_1^2)], refined to 1e-3 relative in lam.
    Returns (lam, x_lam).
    """
    if fact.rank == 0:
        raise ValueError("factorization has rank 0")
    b = np.asarray(b, dtype=float)
    x_true = np.asarray(x_true, dtype=float)
    nx = np.linalg.norm(x_true)
    s1sq = fact.sigma[0] ** 2

    def err(t):
        return np.linalg.norm(tikhonov_wsvd(fact, b, np.exp(t)) - x_true) / nx

    lo, hi = np.log(1e-16 * s1sq), np.log(s1sq)
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = err(c), err(d)
    while hi - lo > 1e-3:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = err(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = err(d)
    t = c if fc < fd else d
    lam = float(np.exp(t))
    return lam, tikhonov_wsvd(fact, b, lam)
