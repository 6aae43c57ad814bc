"""Subspace-projection regularization: stopping rules and solve drivers.

The solver's iteration index is the regularization parameter; the rules here
pick it.  'dp' is the discrepancy principle (first residual crossing of
tau * ||e||_2), 'lc' the L-curve corner by discrete Menger curvature in
log-log coordinates, 'oracle' the error-minimizing index (needs x_true),
and 'maxiter' simply the last computed iterate.

spr_solve keeps the recursion it ran last for a repeat call on the same
inputs; its docstring states that contract.
"""

import threading
import zlib
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .bidiag import _checked_matrix, _checked_vector
from .decomposition import _coefficients, tikhonov_wsvd
from .solver import DEFAULT_MAX_ITER, wlsqr_run
from .weights import WeightMatrix, _pow2_scale, _sqrt_dot

RULES = ("dp", "lc", "oracle", "maxiter")

DEFAULT_TAU = 1.01

# points closer than this in log-log coordinates collapse to one
_LC_DEDUP = 1e-12
# largest corner curvature at or below this means "no corner"
_LC_FLAT = 1e-10

# The recursion spr_solve ran last, as (key, digest, BidiagState), or None
_kept = None
_kept_lock = threading.Lock()


def _dp_threshold(tau, noise_norm):
    """tau * noise_norm, the discrepancy threshold.  The one dp check, made
    by StoppingRule, stop_dp and spr_solve alike: ValueError unless
    noise_norm is positive and finite and tau is finite and > 1."""
    if noise_norm is None or not 0 < noise_norm < np.inf:
        raise ValueError(f"dp rule needs a positive finite noise_norm, got {noise_norm}")
    if not 1 < tau < np.inf:
        raise ValueError(f"dp safety factor tau must be finite and > 1, got {tau}")
    return tau * noise_norm


@dataclass
class StoppingRule:
    """Stopping rule selector, validated at construction: a dp rule needs a
    tau that is finite and > 1 and a noise_norm that is finite and > 0 (the
    check _dp_threshold makes for stop_dp and spr_solve too), an oracle
    rule needs x_true, and ValueError is raised otherwise (so `wsvd solve
    --tau nan` exits 1)."""

    kind: str
    tau: float = DEFAULT_TAU
    noise_norm: float | None = None
    x_true: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in RULES:
            raise ValueError(f"unknown stopping rule {self.kind!r}; choose from {RULES}")
        if self.kind == "dp":
            _dp_threshold(self.tau, self.noise_norm)
        if self.kind == "oracle" and self.x_true is None:
            raise ValueError("oracle rule needs x_true")


@dataclass
class RunRecord:
    """History of one regularized run and the chosen index.

    The one history type of the package: spr_solve returns it for a Krylov
    run and twsvd_record for the truncated WSVD expansions, and select
    applies any stopping rule to it.  residual_norms[i] =
    ||A x_{i+1} - b||_2 as tracked by the recurrence (or the expansion), and
    ks = 1..len(residual_norms) numbers the history;
    rel_errors is present when x_true was known.  stop_index is the 1-based
    index the rule chose (0 for an empty history, where x = 0), and rule
    names that rule.  satisfied is False when a dp rule never crossed or an
    lc rule found no corner; degenerate marks the dp threshold already
    holding at x_0.
    """

    residual_norms: np.ndarray
    solution_m_norms: np.ndarray
    rel_errors: np.ndarray | None
    initial_residual: float
    stop_index: int
    rule: str
    satisfied: bool = True
    degenerate: bool = False
    terminated_at: int | None = None

    @property
    def ks(self):
        return np.arange(1, len(self.residual_norms) + 1)


def _lead(ok):
    """Length of the leading run of true entries of the boolean array ok."""
    return ok.size if ok.all() else int(np.argmin(ok))


def stop_dp(residual_norms, tau, noise_norm):
    """Discrepancy index on a residual history.

    residual_norms[0] must be phibar_1 = ||b||_2 (the x_0 residual) followed
    by phibar_{k+1} for k = 1, 2, ...  Returns (k, degenerate): the first k
    with residual_norms[k] <= tau * noise_norm, or (None, False) if never
    satisfied.  A threshold already met at x_0 returns k = 1 with the
    degenerate flag set.  Only the leading run of finite entries is scanned,
    as in lcurve_points: nothing after a NaN or inf is trusted, so a crossing
    there returns (None, False).  tau and noise_norm are checked as
    StoppingRule checks them, by _dp_threshold.
    """
    thr = _dp_threshold(tau, noise_norm)
    seq = np.asarray(residual_norms, dtype=float)
    if seq.size == 0:
        raise ValueError("empty residual history")
    lead = _lead(np.isfinite(seq))
    if lead and seq[0] <= thr:
        return 1, True
    hits = np.flatnonzero(seq[1:lead] <= thr)
    return (int(hits[0]) + 1, False) if hits.size else (None, False)


class LCurveStop(NamedTuple):
    index: int
    no_corner: bool


def lcurve_points(residual_norms, solution_m_norms):
    """Deduplicated log-log points and the 1-based iteration index of each.

    Only the leading run of points with both norms positive and finite is
    used: a consistent system can reach a residual of exactly 0, whose log
    is -inf, and nothing after a non-finite point is trusted.
    """
    res = np.asarray(residual_norms, dtype=float)
    mn = np.asarray(solution_m_norms, dtype=float)
    if res.shape != mn.shape:
        raise ValueError("residual and solution norm histories differ in length")
    lead = _lead(np.isfinite(res) & np.isfinite(mn) & (res > 0) & (mn > 0))
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
    M-norm are both finite is used (see lcurve_points).  An endpoint carries
    no curvature, so the last step of a terminated run, whose iterate is
    often blown up, is never the corner.  Fewer than 3 usable points give
    index 1 with no_corner set.
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
    """Index of smallest relative error; ties resolve to the smaller index.

    Only the leading run of finite entries is scanned, as in stop_dp and
    lcurve_points: nothing after a NaN or inf is trusted.  An empty history,
    or one whose first entry is not finite, raises ValueError.
    """
    errs = np.asarray(rel_errors, dtype=float)
    lead = _lead(np.isfinite(errs))
    if lead == 0:
        raise ValueError("empty error history or a non-finite first error")
    return int(np.argmin(errs[:lead])) + 1


def select(rule, record):
    """The record with stop_index, rule, satisfied and degenerate set by rule.

    The history is left as it is; rule is applied to it as a whole.  dp picks
    the first residual crossing, or the last index unsatisfied when nothing
    crosses (degenerate when the threshold holds at x_0, index 1); lc picks
    the L-curve corner (unsatisfied when there is none); oracle the error
    minimum, which needs rel_errors; maxiter the last index.  An empty
    history (b orthogonal to the range of A, so x_0 = 0 is the solution)
    gives index 0, satisfied.  Selecting from a maxiter history gives the
    index, satisfied and degenerate that a run under the rule gives.
    """
    steps = len(record.residual_norms)
    satisfied, degenerate = True, False
    if rule.kind == "dp":
        k, degenerate = stop_dp(np.concatenate([[record.initial_residual],
                                                record.residual_norms]),
                                rule.tau, rule.noise_norm)
        satisfied = k is not None or steps == 0
        index = steps if k is None else min(k, steps)
    elif steps == 0 or rule.kind == "maxiter":
        index = steps
    elif rule.kind == "lc":
        corner = stop_lcurve(record.residual_norms, record.solution_m_norms)
        index, satisfied = corner.index, not corner.no_corner
    else:
        if record.rel_errors is None:
            raise ValueError("oracle selection needs x_true")
        index = stop_oracle(record.rel_errors)
    return replace(record, stop_index=index, rule=rule.kind,
                   satisfied=satisfied, degenerate=degenerate)


def twsvd_record(fact, b, x_true=None, max_iter=None):
    """History of the truncated WSVD expansions x_k = sum_{i<=k} (u_i^T b /
    sigma_i) v_i for k = 1 .. min(rank, max_iter), with the maxiter index.
    max_iter defaults to DEFAULT_MAX_ITER, wlsqr_run's budget, so the lc
    corner is not sought far into the noise of a full-rank history.

    The residual norm of x_k is the norm of b outside span(u_1 .. u_rank)
    together with the tail sum of (u_i^T b)^2 over k < i <= rank, so no
    difference of nearly equal squares is taken.  Those squares are of the
    parts of b scaled by _pow2_scale(||b||_2), which is 1 while ||b||_2 lies
    within 2^+-400, so the residuals hold for any ||b||_2 a double holds,
    2^-700 and 2^700 included.  M-norms come from the coefficients u_i^T b
    / sigma_i, scaled alike by _pow2_scale of their largest magnitude, and
    rel_errors (when x_true is given) from the iterates themselves.  Raises
    ValueError for a max_iter below 1, for an x_true that _checked_x_true
    rejects and for a b that _coefficients rejects (a shape other than
    (m,), or non-finite entries).
    """
    if max_iter is not None and max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if x_true is not None:
        x_true, nx = _checked_x_true(x_true, fact.v.shape[0])
    kmax = min(fact.rank, DEFAULT_MAX_ITER if max_iter is None else max_iter)
    ub = _coefficients(fact, b)  # checks b before any use
    b_norm = _sqrt_dot(np.ascontiguousarray(b, dtype=float))  # np.linalg.norm's bits
    c = _pow2_scale(b_norm)  # the squares below are of c-scaled parts of b
    outside = (b - fact.u[:, :fact.rank] @ ub) * c
    tail = np.cumsum(((ub * c)**2)[::-1])[::-1]  # tail[j] = sum of (c ub[i])**2 over i >= j
    res = np.sqrt(outside @ outside + np.append(tail[1:], 0.0)[:kmax]) / c
    coef = ub[:kmax] / fact.sigma[:kmax]
    cm = _pow2_scale(np.abs(coef))  # the M-norms' squares are of cm-scaled coef
    mnorms = np.sqrt(np.cumsum((coef * cm)**2)) / cm
    errs = None
    if x_true is not None:
        errs = np.empty(kmax)
        x = np.zeros(fact.v.shape[0])
        for k in range(kmax):
            x = x + coef[k] * fact.v[:, k]
            errs[k] = _rel_err(x, x_true, nx)
    return RunRecord(residual_norms=res,
                     solution_m_norms=mnorms, rel_errors=errs,
                     initial_residual=b_norm, stop_index=kmax,
                     rule="maxiter")


def _checked_x_true(x_true, n):
    """(x_true as a float array, its 2-norm).  Raises ValueError naming
    x_true unless _checked_vector accepts it and its norm is positive and
    finite, so that every relative error is defined."""
    x_true = _checked_vector(x_true, n, "x_true")
    norm = _sqrt_dot(np.ascontiguousarray(x_true))
    if not 0 < norm < np.inf:
        raise ValueError(f"x_true must be nonzero with a finite 2-norm, got {norm}")
    return x_true, norm


def _rel_err(x, x_true, x_true_norm):
    """||x - x_true||_2 / x_true_norm, the one relative error of the
    package, with the norm by _sqrt_dot."""
    return _sqrt_dot(x - x_true) / x_true_norm


def _crc32(arr, crc=0):
    """crc32 of arr's entries in memory order, continuing crc.  A contiguous
    array is read in place; a strided view is copied once."""
    if arr.flags.f_contiguous:
        arr = arr.T
    return zlib.crc32(np.ascontiguousarray(arr), crc)


def _digest(a, weight):
    """crc32 over the bytes of A and of the weight's stored array."""
    return _crc32(weight._m, _crc32(a))


def _take_kept(key, a, weight):
    """(recursion, digest) for a run of key on a and weight.  The slot is
    emptied either way.  The digest is computed only when the kept key
    matches, and recursion is the kept one only when its digest matches too;
    otherwise it is None, and the kept one is dropped."""
    global _kept
    with _kept_lock:
        kept, _kept = _kept, None
    if kept is None or kept[0] != key:
        return None, None
    digest = _digest(a, weight)
    return (kept[2] if kept[1] == digest else None), digest


def spr_solve(a, weight, b, rule, max_iter=None, x_true=None):
    """Regularized solve of min ||A x - b||_2 by early-stopped iteration.

    Returns (x, RunRecord).  x_true (defaulting to rule.x_true) enables the
    rel_errors history; it must have shape (n,), finite entries and a
    nonzero norm, else ValueError before any work.  The dp rule stops the
    iteration eagerly at the first crossing of the threshold _dp_threshold
    forms, with the check StoppingRule made; the other rules run to
    max_iter, and select picks the index from the history.  An earlier
    selected iterate x_k comes from continuing the same run for k steps
    (wlsqr_run's _bidiag), which replays the solver's update over the
    stored columns and steps nothing, so no iterate is stored, the recursion
    runs once, and x is the iterate whose rel_errors entry the record
    reports, bit for bit.

    The kept run.  All rules select from the same recursion, so the last
    one run is kept and continued when a call repeats A, M, b and max_iter,
    as the paper's tables do with dp, lc and oracle on one problem.  A cheap
    key (A's shape and strides, max_iter as passed, M's kind and size, a
    diagonal M's entries, b) is compared first, so a sweep, whose runs each
    have a new b or another diagonal M, never reads A for the crc32 over A
    and M's stored array that a key match compares next.  The first repeat
    stores that digest and runs afresh; later calls on unchanged inputs
    replay the kept columns and step the recursion only past them.  It is
    deterministic and each step reads only its own columns, so each result
    has the bits of a fresh run at a fixed BLAS thread count (a replayed
    column keeps the count it was computed under).  The crc32 catches every
    in-place edit of A confined to 32 consecutive bits; an edit that keeps
    it, about one chance in 2**32, replays the stale recursion.

    At most one run is kept: its bases, 8 * budget * (m + n) bytes (about
    12 MB for green at table size, 160 MB for m = 1e5 at the default 200).
    It stays alive until a call on other inputs puts its own run in its
    place.  A call takes the kept run out under a lock, so concurrent calls
    never share one, and never hands it to its caller; it drops a kept run
    it cannot use before allocating its own.  b is checked before the kept
    run is taken out, so a rejected b leaves it, and a run is kept even when
    select raises (an lc rule on fewer than 5 steps).
    """
    global _kept
    a = _checked_matrix(a, weight, scan=False)
    b = _checked_vector(b, a.shape[0], "starting vector b")
    if x_true is None:
        x_true = rule.x_true
    if x_true is not None:
        x_true, x_true_norm = _checked_x_true(x_true, a.shape[1])

    diag = weight.diag.tobytes() if weight.kind == "diagonal" else None
    key = (a.shape, a.strides, max_iter, weight.kind, weight.n, diag, b.shape, b.tobytes())
    bidiag, digest = _take_kept(key, a, weight)

    errs = [] if x_true is not None else None
    thr = _dp_threshold(rule.tau, rule.noise_norm) if rule.kind == "dp" else None

    def cb(k, x, res, mnorm):
        if errs is not None:
            errs.append(_rel_err(x, x_true, x_true_norm))
        # phibar never increases, so a threshold met at x_0 stops at step 1
        return thr is not None and res <= thr

    state = wlsqr_run(a, weight, b, max_iter=max_iter, callback=cb, _bidiag=bidiag)
    try:
        record = select(rule, RunRecord(
            residual_norms=np.asarray(state.residual_norms),
            solution_m_norms=np.asarray(state.solution_m_norms),
            rel_errors=np.asarray(errs) if errs is not None else None,
            initial_residual=state.initial_residual,
            stop_index=state.k,
            rule="maxiter",
            terminated_at=state.bidiag.termination_step if state.done else None,
        ))
        k = record.stop_index
        x = state.x if k == state.k else wlsqr_run(a, weight, b, max_iter=k,
                                                   _bidiag=state.bidiag).x
    finally:
        with _kept_lock:
            _kept = (key, digest, state.bidiag)
    return x, record


def lsqr_baseline(a, b, rule, max_iter=None, x_true=None):
    """Unweighted baseline: the same driver at M = I (plain LSQR, 2-norms).
    A is checked before the identity takes its size, so a malformed A raises
    spr_solve's ValueError."""
    a = _checked_matrix(a, None, scan=False)
    return spr_solve(a, WeightMatrix.identity(a.shape[1]), b, rule,
                     max_iter=max_iter, x_true=x_true)


def tikhonov_opt(fact, b, x_true):
    """Error-optimal Tikhonov parameter by golden-section search.

    Minimizes ||x_lam - x_true||_2 / ||x_true||_2 over log lam in
    [log(1e-16 sigma_1^2), log(sigma_1^2)], refined to 1e-3 relative in lam.
    Returns (lam, x_lam).  When sigma_1 lies outside 2^+-400 the search runs
    on sigma and b scaled by _pow2_scale(sigma), so x_lam holds for any
    sigma_1 a double holds, 2^-700 and 2^700 included; lam scales like
    sigma_1^2, though, so there it may underflow to 0 or overflow to inf.
    Raises ValueError for a rank-0 factorization, for an x_true that
    _checked_x_true rejects and, at the first solution, for a b that
    tikhonov_wsvd rejects (a shape other than (m,), or non-finite entries).
    """
    if fact.rank == 0:
        raise ValueError("factorization has rank 0")
    x_true, nx = _checked_x_true(x_true, fact.v.shape[0])
    scale = _pow2_scale(fact.sigma)
    if scale != 1.0:  # search with sigma and b scaled, where lam is scale^2 times larger
        fact, b = replace(fact, sigma=fact.sigma * scale), np.multiply(b, scale)
    s1sq = fact.sigma[0] ** 2

    def err(t):
        return _rel_err(tikhonov_wsvd(fact, b, np.exp(t)), x_true, nx)

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
    return lam / scale / scale, tikhonov_wsvd(fact, b, lam)
