"""Facts of the paper's test problems at their table sizes (TABLE_DIMS).

Every problem's wlsqr picks at eps 1e-3 and seed 0 are re-run and compared
with the committed tables/, so the tables cannot go stale without a test
failing, and the paper's comparison with plain LSQR is read from tables/
alone.  The other facts are read off one WLSQR run per problem on phillips
and green: build_problem, noise at eps 1e-3 and seed 0, and 200 steps, the
solver's default budget.  They come from the run's own B_k, bases and
iterate, so they cost one product with A, the true residual, beyond the run
itself."""

import csv
from pathlib import Path

import numpy as np
import pytest

from wsvd import (StoppingRule, add_noise, build_problem, project_bidiagonal, select,
                  spr_solve, wlsqr_run)
from wsvd.problems import TABLE_DIMS

TABLES = Path(__file__).resolve().parent.parent / "tables"

# The smallest cond(B_200) each problem must show.  By interlacing, the
# singular values of B_k lie within those of A L^{-1} (M = L^T L), so
# cond(B_k) is a lower bound on the weighted condition cond(A L^{-1}) that
# WLSQR works with.  The Simpson weights run 1:4, so cond(L) = 2 and the
# weighted condition is within a factor 2 of cond_2(A).  Measured: 1.93e7
# on phillips and 1.51e6 on green.
MIN_COND = {"phillips": 1e7, "green": 1e5}


def table_rows(name):
    with open(TABLES / f"sweep_{name}.csv") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("name", sorted(TABLE_DIMS))
def test_the_wlsqr_picks_are_the_tables_rows(name):
    # one 200-step history, as a sweep with several rules runs it, and dp,
    # lc and oracle selected from it: shaw 7/8/9, phillips 8/14/11, expst
    # 2/3/3 and green 5/11/7.  terminated_at (shaw 21, expst 9) is a
    # rounding-level decision and is not pinned.
    problem = build_problem(name)
    noisy = add_noise(problem, 1e-3, 0)
    _, history = spr_solve(problem.a, problem.weight, noisy.b, StoppingRule("maxiter"),
                           max_iter=200, x_true=problem.x_true)
    rows = {r["rule"]: r for r in table_rows(name)
            if (r["method"], r["epsilon"], r["seed"]) == ("wlsqr", "0.001", "0")}
    noise = float(np.linalg.norm(noisy.e))
    for kind in ("dp", "lc", "oracle"):
        rule = StoppingRule(kind, noise_norm=noise, x_true=problem.x_true)
        k = select(rule, history).stop_index
        assert k == int(rows[kind]["stop_k"]), kind
        assert history.rel_errors[k - 1] == pytest.approx(float(rows[kind]["rel_err"]),
                                                          rel=1e-8), kind


def test_wlsqr_is_never_worse_than_lsqr_in_the_tables():
    # the paper's comparison: the M-weighted iteration against plain LSQR,
    # under the same rule on the same noisy data, in every cell
    cells = {}
    for name in TABLE_DIMS:
        for r in table_rows(name):
            if r["method"] in ("wlsqr", "lsqr"):
                key = (name, r["epsilon"], r["seed"], r["rule"])
                cells.setdefault(key, {})[r["method"]] = float(r["rel_err"])
    assert len(cells) == 4 * 6 * 2 * 3
    worse = [key for key, errs in cells.items() if not errs["wlsqr"] <= errs["lsqr"]]
    assert not worse


@pytest.fixture(scope="module", params=sorted(MIN_COND))
def table_run(request):
    """(name, problem, noisy, WlsqrState) of a 200-step run at table size."""
    problem = build_problem(request.param)
    noisy = add_noise(problem, 1e-3, 0)
    state = wlsqr_run(problem.a, problem.weight, noisy.b, max_iter=200)
    assert state.k == 200 and not state.done
    return request.param, problem, noisy, state


def test_the_projection_is_severely_ill_conditioned(table_run):
    name, _, _, state = table_run
    assert np.linalg.cond(project_bidiagonal(state.bidiag)) >= MIN_COND[name]


def test_the_bases_stay_orthonormal_over_200_steps(table_run):
    # P^T P = I and Q^T M Q = I with full reorthogonalization; measured
    # 1.4e-15 and 1.5e-15 on both problems
    _, problem, _, state = table_run
    p, q = state.bidiag.P, state.bidiag.Q
    assert np.linalg.norm(p.T @ p - np.eye(p.shape[1]), 2) <= 1e-13
    assert np.linalg.norm(q.T @ problem.weight.matvec(q) - np.eye(q.shape[1]), 2) <= 1e-13


def test_the_recurrence_residual_is_the_true_residual(table_run):
    # phibar_201 against ||A x_200 - b||_2; measured 1.2e-11 relative on
    # phillips and 5.5e-15 on green
    _, problem, noisy, state = table_run
    true = np.linalg.norm(problem.a @ state.x - noisy.b)
    assert state.residual_norms[-1] == pytest.approx(true, rel=1e-9)
