"""Facts of the paper's test problems at their table sizes (TABLE_DIMS).

The tier makes one WLSQR history per problem and noise seed, as `wsvd
sweep` wrote tables/: build_problem, noise at eps 1e-3 and seed 0 or 1, and
spr_solve under the maxiter rule with max_iter 200, the sweep's default
budget at these sizes, and x_true.  Each problem is built once, and every
table-size fact of the solver is read from its run:

- the dp, lc and oracle picks, which must be the wlsqr rows of tables/, so
  the tables cannot go stale without a test failing;
- from the recursion spr_solve keeps: cond(B_k) and the orthogonality of
  both bases at the run's last step;
- from one replay of that recursion (wlsqr_run continuing it, which takes
  no new step and keeps the run's bits): every iterate x_k, so the
  recurrence residual is checked against ||A x_k - b||_2 at every step and
  the last iterate against spr_solve's x, bit for bit.

phillips and green run the whole budget; phillips' seed-0 run also checks
the zero-page storage of its A, whose dense copy gives the run's first 100
steps bit for bit.  shaw and expst terminate (at steps 21 and 9 at seed 0)
with a numerically singular B_k; their terminating iterate is also checked
against the Krylov wsvd route's solution and an eager dp run, and their lc
corner against the terminating step.  The paper's comparison with plain
LSQR is read from tables/ alone.
"""

import csv
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from wsvd import (BidiagState, NoisyData, RunRecord, StoppingRule, WlsqrState, add_noise,
                  bidiag, build_problem, min_m_norm_ls, project_bidiagonal, regularization, select,
                  spr_solve, wlsqr_run, wsvd)
from wsvd.problems import TABLE_DIMS
from wsvd.problems import TestProblem as Problem  # not collected as a test class

TABLES = Path(__file__).resolve().parent.parent / "tables"

# shaw and expst, whose recursion terminates, come first: the tests of the
# terminating runs alone parametrize `table` with TERMINATING = RUNS[:4],
# and pytest groups a module-scoped parameter by its position in its list,
# so they share RUNS' runs and every problem's runs stay consecutive
RUNS = [(name, seed) for name in ("shaw", "expst", "phillips", "green") for seed in (0, 1)]
TERMINATING = RUNS[:4]

# phillips' seed-0 run alone checks the storage of A.  That test takes all
# of RUNS, the others skipped, since pytest groups a module-scoped parameter
# by its position in its list
STORAGE_RUNS = [run if run == ("phillips", 0) else
                pytest.param(run, marks=pytest.mark.skip(reason="one phillips run checks A"))
                for run in RUNS]

# The steps at which shaw and expst terminate at seed 0.  At other seeds the
# step is a rounding-level decision (ROADMAP item 2), so it is not pinned.
TERMINATES_AT = {"shaw": 21, "expst": 9}

# The smallest cond(B_k) each problem's run must show at its last step.  By
# interlacing, the singular values of B_k lie within those of A L^{-1}
# (M = L^T L), so cond(B_k) is a lower bound on the weighted condition
# cond(A L^{-1}) that WLSQR works with.  The Simpson weights run 1:4, so
# cond(L) = 2 and the weighted condition is within a factor 2 of cond_2(A).
# Measured at B_200: 1.93e7 and 1.96e7 on phillips, 1.51e6 and 1.54e6 on
# green.  shaw and expst terminate because B_k is numerically singular:
# 1.65e16-1.70e16 and 6.5e15-7.1e15 at their terminating step.
MIN_COND = {"phillips": 1e7, "green": 1e5, "shaw": 1e15, "expst": 1e15}

# The lc corner of the terminating runs, at seeds 0 and 1
CORNERS = {"shaw": 8, "expst": 3}


def run_id(run):
    # seed 0, the seed of each problem's first rows in tables/, is named by
    # the problem alone
    name, seed = run
    return name if seed == 0 else f"{name}-seed{seed}"


class TableRun(NamedTuple):
    name: str
    seed: int
    problem: Problem
    noisy: NoisyData
    x: np.ndarray  # spr_solve's x, the run's last iterate
    history: RunRecord  # its maxiter history
    bidiag: BidiagState  # the recursion spr_solve kept
    replay: WlsqrState  # the replay's final state
    xs: np.ndarray  # x_1 .. x_k of the replay, as columns


def table_rows(name):
    with open(TABLES / f"sweep_{name}.csv") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def build():
    """build_problem holding only the problem built last.  A second build of
    one problem fails, so each problem is built once in the module."""
    seen, last = set(), {}

    def get(name):
        if name not in last:
            assert name not in seen, f"{name} is built twice: its runs are not consecutive"
            seen.add(name)
            last.clear()  # the previous problem goes before the next is built
            last[name] = build_problem(name)
        return last[name]

    return get


@pytest.fixture(scope="module", params=RUNS, ids=run_id)
def table(request, build):
    """The TableRun of one (problem, seed) of RUNS."""
    name, seed = request.param
    problem = build(name)
    noisy = add_noise(problem, 1e-3, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x, history = spr_solve(problem.a, problem.weight, noisy.b, StoppingRule("maxiter"),
                               max_iter=200, x_true=problem.x_true)
    bidiag = regularization._kept[2]  # the recursion of that call, which it keeps
    xs = []
    replay = wlsqr_run(problem.a, problem.weight, noisy.b, max_iter=len(history.residual_norms),
                       callback=lambda k, xk, res, mn: xs.append(xk), _bidiag=bidiag)
    return TableRun(name, seed, problem, noisy, x, history, bidiag, replay,
                    np.column_stack(xs))


def test_the_wlsqr_picks_are_the_tables_rows(table):
    # dp, lc and oracle selected from the one history, as a sweep with
    # several rules selects them: seed 0 reads shaw 7/8/9, phillips
    # 8/14/11, expst 2/3/3 and green 5/11/7; seed 1 shaw 7/8/8, phillips
    # 8/14/10, expst 3/3/3 and green 5/13/7
    problem, history = table.problem, table.history
    rows = {r["rule"]: r for r in table_rows(table.name)
            if (r["method"], r["epsilon"], r["seed"]) == ("wlsqr", "0.001", str(table.seed))}
    noise = float(np.linalg.norm(table.noisy.e))
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


def test_only_shaw_and_expst_terminate(table):
    history = table.history
    if table.name in TERMINATES_AT:
        assert history.terminated_at == table.bidiag.termination_step == table.bidiag.k
        assert history.terminated_at == len(history.residual_norms)
        if table.seed == 0:
            assert history.terminated_at == TERMINATES_AT[table.name]
    else:
        assert history.terminated_at is None and len(history.residual_norms) == 200


def test_the_projection_is_severely_ill_conditioned(table):
    assert np.linalg.cond(project_bidiagonal(table.bidiag)) >= MIN_COND[table.name]


def test_the_bases_stay_orthonormal(table):
    # P^T P = I and Q^T M Q = I with full reorthogonalization, at the run's
    # last step; measured at most 1.5e-15
    p, q = table.bidiag.P, table.bidiag.Q
    assert np.linalg.norm(p.T @ p - np.eye(p.shape[1]), 2) <= 1e-13
    assert np.linalg.norm(q.T @ table.problem.weight.matvec(q) - np.eye(q.shape[1]), 2) <= 1e-13


def test_the_recurrence_residual_is_the_true_residual(table):
    problem, b, history = table.problem, table.noisy.b, table.history
    true = np.linalg.norm(problem.a @ table.xs - b[:, None], axis=0)
    # phibar_{k+1} against ||A x_k - b||_2 at every step, the terminating
    # one included, to rounding in forming A x_k - b.  Measured at most 0.42
    # of the bound (shaw, seed 1, k = 1), nearly all of it the rounding of
    # the product A X; one product per x_k reads at most 0.10 but takes
    # 1.9 s more.  A relative bound does not fit: before shaw terminates the
    # gap reaches 4.9e-7 of the residual, where ||x_k|| is large.
    bound = np.finfo(float).eps * (np.linalg.norm(problem.a) * np.linalg.norm(table.xs, axis=0)
                                   + np.linalg.norm(b))
    assert np.all(np.abs(history.residual_norms - true) <= bound)
    if table.name in TERMINATES_AT:
        # a Givens update at the terminating step divides by a
        # rounding-level rho; the true residual is near 0.11
        assert history.residual_norms[-1] == pytest.approx(true[-1], rel=1e-6)
        assert true[-1] > 0.1
    else:
        # phibar_201 against ||A x_200 - b||_2; measured at most 1.3e-11
        # relative on phillips and 1.6e-12 on green
        assert history.residual_norms[-1] == pytest.approx(true[-1], rel=1e-9)


def test_the_terminating_iterate_is_recovered_exactly(table):
    # continuing the run for its k steps replays the terminating step too
    assert table.replay.k == len(table.history.residual_norms)
    assert np.array_equal(table.replay.x, table.x)


@pytest.mark.parametrize("table", STORAGE_RUNS, indirect=True, ids=run_id)
def test_the_storage_of_phillips_a_changes_no_bit(table):
    # phillips' A is on zero pages (see the problems module docstring); a
    # dense copy, on numpy's allocator with every page backed, gives the
    # envelope, every product and the run's first 100 steps bit for bit.
    # The copy's 100-step run is the one recursion this test starts.
    problem, b = table.problem, table.noisy.b
    dense = np.array(problem.a)
    assert dense.base is None and np.array_equal(dense, problem.a)
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal(problem.n), rng.standard_normal(problem.m)
    envelope = bidiag._envelope(problem.a)
    assert envelope == bidiag._envelope(dense)
    pairs = [(bidiag._matvec(arr, envelope, x), bidiag._rmatvec(arr, envelope, y),
              arr @ x, arr.T @ y) for arr in (problem.a, dense)]
    for got, want in zip(*pairs):
        assert np.array_equal(got, want)
    _, record = spr_solve(dense, problem.weight, b, StoppingRule("maxiter"), max_iter=100)
    assert np.array_equal(record.residual_norms, table.history.residual_norms[:100])
    assert np.array_equal(record.solution_m_norms, table.history.solution_m_norms[:100])


@pytest.mark.parametrize("table", TERMINATING, indirect=True, ids=run_id)
def test_the_terminating_iterate_is_the_krylov_wsvd_solution(table):
    problem, b = table.problem, table.noisy.b
    fact = wsvd(problem.a, problem.weight, start=b)
    assert fact.krylov_steps == table.replay.k
    x_ref = min_m_norm_ls(fact, b)
    assert np.linalg.norm(table.x - x_ref) <= 1e-9 * np.linalg.norm(x_ref)


@pytest.mark.parametrize("table", TERMINATING, indirect=True, ids=run_id)
def test_a_dp_threshold_below_the_attainable_residual_is_unsatisfied(table):
    problem, b = table.problem, table.noisy.b
    floor = table.history.residual_norms[-1]
    rule = StoppingRule("dp", noise_norm=0.5 * floor)
    _, rec = spr_solve(problem.a, problem.weight, b, rule, max_iter=40)
    assert not rec.satisfied
    assert rec.stop_index == rec.terminated_at == table.replay.k


@pytest.mark.parametrize("table", TERMINATING, indirect=True, ids=run_id)
def test_spr_lcurve_skips_breakdown_step(table):
    # the terminating step's truncated iterate is blown up and its residual
    # is positive, so it is an L-curve point, but the corner must come from
    # the history before it
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        record = select(StoppingRule("lc"), table.history)
    assert record.terminated_at is not None
    assert record.residual_norms[-1] > 0.0
    assert record.stop_index == CORNERS[table.name] and record.satisfied
    x, x_true = table.xs[:, record.stop_index - 1], table.problem.x_true
    assert np.linalg.norm(x - x_true) / np.linalg.norm(x_true) < 0.1
