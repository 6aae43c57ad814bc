"""spr_solve keeps the recursion it ran last and continues it on a call with
the same A, M, b and step budget; every result must keep the bits of a
fresh solve, and a changed input must run afresh."""

import itertools
import sys
import threading

import numpy as np
import pytest

import wsvd.regularization
from conftest import traced_peak
from wsvd import (StoppingRule, WeightMatrix, add_noise, build_problem, lsqr_baseline,
                  spr_solve)

MAX_ITER = 30
RULE_KINDS = ("dp", "lc", "oracle", "maxiter")


@pytest.fixture(scope="module")
def shaw_case():
    # shaw 120x101 at eps 1e-3 terminates at step 20 within MAX_ITER, and dp
    # crosses at step 7
    problem = build_problem("shaw", 120, 101)
    noisy = add_noise(problem, 1e-3, 0)
    rules = {"dp": StoppingRule("dp", noise_norm=float(np.linalg.norm(noisy.e))),
             "lc": StoppingRule("lc"),
             "oracle": StoppingRule("oracle", x_true=problem.x_true),
             "maxiter": StoppingRule("maxiter")}
    return problem, noisy, rules


def evict():
    """Leave a run of other inputs as the kept one."""
    spr_solve(np.eye(3), WeightMatrix.identity(3), np.ones(3), StoppingRule("maxiter"))


def fresh(solve, *args, **kwargs):
    evict()
    return solve(*args, **kwargs)


def assert_same_bits(got, want):
    (x, rec), (x0, rec0) = got, want
    for field in ("residual_norms", "solution_m_norms", "rel_errors"):
        a, b = getattr(rec, field), getattr(rec0, field)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), field
    assert x.tobytes() == x0.tobytes()
    assert (rec.stop_index, rec.terminated_at, rec.satisfied) == (
        rec0.stop_index, rec0.terminated_at, rec0.satisfied)


def solve(case, kind):
    problem, noisy, rules = case
    return spr_solve(problem.a, problem.weight, noisy.b, rules[kind], max_iter=MAX_ITER,
                     x_true=problem.x_true)


@pytest.fixture(scope="module")
def references(shaw_case):
    return {kind: fresh(solve, shaw_case, kind) for kind in RULE_KINDS}


def test_the_reference_runs_cover_termination_and_an_early_stop(references):
    # maxiter selects the terminating step, whose iterate comes from the SVD
    # of B_k; dp stops before the recursion terminates
    assert [(references[k][1].stop_index, references[k][1].terminated_at)
            for k in RULE_KINDS] == [(7, None), (8, 20), (7, 20), (20, 20)]


@pytest.mark.parametrize("order", list(itertools.permutations(RULE_KINDS)),
                         ids="-".join)
def test_every_rule_order_gives_the_bits_of_fresh_solves(shaw_case, references, order):
    # each order twice over: the first two calls run afresh, the later ones
    # replay or extend the kept run
    evict()
    for kind in order + order:
        assert_same_bits(solve(shaw_case, kind), references[kind])


def test_a_third_call_replays_without_stepping(shaw_case, references, steps):
    evict()
    taken = []
    for kind in ("lc", "oracle", "maxiter", "dp"):
        steps[0] = 0
        assert_same_bits(solve(shaw_case, kind), references[kind])
        taken.append(steps[0])
    # dp replays a prefix of the terminated run and reports no termination
    assert taken == [20, 20, 0, 0]


def test_a_kept_dp_run_is_extended(shaw_case, references, steps):
    evict()
    taken = []
    for kind in ("dp", "dp", "lc"):
        steps[0] = 0
        assert_same_bits(solve(shaw_case, kind), references[kind])
        taken.append(steps[0])
    # lc steps the kept 7-step dp run on to its termination at step 20
    assert taken == [7, 7, 13]


def test_a_rejected_b_leaves_the_kept_run(shaw_case, references, steps):
    problem, noisy, rules = shaw_case
    evict()
    for _ in range(2):
        solve(shaw_case, "maxiter")
    bad = noisy.b.copy()
    bad[3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        spr_solve(problem.a, problem.weight, bad, rules["maxiter"], max_iter=MAX_ITER)
    steps[0] = 0
    assert_same_bits(solve(shaw_case, "maxiter"), references["maxiter"])
    assert steps[0] == 0  # the third call on these inputs replays


def test_a_rule_that_raises_after_the_run_leaves_it_kept(steps):
    # a 3-step history is too short for lc, so the second call raises in
    # select, after the run that stored the digest
    problem = build_problem("shaw", 60, 41)
    noisy = add_noise(problem, 1e-2, 0)

    def run(kind):
        return spr_solve(problem.a, problem.weight, noisy.b, StoppingRule(kind),
                         max_iter=3, x_true=problem.x_true)

    want = fresh(run, "maxiter")
    with pytest.raises(ValueError, match="needs >= 5 points, got 3"):
        run("lc")
    steps[0] = 0
    assert_same_bits(run("maxiter"), want)
    assert steps[0] == 0  # the third call on these inputs replays


def test_lsqr_baseline_replays_with_a_new_identity_weight_each_call(shaw_case, steps):
    problem, noisy, rules = shaw_case
    args = (problem.a, noisy.b, rules["oracle"])
    want = fresh(lsqr_baseline, *args, max_iter=MAX_ITER)
    taken = []
    for _ in range(2):
        steps[0] = 0
        assert_same_bits(lsqr_baseline(*args, max_iter=MAX_ITER), want)
        taken.append(steps[0])
    # the first repeat runs afresh to store the digest; the third call replays
    assert taken[0] > 0 and taken[1] == 0


def test_a_new_b_or_diagonal_weight_pays_no_digest(shaw_case, monkeypatch):
    # a sweep solves each b under the problem's weight and under M = I; the
    # key tells those runs apart, so none of them reads all of A for a crc32
    problem, noisy, rules = shaw_case
    digests = []
    digest = wsvd.regularization._digest
    monkeypatch.setattr(wsvd.regularization, "_digest",
                        lambda *args: digests.append(1) or digest(*args))
    for eps in (1e-2, 1e-3):
        b = add_noise(problem, eps, 0).b
        spr_solve(problem.a, problem.weight, b, rules["lc"], max_iter=MAX_ITER)
        lsqr_baseline(problem.a, b, rules["lc"], max_iter=MAX_ITER)
    assert not digests


@pytest.mark.parametrize("layout", [np.asfortranarray, lambda a: np.pad(a, 1)[1:-1, 1:-1]],
                         ids=["fortran", "strided"])
def test_a_matrix_in_another_layout_replays_with_the_same_bits(shaw_case, steps, layout):
    # the digest reads an F-ordered A in place and a strided view row by row
    problem, noisy, rules = shaw_case
    a = layout(problem.a)
    args = (a, problem.weight, noisy.b, rules["oracle"])
    want = fresh(spr_solve, *args, max_iter=MAX_ITER)
    steps[0] = 0
    for _ in range(2):
        assert_same_bits(spr_solve(*args, max_iter=MAX_ITER), want)
    assert steps[0] == 20  # the first repeat runs afresh, the third call replays


def test_concurrent_calls_never_share_a_kept_run():
    # each round leaves a kept 8-step dp run with its digest, then four
    # threads ask for 60 steps at once; each call takes the kept run out of
    # its slot, so one thread extends it and the others run afresh, where a
    # shared run would be stepped by several threads together
    problem = build_problem("phillips", 400, 301)
    noisy = add_noise(problem, 1e-3, 0)
    dp = StoppingRule("dp", noise_norm=float(np.linalg.norm(noisy.e)))

    def run(rule):
        return spr_solve(problem.a, problem.weight, noisy.b, rule, max_iter=60,
                         x_true=problem.x_true)

    want = fresh(run, StoppingRule("maxiter"))
    errors = []

    def work():
        try:
            assert_same_bits(run(StoppingRule("maxiter")), want)
        except Exception as exc:  # noqa: BLE001  reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            evict()
            run(dp)
            run(dp)
            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors[0]


def _negate(a, weight, b):
    a *= -1
    return a, weight, b


def _one_ulp(a, weight, b):
    a[40, 30] = np.nextafter(a[40, 30], np.inf)
    return a, weight, b


def _swap_rows(a, weight, b):
    a[[3, 70]] = a[[70, 3]]
    return a, weight, b


def _edit_weight(a, weight, b):
    # a WeightMatrix is read-only, so an edited M is a new one
    diag = weight.diag.copy()
    diag[17] *= 2.0
    return a, WeightMatrix.diagonal(diag), b


def _edit_b(a, weight, b):
    b[5] += 1e-3
    return a, weight, b


@pytest.mark.parametrize("edit", [_negate, _one_ulp, _swap_rows, _edit_weight, _edit_b],
                         ids=lambda f: f.__name__.lstrip("_"))
def test_an_input_edited_in_place_runs_afresh(shaw_case, steps, edit):
    problem, noisy, rules = shaw_case
    a, b = problem.a.copy(), noisy.b.copy()
    weight = WeightMatrix.diagonal(problem.weight.diag)
    rule = rules["lc"]
    evict()
    for _ in range(3):
        steps[0] = 0
        spr_solve(a, weight, b, rule, max_iter=MAX_ITER, x_true=problem.x_true)
    assert steps[0] == 0  # the unedited inputs replay the kept run
    a, weight, b = edit(a, weight, b)
    steps[0] = 0
    got = spr_solve(a, weight, b, rule, max_iter=MAX_ITER, x_true=problem.x_true)
    assert steps[0] > 0
    assert_same_bits(got, fresh(spr_solve, a, weight, b, rule, max_iter=MAX_ITER,
                                x_true=problem.x_true))


def test_solves_on_different_inputs_hold_one_run_of_bases():
    # the kept run is dropped before the next run allocates its bases, so
    # two solves in a row peak at one set of bases, not two
    problem = build_problem("phillips", 600, 501)
    b1, b2 = (add_noise(problem, 1e-3, seed).b for seed in (0, 1))
    rule = StoppingRule("maxiter")
    spr_solve(problem.a, problem.weight, b1, rule, max_iter=3)  # warm caches untraced
    (_, (_, rec)), peak = traced_peak(lambda: [
        spr_solve(problem.a, problem.weight, b, rule, max_iter=100) for b in (b1, b2)])
    m, n = problem.a.shape
    assert len(rec.ks) == 100 and rec.terminated_at is None
    assert peak <= 1.1 * 8 * 101 * (m + n) + 16 * 8 * (m + n)
