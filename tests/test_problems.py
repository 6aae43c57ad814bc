import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.integrate

import wsvd

from wsvd import (add_noise, build_problem, condition_estimate, kernel_eval,
                  load_problem, save_problem, simpson_weights, true_solution)

PROBLEMS = ("shaw", "phillips", "expst", "green")


def test_simpson_single_panel():
    assert np.allclose(simpson_weights(3, 0.0, 1.0), [1 / 6, 4 / 6, 1 / 6])


def test_simpson_two_panels():
    w = simpson_weights(5, 0.0, 1.0)
    assert np.allclose(w, [1 / 12, 1 / 3, 1 / 6, 1 / 3, 1 / 12])
    assert w.sum() == pytest.approx(1.0, rel=1e-15)


def test_simpson_sums_to_interval_length():
    for n in (3, 9, 101):
        assert simpson_weights(n, -2.0, 5.0).sum() == pytest.approx(7.0, rel=1e-13)


def test_simpson_validation():
    with pytest.raises(ValueError):
        simpson_weights(4, 0.0, 1.0)
    with pytest.raises(ValueError):
        simpson_weights(1, 0.0, 1.0)
    with pytest.raises(ValueError):
        simpson_weights(5, 1.0, 1.0)


def test_simpson_cubic_exact():
    # composite Simpson integrates cubics exactly
    t = np.linspace(-1.0, 2.0, 7)
    w = simpson_weights(7, -1.0, 2.0)
    for poly, exact in ((t**3, (2.0**4 - 1.0) / 4),
                        (t**2 - t, (8.0 + 1.0) / 3 - (4.0 - 1.0) / 2)):
        assert w @ poly == pytest.approx(exact, rel=1e-13)


def test_simpson_cos_quadrature():
    t = np.linspace(-np.pi / 2, np.pi / 2, 2001)
    w = simpson_weights(2001, -np.pi / 2, np.pi / 2)
    assert w @ np.cos(t) == pytest.approx(2.0, abs=1e-10)


def test_paper_h_variant():
    # verbatim printed spacing (t2-t1)/n shrinks every weight by (n-1)/n
    w_std = simpson_weights(5, 0.0, 1.0)
    w_pap = simpson_weights(5, 0.0, 1.0, paper_h=True)
    assert np.allclose(w_pap, w_std * 4 / 5)


def test_kernel_values():
    assert kernel_eval("shaw", 0.0, 0.0) == pytest.approx(4.0)
    assert kernel_eval("phillips", 1.0, 1.0) == pytest.approx(2.0)  # phi(0)
    assert kernel_eval("phillips", 5.0, 1.0) == 0.0  # |s-t| >= 3
    assert kernel_eval("green", 0.25, 0.5) == pytest.approx(0.125)
    assert kernel_eval("green", 0.5, 0.25) == pytest.approx(0.25 * 0.5)
    assert kernel_eval("expst", 1.0, 1.0) == pytest.approx(np.e)
    with pytest.raises(ValueError):
        kernel_eval("bogus", 0.0, 0.0)


def test_kernel_shaw_removable_singularity():
    # u = pi (sin s + sin t) = 0 along s = -t
    val = kernel_eval("shaw", 0.3, -0.3)
    expect = (np.cos(0.3) + np.cos(-0.3)) ** 2
    assert val == pytest.approx(expect, rel=1e-12)


def _out_of_place_kernel(name, s, t):
    # the kernels as plain out-of-place numpy expressions, the reference the
    # in-place kernel_eval must reproduce bit for bit
    if name == "shaw":
        u = np.pi * (np.sin(s) + np.sin(t))
        return (np.cos(s) + np.cos(t)) ** 2 * np.sinc(u / np.pi) ** 2
    if name == "phillips":
        x = s - t
        return np.where(np.abs(x) < 3.0, 1.0 + np.cos(np.pi * x / 3.0), 0.0)
    if name == "expst":
        return np.exp(s * t)
    return np.where(s < t, s * (1.0 - t), t * (1.0 - s))


@pytest.mark.parametrize("name", PROBLEMS)
@pytest.mark.parametrize("m,n", [(40, 31), (600, 501)])
def test_assembly_bit_identical_to_out_of_place(name, m, n):
    prob = build_problem(name, m, n)
    s, t = prob.s_grid, prob.t_grid
    ref = _out_of_place_kernel(name, s[:, None], t[None, :]) * prob.weight.diag[None, :]
    assert prob.a.flags.c_contiguous
    assert np.array_equal(prob.a, ref)


@pytest.mark.parametrize("name,s,t", [
    # u = pi (sin s + sin t) = 0 exactly on s = -t
    ("shaw", [0.3, 0.0, -1.2, 1.0], [-0.3, 0.0, 1.2, 0.5]),
    # |s - t| = 3 is the edge of phi's support, on both sides
    ("phillips", [4.0, -1.0, 1.0, 2.5, 5.0], [1.0, 2.0, 1.0, 0.0, 1.0]),
    ("green", [0.5, 0.25, 0.5, 0.0], [0.5, 0.5, 0.25, 1.0]),
    ("expst", [1.0, 0.0, 0.5], [1.0, 2.0, 0.25]),
])
def test_kernel_eval_bit_identical_at_edge_points(name, s, t):
    s, t = np.array(s), np.array(t)
    assert np.array_equal(kernel_eval(name, s, t), _out_of_place_kernel(name, s, t))
    for si, ti in zip(s, t):
        val = kernel_eval(name, si, ti)
        assert np.ndim(val) == 0
        assert val == _out_of_place_kernel(name, si, ti)
    if name == "phillips":
        assert np.all(kernel_eval(name, s[:2], t[:2]) == 0.0)


@pytest.mark.parametrize("name,bound", [
    # sinc needs y and sin(y) at once; the others one buffer plus bool masks
    ("shaw", 2.2), ("phillips", 1.3), ("expst", 1.3), ("green", 1.3),
])
def test_build_problem_peak_memory(name, bound):
    build_problem(name, 20, 11)  # warm imports and caches outside the trace
    tracemalloc.start()
    try:
        prob = build_problem(name, 600, 501)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * prob.a.nbytes


def test_import_and_diagonal_solve_load_no_scipy(tmp_path):
    # only dense weights use scipy; no built-in problem has one
    code = (
        "import sys, wsvd, wsvd.cli\n"
        "assert wsvd.cli.main(['lcurve', '--problem', 'shaw', '--m', '60', '--n', '41',"
        " '--epsilon', '1e-2', '--seed', '0', '--max-iter', '10',"
        f" '--out', {str(tmp_path)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(wsvd.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "[]"


def test_true_solutions():
    assert true_solution("green", 1.0) == pytest.approx(0.0, abs=1e-15)
    assert true_solution("expst", 0.0) == 1.0
    assert true_solution("shaw", 0.8) == pytest.approx(2 + np.exp(-2 * 1.69))
    assert true_solution("phillips", 0.0) == pytest.approx(2.0)
    assert true_solution("phillips", 4.0) == 0.0


def test_build_problem_shapes_and_data():
    prob = build_problem("green", 40, 31)
    assert prob.a.shape == (40, 31)
    assert prob.m == 40 and prob.n == 31
    assert np.allclose(prob.b_exact, prob.a @ prob.x_true)
    assert np.array_equal(prob.weight.diag, simpson_weights(31, 0.0, 1.0))
    assert prob.s_grid.shape == (40,)
    assert np.all(np.diff(prob.s_grid) > 0)


def test_build_problem_default_dims():
    # defaults follow the reference dimensions; just check the bookkeeping
    # without assembling the matrices
    from wsvd.problems import TABLE_DIMS
    assert TABLE_DIMS["shaw"] == (2500, 2001)
    assert TABLE_DIMS["phillips"] == (3000, 2501)
    assert TABLE_DIMS["expst"] == (3500, 3001)
    assert TABLE_DIMS["green"] == (4000, 3501)


def test_build_problem_validation():
    with pytest.raises(ValueError):
        build_problem("green", 40, 30)  # even n
    with pytest.raises(ValueError):
        build_problem("green", 0, 31)
    with pytest.raises(ValueError):
        build_problem("nope", 40, 31)


def test_assembly_matches_direct_sum():
    # A x_true recomputed entry by entry from the quadrature definition
    prob = build_problem("phillips", 15, 21)
    w = prob.weight.diag
    f = np.array([true_solution("phillips", t) for t in prob.t_grid])
    for j in (0, 7, 14):
        direct = sum(w[i] * kernel_eval("phillips", prob.s_grid[j], prob.t_grid[i]) * f[i]
                     for i in range(21))
        assert abs(prob.b_exact[j] - direct) <= 1e-13 * max(1.0, abs(direct))


def test_quadrature_consistency_vs_adaptive():
    # discrete data approximates the continuous integral operator
    prob = build_problem("phillips", 120, 101)
    ref = np.array([
        scipy.integrate.quad(
            lambda t, s=s: kernel_eval("phillips", s, t) * true_solution("phillips", t),
            -6.0, 6.0, limit=200)[0]
        for s in prob.s_grid
    ])
    assert np.linalg.norm(prob.b_exact - ref) <= 1e-4 * np.linalg.norm(ref)


def test_m_norm_approximates_l2_norm():
    # ||x_true||_M tracks the continuous L2 norm of f
    prob = build_problem("green", 600, 501)
    assert prob.weight.norm(prob.x_true) == pytest.approx(np.sqrt(1 / 105), rel=1e-6)
    prob = build_problem("expst", 600, 501)
    ref = np.sqrt(scipy.integrate.quad(lambda t: (np.exp(t) * np.cos(t)) ** 2, 0, 1)[0])
    assert prob.weight.norm(prob.x_true) == pytest.approx(ref, rel=1e-6)


def test_add_noise_exact_level():
    prob = build_problem("shaw", 40, 31)
    noisy = add_noise(prob, 1e-2, 3)
    ratio = np.linalg.norm(noisy.e) / np.linalg.norm(prob.b_exact)
    assert ratio == pytest.approx(1e-2, rel=1e-12)
    assert np.array_equal(noisy.b, prob.b_exact + noisy.e)


def test_add_noise_deterministic():
    prob = build_problem("shaw", 40, 31)
    e1 = add_noise(prob, 1e-3, 7).e
    e2 = add_noise(prob, 1e-3, 7).e
    e3 = add_noise(prob, 1e-3, 8).e
    assert np.array_equal(e1, e2)
    assert not np.array_equal(e1, e3)


def test_add_noise_zero_epsilon():
    prob = build_problem("green", 20, 11)
    noisy = add_noise(prob, 0.0, 0)
    assert np.array_equal(noisy.e, np.zeros(20))
    assert np.array_equal(noisy.b, prob.b_exact)
    with pytest.raises(ValueError):
        add_noise(prob, -1e-3, 0)


def test_condition_identity():
    from wsvd.problems import TestProblem
    from wsvd import WeightMatrix
    prob = TestProblem(name="green", a=np.eye(5),
                       weight=WeightMatrix.identity(5),
                       x_true=np.ones(5), b_exact=np.ones(5),
                       s_grid=np.arange(5.0), t_grid=np.arange(5.0))
    assert condition_estimate(prob) == pytest.approx(1.0)


def test_condition_fullscale_phillips():
    # reference scale: condition of order 1e9
    cond = condition_estimate(build_problem("phillips"))
    assert cond >= 1e7


def test_condition_fullscale_green():
    # reference scale: condition of order 1e7
    cond = condition_estimate(build_problem("green"))
    assert cond >= 1e5


def test_save_load_round_trip(tmp_path):
    prob = build_problem("expst", 24, 15)
    noisy = add_noise(prob, 5e-3, 11)
    path = tmp_path / "expst_case"
    save_problem(path, prob, noisy)
    prob2, noisy2 = load_problem(path)
    assert prob2.name == "expst"
    assert np.array_equal(prob2.a, prob.a)
    assert np.array_equal(prob2.weight.diag, prob.weight.diag)
    assert np.array_equal(prob2.x_true, prob.x_true)
    assert np.array_equal(prob2.b_exact, prob.b_exact)
    assert np.array_equal(noisy2.b, noisy.b)
    assert np.array_equal(noisy2.e, noisy.e)
    assert noisy2.epsilon == noisy.epsilon
    assert noisy2.seed == noisy.seed


def test_save_regeneration_identical(tmp_path):
    prob = build_problem("shaw", 30, 21)
    noisy = add_noise(prob, 1e-2, 5)
    p1, p2 = tmp_path / "a", tmp_path / "b"
    save_problem(p1, prob, noisy)
    save_problem(p2, build_problem("shaw", 30, 21), add_noise(prob, 1e-2, 5))
    for fname in ("A", "M.diag", "x_true", "b_exact", "b", "e", "meta"):
        assert (p1 / fname).read_bytes() == (p2 / fname).read_bytes()


def test_save_load_table_scale_round_trip_and_peak(tmp_path):
    prob = build_problem("green", 600, 501)
    noisy = add_noise(prob, 1e-3, 2)
    save_problem(tmp_path, prob, noisy)
    tracemalloc.start()
    try:
        prob2, noisy2 = load_problem(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(prob2.a, prob.a)
    assert np.array_equal(noisy2.b, noisy.b)
    # A is read straight into its array: no bytes object or second copy
    assert peak <= 1.2 * prob.a.nbytes


@pytest.mark.parametrize("change", [-8, -3, 8])
def test_load_rejects_a_payload_of_the_wrong_length(tmp_path, change):
    prob = build_problem("expst", 24, 15)
    save_problem(tmp_path, prob, add_noise(prob, 5e-3, 11))
    path = tmp_path / "A"
    data = path.read_bytes()
    path.write_bytes(data[:change] if change < 0 else data + bytes(change))
    with pytest.raises(ValueError, match="A: expected 360 values"):
        load_problem(tmp_path)


def test_load_rejects_a_header_that_disagrees_with_meta(tmp_path):
    prob = build_problem("expst", 24, 15)
    save_problem(tmp_path, prob, add_noise(prob, 5e-3, 11))
    path = tmp_path / "A"
    data = path.read_bytes()
    path.write_bytes(np.array([15, 24], dtype="<i8").tobytes() + data[16:])
    with pytest.raises(ValueError, match="header"):
        load_problem(tmp_path)
