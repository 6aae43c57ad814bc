import dataclasses
import hashlib
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
import scipy.integrate

import wsvd
import wsvd.problems

from conftest import traced_peak
from wsvd import (add_noise, build_problem, kernel_eval, load_problem, save_problem,
                  simpson_weights, true_solution)

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
@pytest.mark.parametrize("m,n", [
    # A is filled in row blocks of 262144 // (8 n) rows: 65 at n = 501, so
    # 600 and 131 end in a partial block and 1 and 3 are below one block;
    # the table sizes end in a partial block except expst (10-row blocks)
    pytest.param(40, 31, id="40-31"),
    pytest.param(600, 501, id="600-501"),
    pytest.param(131, 501, id="131-501"),
    pytest.param(3, 3, id="3-3"),
    pytest.param(1, 3, id="1-3"),
    pytest.param(None, None, id="table"),
])
def test_assembly_bit_identical_to_out_of_place(name, m, n):
    prob = build_problem(name, m, n)
    s, t = prob.s_grid, prob.t_grid
    ref = _out_of_place_kernel(name, s[:, None], t[None, :]) * prob.weight.diag[None, :]
    assert prob.a.flags.c_contiguous
    assert np.array_equal(prob.a, ref)
    # b_exact is the row-block product, whose bits do not depend on the BLAS
    # thread count as those of one ref @ x do
    x, rows = true_solution(name, t), _block_rows(prob.n)
    assert np.array_equal(prob.b_exact, np.concatenate(
        [ref[j:j + rows] @ x for j in range(0, prob.m, rows)]))


def _block_rows(n):
    return max(1, wsvd.problems._BLOCK_BYTES // (8 * n))


def _on_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.mark.parametrize("name", PROBLEMS)
@pytest.mark.parametrize("m,n", [(40, 31), (600, 501), (131, 501), (3, 3), (1, 3),
                                 pytest.param(None, None, id="table")])
def test_a_build_is_the_same_on_one_worker_and_on_four(monkeypatch, name, m, n):
    kernel_into, idents = wsvd.problems._kernel_into, set()

    def spy(*args):
        idents.add(threading.get_ident())
        return kernel_into(*args)

    monkeypatch.setattr(wsvd.problems, "_kernel_into", spy)
    _on_cpus(monkeypatch, 1)
    ref = build_problem(name, m, n)
    assert idents == {threading.get_ident()}  # one CPU: the caller alone
    _on_cpus(monkeypatch, 4)  # more threads than this host may have cores
    blocks = -(-ref.m // _block_rows(ref.n))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch often, so a block taken twice or never shows
    try:
        for _ in range(10):
            idents.clear()
            prob = build_problem(name, m, n)
            assert np.array_equal(prob.a, ref.a)
            assert np.array_equal(prob.b_exact, ref.b_exact)
            assert len(idents) <= min(blocks, 4)
    finally:
        sys.setswitchinterval(interval)


def test_a_build_does_not_depend_on_the_blas_thread_count():
    # one a @ x_true of table-size shaw or expst differs in its last bits
    # between one and two OpenBLAS threads; the row-block product does not
    code = (
        "import hashlib, wsvd\n"
        f"for name in {PROBLEMS!r}:\n"
        "    p = wsvd.build_problem(name)\n"
        "    print(name, hashlib.sha256(p.a.tobytes()).hexdigest(),"
        " hashlib.sha256(p.b_exact.tobytes()).hexdigest())\n"
    )
    src = os.path.dirname(os.path.dirname(wsvd.__file__))
    outs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True, env=dict(os.environ, PYTHONPATH=src,
                                                OPENBLAS_NUM_THREADS=threads)).stdout
            for threads in ("1", "2")]
    assert len(outs[0].splitlines()) == len(PROBLEMS)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("failing", ["first", "middle", "every"])
def test_an_error_in_a_block_propagates_and_leaves_no_thread(monkeypatch, failing):
    kernel_into = wsvd.problems._kernel_into
    prob = build_problem("shaw", 600, 501)  # 10 blocks of 65 rows
    starts = {"first": [0], "middle": [5 * 65], "every": range(0, 600, 65)}[failing]
    bad = {prob.s_grid[j] for j in starts}

    def failing_kernel(name, s, t, out):
        if s[0, 0] in bad:
            raise ArithmeticError(f"block at s = {s[0, 0]}")
        return kernel_into(name, s, t, out)

    monkeypatch.setattr(wsvd.problems, "_kernel_into", failing_kernel)
    _on_cpus(monkeypatch, 4)
    threads = threading.active_count()
    with pytest.raises(ArithmeticError, match="block at s"):
        build_problem("shaw", 600, 501)
    assert threading.active_count() == threads


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


@pytest.mark.parametrize("name", PROBLEMS)
def test_a_kernel_gives_the_same_bits_on_a_column_span_as_on_the_whole_row(name):
    # build_problem evaluates each row block on its span (_support) alone
    # and relies on these bits: at every table-size phillips block span,
    # and at ragged spans whose first column takes every offset 0..16
    m, n = wsvd.problems.TABLE_DIMS[name]
    t1, t2 = wsvd.problems.DOMAINS[name]
    grid, t = np.linspace(t1, t2, m), np.linspace(t1, t2, n)
    if name == "phillips":
        rows = _block_rows(n)
        for j in range(0, m, rows):
            s = grid[j:j + rows, None]
            c0, c1 = wsvd.problems._support(name, grid[j:j + rows], t)
            assert 0 < c1 - c0 < n
            assert np.array_equal(kernel_eval(name, s, t[c0:c1]), kernel_eval(name, s, t)[:, c0:c1])
    s = grid[::m // 40, None]
    full = kernel_eval(name, s, t)
    for c0 in range(17):
        for c1 in (c0 + 1, c0 + 7, c0 + 33, n - 16 + c0 // 2, n):
            assert np.array_equal(kernel_eval(name, s, t[c0:c1]), full[:, c0:c1]), (c0, c1)


@pytest.mark.parametrize("name,bound", [
    # sinc needs y and sin(y) at once; the others one buffer plus bool masks
    ("shaw", 2.2), ("phillips", 1.3), ("expst", 1.3), ("green", 1.3),
])
def test_build_problem_peak_memory(name, bound):
    build_problem(name, 20, 11)  # warm imports and caches outside the trace
    prob, peak = traced_peak(lambda: build_problem(name, 600, 501))
    assert peak <= bound * prob.a.nbytes


@pytest.mark.parametrize("name", PROBLEMS)
def test_build_problem_peak_memory_at_table_size(name):
    # the build holds A plus one row block of temporaries
    build_problem(name, 20, 11)
    prob, peak = traced_peak(lambda: build_problem(name))
    assert peak <= 1.05 * prob.a.nbytes


def test_phillips_a_backs_only_the_pages_its_support_writes():
    # tracemalloc does not see phillips' mapping, so resident memory gates
    # it: at table size 56% of A is zero outside the kernel's support, and
    # a full read afterwards maps the zero page, which backs nothing
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc/self/status for VmRSS")
    code = (
        "import zlib, numpy as np, wsvd\n"
        "def rss():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(line.split()[1]) * 1024 for line in fh"
        " if line.startswith('VmRSS:'))\n"
        "wsvd.build_problem('phillips', 600, 501)\n"
        "before = rss()\n"
        "p = wsvd.build_problem('phillips')\n"
        "built = rss()\n"
        "zlib.crc32(p.a), p.a @ p.x_true, p.a.T @ np.ones(p.m)\n"
        "print(built - before, rss() - built, p.a.nbytes)\n"
    )
    src = os.path.dirname(os.path.dirname(wsvd.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
    grown, read, nbytes = map(int, out.split())
    assert grown <= 0.75 * nbytes
    assert read < 2**20
    # the dense kernels keep numpy's allocator, and with it its huge pages
    for name in ("shaw", "expst", "green"):
        assert build_problem(name, 600, 501).a.base is None


@pytest.mark.parametrize("m,n", [(600, 501)])
def test_the_storage_of_phillips_a_changes_no_bit(m, n):
    # the table-size case is in tests/test_table_size.py, on the tier's run
    prob = build_problem("phillips", m, n)
    dense = np.array(prob.a)  # numpy's allocator, every page backed
    assert dense.base is None and np.array_equal(dense, prob.a)
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal(prob.n), rng.standard_normal(prob.m)
    envelope = wsvd.bidiag._envelope(prob.a)
    assert envelope == wsvd.bidiag._envelope(dense)
    pairs = [(wsvd.bidiag._matvec(arr, envelope, x), wsvd.bidiag._rmatvec(arr, envelope, y),
              arr @ x, arr.T @ y) for arr in (prob.a, dense)]
    for got, want in zip(*pairs):
        assert np.array_equal(got, want)
    b = add_noise(prob, 1e-3, 0).b
    records = []
    for arr in (prob.a, dense):
        wsvd.regularization._kept = None  # a fresh run on each, not a replay
        records.append(wsvd.spr_solve(arr, prob.weight, b, wsvd.StoppingRule("maxiter"),
                                      max_iter=100)[1])
    assert np.array_equal(records[0].residual_norms, records[1].residual_norms)
    assert np.array_equal(records[0].solution_m_norms, records[1].solution_m_norms)


def test_a_loaded_phillips_a_backs_only_the_pages_its_entries_need(tmp_path):
    # load_problem gives A build_problem's storage, so a table-size phillips
    # directory loads within the build's gate
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc/self/status for VmRSS")
    small = build_problem("phillips", 600, 501)  # loaded first, to warm imports and caches
    save_problem(tmp_path / "small", small, add_noise(small, 1e-3, 0))
    prob = build_problem("phillips")
    save_problem(tmp_path / "table", prob, add_noise(prob, 1e-3, 0))
    code = (
        "import hashlib, sys, wsvd\n"
        "def rss():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(line.split()[1]) * 1024 for line in fh"
        " if line.startswith('VmRSS:'))\n"
        "wsvd.load_problem(sys.argv[1])\n"
        "before = rss()\n"
        "p, _ = wsvd.load_problem(sys.argv[2])\n"
        "print(rss() - before, p.a.nbytes, hashlib.sha256(p.a.tobytes()).hexdigest(),"
        " hashlib.sha256(p.b_exact.tobytes()).hexdigest())\n"
    )
    src = os.path.dirname(os.path.dirname(wsvd.__file__))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "small"),
                          str(tmp_path / "table")], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
    grown, nbytes, a_hash, b_hash = out.split()
    assert int(grown) <= 0.75 * int(nbytes)
    assert a_hash == hashlib.sha256(prob.a.tobytes()).hexdigest()
    assert b_hash == hashlib.sha256(prob.b_exact.tobytes()).hexdigest()


def test_every_bit_of_a_loaded_phillips_a_is_kept(tmp_path):
    # the load skips only +0.0 entries, so -0.0, a NaN payload and a nonzero
    # outside the kernel's support all come back
    prob = build_problem("phillips", 600, 501)
    a = np.array(prob.a)
    a[0, -1], a[0, -2] = 1.0, -0.0  # row 0 is zero from column 125 on
    a[-1, 0] = np.uint64(0x7FF8_0000_0000_0123).view(np.float64)
    prob = dataclasses.replace(prob, a=a)
    save_problem(tmp_path, prob, add_noise(prob, 1e-3, 0))
    loaded = load_problem(tmp_path)[0].a
    assert np.array_equal(loaded.view(np.uint64), a.view(np.uint64))


def test_without_private_mappings_phillips_a_starts_from_zeros(monkeypatch):
    # the span-only fill needs memory that reads zero where no span writes
    ref = build_problem("phillips", 600, 501)
    monkeypatch.delattr(wsvd.problems.mmap, "MAP_PRIVATE")
    prob = build_problem("phillips", 600, 501)
    assert prob.a.base is None
    assert np.array_equal(prob.a, ref.a) and np.array_equal(prob.b_exact, ref.b_exact)


def test_import_and_diagonal_solve_load_no_scipy(tmp_path):
    # only dense weights use scipy; no built-in problem has one.  The build
    # fills A on plain threads that it joins before it returns, so no thread
    # outlives it, and it loads no pool
    code = (
        "import sys, threading, wsvd, wsvd.cli\n"
        "threads = threading.active_count()\n"
        "wsvd.build_problem('shaw', 600, 501)\n"
        "assert threading.active_count() == threads\n"
        "assert wsvd.cli.main(['lcurve', '--problem', 'shaw', '--m', '60', '--n', '41',"
        " '--epsilon', '1e-2', '--seed', '0', '--max-iter', '10',"
        f" '--out', {str(tmp_path)!r}]) == 0\n"
        "assert 'concurrent.futures' not in sys.modules\n"
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
    # a size that is not an integer is rejected, not truncated
    for m, n, label in ((120.9, 101, "m"), (120, 101.5, "n"), (True, 101, "m"),
                        ("120", 101, "m"), (120, np.float64(101.0), "n")):
        with pytest.raises(TypeError, match=f"^{label} must be an integer"):
            build_problem("shaw", m, n)
    assert build_problem("shaw", np.int64(12), np.int32(11)).a.shape == (12, 11)


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


@pytest.mark.parametrize("epsilon", [np.nan, np.inf])
def test_add_noise_rejects_a_non_finite_epsilon(epsilon):
    prob = build_problem("shaw", 40, 31)
    with pytest.raises(ValueError, match=f"epsilon must be finite and >= 0, got {epsilon}"):
        add_noise(prob, epsilon, 0)


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


def test_a_renamed_problem_round_trips(tmp_path):
    # the interval comes from the grids, not from the built-in name
    prob = dataclasses.replace(build_problem("shaw", 30, 21), name="mine")
    noisy = add_noise(prob, 1e-2, 5)
    save_problem(tmp_path, prob, noisy)
    prob2, noisy2 = load_problem(tmp_path)
    assert prob2.name == "mine"
    for field in ("a", "x_true", "b_exact", "s_grid", "t_grid"):
        assert np.array_equal(getattr(prob2, field), getattr(prob, field)), field
    assert np.array_equal(prob2.weight.diag, prob.weight.diag)
    assert np.array_equal(noisy2.b, noisy.b) and np.array_equal(noisy2.e, noisy.e)


@pytest.mark.parametrize("grid", ["s_grid", "t_grid"])
def test_save_rejects_grids_that_load_would_not_rebuild(tmp_path, grid):
    prob = build_problem("shaw", 30, 21)
    uneven = getattr(prob, grid).copy()
    uneven[1] += 1e-3
    prob = dataclasses.replace(prob, name="mine", **{grid: uneven})
    with pytest.raises(ValueError, match="s_grid and t_grid must be np.linspace"):
        save_problem(tmp_path / "out", prob, add_noise(prob, 1e-2, 5))
    assert not (tmp_path / "out").exists()


def test_an_older_directory_with_a_paper_h_line_loads_its_saved_weights(tmp_path):
    # directories written while the quadrature had a paper_h option carry a
    # paper_h line in meta; with paper_h=1 A, M and b were all scaled by
    # (n-1)/n, and the saved arrays are what load_problem returns
    prob = build_problem("shaw", 30, 21)
    noisy = add_noise(prob, 1e-2, 5)
    save_problem(tmp_path, prob, noisy)
    w_old = prob.weight.diag * 20 / 21
    (tmp_path / "M.diag").write_bytes(w_old.astype("<f8").tobytes())
    with open(tmp_path / "meta", "a") as fh:
        fh.write("paper_h=1\n")
    prob2, noisy2 = load_problem(tmp_path)
    assert np.array_equal(prob2.weight.diag, w_old)
    assert np.array_equal(prob2.a, prob.a) and np.array_equal(noisy2.b, noisy.b)
    assert not hasattr(prob2, "paper_h")


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
    (prob2, noisy2), peak = traced_peak(lambda: load_problem(tmp_path))
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


@pytest.mark.parametrize("key,value", [("m", 0), ("n", 0), ("m", -3)])
def test_load_rejects_a_meta_size_below_one(tmp_path, key, value):
    prob = build_problem("expst", 24, 15)
    save_problem(tmp_path, prob, add_noise(prob, 5e-3, 11))
    meta = tmp_path / "meta"
    size = {"m": 24, "n": 15}[key]
    meta.write_text(meta.read_text().replace(f"{key}={size}\n", f"{key}={value}\n"))
    with pytest.raises(ValueError, match="m and n must be >= 1"):
        load_problem(tmp_path)


def test_true_solution_rejects_an_unknown_name():
    with pytest.raises(ValueError, match="unknown problem 'bogus'"):
        true_solution("bogus", np.linspace(0.0, 1.0, 5))
