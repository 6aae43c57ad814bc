"""Discretized first-kind Fredholm test problems.

Each problem discretizes g(s) = integral K(s, t) f(t) dt on a uniform grid
by the composite Simpson rule: A[j, i] = K(s_j, t_i) * w_i, M = diag(w),
x_true = f(t), b_exact = A x_true.  The weight matrix ties the discrete
M-norm to the continuous L2 norm, which is what makes the M-geometry the
faithful one for these problems.

phillips' kernel phi(s - t) is zero for |s - t| >= 3, so 56% of its
table-size A is zero.  build_problem writes only each row block's support
columns of that A, into a private anonymous mapping without huge pages: the
pages no block writes are never backed and read as +0.0 from the operating
system's zero page, so A backs 36.9 of its 57.2 MiB at table size, however
often it is read.  A dense copy, such as np.array(a), backs every page.
The other kernels have no zero columns, and their A is a numpy array,
which numpy advises onto huge pages.
"""

import mmap
import operator
import os
import threading
from dataclasses import dataclass

import numpy as np

from .weights import WeightMatrix, _sqrt_dot

TABLE_DIMS = {
    "shaw": (2500, 2001),
    "phillips": (3000, 2501),
    "expst": (3500, 3001),
    "green": (4000, 3501),
}

DOMAINS = {
    "shaw": (-np.pi / 2, np.pi / 2),
    "phillips": (-6.0, 6.0),
    "expst": (0.0, 1.0),
    "green": (0.0, 1.0),
}

PROBLEM_NAMES = tuple(TABLE_DIMS)

# A is filled in row blocks of about this many bytes, so that every
# temporary of the kernel formulas is block-sized and stays in cache, and
# each block's rows of b_exact are one GEMV far below OpenBLAS's threading
# size
_BLOCK_BYTES = 256 * 1024

# At most this many threads fill A; each holds one block of temporaries
# (about 0.29 MB for shaw), which the 5% memory bound on a build allows
_MAX_WORKERS = 4


@dataclass(frozen=True)
class TestProblem:
    name: str
    a: np.ndarray
    weight: WeightMatrix
    x_true: np.ndarray
    b_exact: np.ndarray
    s_grid: np.ndarray
    t_grid: np.ndarray

    @property
    def m(self):
        return self.a.shape[0]

    @property
    def n(self):
        return self.a.shape[1]


@dataclass(frozen=True)
class NoisyData:
    b: np.ndarray
    e: np.ndarray
    epsilon: float
    seed: int


def simpson_weights(n, t1, t2):
    """Composite Simpson weights (h/3)(1, 4, 2, 4, ..., 2, 4, 1) on n nodes.

    n must be odd and >= 3.  h = (t2 - t1)/(n - 1) spans the interval with
    the endpoint nodes, so the weights sum to the interval length.  The
    paper prints the constant as (t2 - t1)/n, which only rescales A, M and b
    by (n - 1)/n and changes no stop index or error, so there is one
    spacing.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"composite Simpson rule needs odd n >= 3, got {n}")
    if not t2 > t1:
        raise ValueError(f"need t2 > t1, got [{t1}, {t2}]")
    h = (t2 - t1) / (n - 1)
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return (h / 3.0) * w


def _phillips_phi(x):
    """phi(x) = 1 + cos(pi x / 3) for |x| < 3, else 0, written over x in place.

    cos is evaluated only on the support; the rest is zeroed at the end.
    """
    inside = x < 3.0
    inside &= x > -3.0  # the same test as |x| < 3, without an |x| array
    x *= np.pi
    x /= 3.0
    np.cos(x, out=x, where=inside)
    x += 1.0
    np.copyto(x, 0.0, where=~inside)
    return x


def _t_terms(name, t):
    """What _kernel_into needs of t: (sin t, cos t) for shaw, t otherwise.

    A build evaluates them once for all its row blocks.
    """
    return (np.sin(t), np.cos(t)) if name == "shaw" else t


def _kernel_into(name, s, t, out):
    """Write K(s, t) into out, whose shape is the broadcast shape of s and t;
    t comes as _t_terms(name, t), which for shaw is (sin t, cos t).

    Only in-place ufuncs on out are used, so the temporaries are shaw's sinc
    factor and bool masks, each the size of out.
    """
    if name == "shaw":
        # (cos s + cos t)^2 sinc(u / pi)^2 with u = pi (sin s + sin t) and
        # numpy's sinc spelled out step for step (x = u / pi, y = pi x,
        # y = where(y, y, eps), sin(y) / y), so every entry keeps the bits of
        # np.sinc; eps handles the removable singularity at u = 0
        sin_t, cos_t = t
        np.add(np.sin(s), sin_t, out=out)
        out *= np.pi
        out /= np.pi
        out *= np.pi
        np.copyto(out, np.finfo(float).eps, where=out == 0)
        sinc = np.sin(out)
        sinc /= out
        sinc *= sinc
        np.add(np.cos(s), cos_t, out=out)
        out *= out
        out *= sinc
    elif name == "phillips":
        _phillips_phi(np.subtract(s, t, out=out))
    elif name == "expst":
        np.exp(np.multiply(s, t, out=out), out=out)
    else:  # green: s (1 - t) for s < t, else t (1 - s)
        np.multiply(s, 1.0 - t, out=out)
        np.multiply(t, 1.0 - s, out=out, where=~(s < t))


def kernel_eval(name, s, t):
    """K(s, t), vectorized with broadcasting over s and t, as one new array
    that _kernel_into fills in place."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if name not in TABLE_DIMS:
        raise ValueError(f"unknown problem {name!r}; choose from {PROBLEM_NAMES}")
    out = np.empty(np.broadcast_shapes(s.shape, t.shape))
    _kernel_into(name, s, _t_terms(name, t), out)
    return out if out.ndim else out[()]


def true_solution(name, t):
    """The exact solution f(t), vectorized."""
    t = np.asarray(t, dtype=float)
    if name == "shaw":
        return 2.0 * np.exp(-6.0 * (t - 0.8) ** 2) + np.exp(-2.0 * (t + 0.5) ** 2)
    if name == "phillips":
        return _phillips_phi(t.copy())
    if name == "expst":
        return np.exp(t) * np.cos(t)
    if name == "green":
        return t - 2.0 * t**2 + t**3
    raise ValueError(f"unknown problem {name!r}; choose from {PROBLEM_NAMES}")


def _size(label, value):
    """value as an int through operator.index; a bool, float or string
    raises TypeError naming label."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise TypeError(f"{label} must be an integer, got {value!r}")


def _support(name, s, t):
    """The columns [c0, c1) outside which the rows s of K(s, t) are zero.

    phi(s - t) is zero where s - t >= 3 or s - t <= -3, the test of
    _phillips_phi.  Float subtraction is monotone in s and in t, so on the
    increasing grids the zero columns of every row s_j lie in those of the
    first row (c0) and of the last (c1).
    """
    if name != "phillips":
        return 0, len(t)
    return np.count_nonzero(s[0] - t >= 3.0), len(t) - np.count_nonzero(s[-1] - t <= -3.0)


def _zero_pages(m, n):
    """An m x n float array of zeros whose pages are backed only once written.

    The mapping is private, since a shared one is backed as soon as it is
    read, and is not huge-paged, since one written entry would back 2 MiB.
    Where mmap has no MAP_PRIVATE (Windows), np.zeros.
    """
    if not hasattr(mmap, "MAP_PRIVATE"):
        return np.zeros((m, n))
    buf = mmap.mmap(-1, 8 * m * n, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):  # Linux
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf).reshape(m, n)


def _cpus():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_problem(name, m=None, n=None):
    """Assemble a test problem; dimensions default to the reference table.

    A is allocated once and filled in place in row blocks of about
    _BLOCK_BYTES; the entries have the bits of kernel_eval over the whole
    grid, times w.  Each block's rows of b_exact are the block times x_true,
    taken while the block is in cache, so A is read once and b_exact does
    not depend on the BLAS thread count.  The blocks are shared out to the
    caller and min(CPUs, blocks, _MAX_WORKERS) - 1 helper threads, joined
    before the build returns; the build holds A plus one block of
    temporaries per thread.

    Where a block's support (_support) is narrower than its rows, as on
    phillips, A comes from _zero_pages and only the support columns of each
    block are written.  The block is then assembled full-width in a
    per-thread buffer, from which b_exact is taken and the support columns
    are copied, so A and b_exact keep their bits and the product reads no
    page of A that the build leaves unbacked.  The other problems fill A,
    from np.empty, in place.
    """
    if name not in TABLE_DIMS:
        raise ValueError(f"unknown problem {name!r}; choose from {PROBLEM_NAMES}")
    dm, dn = TABLE_DIMS[name]
    m = dm if m is None else _size("m", m)
    n = dn if n is None else _size("n", n)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    t1, t2 = DOMAINS[name]
    t = np.linspace(t1, t2, n)
    s = np.linspace(t1, t2, m)
    w = simpson_weights(n, t1, t2)
    x_true = true_solution(name, t)
    b_exact = np.empty(m)
    rows = max(1, _BLOCK_BYTES // (8 * n))
    spans = [_support(name, s[j:j + rows], t) for j in range(0, m, rows)]
    sparse = set(spans) != {(0, n)}
    a = _zero_pages(m, n) if sparse else np.empty((m, n))
    t_terms = _t_terms(name, t[None, :])
    # next() on a range iterator is atomic under the GIL, so every block is
    # taken by exactly one thread
    blocks = iter(range(0, m, rows))

    errors = []

    def fill():
        buffer = np.empty((min(rows, m), n)) if sparse else None
        try:
            for j in blocks:
                block = buffer[:min(rows, m - j)] if sparse else a[j:j + rows]
                _kernel_into(name, s[j:j + rows, None], t_terms, block)
                block *= w
                np.matmul(block, x_true, out=b_exact[j:j + rows])
                if sparse:
                    c0, c1 = spans[j // rows]
                    a[j:j + rows, c0:c1] = block[:, c0:c1]
        except BaseException as exc:  # re-raised by the caller after the join
            errors.append(exc)

    helpers = [threading.Thread(target=fill)
               for _ in range(min(_cpus(), -(-m // rows), _MAX_WORKERS) - 1)]
    for thread in helpers:
        thread.start()
    fill()
    for thread in helpers:
        thread.join()
    if errors:
        raise errors[0]
    return TestProblem(
        name=name,
        a=a,
        weight=WeightMatrix.diagonal(w),
        x_true=x_true,
        b_exact=b_exact,
        s_grid=s,
        t_grid=t,
    )


def add_noise(problem, epsilon, seed):
    """Gaussian noise rescaled so ||e||_2 = epsilon * ||b_exact||_2 exactly.
    An epsilon that is negative, NaN or inf raises ValueError, so gen and
    sweep exit 1."""
    if not 0 <= epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
    if epsilon == 0.0:
        e = np.zeros_like(problem.b_exact)
        return NoisyData(b=problem.b_exact.copy(), e=e, epsilon=0.0, seed=seed)
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(problem.m)
    e *= epsilon * _sqrt_dot(np.ascontiguousarray(problem.b_exact)) / _sqrt_dot(e)
    return NoisyData(b=problem.b_exact + e, e=e, epsilon=float(epsilon), seed=seed)


# -- on-disk format ---------------------------------------------------------
#
# A directory holding:
#   A        two little-endian int64 (m, n), then m*n float64 row-major
#   M.diag   n float64 (the quadrature weights)
#   x_true   n float64
#   b_exact  m float64
#   b        m float64
#   e        m float64
#   meta     text, one key=value per line

def write_array(path, arr, shape_header=False):
    """Write arr as little-endian float64 in row-major order, preceded by its
    shape as little-endian int64 when shape_header is set.  tofile writes
    straight from the array, without a bytes copy of it."""
    with open(path, "wb") as fh:
        if shape_header:
            np.array(arr.shape, dtype="<i8").tofile(fh)
        np.ascontiguousarray(arr, dtype="<f8").tofile(fh)


def save_problem(dirpath, problem, noisy):
    """Write a problem and its noisy data to a directory (created if needed)."""
    os.makedirs(dirpath, exist_ok=True)
    write_array(os.path.join(dirpath, "A"), problem.a, shape_header=True)
    for fname, arr in (("M.diag", problem.weight.diag), ("x_true", problem.x_true),
                       ("b_exact", problem.b_exact), ("b", noisy.b), ("e", noisy.e)):
        write_array(os.path.join(dirpath, fname), arr)
    t1, t2 = DOMAINS[problem.name]
    meta = {
        "name": problem.name,
        "m": problem.m,
        "n": problem.n,
        "epsilon": repr(noisy.epsilon),
        "seed": noisy.seed,
        "t1": repr(t1),
        "t2": repr(t2),
    }
    with open(os.path.join(dirpath, "meta"), "w") as fh:
        for key, value in meta.items():
            fh.write(f"{key}={value}\n")


def load_problem(dirpath):
    """Read back a directory written by save_problem; returns
    (TestProblem, NoisyData).  The weights come from M.diag; a meta key not
    read here, which an older directory may carry, is ignored, and a missing
    one, or a value that does not parse, raises ValueError naming the meta
    file and the key.  A is read straight into its array, so it is held
    once."""
    meta = {}
    meta_path = os.path.join(dirpath, "meta")
    with open(meta_path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                key, _, value = line.partition("=")
                meta[key] = value

    def field(key, kind):
        if key not in meta:
            raise ValueError(f"{meta_path}: no {key!r} key")
        try:
            return kind(meta[key])
        except ValueError as exc:
            raise ValueError(f"{meta_path}: key {key!r}: {exc}") from None

    name, m, n = field("name", str), field("m", int), field("n", int)
    t1, t2 = field("t1", float), field("t2", float)
    epsilon, seed = field("epsilon", float), field("seed", int)

    def get(fname, count, header=None):
        # fromfile reads straight into the result, so A is held only once
        with open(os.path.join(dirpath, fname), "rb") as fh:
            if header is not None:
                dims = tuple(np.fromfile(fh, dtype="<i8", count=2).tolist())
                if dims != header:
                    raise ValueError(f"{fname}: header {dims} disagrees with meta {header}")
            found = (os.fstat(fh.fileno()).st_size - fh.tell()) / 8
            if found != count:
                raise ValueError(f"{fname}: expected {count} values, found {found:.12g}")
            arr = np.fromfile(fh, dtype="<f8", count=count)
        return arr.astype(float, copy=False)

    problem = TestProblem(
        name=name,
        a=get("A", m * n, header=(m, n)).reshape(m, n),
        weight=WeightMatrix.diagonal(get("M.diag", n)),
        x_true=get("x_true", n),
        b_exact=get("b_exact", m),
        s_grid=np.linspace(t1, t2, m),
        t_grid=np.linspace(t1, t2, n),
    )
    noisy = NoisyData(
        b=get("b", m),
        e=get("e", m),
        epsilon=epsilon,
        seed=seed,
    )
    return problem, noisy
