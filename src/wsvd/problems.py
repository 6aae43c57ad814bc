"""Discretized first-kind Fredholm test problems.

Each problem discretizes g(s) = integral K(s, t) f(t) dt on a uniform grid
by the composite Simpson rule: A[j, i] = K(s_j, t_i) * w_i, M = diag(w),
x_true = f(t), b_exact = A x_true.  The weight matrix ties the discrete
M-norm to the continuous L2 norm, which is what makes the M-geometry the
faithful one for these problems.
"""

import os
from dataclasses import dataclass

import numpy as np

from .weights import WeightMatrix

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
# temporary of the kernel formulas is block-sized and stays in cache
_BLOCK_BYTES = 256 * 1024


@dataclass(frozen=True)
class TestProblem:
    name: str
    a: np.ndarray
    weight: WeightMatrix
    x_true: np.ndarray
    b_exact: np.ndarray
    s_grid: np.ndarray
    t_grid: np.ndarray
    paper_h: bool = False

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


def simpson_weights(n, t1, t2, paper_h=False):
    """Composite Simpson weights (h/3)(1, 4, 2, 4, ..., 2, 4, 1) on n nodes.

    n must be odd and >= 3.  h = (t2 - t1)/(n - 1) spans the interval with
    the endpoint nodes; paper_h switches the constant to the alternative
    convention (t2 - t1)/n (the weights then no longer sum to the interval
    length, and cubic exactness is lost).
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"composite Simpson rule needs odd n >= 3, got {n}")
    if not t2 > t1:
        raise ValueError(f"need t2 > t1, got [{t1}, {t2}]")
    h = (t2 - t1) / (n if paper_h else n - 1)
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
    """K(s, t), vectorized with broadcasting over s and t.

    The result is one new array of the broadcast shape, filled in place; the
    other temporaries (shaw's sinc factor, bool masks) are the same size.
    """
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


def build_problem(name, m=None, n=None, paper_h=False):
    """Assemble a test problem; dimensions default to the reference table.

    A is allocated once and filled in place in row blocks of about
    _BLOCK_BYTES, so the build holds A plus one block of temporaries; the
    entries have the bits of kernel_eval over the whole grid, times w.
    """
    if name not in TABLE_DIMS:
        raise ValueError(f"unknown problem {name!r}; choose from {PROBLEM_NAMES}")
    dm, dn = TABLE_DIMS[name]
    m = dm if m is None else int(m)
    n = dn if n is None else int(n)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    t1, t2 = DOMAINS[name]
    t = np.linspace(t1, t2, n)
    s = np.linspace(t1, t2, m)
    w = simpson_weights(n, t1, t2, paper_h=paper_h)
    a = np.empty((m, n))
    rows = max(1, _BLOCK_BYTES // (8 * n))
    t_terms = _t_terms(name, t[None, :])
    for j in range(0, m, rows):
        block = a[j:j + rows]
        _kernel_into(name, s[j:j + rows, None], t_terms, block)
        block *= w
    x_true = true_solution(name, t)
    return TestProblem(
        name=name,
        a=a,
        weight=WeightMatrix.diagonal(w),
        x_true=x_true,
        b_exact=a @ x_true,
        s_grid=s,
        t_grid=t,
        paper_h=paper_h,
    )


def add_noise(problem, epsilon, seed):
    """Gaussian noise rescaled so ||e||_2 = epsilon * ||b_exact||_2 exactly."""
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    if epsilon == 0.0:
        e = np.zeros_like(problem.b_exact)
        return NoisyData(b=problem.b_exact.copy(), e=e, epsilon=0.0, seed=seed)
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(problem.m)
    e *= epsilon * np.linalg.norm(problem.b_exact) / np.linalg.norm(e)
    return NoisyData(b=problem.b_exact + e, e=e, epsilon=float(epsilon), seed=seed)


def condition_estimate(problem):
    """sigma_max / sigma_min over the standard singular values above the
    rank tolerance max(m, n) * eps * sigma_1."""
    s = np.linalg.svd(problem.a, compute_uv=False)
    tol = max(problem.m, problem.n) * np.finfo(float).eps * s[0]
    kept = s[s > tol]
    return float(kept[0] / kept[-1])


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

_META_KEYS = ("name", "m", "n", "epsilon", "seed", "t1", "t2", "paper_h")


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
        "paper_h": int(problem.paper_h),
    }
    with open(os.path.join(dirpath, "meta"), "w") as fh:
        for key in _META_KEYS:
            fh.write(f"{key}={meta[key]}\n")


def load_problem(dirpath):
    """Read back a directory written by save_problem; returns
    (TestProblem, NoisyData)."""
    meta = {}
    with open(os.path.join(dirpath, "meta")) as fh:
        for line in fh:
            line = line.strip()
            if line:
                key, _, value = line.partition("=")
                meta[key] = value
    name = meta["name"]
    m, n = int(meta["m"]), int(meta["n"])
    t1, t2 = float(meta["t1"]), float(meta["t2"])
    paper_h = bool(int(meta.get("paper_h", "0")))

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
        paper_h=paper_h,
    )
    noisy = NoisyData(
        b=get("b", m),
        e=get("e", m),
        epsilon=float(meta["epsilon"]),
        seed=int(meta["seed"]),
    )
    return problem, noisy
