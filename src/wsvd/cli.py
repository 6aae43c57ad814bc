"""Experiment command line.

Subcommands: gen (write a problem directory), solve (one method + stopping
rule), sweep (epsilon x seed x method x rule grid), lcurve (corner
diagnostics), wsvd (dump a factorization), triplets (approximate weighted
singular triplets with residual bounds).

Exit codes: 0 success, 1 invalid configuration, 2 runtime failure.
"""

import argparse
import concurrent.futures
import os
import sys
import threading
from dataclasses import dataclass, field, fields

import numpy as np

from .bidiag import approx_triplets, wgkb_init, wgkb_step
from .decomposition import covers, wsvd
from .problems import (PROBLEM_NAMES, add_noise, build_problem, load_problem,
                       save_problem)
from .regularization import (DEFAULT_TAU, RULES, StoppingRule, lcurve_curvature,
                             spr_solve, stop_dp, stop_lcurve, stop_oracle,
                             tikhonov_opt)
from .solver import wlsqr_run
from .weights import WeightMatrix

METHODS = ("wlsqr", "lsqr", "tikh-opt", "twsvd")

# the noise levels of the reference sweep, largest first
SWEEP_EPSILONS = (3.2e-2, 1.6e-2, 8e-3, 4e-3, 2e-3, 1e-3)


class UsageError(Exception):
    """Invalid configuration detected after argument parsing."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@dataclass
class ExperimentConfig:
    """Full experiment configuration; round-trips losslessly through text."""

    problem: str = "shaw"
    m: int | None = None
    n: int | None = None
    epsilons: list = field(default_factory=lambda: [1e-3])
    seeds: list = field(default_factory=lambda: [0])
    rules: list = field(default_factory=lambda: ["dp"])
    methods: list = field(default_factory=lambda: ["wlsqr"])
    tau: float = DEFAULT_TAU
    max_iter: int | None = None
    reorth: bool = True
    paper_h: bool = False
    jobs: int = 1
    out: str = "."

    def to_text(self):
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, list):
                v = ",".join(repr(x) if isinstance(x, float) else str(x) for x in v)
            elif isinstance(v, float):
                v = repr(v)
            lines.append(f"{f.name}={v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        raw = {}
        for line in text.splitlines():
            line = line.strip()
            if line:
                key, _, value = line.partition("=")
                raw[key] = value
        kwargs = {}
        for f in fields(cls):
            if f.name not in raw:
                continue
            v = raw[f.name]
            if f.name in ("epsilons",):
                kwargs[f.name] = [float(x) for x in v.split(",") if x]
            elif f.name in ("seeds",):
                kwargs[f.name] = [int(x) for x in v.split(",") if x]
            elif f.name in ("rules", "methods"):
                kwargs[f.name] = [x for x in v.split(",") if x]
            elif f.name in ("m", "n", "max_iter"):
                kwargs[f.name] = None if v == "None" else int(v)
            elif f.name in ("tau",):
                kwargs[f.name] = float(v)
            elif f.name in ("reorth", "paper_h"):
                kwargs[f.name] = v == "True"
            elif f.name in ("jobs",):
                kwargs[f.name] = int(v)
            else:
                kwargs[f.name] = v
        return cls(**kwargs)


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--problem", choices=PROBLEM_NAMES, default="shaw")
    common.add_argument("--m", type=int, default=None)
    common.add_argument("--n", type=int, default=None)
    common.add_argument("--epsilon", type=float, nargs="+", default=None,
                        help="noise level(s) ||e||/||b_exact||")
    common.add_argument("--seed", type=int, nargs="+", default=None)
    common.add_argument("--rule", choices=RULES, nargs="+", default=None)
    common.add_argument("--tau", type=float, default=DEFAULT_TAU,
                        help="discrepancy safety factor")
    common.add_argument("--max-iter", type=int, default=None)
    common.add_argument("--method", choices=METHODS, nargs="+", default=None)
    common.add_argument("--reorth", choices=("on", "off"), default="on")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--jobs", type=int, default=1,
                        help="concurrent sweep cells")
    common.add_argument("--paper-h", action="store_true",
                        help="use the verbatim printed quadrature constant (t2-t1)/n")

    parser = _Parser(prog="wsvd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("gen", parents=[common],
                   help="generate a problem directory")
    p_solve = sub.add_parser("solve", parents=[common],
                             help="run one method and stopping rule")
    p_solve.add_argument("--in", dest="indir", default=None,
                         help="load a generated problem directory instead of building")
    sub.add_parser("sweep", parents=[common],
                   help="grid over epsilon x seed x method x rule")
    p_lc = sub.add_parser("lcurve", parents=[common],
                          help="L-curve points, curvature, and corner")
    p_lc.add_argument("--points", default=None,
                      help="CSV of k,res_norm,sol_mnorm to analyze instead of running")
    sub.add_parser("wsvd", parents=[common],
                   help="dump the weighted SVD of a small problem")
    p_tr = sub.add_parser("triplets", parents=[common],
                          help="approximate weighted singular triplets")
    p_tr.add_argument("--count", type=int, default=6)
    p_tr.add_argument("--triplet-tol", type=float, default=1e-8,
                      help="acceptance threshold relative to sigma_bar_1")
    return parser


def _config_from_args(args):
    return ExperimentConfig(
        problem=args.problem,
        m=args.m,
        n=args.n,
        epsilons=list(args.epsilon) if args.epsilon is not None else [1e-3],
        seeds=list(args.seed) if args.seed is not None else [0],
        rules=list(args.rule) if args.rule is not None else ["dp"],
        methods=list(args.method) if args.method is not None else ["wlsqr"],
        tau=args.tau,
        max_iter=args.max_iter,
        reorth=args.reorth == "on",
        paper_h=args.paper_h,
        jobs=args.jobs,
        out=args.out,
    )


def _single(values, what):
    if len(values) != 1:
        raise UsageError(f"exactly one {what} expected, got {values}")
    return values[0]


def _fmt(x):
    return f"{x:.12e}"


def _fmt_log(x):
    """log(x), or nan (as in the curvature column) where x is not a finite
    positive norm, e.g. the zero residual of a breakdown step."""
    return _fmt(np.log(x)) if np.isfinite(x) and x > 0 else "nan"


def _problem_tag(cfg, epsilon, seed):
    return f"{cfg.problem}_m{cfg.m or 'def'}_n{cfg.n or 'def'}_eps{epsilon:g}_seed{seed}"


def _write_csv(path, header, rows):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


# -- histories shared by solve and sweep -------------------------------------

def _iterative_histories(problem, noisy, method, cfg):
    """Run wlsqr or the unweighted baseline once, returning per-iteration
    (residual_norms, solution_m_norms, rel_errors) plus the initial residual."""
    weight = problem.weight if method == "wlsqr" else WeightMatrix.identity(problem.n)
    nx = np.linalg.norm(problem.x_true)
    errs = []

    def cb(k, x, res, mnorm):
        errs.append(float(np.linalg.norm(x - problem.x_true) / nx))
        return False

    state = wlsqr_run(problem.a, weight, noisy.b, max_iter=cfg.max_iter,
                      reorth=cfg.reorth, callback=cb)
    return (np.asarray(state.residual_norms), np.asarray(state.solution_m_norms),
            np.asarray(errs), state.initial_residual)


def _twsvd_histories(problem, noisy, fact, cfg):
    """Residual, M-norm, and error histories of the truncated expansions,
    plus the initial residual."""
    kmax = fact.rank if cfg.max_iter is None else min(fact.rank, cfg.max_iter)
    ub = fact.u[:, :kmax].T @ noisy.b
    coef = ub / fact.sigma[:kmax]
    res = np.sqrt(np.maximum(np.linalg.norm(noisy.b) ** 2 - np.cumsum(ub**2), 0.0))
    mnorms = np.sqrt(np.cumsum(coef**2))
    nx = np.linalg.norm(problem.x_true)
    errs = np.empty(kmax)
    x = np.zeros(problem.n)
    for k in range(kmax):
        x = x + coef[k] * fact.v[:, k]
        errs[k] = np.linalg.norm(x - problem.x_true) / nx
    return res, mnorms, errs, float(np.linalg.norm(noisy.b))


def _select(rule_kind, cfg, noisy, res, mnorms, errs, initial_residual):
    """Apply a stopping rule to recorded histories; returns the 1-based index."""
    if rule_kind == "dp":
        noise = float(np.linalg.norm(noisy.e))
        if noise <= 0:
            raise UsageError("dp rule needs noisy data (epsilon > 0)")
        k, _ = stop_dp(np.concatenate([[initial_residual], res]), cfg.tau, noise)
        return k if k is not None else len(res)
    if rule_kind == "lc":
        return stop_lcurve(res, mnorms).index
    if rule_kind == "oracle":
        return stop_oracle(errs)
    return len(res)


# -- subcommands --------------------------------------------------------------

def cmd_gen(args):
    cfg = _config_from_args(args)
    epsilon = _single(cfg.epsilons, "--epsilon")
    seed = _single(cfg.seeds, "--seed")
    problem = build_problem(cfg.problem, cfg.m, cfg.n, paper_h=cfg.paper_h)
    noisy = add_noise(problem, epsilon, seed)
    path = os.path.join(cfg.out, _problem_tag(cfg, epsilon, seed))
    save_problem(path, problem, noisy)
    print(path)
    return 0


def _load_or_build(cfg, epsilon, seed, indir):
    if indir is not None:
        return load_problem(indir)
    problem = build_problem(cfg.problem, cfg.m, cfg.n, paper_h=cfg.paper_h)
    return problem, add_noise(problem, epsilon, seed)


def cmd_solve(args):
    cfg = _config_from_args(args)
    method = _single(cfg.methods, "--method")
    rule_kind = _single(cfg.rules, "--rule")
    epsilon = _single(cfg.epsilons, "--epsilon")
    seed = _single(cfg.seeds, "--seed")
    problem, noisy = _load_or_build(cfg, epsilon, seed, getattr(args, "indir", None))
    if rule_kind == "oracle" and problem.x_true is None:
        raise UsageError("oracle rule needs x_true in the problem data")

    import time
    t0 = time.perf_counter()
    if method in ("wlsqr", "lsqr"):
        weight = problem.weight if method == "wlsqr" else WeightMatrix.identity(problem.n)
        rule = _make_rule(rule_kind, cfg, noisy, problem)
        x, record = spr_solve(problem.a, weight, noisy.b, rule,
                              max_iter=cfg.max_iter, reorth=cfg.reorth,
                              x_true=problem.x_true)
        rows = [
            (str(k), _fmt(record.residual_norms[k - 1]),
             _fmt(record.solution_m_norms[k - 1]),
             _fmt(record.rel_errors[k - 1]) if record.rel_errors is not None else "")
            for k in record.ks
        ]
        stop_k = record.stop_index
        rel_err = (record.rel_errors[stop_k - 1]
                   if record.rel_errors is not None and stop_k >= 1 else float("nan"))
    elif method == "twsvd":
        fact = wsvd(problem.a, problem.weight, start=noisy.b)
        res, mnorms, errs, b0 = _twsvd_histories(problem, noisy, fact, cfg)
        stop_k = _select(rule_kind, cfg, noisy, res, mnorms, errs, b0)
        rel_err = errs[stop_k - 1]
        rows = [(str(k + 1), _fmt(res[k]), _fmt(mnorms[k]), _fmt(errs[k]))
                for k in range(len(res))]
    else:  # tikh-opt
        fact = wsvd(problem.a, problem.weight, start=noisy.b)
        lam, x = tikhonov_opt(fact, noisy.b, problem.x_true)
        rel_err = float(np.linalg.norm(x - problem.x_true) / np.linalg.norm(problem.x_true))
        rows = [("0", _fmt(np.linalg.norm(problem.a @ x - noisy.b)),
                 _fmt(problem.weight.norm(x)), _fmt(rel_err))]
        stop_k = 0
    wall_ms = (time.perf_counter() - t0) * 1e3

    tag = f"{problem.name}_{method}_{rule_kind}_eps{epsilon:g}_seed{seed}"
    _write_csv(os.path.join(cfg.out, f"run_{tag}.csv"),
               "k,res_norm,sol_mnorm,rel_err", rows)
    summary = f"{problem.name},{rule_kind},{method},{stop_k},{_fmt(rel_err)},{wall_ms:.1f}"
    _write_csv(os.path.join(cfg.out, f"summary_{tag}.csv"),
               "problem,rule,method,stop_k,rel_err,wall_ms", [summary.split(",")])
    print("problem,rule,method,stop_k,rel_err,wall_ms")
    print(summary)
    return 0


def _make_rule(rule_kind, cfg, noisy, problem):
    if rule_kind == "dp":
        noise = float(np.linalg.norm(noisy.e))
        if noise <= 0:
            raise UsageError("dp rule needs noisy data (epsilon > 0)")
        return StoppingRule("dp", tau=cfg.tau, noise_norm=noise)
    if rule_kind == "oracle":
        return StoppingRule("oracle", x_true=problem.x_true)
    return StoppingRule(rule_kind)


def _error_status(exc):
    """The status cell of a failed row: type and message, with the commas
    and line breaks that would split or end the CSV row replaced."""
    msg = " ".join(str(exc).replace(",", ";").split())
    return f"error: {type(exc).__name__}: {msg}" if msg else f"error: {type(exc).__name__}"


def cmd_sweep(args):
    cfg = _config_from_args(args)
    if args.epsilon is None:
        cfg.epsilons = list(SWEEP_EPSILONS)
    problem = build_problem(cfg.problem, cfg.m, cfg.n, paper_h=cfg.paper_h)
    # The spectral rows of a pair share one factorization.  The sweep keeps
    # the last one it made and reuses it for every pair whose b it covers (a
    # dense one covers every b); any other pair factors from its own b.
    last = None
    lock = threading.Lock()

    def factor(noisy):
        nonlocal last
        with lock:
            if last is None or not covers(last, problem.a, noisy.b):
                last = wsvd(problem.a, problem.weight, start=noisy.b)
            return last

    def pair(epsilon, seed):
        noisy = add_noise(problem, epsilon, seed)
        fact = None
        out = []
        for method in cfg.methods:
            try:
                if method in ("tikh-opt", "twsvd") and fact is None:
                    fact = factor(noisy)
                if method == "tikh-opt":
                    _, x = tikhonov_opt(fact, noisy.b, problem.x_true)
                    err = np.linalg.norm(x - problem.x_true) / np.linalg.norm(problem.x_true)
                    out.append((epsilon, seed, method, "oracle", 0, float(err), "ok"))
                    continue
                if method == "twsvd":
                    res, mnorms, errs, b0 = _twsvd_histories(problem, noisy, fact, cfg)
                else:
                    res, mnorms, errs, b0 = _iterative_histories(problem, noisy, method, cfg)
                for rule_kind in cfg.rules:
                    k = _select(rule_kind, cfg, noisy, res, mnorms, errs, b0)
                    out.append((epsilon, seed, method, rule_kind, k, float(errs[k - 1]), "ok"))
            except UsageError:
                raise
            except Exception as exc:  # noqa: BLE001  a failed cell must not kill the sweep
                out.append((epsilon, seed, method, "-", 0, float("nan"), _error_status(exc)))
        return out

    pairs = [(e, s) for e in cfg.epsilons for s in cfg.seeds]
    rows = []
    if cfg.jobs > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            for part in pool.map(lambda c: pair(*c), pairs):
                rows.extend(part)
    else:
        for c in pairs:
            rows.extend(pair(*c))

    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    text_rows = [
        (problem.name, repr(e), str(s), m, r, str(k), _fmt(err), status)
        for (e, s, m, r, k, err, status) in rows
    ]
    path = os.path.join(cfg.out, f"sweep_{problem.name}.csv")
    _write_csv(path, "problem,epsilon,seed,method,rule,stop_k,rel_err,status", text_rows)
    with open(os.path.join(cfg.out, f"sweep_{problem.name}_config.txt"), "w") as fh:
        fh.write(cfg.to_text())
    print(path)
    return 0


def cmd_lcurve(args):
    cfg = _config_from_args(args)
    if args.points is not None:
        ks, res, mnorms = [], [], []
        with open(args.points) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("k,"):
                    continue
                parts = line.split(",")
                ks.append(int(parts[0]))
                res.append(float(parts[1]))
                mnorms.append(float(parts[2]))
        res = np.asarray(res)
        mnorms = np.asarray(mnorms)
    else:
        epsilon = _single(cfg.epsilons, "--epsilon")
        seed = _single(cfg.seeds, "--seed")
        problem = build_problem(cfg.problem, cfg.m, cfg.n, paper_h=cfg.paper_h)
        noisy = add_noise(problem, epsilon, seed)
        state = wlsqr_run(problem.a, problem.weight, noisy.b,
                          max_iter=cfg.max_iter, reorth=cfg.reorth)
        ks = list(range(1, state.k + 1))
        res = np.asarray(state.residual_norms)
        mnorms = np.asarray(state.solution_m_norms)

    corner = stop_lcurve(res, mnorms)
    if corner.no_corner:
        print("warning: no corner detected (history near collinear)", file=sys.stderr)
    curv_ks, curv = lcurve_curvature(res, mnorms)
    curv_map = dict(zip(curv_ks.tolist(), curv.tolist()))
    rows = []
    for i, k in enumerate(ks):
        c = curv_map.get(k)
        rows.append((str(k), _fmt_log(res[i]), _fmt_log(mnorms[i]),
                     _fmt(c) if c is not None else "nan",
                     "true" if k == corner.index else "false"))
    path = os.path.join(cfg.out, "lcurve.csv")
    _write_csv(path, "k,log_res,log_mnorm,curvature,is_corner", rows)
    print(path)
    return 0


def cmd_wsvd(args):
    cfg = _config_from_args(args)
    # factorization dumps default to a small instance
    m = cfg.m if cfg.m is not None else 120
    n = cfg.n if cfg.n is not None else 101
    problem = build_problem(cfg.problem, m, n, paper_h=cfg.paper_h)
    fact = wsvd(problem.a, problem.weight)
    outdir = os.path.join(cfg.out, f"wsvd_{problem.name}_m{m}_n{n}")
    os.makedirs(outdir, exist_ok=True)
    for fname, mat in (("U", fact.u), ("V", fact.v)):
        with open(os.path.join(outdir, fname), "wb") as fh:
            fh.write(np.array(mat.shape, dtype="<i8").tobytes())
            fh.write(np.ascontiguousarray(mat, dtype="<f8").tobytes())
    _write_csv(os.path.join(outdir, "sigma.csv"), "i,sigma",
               [(str(i + 1), _fmt(s)) for i, s in enumerate(fact.sigma)])
    with open(os.path.join(outdir, "meta"), "w") as fh:
        fh.write(f"problem={problem.name}\nm={m}\nn={n}\nrank={fact.rank}\n")
    print(outdir)
    print(f"rank={fact.rank} sigma_1={fact.sigma[0]:.6e}")
    return 0


def cmd_triplets(args):
    cfg = _config_from_args(args)
    epsilon = _single(cfg.epsilons, "--epsilon")
    seed = _single(cfg.seeds, "--seed")
    problem = build_problem(cfg.problem, cfg.m, cfg.n, paper_h=cfg.paper_h)
    noisy = add_noise(problem, epsilon, seed)
    steps = cfg.max_iter if cfg.max_iter is not None else 30
    state = wgkb_init(problem.a, problem.weight, noisy.b)
    while not state.terminated and state.k < steps:
        wgkb_step(state, problem.a, problem.weight, reorth=cfg.reorth)
    count = min(args.count, state.k)
    if count < 1:
        raise UsageError("recursion terminated before producing any triplets")
    trips = approx_triplets(state, count)
    tol = args.triplet_tol * trips[0].sigma_bar
    rows = [(str(i + 1), _fmt(t.sigma_bar), _fmt(t.residual_bound),
             "true" if t.residual_bound <= tol else "false")
            for i, t in enumerate(trips)]
    path = os.path.join(cfg.out, f"triplets_{problem.name}.csv")
    _write_csv(path, "i,sigma_bar,residual_bound,accepted", rows)
    print(path)
    return 0


_COMMANDS = {
    "gen": cmd_gen,
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "lcurve": cmd_lcurve,
    "wsvd": cmd_wsvd,
    "triplets": cmd_triplets,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except (UsageError, ValueError) as exc:
        print(f"wsvd: invalid configuration: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001  runtime failure -> exit 2
        print(f"wsvd: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
