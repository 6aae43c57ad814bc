"""Experiment command line.

Subcommands: gen (write a problem directory), solve (one method + stopping
rule), sweep (epsilon x seed x method x rule grid), lcurve (corner
diagnostics), wsvd (dump a factorization), triplets (approximate weighted
singular triplets with residual bounds).

Every command runs on the library's single paths: solve, sweep and lcurve
take their histories from spr_solve or twsvd_record and their stop indices
from select, triplets steps the recursion with wgkb_run, and gen and wsvd
write their binary files with problems.write_array.

Exit codes: 0 success, 1 invalid configuration, 2 runtime failure.
"""

import argparse
import itertools
import os
import sys
import time
from dataclasses import dataclass, field, fields
from typing import get_args, get_origin

import numpy as np

from .bidiag import approx_triplets, wgkb_run
from .decomposition import covers, wsvd
from .problems import (PROBLEM_NAMES, add_noise, build_problem, load_problem,
                       save_problem, write_array)
from .regularization import (DEFAULT_TAU, RULES, RunRecord, StoppingRule,
                             lcurve_curvature, select, spr_solve, tikhonov_opt,
                             twsvd_record)
from .solver import wlsqr_run  # noqa: F401  not called here; bench/tracing.py wraps this name
from .weights import WeightMatrix

METHODS = ("wlsqr", "lsqr", "tikh-opt", "twsvd")

# the noise levels of the reference sweep, largest first
SWEEP_EPSILONS = (3.2e-2, 1.6e-2, 8e-3, 4e-3, 2e-3, 1e-3)


@dataclass
class ExperimentConfig:
    """Full experiment configuration; round-trips losslessly through text."""

    problem: str = "shaw"
    m: int | None = None
    n: int | None = None
    epsilons: list[float] = field(default_factory=lambda: [1e-3])
    seeds: list[int] = field(default_factory=lambda: [0])
    rules: list[str] = field(default_factory=lambda: ["dp"])
    methods: list[str] = field(default_factory=lambda: ["wlsqr"])
    tau: float = DEFAULT_TAU
    max_iter: int | None = None
    reorth: bool = True
    paper_h: bool = False
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
        """The config of to_text's key=value lines.  Each value is parsed by
        its field's annotation; a key that names no field (such as the jobs
        line of older configs) is skipped."""
        raw = dict(line.strip().partition("=")[::2] for line in text.splitlines()
                   if line.strip())
        return cls(**{f.name: _parse(f.type, f.name, raw[f.name])
                      for f in fields(cls) if f.name in raw})


def _parse(kind, name, text):
    """text as a value of the annotation kind.  A list[T] is comma-separated,
    an X | None reads "None" as None, and a bool must read exactly True or
    False, or ValueError names the field."""
    if get_origin(kind) is list:
        return [_parse(get_args(kind)[0], name, x) for x in text.split(",") if x]
    if type(None) in get_args(kind):
        return None if text == "None" else _parse(get_args(kind)[0], name, text)
    if kind is not bool:
        return kind(text)
    if text not in ("True", "False"):
        raise ValueError(f"config field {name}: expected True or False, got {text!r}")
    return text == "True"


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    # each dest is an ExperimentConfig field; an option left out is None and
    # keeps the field's default
    common.add_argument("--problem", choices=PROBLEM_NAMES)
    common.add_argument("--m", type=int)
    common.add_argument("--n", type=int)
    common.add_argument("--epsilon", dest="epsilons", metavar="EPSILON", type=float,
                        nargs="+", help="noise level(s) ||e||/||b_exact||")
    common.add_argument("--seed", dest="seeds", metavar="SEED", type=int, nargs="+")
    common.add_argument("--rule", dest="rules", choices=RULES, nargs="+")
    common.add_argument("--tau", type=float,
                        help=f"discrepancy safety factor (default {DEFAULT_TAU})")
    common.add_argument("--max-iter", type=int)
    common.add_argument("--method", dest="methods", choices=METHODS, nargs="+")
    common.add_argument("--reorth", choices=("on", "off"), help="default on")
    common.add_argument("--out", help="output directory (default .)")
    common.add_argument("--paper-h", action="store_true", default=None,
                        help="use the verbatim printed quadrature constant (t2-t1)/n")

    parser = argparse.ArgumentParser(prog="wsvd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    cmds = {}
    for name, run, text in (
            ("gen", cmd_gen, "generate a problem directory"),
            ("solve", cmd_solve, "run one method and stopping rule"),
            ("sweep", cmd_sweep, "grid over epsilon x seed x method x rule"),
            ("lcurve", cmd_lcurve, "L-curve points, curvature, and corner"),
            ("wsvd", cmd_wsvd, "dump the weighted SVD of a small problem"),
            ("triplets", cmd_triplets, "approximate weighted singular triplets")):
        cmds[name] = sub.add_parser(name, parents=[common], help=text)
        cmds[name].set_defaults(run=run)
    cmds["solve"].add_argument("--in", dest="indir",
                               help="load a generated problem directory instead of building")
    cmds["lcurve"].add_argument("--points",
                                help="CSV of k,res_norm,sol_mnorm to analyze instead of running")
    cmds["triplets"].add_argument("--count", type=int, default=6)
    cmds["triplets"].add_argument("--triplet-tol", type=float, default=1e-8,
                                  help="acceptance threshold relative to sigma_bar_1")
    return parser


def _config_from_args(args):
    given = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
             if getattr(args, f.name) is not None}
    if "reorth" in given:
        given["reorth"] = given["reorth"] == "on"
    return ExperimentConfig(**given)


def _single(values, what):
    if len(values) != 1:
        raise ValueError(f"exactly one {what} expected, got {values}")
    return values[0]


def _fmt(x):
    return f"{x:.12e}"


def _fmt_log(x):
    """log(x), or nan (as in the curvature column) where x is not a finite
    positive norm, e.g. the zero residual of a breakdown step."""
    return _fmt(np.log(x)) if np.isfinite(x) and x > 0 else "nan"


def _write_csv(path, header, rows):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


# -- histories shared by solve and sweep -------------------------------------

def _rules(cfg, problem, noisy):
    """The stopping rules of cfg for one noisy instance.  StoppingRule raises
    ValueError for a rule it cannot apply (a tau <= 1 or a noise-free dp, an
    oracle without x_true), which exits 1 before any row is written."""
    noise = float(np.linalg.norm(noisy.e))
    return [StoppingRule(kind, tau=cfg.tau, noise_norm=noise, x_true=problem.x_true)
            for kind in cfg.rules]


def _history(method, rule, problem, noisy, cfg, fact):
    """The RunRecord of a wlsqr, lsqr or twsvd run under rule; twsvd reads
    the factorization fact."""
    if method == "twsvd":
        return select(rule, twsvd_record(fact, noisy.b, problem.x_true, cfg.max_iter))
    weight = problem.weight if method == "wlsqr" else WeightMatrix.identity(problem.n)
    return spr_solve(problem.a, weight, noisy.b, rule, max_iter=cfg.max_iter,
                     reorth=cfg.reorth, x_true=problem.x_true)[1]


def _stop_error(record):
    """rel_err of the chosen iterate; nan at index 0, where no iterate ran.
    A built or loaded problem always carries x_true, so rel_errors is set."""
    k = record.stop_index
    return float(record.rel_errors[k - 1]) if k >= 1 else float("nan")


# -- subcommands --------------------------------------------------------------

def _instance(cfg, indir=None):
    """(epsilon, seed, problem, noisy) for the one epsilon and seed of cfg;
    the problem and its noisy data are loaded from indir when it is given."""
    epsilon = _single(cfg.epsilons, "--epsilon")
    seed = _single(cfg.seeds, "--seed")
    if indir is not None:
        return epsilon, seed, *load_problem(indir)
    problem = build_problem(cfg.problem, cfg.m, cfg.n, paper_h=cfg.paper_h)
    return epsilon, seed, problem, add_noise(problem, epsilon, seed)


def cmd_gen(args):
    cfg = _config_from_args(args)
    epsilon, seed, problem, noisy = _instance(cfg)
    tag = f"{cfg.problem}_m{cfg.m or 'def'}_n{cfg.n or 'def'}_eps{epsilon:g}_seed{seed}"
    path = os.path.join(cfg.out, tag)
    save_problem(path, problem, noisy)
    print(path)
    return 0


def cmd_solve(args):
    cfg = _config_from_args(args)
    method = _single(cfg.methods, "--method")
    rule_kind = _single(cfg.rules, "--rule")
    epsilon, seed, problem, noisy = _instance(cfg, args.indir)
    (rule,) = _rules(cfg, problem, noisy)

    t0 = time.perf_counter()
    fact = None
    if method in ("twsvd", "tikh-opt"):
        fact = wsvd(problem.a, problem.weight, start=noisy.b)
    if method == "tikh-opt":
        _, x = tikhonov_opt(fact, noisy.b, problem.x_true)
        rel_err = float(np.linalg.norm(x - problem.x_true) / np.linalg.norm(problem.x_true))
        rows = [("0", _fmt(np.linalg.norm(problem.a @ x - noisy.b)),
                 _fmt(problem.weight.norm(x)), _fmt(rel_err))]
        stop_k = 0
    else:
        record = _history(method, rule, problem, noisy, cfg, fact)
        rows = [(str(k), _fmt(record.residual_norms[k - 1]),
                 _fmt(record.solution_m_norms[k - 1]), _fmt(record.rel_errors[k - 1]))
                for k in record.ks]
        stop_k, rel_err = record.stop_index, _stop_error(record)
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


def _error_status(exc):
    """The status cell of a failed row: type and message, with the commas
    and line breaks that would split or end the CSV row replaced."""
    msg = " ".join(str(exc).replace(",", ";").split())
    return f"error: {type(exc).__name__}: {msg}" if msg else f"error: {type(exc).__name__}"


def cmd_sweep(args):
    cfg = _config_from_args(args)
    if args.epsilons is None:
        cfg.epsilons = list(SWEEP_EPSILONS)
    problem = build_problem(cfg.problem, cfg.m, cfg.n, paper_h=cfg.paper_h)
    # The spectral rows of a pair share one factorization.  The sweep keeps
    # the last one it made and reuses it for every pair whose b it covers (a
    # dense one covers every b); any other pair factors from its own b.
    last = None
    rows = []
    for epsilon, seed in itertools.product(cfg.epsilons, cfg.seeds):
        noisy = add_noise(problem, epsilon, seed)
        rules = _rules(cfg, problem, noisy)
        fact = None
        for method in cfg.methods:
            try:
                if method in ("tikh-opt", "twsvd") and fact is None:
                    if last is None or not covers(last, problem.a, noisy.b):
                        last = wsvd(problem.a, problem.weight, start=noisy.b)
                    fact = last
                if method == "tikh-opt":
                    _, x = tikhonov_opt(fact, noisy.b, problem.x_true)
                    err = np.linalg.norm(x - problem.x_true) / np.linalg.norm(problem.x_true)
                    rows.append((epsilon, seed, method, "oracle", 0, float(err), "ok"))
                    continue
                # every rule selects from the one maxiter history of the cell
                record = _history(method, StoppingRule("maxiter"), problem, noisy, cfg, fact)
                for rule in rules:
                    chosen = select(rule, record)
                    rows.append((epsilon, seed, method, rule.kind, chosen.stop_index,
                                 _stop_error(chosen), "ok"))
            except Exception as exc:  # noqa: BLE001  a failed cell must not kill the sweep
                rows.append((epsilon, seed, method, "-", 0, float("nan"), _error_status(exc)))

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


def _points_record(path):
    """The RunRecord of a CSV of k,res_norm,sol_mnorm rows (a header or blank
    line is skipped); ks keeps the file's k column."""
    with open(path) as fh:
        rows = [line.split(",") for line in map(str.strip, fh)
                if line and not line.startswith("k,")]
    return RunRecord(ks=np.array([int(r[0]) for r in rows], dtype=int),
                     residual_norms=np.array([float(r[1]) for r in rows]),
                     solution_m_norms=np.array([float(r[2]) for r in rows]),
                     rel_errors=None, initial_residual=float("nan"),
                     stop_index=len(rows), rule="maxiter")


def cmd_lcurve(args):
    cfg = _config_from_args(args)
    lc = StoppingRule("lc")
    if args.points is not None:
        record = select(lc, _points_record(args.points))
    else:
        _, _, problem, noisy = _instance(cfg)
        _, record = spr_solve(problem.a, problem.weight, noisy.b, lc,
                              max_iter=cfg.max_iter, reorth=cfg.reorth)
    # select gives index 0 on an empty history and raises on 1 to 4 points
    if record.ks.size == 0:
        raise ValueError("L-curve selection needs >= 5 points, got 0")
    if not record.satisfied:
        print("warning: no corner detected (history near collinear)", file=sys.stderr)
    res, mnorms = record.residual_norms, record.solution_m_norms
    curv_ks, curv = lcurve_curvature(res, mnorms)
    curv_map = dict(zip(curv_ks.tolist(), curv.tolist()))
    rows = [(str(k), _fmt_log(r), _fmt_log(mn),
             _fmt(curv_map[k]) if k in curv_map else "nan",
             "true" if k == record.stop_index else "false")
            for k, r, mn in zip(record.ks.tolist(), res, mnorms)]
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
        write_array(os.path.join(outdir, fname), mat, shape_header=True)
    _write_csv(os.path.join(outdir, "sigma.csv"), "i,sigma",
               [(str(i + 1), _fmt(s)) for i, s in enumerate(fact.sigma)])
    with open(os.path.join(outdir, "meta"), "w") as fh:
        fh.write(f"problem={problem.name}\nm={m}\nn={n}\nrank={fact.rank}\n")
    print(outdir)
    print(f"rank={fact.rank} sigma_1={fact.sigma[0]:.6e}")
    return 0


def cmd_triplets(args):
    cfg = _config_from_args(args)
    steps = cfg.max_iter if cfg.max_iter is not None else 30
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    if steps < 1:
        raise ValueError(f"--max-iter must be >= 1, got {steps}")
    _, _, problem, noisy = _instance(cfg)
    state = wgkb_run(problem.a, problem.weight, noisy.b, steps, reorth=cfg.reorth)
    if state.k == 0:
        raise ValueError("recursion terminated before producing any triplets")
    trips = approx_triplets(state, min(args.count, state.k))
    tol = args.triplet_tol * trips[0].sigma_bar
    rows = [(str(i + 1), _fmt(t.sigma_bar), _fmt(t.residual_bound),
             "true" if t.residual_bound <= tol else "false")
            for i, t in enumerate(trips)]
    path = os.path.join(cfg.out, f"triplets_{problem.name}.csv")
    _write_csv(path, "i,sigma_bar,residual_bound,accepted", rows)
    print(path)
    return 0


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return 1 if exc.code else 0
    try:
        return args.run(args)
    except ValueError as exc:  # StoppingRule, build_problem and the checks here
        print(f"wsvd: invalid configuration: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001  runtime failure -> exit 2
        print(f"wsvd: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
