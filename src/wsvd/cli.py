"""Experiment command line.

Subcommands: gen (write a problem directory), solve (one method + stopping
rule), sweep (epsilon x seed x method x rule grid), lcurve (corner
diagnostics), wsvd (dump a factorization), triplets (approximate weighted
singular triplets with residual bounds).

Every command runs on the library's single paths: solve, sweep and lcurve
share one cell (_cell), triplets steps the recursion with wgkb_run, and gen
and wsvd write their binary files with problems.write_array.

Each subcommand accepts only the options it reads, each declared once in
OPTIONS: gen takes --problem, --m, --n, --epsilon, --seed and --out; wsvd
takes --problem, --m, --n and --out; lcurve and triplets take gen's and
--max-iter; solve and sweep take all ten.  solve --in reads its instance
from the directory alone, so --in with any of gen's first five exits 1.
Any other option exits 1.

Exit codes: 0 success, 1 invalid configuration, 2 runtime failure.
"""

import argparse
import itertools
import os
import sys
import time

import numpy as np

from .bidiag import approx_triplets, wgkb_run
from .decomposition import covers, wsvd
from .problems import (PROBLEM_NAMES, add_noise, build_problem, load_problem,
                       save_problem, write_array)
from .regularization import (DEFAULT_TAU, RULES, RunRecord, StoppingRule, _rel_err,
                             lcurve_curvature, lsqr_baseline, select, spr_solve,
                             tikhonov_opt, twsvd_record)
from .solver import wlsqr_run  # noqa: F401  not called here; bench/tracing.py wraps this name
from .weights import _sqrt_dot

METHODS = ("wlsqr", "lsqr", "tikh-opt", "twsvd")

# the noise levels of the reference sweep, largest first
SWEEP_EPSILONS = (3.2e-2, 1.6e-2, 8e-3, 4e-3, 2e-3, 1e-3)


# every option, keyed by its dest: (flag, argparse keywords, default).  The
# list defaults are tuples, so no parse shares a mutable default, and sweep
# writes these dests, in this order, to its config file.
OPTIONS = {
    "problem": ("--problem", {"choices": PROBLEM_NAMES}, "shaw"),
    "m": ("--m", {"type": int}, None),
    "n": ("--n", {"type": int}, None),
    "epsilons": ("--epsilon", {"metavar": "EPSILON", "type": float, "nargs": "+",
                               "help": "noise level(s) ||e||/||b_exact||"}, (1e-3,)),
    "seeds": ("--seed", {"metavar": "SEED", "type": int, "nargs": "+"}, (0,)),
    "rules": ("--rule", {"choices": RULES, "nargs": "+"}, ("dp",)),
    "methods": ("--method", {"choices": METHODS, "nargs": "+"}, ("wlsqr",)),
    "tau": ("--tau", {"type": float,
                      "help": f"discrepancy safety factor (default {DEFAULT_TAU})"},
            DEFAULT_TAU),
    "max_iter": ("--max-iter", {"type": int}, None),
    "out": ("--out", {"help": "output directory (default .)"}, "."),
}
# the options of one noisy instance, all that gen reads but --out
_INSTANCE = ("problem", "m", "n", "epsilons", "seeds")


def _build_parser():
    parser = argparse.ArgumentParser(prog="wsvd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    cmds = {}
    for name, run, dests, text in (
            ("gen", cmd_gen, (*_INSTANCE, "out"), "generate a problem directory"),
            ("solve", cmd_solve, OPTIONS, "run one method and stopping rule"),
            ("sweep", cmd_sweep, OPTIONS, "grid over epsilon x seed x method x rule"),
            ("lcurve", cmd_lcurve, (*_INSTANCE, "out", "max_iter"),
             "L-curve points, curvature, and corner"),
            ("wsvd", cmd_wsvd, ("problem", "m", "n", "out"),
             "dump the weighted SVD of a small problem"),
            ("triplets", cmd_triplets, (*_INSTANCE, "out", "max_iter"),
             "approximate weighted singular triplets")):
        cmds[name] = sub.add_parser(name, help=text)
        cmds[name].set_defaults(run=run)
        for dest in dests:
            flag, kwargs, default = OPTIONS[dest]
            cmds[name].add_argument(flag, dest=dest, default=default, **kwargs)
    cmds["sweep"].set_defaults(epsilons=SWEEP_EPSILONS)
    # None marks an instance option solve was not given, which --in refuses;
    # cmd_solve puts the OPTIONS default in its place
    cmds["solve"].set_defaults(**dict.fromkeys(_INSTANCE))
    cmds["solve"].add_argument("--in", dest="indir",
                               help="load a generated problem directory instead of "
                                    "building; --problem, --m, --n, --epsilon or --seed "
                                    "given with it exits 1")
    cmds["lcurve"].add_argument("--points",
                                help="CSV of k,res_norm,sol_mnorm to analyze instead of running")
    cmds["triplets"].add_argument("--count", type=int, default=6)
    cmds["triplets"].add_argument("--triplet-tol", type=float, default=1e-8,
                                  help="acceptance threshold relative to sigma_bar_1")
    return parser


def _text(value):
    """value as sweep's config file writes it: floats by repr, lists
    comma-separated."""
    if isinstance(value, (list, tuple)):
        return ",".join(map(_text, value))
    return repr(value) if isinstance(value, float) else str(value)


def _single(values, what):
    if len(values) != 1:
        raise ValueError(f"exactly one {what} expected, got {values}")
    return values[0]


def _fmt(x):
    return f"{x:.12e}"


def _fmt_log(x):
    """log(x), or nan (as in the curvature column) where x is not a finite
    positive norm, e.g. the zero residual of a consistent system."""
    return _fmt(np.log(x)) if np.isfinite(x) and x > 0 else "nan"


def _write_csv(path, header, rows):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


# -- the cell shared by solve, sweep and lcurve --------------------------------

def _rules(args, problem, noisy):
    """The stopping rules of args for one noisy instance, or none when its
    only method is tikh-opt, which picks its parameter by the error.
    StoppingRule raises ValueError for a rule it cannot apply (a dp with a
    tau that is not finite and > 1 or without noise, an oracle without
    x_true), which exits 1 before any row is written."""
    if all(method == "tikh-opt" for method in args.methods):
        return []
    noise = _sqrt_dot(noisy.e)
    return [StoppingRule(kind, tau=args.tau, noise_norm=noise, x_true=problem.x_true)
            for kind in args.rules]


def _cell(method, rules, problem, noisy, args, cache):
    """Each (label, stop_k, rel_err, result) of method on one noisy
    instance, one per rule in order.  It is a generator, so a rule that
    raises keeps the rows of the rules before it.

    Only twsvd and tikh-opt factor.  They take cache's factorization when it
    was made or accepted for this noisy, or when covers accepts it for
    noisy.b; otherwise they factor from noisy.b into cache.  tikh-opt gives
    one row whatever the rules: its x, labelled oracle, since the
    error-optimal parameter is the oracle's choice.  The other methods run
    one history from spr_solve, lsqr_baseline or twsvd_record: under the
    rule when there is exactly one, so that dp stops at its crossing, and
    else to max_iter.  Every rule selects its record from that one history;
    rel_err is nan at index 0, where no iterate ran.  A built or loaded
    problem always carries x_true, so rel_errors is set.  A cell with one
    rule thus gives the rows that a cell with several rules gives for it.
    """
    a, b, x_true = problem.a, noisy.b, problem.x_true
    if method in ("twsvd", "tikh-opt") and cache.get("noisy") is not noisy:
        if "fact" not in cache or not covers(cache["fact"], a, b):
            cache["fact"] = wsvd(a, problem.weight, start=b)
        cache["noisy"] = noisy
    if method == "tikh-opt":
        _, x = tikhonov_opt(cache["fact"], b, x_true)
        yield "oracle", 0, _rel_err(x, x_true, _sqrt_dot(x_true)), x
        return
    run = rules[0] if len(rules) == 1 else StoppingRule("maxiter")
    if method == "twsvd":
        history = twsvd_record(cache["fact"], b, x_true, args.max_iter)
    elif method == "lsqr":
        history = lsqr_baseline(a, b, run, max_iter=args.max_iter, x_true=x_true)[1]
    else:
        history = spr_solve(a, problem.weight, b, run, max_iter=args.max_iter,
                            x_true=x_true)[1]
    for rule in rules:
        record = select(rule, history)
        k = record.stop_index
        yield rule.kind, k, float(record.rel_errors[k - 1]) if k >= 1 else float("nan"), record


# -- subcommands --------------------------------------------------------------

def _instance(args):
    """(problem, noisy) built for args' problem and sizes with its one
    epsilon and seed, which noisy carries."""
    problem = build_problem(args.problem, args.m, args.n)
    return problem, add_noise(problem, _single(args.epsilons, "--epsilon"),
                              _single(args.seeds, "--seed"))


def cmd_gen(args):
    problem, noisy = _instance(args)
    tag = (f"{args.problem}_m{args.m or 'def'}_n{args.n or 'def'}"
           f"_eps{noisy.epsilon:g}_seed{noisy.seed}")
    path = os.path.join(args.out, tag)
    save_problem(path, problem, noisy)
    print(path)
    return 0


def cmd_solve(args):
    """One cell.  With --in, the instance is the directory's alone: any of
    --problem, --m, --n, --epsilon and --seed given with it exits 1, and
    the files are named after its stored epsilon and seed, so solves of
    two directories never clash."""
    method = _single(args.methods, "--method")
    _single(args.rules, "--rule")
    given = [dest for dest in _INSTANCE if getattr(args, dest) is not None]
    if args.indir is not None and given:
        raise ValueError("--in reads the instance from its directory; drop "
                         + ", ".join(OPTIONS[dest][0] for dest in given))
    vars(args).update({dest: OPTIONS[dest][2] for dest in _INSTANCE if dest not in given})
    problem, noisy = load_problem(args.indir) if args.indir is not None else _instance(args)
    rules = _rules(args, problem, noisy)

    t0 = time.perf_counter()
    [(label, stop_k, rel_err, result)] = _cell(method, rules, problem, noisy, args, {})
    if method == "tikh-opt":
        rows = [("0", _fmt(_sqrt_dot(problem.a @ result - noisy.b)),
                 _fmt(problem.weight.norm(result)), _fmt(rel_err))]
    else:
        rows = [(str(k), _fmt(result.residual_norms[k - 1]),
                 _fmt(result.solution_m_norms[k - 1]), _fmt(result.rel_errors[k - 1]))
                for k in result.ks]
    wall_ms = (time.perf_counter() - t0) * 1e3

    tag = f"{problem.name}_{method}_{label}_eps{noisy.epsilon:g}_seed{noisy.seed}"
    _write_csv(os.path.join(args.out, f"run_{tag}.csv"),
               "k,res_norm,sol_mnorm,rel_err", rows)
    summary = f"{problem.name},{label},{method},{stop_k},{_fmt(rel_err)},{wall_ms:.1f}"
    _write_csv(os.path.join(args.out, f"summary_{tag}.csv"),
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
    """Runs each (epsilon, seed, method) cell once, in turn; the epsilons
    default to SWEEP_EPSILONS.  The noise is added once per pair.  The last
    factorization made serves every pair whose b it covers (a dense one
    covers all), so a shaw or expst sweep factors once and a phillips or
    green sweep fails one Krylov attempt, then reuses the dense one.  A
    failed cell gives one row whose status is _error_status.  The config
    file lists every OPTIONS value the sweep ran with."""
    problem = build_problem(args.problem, args.m, args.n)
    cache = {}
    rows = []
    for epsilon, seed in itertools.product(args.epsilons, args.seeds):
        noisy = add_noise(problem, epsilon, seed)
        rules = _rules(args, problem, noisy)
        for method in args.methods:
            try:
                for label, k, err, _ in _cell(method, rules, problem, noisy, args, cache):
                    rows.append((epsilon, seed, method, label, k, err, "ok"))
            except Exception as exc:  # noqa: BLE001  a failed cell must not kill the sweep
                rows.append((epsilon, seed, method, "-", 0, float("nan"), _error_status(exc)))

    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    text_rows = [
        (problem.name, repr(e), str(s), m, r, str(k), _fmt(err), status)
        for (e, s, m, r, k, err, status) in rows
    ]
    path = os.path.join(args.out, f"sweep_{problem.name}.csv")
    _write_csv(path, "problem,epsilon,seed,method,rule,stop_k,rel_err,status", text_rows)
    with open(os.path.join(args.out, f"sweep_{problem.name}_config.txt"), "w") as fh:
        fh.writelines(f"{dest}={_text(getattr(args, dest))}\n" for dest in OPTIONS)
    print(path)
    return 0


def _points_record(path):
    """The RunRecord of a CSV of k,res_norm,sol_mnorm rows (a header or blank
    line is skipped; further columns are ignored).  Every row must have the
    three columns, each of which must parse, and the k column must run
    1..N, as RunRecord.ks does; ValueError names the first row where any of
    this fails."""
    with open(path) as fh:
        rows = [line.split(",") for line in map(str.strip, fh)
                if line and not line.startswith("k,")]
    parsed = []
    for i, r in enumerate(rows, 1):
        if len(r) < 3:
            raise ValueError(f"{path}: data row {i} has {len(r)} column(s); "
                             "expected k,res_norm,sol_mnorm")
        try:
            parsed.append((int(r[0]), float(r[1]), float(r[2])))
        except ValueError as exc:
            raise ValueError(f"{path}: data row {i}: {exc}") from None
    ks = np.array([r[0] for r in parsed], dtype=int)
    bad = np.flatnonzero(ks != np.arange(1, ks.size + 1))
    if bad.size:
        raise ValueError(f"{path}: data row {bad[0] + 1} has k = {ks[bad[0]]}; "
                         f"the k column must run 1..{ks.size}")
    return RunRecord(residual_norms=np.array([r[1] for r in parsed]),
                     solution_m_norms=np.array([r[2] for r in parsed]),
                     rel_errors=None, initial_residual=float("nan"),
                     stop_index=len(rows), rule="maxiter")


def cmd_lcurve(args):
    """The L-curve and the corner select picks, of a wlsqr cell under the lc
    rule or of the RunRecord that --points reads.  Fewer than 5 points, an
    empty file included, exit 1."""
    lc = StoppingRule("lc")
    if args.points is not None:
        record = select(lc, _points_record(args.points))
    else:
        problem, noisy = _instance(args)
        [(_, _, _, record)] = _cell("wlsqr", [lc], problem, noisy, args, {})
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
    path = os.path.join(args.out, "lcurve.csv")
    _write_csv(path, "k,log_res,log_mnorm,curvature,is_corner", rows)
    print(path)
    return 0


def cmd_wsvd(args):
    # factorization dumps default to a small instance
    m = args.m if args.m is not None else 120
    n = args.n if args.n is not None else 101
    problem = build_problem(args.problem, m, n)
    fact = wsvd(problem.a, problem.weight)
    outdir = os.path.join(args.out, f"wsvd_{problem.name}_m{m}_n{n}")
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
    """approx_triplets of a wgkb_run of --max-iter steps (default 30).
    --count below 1, or a --triplet-tol that is not finite and >= 0, exits 1
    with nothing written."""
    steps = args.max_iter if args.max_iter is not None else 30
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    if not 0 <= args.triplet_tol < np.inf:
        raise ValueError(f"--triplet-tol must be finite and >= 0, got {args.triplet_tol}")
    problem, noisy = _instance(args)
    state = wgkb_run(problem.a, problem.weight, noisy.b, steps)
    if state.k == 0:
        raise ValueError("recursion terminated before producing any triplets")
    trips = approx_triplets(state, min(args.count, state.k))
    tol = args.triplet_tol * trips[0].sigma_bar
    rows = [(str(i + 1), _fmt(t.sigma_bar), _fmt(t.residual_bound),
             "true" if t.residual_bound <= tol else "false")
            for i, t in enumerate(trips)]
    path = os.path.join(args.out, f"triplets_{problem.name}.csv")
    _write_csv(path, "i,sigma_bar,residual_bound,accepted", rows)
    print(path)
    return 0


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return 1 if exc.code else 0
    try:
        # the checks argparse cannot make, before any work
        if getattr(args, "max_iter", None) is not None and args.max_iter < 1:
            raise ValueError(f"--max-iter must be >= 1, got {args.max_iter}")
        for dest, (flag, kwargs, _) in OPTIONS.items():
            values = getattr(args, dest, None) if "nargs" in kwargs else None
            if values and len(set(values)) < len(values):
                raise ValueError(f"{flag} repeats a value, got {list(values)}")
        return args.run(args)
    except ValueError as exc:  # the checks above, StoppingRule, build_problem and the cmd_*
        print(f"wsvd: invalid configuration: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001  runtime failure -> exit 2
        print(f"wsvd: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
