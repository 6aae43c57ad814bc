"""The benchmark's workloads, their output checks and their fingerprints.

Each workload drives only the public library API or the ``wsvd`` command
line entry point (``wsvd.cli.main``).  A workload object has three steps:

* ``setup()`` prepares the inputs of the timed calls;
* ``run_pass()`` is one timed pass, returning the raw outputs;
* ``check(raw)`` runs outside the timed phase and turns the raw outputs into
  one ``Outcome`` per regularized solution, never changing the data.

An ``Outcome`` carries the solution's fingerprint (problem, method, rule,
epsilon, seed, stop index, terminated_at, rel_err), whether it passed the
output checks, and whether it agreed with an independent recomputation.
"""

import contextlib
import csv
import io
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import wsvd
import wsvd.cli
from wsvd.problems import TABLE_DIMS

KRYLOV_EPSILON = 1e-3
RULES = ("dp", "lc", "oracle")
# The noise levels of the CLI's default sweep, largest first.  They are
# spelled out here so that a sweep that drops or changes a level is caught.
SWEEP_EPSILONS = (3.2e-2, 1.6e-2, 8e-3, 4e-3, 2e-3, 1e-3)
SWEEP_MAX_ITER = 100

# recurrence residual against ||A x - b||_2, relative
RESIDUAL_RTOL = 1e-6
# CLI row against the one-at-a-time library recomputation, relative
CLI_RTOL = 1e-10


@dataclass
class Outcome:
    """One regularized solution: its fingerprint and its check results.

    ok is False when the solution failed an output check (it raised, is not
    finite, its recurrence residual disagrees with the true residual, or it
    is worse than x = 0 while its record says satisfied).  delivered is False
    when the program gave no solution (it raised, or the CLI row is missing
    or not "ok").  consistent is False when a CLI row disagrees with the
    library recomputation of it.
    """

    fingerprint: dict
    rel_err: float
    ok: bool
    delivered: bool = True
    consistent: bool = True
    reason: str = ""


def fingerprint(problem, method, rule, epsilon, seed, stop, terminated_at, rel_err):
    return {"problem": problem, "method": method, "rule": rule,
            "epsilon": epsilon, "seed": seed, "stop": stop,
            "terminated_at": terminated_at, "rel_err": repr(float(rel_err))}


def scaled_dims(name, scale):
    """(m, n) at a fraction of the table size; (None, None) means the table
    size itself, i.e. the library's defaults.  n stays odd for Simpson."""
    if scale == 1:
        return None, None
    m, n = TABLE_DIMS[name]
    return max(int(round(m * scale)), 9), 2 * max(int(round(n * scale / 2)), 4) + 1


def residual_gap(a, b, x, recurrence):
    """|recurrence residual - ||A x - b||_2| relative to the true residual."""
    true = float(np.linalg.norm(a @ x - b))
    return abs(recurrence - true) / true


def rel_error(x, x_true):
    return float(np.linalg.norm(x - x_true) / np.linalg.norm(x_true))


def _make_rule(kind, problem, noisy):
    if kind == "dp":
        return wsvd.StoppingRule("dp", noise_norm=float(np.linalg.norm(noisy.e)))
    if kind == "oracle":
        return wsvd.StoppingRule("oracle", x_true=problem.x_true)
    return wsvd.StoppingRule(kind)


class KrylovTable:
    """Library spr_solve with the problem's weight (the wlsqr method) on all
    four problems, epsilon 1e-3, rules dp, lc and oracle at the default
    max_iter: 12 solves per pass, each owning its matrix."""

    name = "krylov-table"

    def __init__(self, seed, scale=1):
        self.seed = seed
        self.scale = scale
        self.cases = []

    @property
    def solutions_per_pass(self):
        return len(TABLE_DIMS) * len(RULES)

    def setup(self):
        self.cases = []  # free the previous set before building the next
        cases = []
        for name in TABLE_DIMS:
            problem = wsvd.build_problem(name, *scaled_dims(name, self.scale))
            cases.append((problem, wsvd.add_noise(problem, KRYLOV_EPSILON, self.seed)))
        self.cases = cases

    def run_pass(self):
        raw = []
        for problem, noisy in self.cases:
            for kind in RULES:
                rule = _make_rule(kind, problem, noisy)
                try:
                    out = wsvd.spr_solve(problem.a, problem.weight, noisy.b, rule)
                except Exception as exc:  # noqa: BLE001  a raised solve is a failed solution
                    out = exc
                raw.append((problem, noisy, kind, out))
        return raw

    def check(self, raw):
        return [self._check_one(*item) for item in raw]

    @staticmethod
    def useful_steps(outcomes):
        """Iterations the returned solutions needed; each solve is its own run."""
        return sum(o.fingerprint["stop"] or 0 for o in outcomes)

    def _check_one(self, problem, noisy, kind, out):
        if isinstance(out, Exception):
            fp = fingerprint(problem.name, "wlsqr", kind, KRYLOV_EPSILON, self.seed,
                             None, None, math.nan)
            return Outcome(fp, math.nan, ok=False, delivered=False, reason=f"raised {out!r}")
        x, rec = out
        k = rec.stop_index
        err = rel_error(x, problem.x_true)
        fp = fingerprint(problem.name, "wlsqr", kind, KRYLOV_EPSILON, self.seed,
                         k, rec.terminated_at, err)
        if not np.all(np.isfinite(x)):
            return Outcome(fp, err, ok=False, reason="x is not finite")
        recurrence = rec.residual_norms[k - 1] if k >= 1 else rec.initial_residual
        gap = residual_gap(problem.a, noisy.b, x, recurrence)
        if not gap <= RESIDUAL_RTOL:
            return Outcome(fp, err, ok=False, reason=f"residual gap {gap:.3e}")
        if err > 1 and rec.satisfied:
            return Outcome(fp, err, ok=False, reason=f"rel_err {err:.3e} marked satisfied")
        return Outcome(fp, err, ok=True)


class Sweep:
    """``wsvd sweep`` through the CLI entry point, one call per pass.  The CLI
    builds its own problem inside the call, as it does for a user."""

    def __init__(self, name, problem, methods, seed, scale=1, max_iter=None):
        self.name = name
        self.problem_name = problem
        self.methods = methods
        self.seed = seed
        self.scale = scale
        self.max_iter = max_iter
        self.outdir = None
        self._reference = None
        self._checked = {}

    @property
    def solutions_per_pass(self):
        per_eps = sum(1 if m == "tikh-opt" else len(RULES) for m in self.methods)
        return len(SWEEP_EPSILONS) * per_eps

    def argv(self):
        args = ["sweep", "--problem", self.problem_name, "--method", *self.methods,
                "--rule", *RULES, "--seed", str(self.seed), "--out", str(self.outdir)]
        if self.max_iter is not None:
            args += ["--max-iter", str(self.max_iter)]
        m, n = scaled_dims(self.problem_name, self.scale)
        if m is not None:
            args += ["--m", str(m), "--n", str(n)]
        return args

    def setup(self):
        """Import the package in a fresh interpreter, as every ``wsvd sweep``
        does; the time inside the CLI call is the timed phase."""
        src = Path(wsvd.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        subprocess.run([sys.executable, "-c", "import wsvd.cli"], env=env, check=True)

    def run_pass(self):
        with contextlib.redirect_stdout(io.StringIO()):
            code = wsvd.cli.main(self.argv())
        path = Path(self.outdir) / f"sweep_{self.problem_name}.csv"
        text = path.read_text() if code == 0 and path.exists() else ""
        return code, text

    def check(self, raw):
        code, text = raw
        if (code, text) not in self._checked:
            self._checked[(code, text)] = self._check_text(code, text)
        return self._checked[(code, text)]

    def _check_text(self, code, text):
        rows = {}
        for row in csv.DictReader(io.StringIO(text)):
            key = (float(row["epsilon"]), row["method"], row["rule"])
            rows[key] = row
        reference = self.reference()
        outcomes = []
        for key, (stop, err, terminated_at) in reference.items():
            eps, method, rule = key
            row = rows.get(key)
            if row is None or row["status"] != "ok":
                status = "missing" if row is None else row["status"]
                fp = fingerprint(self.problem_name, method, rule, eps, self.seed,
                                 None, None, math.nan)
                outcomes.append(Outcome(fp, math.nan, ok=False, delivered=False,
                                        reason=f"exit {code}, row {status}"))
                continue
            row_stop, row_err = int(row["stop_k"]), float(row["rel_err"])
            fp = fingerprint(self.problem_name, method, rule, eps, self.seed,
                             row_stop, terminated_at, row_err)
            same = row_stop == stop and abs(row_err - err) <= CLI_RTOL * abs(err)
            reason = "" if same else f"library gives stop {stop}, rel_err {err!r}"
            outcomes.append(Outcome(fp, row_err, ok=same, consistent=same, reason=reason))
        return outcomes

    @staticmethod
    def useful_steps(outcomes):
        """Iterations the rows needed: the rules of one (epsilon, method) cell
        select from one Krylov run, which needed its largest stop index."""
        need = {}
        for o in outcomes:
            fp = o.fingerprint
            if fp["method"] in ("wlsqr", "lsqr"):
                key = (fp["epsilon"], fp["method"])
                need[key] = max(need.get(key, 0), fp["stop"] or 0)
        return sum(need.values())

    def reference(self):
        """Every row recomputed one at a time with the library: computed once
        and shared by all passes, since the inputs do not change."""
        if self._reference is None:
            problem = wsvd.build_problem(self.problem_name,
                                         *scaled_dims(self.problem_name, self.scale))
            fact = None
            ref = {}
            for eps in SWEEP_EPSILONS:
                noisy = wsvd.add_noise(problem, eps, self.seed)
                for method in self.methods:
                    if method in ("wlsqr", "lsqr"):
                        rows = self._krylov_reference(problem, noisy, method)
                    else:
                        if fact is None:
                            fact = wsvd.wsvd(problem.a, problem.weight)
                        rows = self._spectral_reference(problem, noisy, method, fact)
                    ref.update({(eps, method, rule): v for rule, v in rows.items()})
            self._reference = ref
        return self._reference

    def _krylov_reference(self, problem, noisy, method):
        weight = (problem.weight if method == "wlsqr"
                  else wsvd.WeightMatrix.identity(problem.n))
        out = {}
        x, rec = wsvd.spr_solve(problem.a, weight, noisy.b,
                                _make_rule("dp", problem, noisy), max_iter=self.max_iter)
        out["dp"] = (rec.stop_index, rel_error(x, problem.x_true), rec.terminated_at)
        x, rec = wsvd.spr_solve(problem.a, weight, noisy.b,
                                _make_rule("oracle", problem, noisy), max_iter=self.max_iter)
        out["oracle"] = (rec.stop_index, rel_error(x, problem.x_true), rec.terminated_at)
        # spr_solve's lc rule is stop_lcurve on this same history; the iterate
        # errors of the oracle run are the lc candidates' errors
        k = wsvd.stop_lcurve(rec.residual_norms, rec.solution_m_norms).index
        out["lc"] = (k, float(rec.rel_errors[k - 1]), rec.terminated_at)
        return out

    def _spectral_reference(self, problem, noisy, method, fact):
        if method == "tikh-opt":
            _, x = wsvd.tikhonov_opt(fact, noisy.b, problem.x_true)
            return {"oracle": (0, rel_error(x, problem.x_true), None)}
        xs = [wsvd.twsvd_solution(fact, noisy.b, k) for k in range(1, fact.rank + 1)]
        res = np.array([np.linalg.norm(problem.a @ x - noisy.b) for x in xs])
        mnorms = np.array([problem.weight.norm(x) for x in xs])
        errs = np.array([rel_error(x, problem.x_true) for x in xs])
        dp = _make_rule("dp", problem, noisy)
        k_dp, _ = wsvd.stop_dp(np.concatenate([[np.linalg.norm(noisy.b)], res]),
                               dp.tau, dp.noise_norm)
        ks = {"dp": k_dp if k_dp is not None else len(res),
              "lc": wsvd.stop_lcurve(res, mnorms).index,
              "oracle": wsvd.stop_oracle(errs)}
        return {rule: (k, float(errs[k - 1]), None) for rule, k in ks.items()}


def make_workload(name, seed, scale=1):
    # krylov-table: every solve owns its A, so per-step Krylov costs dominate
    # and batching across right-hand sides cannot help; shaw and expst break
    # down, which is where blown-up "satisfied" iterates show.
    if name == "krylov-table":
        return KrylovTable(seed, scale)
    # sweep-phillips: 12 Krylov runs (6 noise levels x wlsqr, lsqr) share one
    # A, the case multi-right-hand-side batching needs; the CLI runs each to
    # --max-iter and selects all three rules from one history.
    if name == "sweep-phillips":
        return Sweep(name, "phillips", ("wlsqr", "lsqr"), seed, scale,
                     max_iter=SWEEP_MAX_ITER)
    # spectral-shaw: one dense wsvd and 12 spectral cells, never entering
    # bidiag or solver, so a Krylov change should leave it unchanged.
    if name == "spectral-shaw":
        return Sweep(name, "shaw", ("twsvd", "tikh-opt"), seed, scale)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


WORKLOADS = ("krylov-table", "sweep-phillips", "spectral-shaw")


@contextlib.contextmanager
def work_dir(root, name):
    """A fresh output directory inside the checkout, removed afterwards."""
    path = Path(root) / ".bench_out" / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
