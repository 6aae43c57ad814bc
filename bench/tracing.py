"""Per-layer tracing from outside the package.

The traced run wraps each module's public functions where they are looked
up, so nothing under src/ changes.  A wrapper records a span per call; a
layer's self time is its spans' duration minus the time of the spans they
caused.  The layers are the package's modules, named by the first part of
each span key.

Every wrapped name must exist (entering a Tracer raises LookupError
otherwise), and each workload names the spans it must see (``require``), so
a renamed or bypassed function fails the run instead of reading as 0 s.
"""

import functools
import importlib
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

from workloads import residual_gap

# (owner, attribute, span key): the owner is where the name is looked up.
PATCHES = (
    ("wsvd", "build_problem", "problems.build_problem"),
    ("wsvd", "add_noise", "problems.add_noise"),
    ("wsvd", "spr_solve", "regularization.spr_solve"),
    ("wsvd.cli", "main", "cli.main"),
    ("wsvd.cli", "build_problem", "problems.build_problem"),
    ("wsvd.cli", "add_noise", "problems.add_noise"),
    ("wsvd.cli", "wlsqr_run", "solver.wlsqr_run"),
    ("wsvd.cli", "wsvd", "decomposition.wsvd"),
    ("wsvd.cli", "tikhonov_opt", "regularization.tikhonov_opt"),
    ("wsvd.regularization", "wlsqr_run", "solver.wlsqr_run"),
    ("wsvd.regularization", "tikhonov_wsvd", "decomposition.tikhonov_wsvd"),
    ("wsvd.solver", "wlsqr_init", "solver.wlsqr_init"),
    ("wsvd.solver", "wlsqr_step", "solver.wlsqr_step"),
    ("wsvd.solver", "wgkb_init", "bidiag.wgkb_init"),
    ("wsvd.solver", "wgkb_step", "bidiag.wgkb_step"),
    ("wsvd.weights.WeightMatrix", "matvec", "weights.matvec"),
    ("wsvd.weights.WeightMatrix", "solve", "weights.solve"),
    ("wsvd.weights.WeightMatrix", "inner", "weights.inner"),
    ("wsvd.weights.WeightMatrix", "norm", "weights.norm"),
)

# spans each workload's traced pass must contain
REQUIRED = {
    "krylov-table": ("regularization.spr_solve", "solver.wlsqr_run", "solver.wlsqr_step",
                     "bidiag.wgkb_init", "bidiag.wgkb_step", "weights.matvec"),
    "sweep-phillips": ("cli.main", "problems.build_problem", "problems.add_noise",
                       "solver.wlsqr_run", "bidiag.wgkb_step"),
    "spectral-shaw": ("cli.main", "problems.build_problem", "decomposition.wsvd",
                      "regularization.tikhonov_opt"),
}

# name -> unit; the order of the per-layer report
LAYER_METRICS = {
    "problems.build_s": "s",
    "problems.noise_s": "s",
    "weights.calls": "count",
    "weights.s": "s",
    "bidiag.init_s": "s",
    "bidiag.steps": "count",
    "bidiag.step_s": "s",
    "bidiag.product_probe_s": "s",
    "bidiag.nonproduct_share": "1",
    "bidiag.computed_bytes_per_step": "B",
    "bidiag.breakdowns": "count",
    "bidiag.orth_loss_left": "1",
    "bidiag.orth_loss_right": "1",
    "solver.self_s": "s",
    "solver.residual_gap_max": "1",
    "regularization.self_s": "s",
    "regularization.useful_step_ratio": "1",
    "regularization.unsatisfied": "count",
    "regularization.tikhonov_opt_s": "s",
    "regularization.rel_err_median": "1",
    "decomposition.self_s": "s",
    "decomposition.wsvd_s": "s",
    "decomposition.rank": "count",
    "cli.self_s": "s",
    "cli.failed_cells": "count",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
}


def _resolve(path):
    """Import the longest module prefix of a dotted path, then getattr."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise LookupError(f"cannot import {path}")


class Tracer:
    """Spans kept in memory, plus the objects the per-layer analysis reads.

    Use as a context manager around the traced calls; the analysis in
    ``layer_metrics`` runs after the wrappers are removed.
    """

    def __init__(self, patches=PATCHES):
        self.patches = patches
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = Counter()
        self._stack = []
        self._undo = []
        self.states = []            # (BidiagState, a, weight) per recursion
        self.step_matrices = {}     # id(a) -> [a, steps]
        self.step_bytes = 0
        self.gaps = []              # recurrence vs true residual, per returned iterate
        self.unsatisfied = 0
        self.ranks = []

    # -- wrappers ---------------------------------------------------------

    def __enter__(self):
        try:
            for owner_path, attr, key in self.patches:
                owner = _resolve(owner_path)
                if not hasattr(owner, attr):
                    raise LookupError(
                        f"traced name {owner_path}.{attr} is gone; update the patch table")
                original = getattr(owner, attr)
                self._undo.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, key))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()

    def _restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, key):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame[0]
                stack.pop()
                self.self_s[key] += duration - frame[1]
                self.incl_s[key] += duration
                self.calls[key] += 1
                if stack:
                    stack[-1][1] += duration
            self._observe(key, args, result)
            return result

        return traced

    def _observe(self, key, args, result):
        # keep references only; the arithmetic runs after tracing ends
        if key == "bidiag.wgkb_init":
            self.states.append((result, args[0], args[1]))
        elif key == "bidiag.wgkb_step":
            state, a = args[0], args[1]
            entry = self.step_matrices.setdefault(id(a), [a, 0])
            entry[1] += 1
            m, n = a.shape
            # two products with A, and two classical Gram-Schmidt passes that
            # each read both bases twice; state.k vectors per basis
            self.step_bytes += 8 * (2 * m * n + 4 * (m + n) * state.k)
        elif key == "solver.wlsqr_run":
            a, b = args[0], args[2]
            if result.residual_norms:
                self.gaps.append((a, b, result.x, result.residual_norms[-1]))
        elif key == "regularization.spr_solve":
            a, b = args[0], args[2]
            x, rec = result
            k = rec.stop_index
            self.unsatisfied += not rec.satisfied
            recurrence = rec.residual_norms[k - 1] if k >= 1 else rec.initial_residual
            self.gaps.append((a, b, x, recurrence))
        elif key == "decomposition.wsvd":
            self.ranks.append(result.rank)

    def require(self, keys):
        missing = [k for k in keys if not self.calls[k]]
        if missing:
            raise LookupError(f"traced run never entered {missing}; the driving "
                              "surface changed, update the patch table")

    def total_self(self):
        return sum(self.self_s.values())

    def layer_self(self, layer):
        return sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)

    # -- analysis ---------------------------------------------------------

    def layer_metrics(self, useful_steps, failed_cells):
        """Per-layer numbers; call after the wrappers are removed."""
        steps = self.calls["bidiag.wgkb_step"]
        step_s = self.self_s["bidiag.wgkb_step"]
        floor = sum(count * product_probe(a) for a, count in self.step_matrices.values())
        left = right = 0.0
        for state, a, weight in self.states:
            p = np.asarray(state.P)
            left = max(left, float(np.linalg.norm(p.T @ p - np.eye(p.shape[1]), 2)))
            q = np.asarray(state.Q)
            mq = weight.matvec(q)
            right = max(right, float(np.linalg.norm(q.T @ mq - np.eye(q.shape[1]), 2)))
        gap = max((residual_gap(*g) for g in self.gaps), default=0.0)
        return {
            "problems.build_s": self.self_s["problems.build_problem"],
            "problems.noise_s": self.self_s["problems.add_noise"],
            "weights.calls": sum(v for k, v in self.calls.items() if k.startswith("weights.")),
            "weights.s": self.layer_self("weights"),
            "bidiag.init_s": self.self_s["bidiag.wgkb_init"],
            "bidiag.steps": steps,
            "bidiag.step_s": step_s,
            "bidiag.product_probe_s": floor / steps if steps else 0.0,
            "bidiag.nonproduct_share": 1.0 - floor / step_s if steps else 0.0,
            "bidiag.computed_bytes_per_step": self.step_bytes / steps if steps else 0.0,
            "bidiag.breakdowns": sum(1 for s, _, _ in self.states if s.terminated),
            "bidiag.orth_loss_left": left,
            "bidiag.orth_loss_right": right,
            "solver.self_s": self.layer_self("solver"),
            "solver.residual_gap_max": gap,
            "regularization.self_s": self.layer_self("regularization"),
            "regularization.useful_step_ratio": useful_steps / steps if steps else 0.0,
            "regularization.unsatisfied": self.unsatisfied,
            "regularization.tikhonov_opt_s": self.incl_s["regularization.tikhonov_opt"],
            "decomposition.self_s": self.layer_self("decomposition"),
            "decomposition.wsvd_s": self.incl_s["decomposition.wsvd"],
            "decomposition.rank": max(self.ranks, default=0),
            "cli.self_s": self.self_s["cli.main"],
            "cli.failed_cells": failed_cells,
        }


def product_probe(a, repeats=7):
    """Median seconds of one standalone A q plus one A^T p."""
    rng = np.random.default_rng(0)
    q = rng.standard_normal(a.shape[1])
    p = rng.standard_normal(a.shape[0])
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        a @ q
        a.T @ p
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
