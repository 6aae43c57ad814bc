"""Benchmark of the wsvd package at the paper's table sizes.

    python3 bench/run.py --workload krylov-table --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout; the package is imported from that
checkout's src/ and from nowhere else.  The workloads (see workloads.py):

* krylov-table   library spr_solve, four problems x rules dp, lc, oracle
* sweep-phillips ``wsvd sweep`` on phillips, wlsqr and lsqr, 36 rows
* spectral-shaw  ``wsvd sweep`` on shaw, twsvd and tikh-opt, 24 rows

The seed makes the noise; the same seed gives the same inputs.  Timed passes
repeat until --seconds have passed (at least one pass).  With --trace 0 the
run reports the end-to-end metrics; with --trace 1 it runs one untraced and
one traced pass of the same inputs and reports the per-layer metrics, the
tracing overhead between the two, and fails the result unless the two passes
give identical fingerprints.

Every metric is printed as "name value unit"; the last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"}.
The run record (environment and per-solution fingerprints) is written to
.bench_out/record-<workload>-seed<seed>-trace<trace>.json.  Exit code 2,
without a result, when the package cannot be imported or the run fails.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5

# name -> unit, the end-to-end metrics of an untraced run
END_TO_END = {
    "setup_s": "s",
    "solves_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "1",
}


def load_package():
    """Import wsvd from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import wsvd
    found = Path(wsvd.__file__).resolve().parent.parent
    if found != src.resolve():
        raise ImportError(f"wsvd imported from {found}, not from {src}")
    return wsvd


def _blas_threads():
    import numpy as np
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fingerprints(outcomes):
    return [o.fingerprint for o in outcomes]


def _solutions(outcomes):
    return [dict(o.fingerprint, ok=o.ok, reason=o.reason) for o in outcomes]


def rel_err_median(outcomes):
    return statistics.median(o.rel_err for o in outcomes if o.delivered)


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def measure(workload, seconds):
    """Timed passes until `seconds` have passed; at least one."""
    times, raws = [], []
    start = time.perf_counter()
    while not raws or time.perf_counter() - start < seconds:
        dt, raw = timed(workload.run_pass)
        times.append(dt)
        raws.append(raw)
    return times, raws


def run_untraced(workload, seconds):
    setup = [timed(workload.setup)[0] for _ in range(SETUP_REPEATS)]
    times, raws = measure(workload, seconds)
    rss = peak_rss_mb()
    passes = [workload.check(raw) for raw in raws]
    outcomes = [o for p in passes for o in p]
    reproducible = all(_fingerprints(p) == _fingerprints(passes[0]) for p in passes)
    ok = sum(o.ok for o in outcomes)
    metrics = {
        "setup_s": statistics.median(setup),
        "solves_per_s": workload.solutions_per_pass / statistics.median(times),
        "peak_rss_mb": rss,
        "ok_frac": ok / len(outcomes),
    }
    problems = [] if reproducible else ["passes gave different fingerprints"]
    record = {"setup_s": setup, "pass_s": times, "rel_err_median": rel_err_median(outcomes)}
    return metrics, outcomes, passes[0], problems, record


def run_traced(workload):
    from tracing import REQUIRED, Tracer
    from workloads import Sweep
    tracer = Tracer()
    with tracer:
        workload.setup()
    setup_self = tracer.total_self()
    untraced_s, raw_untraced = timed(workload.run_pass)
    with tracer:
        traced_s, raw_traced = timed(workload.run_pass)
    tracer.require(REQUIRED[workload.name])
    covered = tracer.total_self() - setup_self
    untraced = workload.check(raw_untraced)
    traced = workload.check(raw_traced)
    failed_cells = sum(not o.delivered for o in traced) if isinstance(workload, Sweep) else 0
    metrics = tracer.layer_metrics(workload.useful_steps(traced), failed_cells)
    metrics.update({
        "regularization.rel_err_median": rel_err_median(traced),
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.uncovered_s": traced_s - covered,
    })
    problems = []
    if _fingerprints(traced) != _fingerprints(untraced):
        problems.append("traced and untraced fingerprints differ")
    record = {"pass_s": [untraced_s, traced_s],
              "layer_self_s": dict(tracer.self_s), "calls": dict(tracer.calls)}
    return metrics, untraced + traced, untraced, problems, record


def run_workload(name, seed, seconds, trace, scale=1):
    """One benchmark run; returns (result, record)."""
    from tracing import LAYER_METRICS
    from workloads import make_workload, work_dir
    workload = make_workload(name, seed, scale)
    with work_dir(ROOT, name) as out:
        workload.outdir = out
        if trace:
            metrics, outcomes, first, problems, record = run_traced(workload)
            units = LAYER_METRICS
        else:
            metrics, outcomes, first, problems, record = run_untraced(workload, seconds)
            units = END_TO_END
    problems += [o.reason for o in outcomes if not o.consistent]
    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record.update({"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                   "scale": scale, "environment": environment(), "problems": problems,
                   "solutions": _solutions(first), "result": result})
    return result, record


def _parse(argv):
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    try:
        load_package()
    except ImportError as exc:
        print(f"bench: cannot import the package from this checkout: {exc}", file=sys.stderr)
        return 2
    args = _parse(argv)
    try:
        result, record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except Exception:  # noqa: BLE001  a failed run prints no result
        traceback.print_exc()
        return 2
    path = ROOT / ".bench_out" / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    print(f"failed {result['failed']} of {result['attempted']}; record {path.relative_to(ROOT)}")
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
