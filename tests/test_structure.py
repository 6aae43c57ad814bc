"""One Krylov engine: the recursion is stepped only by the library's own
loops, and the command line drives it only through the library's paths."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import wsvd

SRC = Path(wsvd.__file__).resolve().parent


def _calls(tree):
    """Names of the functions called under tree, as a bare name or an
    attribute."""
    return {getattr(node.func, "id", getattr(node.func, "attr", None))
            for node in ast.walk(tree) if isinstance(node, ast.Call)}


def called_names(path):
    """Names of the functions path calls."""
    return _calls(ast.parse(path.read_text()))


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name not in ("bidiag.py", "solver.py")],
                         ids=lambda p: p.name)
def test_only_bidiag_and_solver_step_the_recursion(path):
    assert "wgkb_step" not in called_names(path)


def test_the_cli_runs_no_engine_loop_of_its_own():
    assert not called_names(SRC / "cli.py") & {"wgkb_step", "wgkb_init", "wlsqr_run"}


def test_only_the_cell_runs_a_history_or_factors_in_the_cli():
    # solve, sweep and lcurve share _cell; cmd_wsvd's dump is the one other
    # factorization
    owners = {}
    for top in ast.parse((SRC / "cli.py").read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                owners.setdefault(name, set()).add(getattr(top, "name", None))
    for name in ("spr_solve", "lsqr_baseline", "twsvd_record", "tikhonov_opt", "covers"):
        assert owners.get(name) == {"_cell"}, name
    assert owners.get("wsvd") == {"_cell", "cmd_wsvd"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_takes_a_reorth_or_keep_iterates_switch(path):
    # the recursion always reorthogonalizes fully and never stores iterates,
    # and the quadrature has one spacing (a constant factor on the weights
    # only rescales A, M and b)
    params = {arg.arg
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
              for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)}
    assert not params & {"reorth", "keep_iterates", "paper_h"}


def test_every_engine_init_passes_its_step_budget():
    # only direct API callers get the min(m, n) default of wgkb_init
    calls = [(path.name, node)
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None))
             in ("wgkb_init", "wlsqr_init")]
    assert len(calls) >= 3
    for name, node in calls:
        assert "max_steps" in {kw.arg for kw in node.keywords}, (name, node.lineno)


def _reads_a(node):
    # a, or an attribute or subscript of it: a.T, a[r0:r1, c0:c1].T
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return isinstance(node, ast.Name) and node.id == "a"


def test_every_product_with_a_in_bidiag_reads_the_envelope():
    # A q and A^T p have one path, the envelope helpers; wgkb_init and
    # wgkb_step call those instead of a product of their own
    owners = {func.name
              for func in ast.walk(ast.parse((SRC / "bidiag.py").read_text()))
              if isinstance(func, ast.FunctionDef)
              for node in ast.walk(func)
              if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
              and (_reads_a(node.left) or _reads_a(node.right))}
    assert owners == {"_matvec", "_rmatvec"}


def _names(node):
    """Every bare name and attribute name under node."""
    return {getattr(sub, "id", getattr(sub, "attr", None)) for sub in ast.walk(node)}


def _solver_functions():
    tree = ast.parse((SRC / "solver.py").read_text())
    return {func.name: func for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)}


def test_only_advance_updates_the_iterate():
    # live steps, continued runs and iterate recovery share one update
    owners = {(name, target.attr)
              for name, func in _solver_functions().items()
              for node in ast.walk(func) if isinstance(node, (ast.Assign, ast.AugAssign))
              for top in (node.targets if isinstance(node, ast.Assign) else [node.target])
              for target in ast.walk(top)
              if isinstance(target, ast.Attribute) and target.attr in ("x", "w")}
    assert owners == {("_advance", "x"), ("_advance", "w")}


def test_one_entry_replays_stored_columns():
    # a fresh solver state over an existing recursion is made only where a
    # run starts: wlsqr_init on a new recursion, and wlsqr_run on the one
    # spr_solve keeps, which is how spr_solve also reads an earlier iterate
    callers = {name for name, func in _solver_functions().items()
               if "_start" in _calls(func)}
    assert callers == {"wlsqr_init", "wlsqr_run"}
    for path in sorted(SRC.glob("*.py")):
        if path.name != "solver.py":
            assert "_start" not in called_names(path), path.name


def test_only_spr_solve_continues_a_kept_recursion():
    # continuing a recursion is safe only because the kept one never reaches
    # a caller: spr_solve alone hands one to wlsqr_run (keyword-only
    # _bidiag), and only it and _take_kept touch the slot that holds it
    continuing, slot_users = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and "_bidiag" in {kw.arg for kw in node.keywords}:
                    callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                    continuing.add((callee, path.name, func.name))
            if _names(func) & {"_kept", "_take_kept"}:
                slot_users.add((path.name, func.name))
        if path.name != "regularization.py":
            assert not _names(tree) & {"_kept", "_kept_lock", "_take_kept"}, path.name
    assert continuing == {("wlsqr_run", "regularization.py", "spr_solve")}
    assert slot_users == {("regularization.py", "_take_kept"),
                          ("regularization.py", "spr_solve")}


def test_a_krylov_run_stores_its_bases_envelope_and_scalars_only():
    # every other fact of a run is derived from these five
    assert {f.name for f in dataclasses.fields(wsvd.BidiagState)} == {
        "p_buf", "q_buf", "envelope", "alphas", "betas"}


def _records():
    a, weight, b = np.diag([3.0, 2.0, 1.0]), wsvd.WeightMatrix.identity(3), np.ones(3)
    _, record = wsvd.spr_solve(a, weight, b, wsvd.StoppingRule("maxiter"))
    return {"bidiag": wsvd.wgkb_run(a, weight, b, 2), "record": record,
            "fact": wsvd.wsvd(a, weight), "solver": wsvd.wlsqr_run(a, weight, b),
            "weight": weight}


@pytest.mark.parametrize("owner, name", [("bidiag", "terminated"), ("bidiag", "scale"),
                                         ("record", "ks"), ("fact", "rank"),
                                         ("solver", "phibar"), ("weight", "kind")])
def test_a_derived_run_fact_cannot_be_assigned(owner, name):
    obj = _records()[owner]
    with pytest.raises(AttributeError):
        setattr(obj, name, getattr(obj, name))


def test_only_build_problem_starts_threads():
    # its helpers were measured faster than one thread (no BLAS call of
    # theirs wakes OpenBLAS's pool); any other thread or pool in the package
    # needs a measurement of its own
    owners = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            owners |= {(path.name, getattr(top, "name", None))
                       for node in ast.walk(top)
                       if isinstance(node, ast.Call)
                       and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Thread"}
        modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names}
        modules |= {node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module}
        assert not {mod.split(".")[0] for mod in modules} & {"concurrent", "multiprocessing"}, \
            path.name
    assert owners == {("problems.py", "build_problem")}


def test_only_problems_imports_mmap():
    # phillips' A is the one array on a private mapping (see the problems
    # module docstring); any other mapping needs a measurement of its own
    importers = {path.name for path in sorted(SRC.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Import) and "mmap" in {a.name for a in node.names}
                 or isinstance(node, ast.ImportFrom) and node.module == "mmap"}
    assert importers == {"problems.py"}


def _raised_text(node):
    """The string constants in the exception a raise node builds; none for
    a bare raise."""
    return " ".join(sub.value for sub in ast.walk(node.exc or ast.Pass())
                    if isinstance(sub, ast.Constant) and isinstance(sub.value, str))


def test_one_matrix_check_and_one_vector_check_serve_every_entry():
    # A, b and x_true are checked by _checked_matrix and _checked_vector;
    # covers alone still names a shape, comparing A with the factorization
    defined, shape_raisers = [], set()
    for path in sorted(SRC.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, ast.FunctionDef):
                continue
            if func.name in ("_checked_matrix", "_checked_vector"):
                defined.append((path.name, func.name))
            if any("has shape" in _raised_text(node)
                   for node in ast.walk(func) if isinstance(node, ast.Raise)):
                shape_raisers.add((path.name, func.name))
    assert sorted(defined) == [("bidiag.py", "_checked_matrix"),
                               ("bidiag.py", "_checked_vector")]
    assert shape_raisers == {("bidiag.py", "_checked_vector"), ("decomposition.py", "covers")}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    # a name counts as used when the module reads it or lists it in
    # __all__; cli.py imports wlsqr_run only for bench/tracing.py to wrap
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name.split(".")[0]
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {elt.value
             for node in tree.body if isinstance(node, ast.Assign)
             and any(getattr(t, "id", None) == "__all__" for t in node.targets)
             for elt in node.value.elts}
    assert imported - used == ({"wlsqr_run"} if path.name == "cli.py" else set())


def _is_linalg_norm(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "norm" and getattr(node.func.value, "attr", None) == "linalg")


def test_every_reported_norm_takes_the_one_range_guard():
    # weights owns _sqrt_dot and _pow2_scale, which keep a norm whose plain
    # sum of squares under- or overflows in range and give np.linalg.norm's
    # bits otherwise; np.linalg.norm is left to the L-curve's log-space
    # points, whose coordinates are logs of norms
    defined, norm_owners = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined |= {(path.name, node.name) for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef)
                    and node.name in ("_sqrt_dot", "_pow2_scale")}
        for top in tree.body:
            norm_owners |= {(path.name, getattr(top, "name", None))
                            for node in ast.walk(top) if _is_linalg_norm(node)}
    assert defined == {("weights.py", "_sqrt_dot"), ("weights.py", "_pow2_scale")}
    assert norm_owners == {("regularization.py", "lcurve_points"),
                           ("regularization.py", "lcurve_curvature")}
