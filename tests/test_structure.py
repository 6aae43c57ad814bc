"""One Krylov engine: the recursion is stepped only by the library's own
loops, and the command line drives it only through the library's paths."""

import ast
from pathlib import Path

import pytest

import wsvd

SRC = Path(wsvd.__file__).resolve().parent


def called_names(path):
    """Names of the functions path calls, as a bare name or an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                names.add(func.id)
            elif isinstance(func, ast.Attribute):
                names.add(func.attr)
    return names


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name not in ("bidiag.py", "solver.py")],
                         ids=lambda p: p.name)
def test_only_bidiag_and_solver_step_the_recursion(path):
    assert "wgkb_step" not in called_names(path)


def test_the_cli_runs_no_engine_loop_of_its_own():
    assert not called_names(SRC / "cli.py") & {"wgkb_step", "wgkb_init", "wlsqr_run"}
