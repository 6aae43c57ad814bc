import tracemalloc

import pytest

import wsvd.regularization
import wsvd.solver


def traced_peak(fn):
    """(fn(), peak bytes tracemalloc saw allocated while fn ran)."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(autouse=True)
def no_kept_run():
    """Each test starts and ends with no recursion kept by spr_solve, so no
    test replays a run that another test made, perhaps under a patch."""
    wsvd.regularization._kept = None
    yield
    wsvd.regularization._kept = None


@pytest.fixture
def steps(monkeypatch):
    """Counts the recursion steps the solver takes."""
    count = [0]
    step = wsvd.solver.wgkb_step

    def spy(*args):
        count[0] += 1
        return step(*args)

    monkeypatch.setattr(wsvd.solver, "wgkb_step", spy)
    return count
