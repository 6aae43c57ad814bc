"""Self-tests of the benchmark at a tenth of the table sizes.

    python3 -m pytest -q bench

They run every workload once untraced and once traced, and check that the
benchmark's description, its checks and its tracing hold together.
"""

import json
import math

import pytest

import run

run.load_package()

import tracing  # noqa: E402  needs the package on the path
import workloads  # noqa: E402
import wsvd.cli  # noqa: E402

SCALE = 0.1


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_untraced_smoke(name):
    result, record = run.run_workload(name, seed=0, seconds=0, trace=0, scale=SCALE)
    assert result["correct"], record["problems"]
    assert result["attempted"] == workloads.make_workload(name, 0).solutions_per_pass
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"]) and metric["value"] > 0
    assert len(record["solutions"]) == result["attempted"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_matches_untraced_and_covers_the_pass(name):
    result, record = run.run_workload(name, seed=3, seconds=0, trace=1, scale=SCALE)
    # correct includes the traced/untraced fingerprint identity
    assert result["correct"], record["problems"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["trace.uncovered_s"] <= 0.05 * m["trace.traced_s"]
    if name == "spectral-shaw":
        assert m["bidiag.steps"] == 0 and m["decomposition.rank"] > 0
    else:
        assert m["bidiag.steps"] > 0 and 0 < m["regularization.useful_step_ratio"] <= 1


def test_a_missing_traced_name_fails_loudly_and_restores_the_rest():
    main = wsvd.cli.main
    patches = (("wsvd.cli", "main", "cli.main"), ("wsvd.cli", "no_such_name", "cli.gone"))
    with pytest.raises(LookupError, match="no_such_name"):
        with tracing.Tracer(patches):
            pass
    assert wsvd.cli.main is main


def test_a_cli_row_that_disagrees_with_the_library_is_caught(tmp_path):
    sweep = workloads.make_workload("sweep-phillips", 0, SCALE)
    sweep.outdir = tmp_path
    code, text = sweep.run_pass()
    assert all(o.consistent and o.ok for o in sweep.check((code, text)))
    header, first, *rest = text.splitlines()
    cells = first.split(",")
    cells[6] = repr(float(cells[6]) * (1 + 1e-8))  # rel_err column
    tampered = "\n".join([header, ",".join(cells), *rest]) + "\n"
    outcomes = sweep.check((code, tampered))
    assert sum(not o.consistent for o in outcomes) == 1
