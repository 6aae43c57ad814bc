import csv
from pathlib import Path

import numpy as np
import pytest

from wsvd import (add_noise, build_problem, cli, decomposition, load_problem, stop_dp,
                  stop_lcurve, stop_oracle, tikhonov_opt, twsvd_solution)
from wsvd.cli import ExperimentConfig, _error_status, main


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


SMALL = ["--m", "120", "--n", "101"]


def test_config_round_trip():
    cfg = ExperimentConfig(problem="green", m=77, n=None,
                           epsilons=[3.2e-2, 1e-3], seeds=[0, 4],
                           rules=["dp", "lc"], methods=["wlsqr", "twsvd"],
                           tau=1.05, max_iter=44, reorth=False,
                           paper_h=True, out="somewhere")
    assert ExperimentConfig.from_text(cfg.to_text()) == cfg


def test_config_with_a_jobs_line_still_loads():
    # configs written while the sweep had a --jobs option carry a jobs line;
    # an unknown key is skipped, so they load as the same config without it
    text = ("problem=phillips\nm=None\nn=None\nepsilons=0.032,0.001\nseeds=0\n"
            "rules=dp,lc,oracle\nmethods=wlsqr,lsqr\ntau=1.01\nmax_iter=100\n"
            "reorth=True\npaper_h=False\njobs=4\nout=results\n")
    old = ExperimentConfig.from_text(text)
    assert old == ExperimentConfig.from_text(text.replace("jobs=4\n", ""))
    assert old == ExperimentConfig(problem="phillips", epsilons=[0.032, 0.001],
                                   rules=["dp", "lc", "oracle"],
                                   methods=["wlsqr", "lsqr"], max_iter=100,
                                   out="results")


def test_config_rejects_a_boolean_spelled_otherwise():
    with pytest.raises(ValueError, match="reorth"):
        ExperimentConfig.from_text("problem=shaw\nreorth=true\n")


def test_config_round_trip_defaults():
    cfg = ExperimentConfig()
    assert ExperimentConfig.from_text(cfg.to_text()) == cfg


def test_gen_writes_loadable_problem(tmp_path, capsys):
    rc = main(["gen", "--problem", "phillips", "--m", "60", "--n", "51",
               "--epsilon", "1e-2", "--seed", "7", "--out", str(tmp_path)])
    assert rc == 0
    outdir = capsys.readouterr().out.strip()
    prob, noisy = load_problem(outdir)
    assert prob.name == "phillips"
    assert (prob.m, prob.n) == (60, 51)
    assert noisy.epsilon == 1e-2
    assert noisy.seed == 7


def test_gen_deterministic(tmp_path):
    args = ["gen", "--problem", "shaw", "--m", "40", "--n", "31",
            "--epsilon", "1e-3", "--seed", "2"]
    main(args + ["--out", str(tmp_path / "x")])
    main(args + ["--out", str(tmp_path / "y")])
    a = (tmp_path / "x" / "shaw_m40_n31_eps0.001_seed2" / "b").read_bytes()
    b = (tmp_path / "y" / "shaw_m40_n31_eps0.001_seed2" / "b").read_bytes()
    assert a == b


def test_solve_dp_outputs(tmp_path, capsys):
    rc = main(["solve", "--problem", "shaw", *SMALL, "--epsilon", "1e-3",
               "--seed", "0", "--rule", "dp", "--method", "wlsqr",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "problem,rule,method,stop_k,rel_err,wall_ms"
    fields = out[1].split(",")
    assert fields[0] == "shaw" and fields[1] == "dp" and fields[2] == "wlsqr"
    stop_k = int(fields[3])
    assert 1 <= stop_k <= 30
    rows = read_csv(tmp_path / "run_shaw_wlsqr_dp_eps0.001_seed0.csv")
    assert len(rows) == stop_k  # dp halts the iteration at the crossing
    assert float(rows[-1]["rel_err"]) < 0.2
    # residual column is nonincreasing
    res = [float(r["res_norm"]) for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(res, res[1:]))


def test_solve_from_generated_dir_matches_inline(tmp_path, capsys):
    main(["gen", "--problem", "shaw", *SMALL, "--epsilon", "1e-3",
          "--seed", "0", "--out", str(tmp_path)])
    gen_dir = capsys.readouterr().out.strip()
    main(["solve", "--problem", "shaw", *SMALL, "--epsilon", "1e-3", "--seed", "0",
          "--rule", "oracle", "--method", "wlsqr", "--out", str(tmp_path / "a")])
    direct = capsys.readouterr().out.splitlines()[1]
    main(["solve", "--in", gen_dir, "--rule", "oracle", "--method", "wlsqr",
          "--epsilon", "1e-3", "--seed", "0", "--out", str(tmp_path / "b")])
    loaded = capsys.readouterr().out.splitlines()[1]
    # identical up to the timing field
    assert direct.rsplit(",", 1)[0] == loaded.rsplit(",", 1)[0]


def test_solve_lsqr_baseline_error_large(tmp_path, capsys):
    main(["solve", "--problem", "shaw", *SMALL, "--epsilon", "1e-3",
          "--seed", "0", "--rule", "oracle", "--method", "lsqr",
          "--out", str(tmp_path)])
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert float(row[4]) >= 0.1


def test_solve_tikh_opt(tmp_path, capsys):
    rc = main(["solve", "--problem", "shaw", *SMALL, "--epsilon", "1e-3",
               "--seed", "0", "--rule", "oracle", "--method", "tikh-opt",
               "--out", str(tmp_path)])
    assert rc == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert float(row[4]) < 0.1


def test_solve_twsvd(tmp_path, capsys):
    rc = main(["solve", "--problem", "shaw", *SMALL, "--epsilon", "1e-3",
               "--seed", "0", "--rule", "oracle", "--method", "twsvd",
               "--out", str(tmp_path)])
    assert rc == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert 1 <= int(row[3]) <= 40
    assert float(row[4]) < 0.2


def test_sweep_grid_and_consistency(tmp_path, capsys):
    rc = main(["sweep", "--problem", "shaw", *SMALL,
               "--epsilon", "1e-2", "1e-3", "--seed", "0", "1",
               "--method", "wlsqr", "--rule", "dp", "oracle",
               "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    rows = read_csv(tmp_path / "sweep_shaw.csv")
    assert len(rows) == 2 * 2 * 1 * 2
    assert all(r["status"] == "ok" for r in rows)
    keys = [(float(r["epsilon"]), int(r["seed"]), r["method"], r["rule"]) for r in rows]
    assert keys == sorted(keys)
    # a sweep cell agrees with the corresponding single solve
    main(["solve", "--problem", "shaw", *SMALL, "--epsilon", "1e-3",
          "--seed", "1", "--rule", "dp", "--method", "wlsqr",
          "--out", str(tmp_path / "single")])
    srow = capsys.readouterr().out.splitlines()[1].split(",")
    cell = [r for r in rows
            if r["epsilon"] == "0.001" and r["seed"] == "1"
            and r["method"] == "wlsqr" and r["rule"] == "dp"][0]
    assert int(cell["stop_k"]) == int(srow[3])
    assert float(cell["rel_err"]) == pytest.approx(float(srow[4]), rel=1e-12)


def count_krylov_attempts(monkeypatch):
    """A list that grows by one per Krylov-route attempt of wsvd."""
    calls = []
    original = decomposition.wgkb_run

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(decomposition, "wgkb_run", counting)
    return calls


def dense_spectral_rows(problem, fact, noisy, tau=1.01):
    """{(method, rule): (stop_k, rel_err)} of one (epsilon, seed) pair from
    the dense factorization, with residuals computed from the iterates."""
    nx = np.linalg.norm(problem.x_true)
    xs = [twsvd_solution(fact, noisy.b, k) for k in range(1, fact.rank + 1)]
    res = np.array([np.linalg.norm(problem.a @ x - noisy.b) for x in xs])
    mnorms = np.array([problem.weight.norm(x) for x in xs])
    errs = np.array([np.linalg.norm(x - problem.x_true) / nx for x in xs])
    k_dp, _ = stop_dp(np.concatenate([[np.linalg.norm(noisy.b)], res]), tau,
                      np.linalg.norm(noisy.e))
    ks = {"dp": k_dp or len(res), "lc": stop_lcurve(res, mnorms).index,
          "oracle": stop_oracle(errs)}
    out = {("twsvd", rule): (k, errs[k - 1]) for rule, k in ks.items()}
    _, x = tikhonov_opt(fact, noisy.b, problem.x_true)
    out[("tikh-opt", "oracle")] = (0, np.linalg.norm(x - problem.x_true) / nx)
    return out


def check_spectral_sweep_rows(tmp_path, capsys):
    """Run a 2 x 2 spectral shaw sweep and match every row against the
    dense factorization."""
    rc = main(["sweep", "--problem", "shaw", *SMALL, "--epsilon", "1e-2", "1e-3",
               "--seed", "0", "1", "--method", "twsvd", "tikh-opt",
               "--rule", "dp", "lc", "oracle", "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    rows = read_csv(tmp_path / "sweep_shaw.csv")
    assert len(rows) == 4 * 4 and all(r["status"] == "ok" for r in rows)
    problem = build_problem("shaw", 120, 101)
    fact = decomposition.wsvd(problem.a, problem.weight)
    for eps in (1e-2, 1e-3):
        for seed in (0, 1):
            ref = dense_spectral_rows(problem, fact, add_noise(problem, eps, seed))
            got = {(r["method"], r["rule"]): (int(r["stop_k"]), float(r["rel_err"]))
                   for r in rows if float(r["epsilon"]) == eps and int(r["seed"]) == seed}
            assert got.keys() == ref.keys()
            for key, (k, err) in ref.items():
                assert got[key][0] == k, key
                assert abs(got[key][1] - err) <= 1e-10 * err, key


def test_spectral_sweep_rows_match_dense(tmp_path, capsys, monkeypatch):
    attempts = count_krylov_attempts(monkeypatch)
    check_spectral_sweep_rows(tmp_path, capsys)
    assert len(attempts) == 1  # the first pair's factorization covers the rest


def test_spectral_sweep_factors_each_uncovered_pair(tmp_path, capsys, monkeypatch):
    # a Krylov factorization that covers no other b: every pair factors
    # from its own b, with the same rows
    attempts = count_krylov_attempts(monkeypatch)
    monkeypatch.setattr(cli, "covers", lambda fact, a, b: fact.krylov_steps is None)
    check_spectral_sweep_rows(tmp_path, capsys)
    assert len(attempts) == 4


@pytest.mark.parametrize("name", ["shaw", "expst"])
def test_spectral_sweep_factors_once(tmp_path, capsys, monkeypatch, name):
    # the default six noise levels x three seeds share one factorization
    attempts = count_krylov_attempts(monkeypatch)
    rc = main(["sweep", "--problem", name, *SMALL, "--seed", "0", "1", "2",
               "--method", "twsvd", "tikh-opt", "--rule", "oracle",
               "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    assert len(attempts) == 1
    rows = read_csv(tmp_path / f"sweep_{name}.csv")
    assert len(rows) == 6 * 3 * 2 and all(r["status"] == "ok" for r in rows)


@pytest.mark.parametrize("n_seeds", ["1", "4"])
def test_spectral_sweep_falls_back_to_dense_once(tmp_path, capsys, monkeypatch, n_seeds):
    # phillips never terminates within the step cap; the dense factorization
    # of the first fallback serves every later pair, however many there are
    attempts = count_krylov_attempts(monkeypatch)
    seeds = [str(s) for s in range(int(n_seeds))]
    rc = main(["sweep", "--problem", "phillips", *SMALL,
               "--epsilon", "1e-2", "1e-3", "1e-4", "--seed", *seeds,
               "--method", "twsvd", "tikh-opt", "--rule", "oracle",
               "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    assert len(attempts) == 1
    rows = read_csv(tmp_path / "sweep_phillips.csv")
    assert len(rows) == 3 * len(seeds) * 2 and all(r["status"] == "ok" for r in rows)


def test_sweep_failed_cell_keeps_its_message(tmp_path, capsys):
    # three iterations are too few for the L-curve rule
    rc = main(["sweep", "--problem", "shaw", "--m", "60", "--n", "41", "--epsilon", "1e-2",
               "--method", "wlsqr", "--rule", "lc", "--max-iter", "3",
               "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    rows = read_csv(tmp_path / "sweep_shaw.csv")
    assert len(rows) == 1
    row = rows[0]
    # all 8 columns, none spilled over (key None) or missing (value None)
    assert len(row) == 8 and None not in row and None not in row.values()
    assert row["status"].startswith("error: ValueError: ")
    assert "got 3" in row["status"]


@pytest.mark.parametrize("bad", [["--tau", "0.5"], ["--epsilon", "0"]],
                         ids=["tau-below-1", "noise-free"])
def test_sweep_rejects_a_rule_it_cannot_apply(tmp_path, capsys, bad):
    # a dp rule with tau <= 1 or without noise exits 1, as solve does,
    # instead of writing error rows
    rc = main(["sweep", "--problem", "shaw", "--m", "60", "--n", "41",
               "--method", "wlsqr", "twsvd", "--rule", "dp", *bad,
               "--out", str(tmp_path)])
    assert rc == 1
    assert "invalid configuration" in capsys.readouterr().err
    assert not (tmp_path / "sweep_shaw.csv").exists()


def test_error_status_keeps_the_row_intact():
    assert _error_status(ValueError("a, b\nc")) == "error: ValueError: a; b c"
    assert _error_status(RuntimeError()) == "error: RuntimeError"


def test_sweep_config_round_trip_on_disk(tmp_path, capsys):
    main(["sweep", "--problem", "green", "--m", "60", "--n", "51",
          "--epsilon", "1e-2", "--seed", "0", "--method", "wlsqr",
          "--rule", "oracle", "--out", str(tmp_path)])
    capsys.readouterr()
    text = (tmp_path / "sweep_green_config.txt").read_text()
    cfg = ExperimentConfig.from_text(text)
    assert cfg.problem == "green"
    assert cfg.to_text() == text


def test_lcurve_corner_contract(tmp_path, capsys):
    rc = main(["lcurve", "--problem", "shaw", *SMALL, "--epsilon", "1e-2",
               "--seed", "0", "--max-iter", "25", "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    rows = read_csv(tmp_path / "lcurve.csv")
    corners = [r for r in rows if r["is_corner"] == "true"]
    assert len(corners) == 1


def test_lcurve_points_mode(tmp_path, capsys):
    # synthetic polyline with the corner at k = 6
    log_res = np.concatenate([np.linspace(4.0, 0.0, 6),
                              np.linspace(0.0, -0.4, 10)[1:]])
    log_mn = np.concatenate([np.linspace(0.0, 0.5, 6),
                             np.linspace(0.5, 6.0, 10)[1:]])
    pts = tmp_path / "pts.csv"
    with open(pts, "w") as fh:
        fh.write("k,res_norm,sol_mnorm\n")
        for i, (r, mn) in enumerate(zip(np.exp(log_res), np.exp(log_mn))):
            fh.write(f"{i + 1},{float(r)!r},{float(mn)!r}\n")
    rc = main(["lcurve", "--points", str(pts), "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    rows = read_csv(tmp_path / "lcurve.csv")
    corner = [r for r in rows if r["is_corner"] == "true"]
    assert len(corner) == 1
    assert int(corner[0]["k"]) == 6


def test_lcurve_points_zero_residual_row(tmp_path, capsys):
    # a breakdown step's zero residual: nan log, no RuntimeWarning (an error
    # in this suite), and the corner of the rows before it
    log_res = np.concatenate([np.linspace(4.0, 0.0, 6),
                              np.linspace(0.0, -0.4, 10)[1:]])
    log_mn = np.concatenate([np.linspace(0.0, 0.5, 6),
                             np.linspace(0.5, 6.0, 10)[1:]])
    pts = tmp_path / "pts.csv"
    with open(pts, "w") as fh:
        fh.write("k,res_norm,sol_mnorm\n")
        for i, (r, mn) in enumerate(zip(np.exp(log_res), np.exp(log_mn))):
            fh.write(f"{i + 1},{float(r)!r},{float(mn)!r}\n")
        fh.write(f"{len(log_res) + 1},0.0,{float(np.exp(7.0))!r}\n")
    rc = main(["lcurve", "--points", str(pts), "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    rows = read_csv(tmp_path / "lcurve.csv")
    assert len(rows) == len(log_res) + 1
    assert rows[-1]["log_res"] == "nan"
    assert float(rows[-1]["log_mnorm"]) == pytest.approx(7.0)
    corner = [r for r in rows if r["is_corner"] == "true"]
    assert len(corner) == 1
    assert int(corner[0]["k"]) == 6


def test_lcurve_points_empty_file(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("")
    assert main(["lcurve", "--points", str(pts), "--out", str(tmp_path)]) == 1
    assert "needs >= 5 points, got 0" in capsys.readouterr().err
    assert not (tmp_path / "lcurve.csv").exists()


def test_wsvd_dump(tmp_path, capsys):
    rc = main(["wsvd", "--problem", "green", "--out", str(tmp_path)])
    assert rc == 0
    outdir = capsys.readouterr().out.splitlines()[0]
    sig = read_csv(f"{outdir}/sigma.csv")
    vals = [float(r["sigma"]) for r in sig]
    assert vals == sorted(vals, reverse=True)
    raw = Path(outdir, "U").read_bytes()
    dims = np.frombuffer(raw[:16], dtype="<i8")
    u = np.frombuffer(raw[16:], dtype="<f8").reshape(dims)
    assert np.allclose(u.T @ u, np.eye(dims[1]), atol=1e-10)


def test_triplets_output(tmp_path, capsys):
    rc = main(["triplets", "--problem", "shaw", *SMALL, "--epsilon", "0",
               "--seed", "0", "--count", "5", "--max-iter", "25",
               "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    rows = read_csv(tmp_path / "triplets_shaw.csv")
    assert len(rows) == 5
    sig = [float(r["sigma_bar"]) for r in rows]
    assert sig == sorted(sig, reverse=True)
    assert all(r["accepted"] in ("true", "false") for r in rows)


@pytest.mark.parametrize("bad, option", [(["--count", "0"], "--count"),
                                         (["--count", "-3"], "--count"),
                                         (["--max-iter", "0"], "--max-iter")],
                         ids=["count-0", "count-negative", "max-iter-0"])
def test_triplets_rejects_an_empty_request_before_any_work(tmp_path, capsys, monkeypatch,
                                                           bad, option):
    monkeypatch.setattr(cli, "build_problem", None)  # any work would raise TypeError
    rc = main(["triplets", "--problem", "shaw", "--m", "60", "--n", "41",
               "--epsilon", "0", *bad, "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{option} must be >= 1" in err and "terminated" not in err


def test_exit_code_usage_errors(tmp_path, capsys):
    # dp without noise
    assert main(["solve", "--problem", "shaw", *SMALL, "--epsilon", "0",
                 "--seed", "0", "--rule", "dp", "--out", str(tmp_path)]) == 1
    # even n
    assert main(["solve", "--problem", "shaw", "--m", "40", "--n", "30",
                 "--epsilon", "1e-3", "--out", str(tmp_path)]) == 1
    # unknown problem name rejected by the parser
    assert main(["solve", "--problem", "nope"]) == 1
    # multiple epsilons passed to a single solve
    assert main(["solve", "--problem", "shaw", *SMALL,
                 "--epsilon", "1e-2", "1e-3", "--out", str(tmp_path)]) == 1
    capsys.readouterr()


def test_exit_code_runtime_error(tmp_path, capsys):
    rc = main(["solve", "--in", str(tmp_path / "missing_dir"),
               "--out", str(tmp_path)])
    assert rc == 2
    capsys.readouterr()
