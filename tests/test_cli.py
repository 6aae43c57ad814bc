import csv
import importlib
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from wsvd import (StoppingRule, add_noise, build_problem, cli, decomposition,
                  load_problem, spr_solve, stop_dp, stop_lcurve, stop_oracle,
                  tikhonov_opt, twsvd_solution)
from wsvd.cli import _error_status, main


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


SMALL = ["--m", "120", "--n", "101"]


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
          "--out", str(tmp_path / "b")])
    loaded = capsys.readouterr().out.splitlines()[1]
    # identical up to the timing field
    assert direct.rsplit(",", 1)[0] == loaded.rsplit(",", 1)[0]


def test_solve_names_its_files_after_the_loaded_epsilon_and_seed(tmp_path, capsys):
    dirs = []
    for epsilon, seed in (("1e-2", "7"), ("2e-2", "3")):
        main(["gen", "--problem", "shaw", *SMALL, "--epsilon", epsilon, "--seed", seed,
              "--out", str(tmp_path)])
        dirs.append(capsys.readouterr().out.strip())
    for gen_dir in dirs:
        assert main(["solve", "--in", gen_dir, "--rule", "dp", "--method", "wlsqr",
                     "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        f"{kind}_shaw_wlsqr_dp_eps{eps}_seed{seed}.csv"
        for kind in ("run", "summary") for eps, seed in (("0.01", 7), ("0.02", 3))]


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


@pytest.mark.parametrize("rule, epsilon", [pytest.param("dp", "1e-3", id="dp"),
                                           pytest.param("oracle", "1e-3", id="oracle"),
                                           pytest.param("dp", "0", id="dp-noise-free")])
def test_solve_tikh_opt_is_labelled_oracle(tmp_path, capsys, rule, epsilon):
    # the error-optimal parameter is the oracle's choice whatever --rule says,
    # as sweep labels it; tikh-opt applies no rule, so a noise-free dp is no error
    assert main(["solve", "--problem", "shaw", *SMALL, "--epsilon", epsilon,
                 "--seed", "0", "--rule", rule, "--method", "tikh-opt",
                 "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("shaw,oracle,tikh-opt,0,")
    tag = f"shaw_tikh-opt_oracle_eps{float(epsilon):g}_seed0"
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"run_{tag}.csv",
                                                          f"summary_{tag}.csv"]
    assert read_csv(tmp_path / f"summary_{tag}.csv")[0]["rule"] == "oracle"


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


CELL_PAIR = ["--problem", "shaw", "--m", "300", "--n", "201", "--epsilon", "1e-2",
             "--seed", "3"]


def test_solve_and_sweep_agree_on_every_cell(tmp_path, capsys):
    # 3 Krylov or spectral methods x dp, lc, oracle, and tikh-opt's one row
    assert main(["sweep", *CELL_PAIR, "--method", "wlsqr", "lsqr", "twsvd", "tikh-opt",
                 "--rule", "dp", "lc", "oracle", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    rows = read_csv(tmp_path / "sweep_shaw.csv")
    assert len(rows) == 10 and all(r["status"] == "ok" for r in rows)
    for row in rows:
        assert main(["solve", *CELL_PAIR, "--method", row["method"], "--rule", row["rule"],
                     "--out", str(tmp_path / "solve")]) == 0
        summary = capsys.readouterr().out.splitlines()[1].split(",")
        assert summary[1:5] == [row["rule"], row["method"], row["stop_k"], row["rel_err"]]


@pytest.mark.parametrize("rule", ["dp", "lc", "oracle"])
def test_a_one_rule_sweep_gives_the_rows_of_the_full_sweep(tmp_path, capsys, rule):
    # one rule runs the history under itself (dp stops at its crossing),
    # several run it to --max-iter; the rows are the same
    methods = ["--method", "wlsqr", "lsqr", "twsvd"]
    assert main(["sweep", *CELL_PAIR, *methods, "--rule", "dp", "lc", "oracle",
                 "--out", str(tmp_path / "all")]) == 0
    assert main(["sweep", *CELL_PAIR, *methods, "--rule", rule,
                 "--out", str(tmp_path / "one")]) == 0
    capsys.readouterr()
    full = [r for r in read_csv(tmp_path / "all" / "sweep_shaw.csv") if r["rule"] == rule]
    assert read_csv(tmp_path / "one" / "sweep_shaw.csv") == full


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


@pytest.mark.parametrize("methods, rc", [(["tikh-opt"], 0), (["wlsqr", "tikh-opt"], 1)],
                         ids=["tikh-opt", "mixed"])
def test_sweep_builds_rules_only_for_a_method_that_selects_with_them(tmp_path, capsys,
                                                                    methods, rc):
    # tikh-opt applies no rule, so a noise-free dp is no error on its own,
    # as in solve; next to wlsqr, which applies it, it still is
    assert main(["sweep", "--problem", "shaw", "--m", "60", "--n", "51",
                 "--method", *methods, "--rule", "dp", "--epsilon", "0",
                 "--seed", "0", "--out", str(tmp_path)]) == rc
    if rc:
        assert "dp rule needs a positive" in capsys.readouterr().err
        assert not (tmp_path / "sweep_shaw.csv").exists()
    else:
        rows = read_csv(tmp_path / "sweep_shaw.csv")
        assert [(r["method"], r["rule"], r["status"]) for r in rows] == [
            ("tikh-opt", "oracle", "ok")]


@pytest.mark.parametrize("command", ["gen", "solve", "sweep", "lcurve", "wsvd", "triplets"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_a_max_iter_below_one_exits_1_before_any_work(tmp_path, capsys, monkeypatch,
                                                      command, value):
    monkeypatch.setattr(cli, "build_problem", None)  # any work would raise TypeError
    out = tmp_path / "out"
    assert main([command, "--problem", "shaw", "--m", "60", "--n", "41",
                 "--max-iter", value, "--out", str(out)]) == 1
    # gen and wsvd read no --max-iter, so the parser refuses it
    want = (f"unrecognized arguments: --max-iter {value}" if command in ("gen", "wsvd")
            else f"--max-iter must be >= 1, got {value}")
    assert want in capsys.readouterr().err
    assert not out.exists()


# the common options each command does not read; VALUES gives each a valid value
IGNORED = [(command, option)
           for command, options in (("gen", ["--rule", "--tau", "--max-iter", "--method"]),
                                    ("wsvd", ["--epsilon", "--seed", "--rule", "--tau",
                                              "--max-iter", "--method"]),
                                    ("lcurve", ["--rule", "--tau", "--method"]),
                                    ("triplets", ["--rule", "--tau", "--method"]))
           for option in options]
VALUES = {"--epsilon": "1e-2", "--seed": "3", "--rule": "oracle", "--tau": "2",
          "--max-iter": "5", "--method": "lsqr"}


@pytest.mark.parametrize("command, option", IGNORED, ids=[" ".join(p) for p in IGNORED])
def test_an_option_the_command_does_not_read_exits_1(tmp_path, capsys, monkeypatch,
                                                      command, option):
    assert len(IGNORED) == 16
    monkeypatch.setattr(cli, "build_problem", None)  # any work would raise TypeError
    out = tmp_path / "out"
    assert main([command, "--problem", "shaw", "--m", "60", "--n", "41",
                 option, VALUES[option], "--out", str(out)]) == 1
    assert f"unrecognized arguments: {option} {VALUES[option]}" in capsys.readouterr().err
    assert not out.exists()


# each instance option at its default value, which --in refuses all the same
INSTANCE = [["--problem", "shaw"], ["--m", "60"], ["--n", "41"], ["--epsilon", "1e-3"],
            ["--seed", "0"]]


@pytest.mark.parametrize("given", [*INSTANCE, sum(INSTANCE, [])],
                         ids=[*(o[0] for o in INSTANCE), "all"])
def test_solve_in_with_an_instance_option_exits_1(tmp_path, capsys, monkeypatch, given):
    # the directory is the whole instance, so an instance option would go unread
    monkeypatch.setattr(cli, "load_problem", None)  # any work would raise TypeError
    monkeypatch.setattr(cli, "build_problem", None)
    out = tmp_path / "out"
    assert main(["solve", "--in", str(tmp_path), *given, "--out", str(out)]) == 1
    assert ("--in reads the instance from its directory; drop " + ", ".join(given[::2])
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("option, values", [("--epsilon", ["1e-2", "0.01"]),
                                            ("--seed", ["0", "1", "0"]),
                                            ("--method", ["wlsqr", "wlsqr"]),
                                            ("--rule", ["dp", "lc", "dp"])],
                         ids=["epsilon", "seed", "method", "rule"])
@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_a_repeated_value_in_a_list_option_exits_1(tmp_path, capsys, monkeypatch,
                                                   command, option, values):
    # a repeat would only write the same rows again
    monkeypatch.setattr(cli, "build_problem", None)  # any work would raise TypeError
    out = tmp_path / "out"
    assert main([command, "--problem", "shaw", "--m", "60", "--n", "41",
                 option, *values, "--out", str(out)]) == 1
    assert f"{option} repeats a value" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("tau", ["nan", "inf"])
def test_solve_rejects_a_non_finite_tau(tmp_path, capsys, tau):
    rc = main(["solve", "--problem", "shaw", "--m", "60", "--n", "41",
               "--epsilon", "1e-2", "--tau", tau, "--rule", "dp", "--out", str(tmp_path)])
    assert rc == 1
    assert "tau" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_error_status_keeps_the_row_intact():
    assert _error_status(ValueError("a, b\nc")) == "error: ValueError: a; b c"
    assert _error_status(RuntimeError()) == "error: RuntimeError"


def test_sweep_config_round_trip_on_disk(tmp_path, capsys):
    main(["sweep", "--problem", "green", "--m", "60", "--n", "51",
          "--epsilon", "1e-2", "--seed", "0", "--method", "wlsqr",
          "--rule", "oracle", "--out", str(tmp_path)])
    capsys.readouterr()
    assert (tmp_path / "sweep_green_config.txt").read_text() == (
        "problem=green\nm=60\nn=51\nepsilons=0.01\nseeds=0\nrules=oracle\n"
        f"methods=wlsqr\ntau=1.01\nmax_iter=None\nout={tmp_path}\n")


def test_a_default_sweep_config_lists_the_six_levels(tmp_path, capsys):
    assert main(["sweep", "--problem", "shaw", "--m", "40", "--n", "31", "--seed", "0", "1",
                 "--method", "tikh-opt", "--rule", "dp", "lc", "--max-iter", "9",
                 "--tau", "1.5", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "sweep_shaw_config.txt").read_text() == (
        "problem=shaw\nm=40\nn=31\nepsilons=0.032,0.016,0.008,0.004,0.002,0.001\n"
        f"seeds=0,1\nrules=dp,lc\nmethods=tikh-opt\ntau=1.5\nmax_iter=9\nout={tmp_path}\n")


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


LC_ARGS = ["--problem", "shaw", *SMALL, "--epsilon", "1e-2", "--seed", "0",
           "--max-iter", "15"]


@pytest.fixture(scope="module")
def shaw_lc_history():
    # the 15-point lc history of LC_ARGS, corner at k = 6
    problem = build_problem("shaw", 120, 101)
    noisy = add_noise(problem, 1e-2, 0)
    _, record = spr_solve(problem.a, problem.weight, noisy.b, StoppingRule("lc"),
                          max_iter=15)
    assert record.stop_index == 6
    return record


def write_points(path, record, first_k):
    with open(path, "w") as fh:
        fh.write("k,res_norm,sol_mnorm\n")
        for i, (r, mn) in enumerate(zip(record.residual_norms, record.solution_m_norms)):
            fh.write(f"{first_k + i},{float(r)!r},{float(mn)!r}\n")


def test_lcurve_points_of_a_run_write_the_run_csv(tmp_path, capsys, shaw_lc_history):
    write_points(tmp_path / "pts.csv", shaw_lc_history, 1)
    assert main(["lcurve", *LC_ARGS, "--out", str(tmp_path / "run")]) == 0
    assert main(["lcurve", "--points", str(tmp_path / "pts.csv"),
                 "--out", str(tmp_path / "pts")]) == 0
    capsys.readouterr()
    text = (tmp_path / "pts" / "lcurve.csv").read_text()
    assert text == (tmp_path / "run" / "lcurve.csv").read_text()
    corner = [line for line in text.splitlines() if line.endswith(",true")]
    assert len(corner) == 1 and corner[0].startswith("6,")


@pytest.mark.parametrize("first_k", [0, 10])
def test_lcurve_points_rejects_a_k_column_not_counting_from_one(tmp_path, capsys,
                                                                shaw_lc_history, first_k):
    write_points(tmp_path / "pts.csv", shaw_lc_history, first_k)
    assert main(["lcurve", "--points", str(tmp_path / "pts.csv"),
                 "--out", str(tmp_path)]) == 1
    assert f"data row 1 has k = {first_k}" in capsys.readouterr().err
    assert not (tmp_path / "lcurve.csv").exists()


def test_lcurve_points_rejects_a_short_row(tmp_path, capsys, shaw_lc_history):
    write_points(tmp_path / "pts.csv", shaw_lc_history, 1)
    with open(tmp_path / "pts.csv", "a") as fh:
        fh.write("16,0.5\n")
    assert main(["lcurve", "--points", str(tmp_path / "pts.csv"),
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "invalid configuration" in err and "data row 16 has 2 column(s)" in err
    assert not (tmp_path / "lcurve.csv").exists()


def test_lcurve_points_rejects_a_field_that_does_not_parse(tmp_path, capsys,
                                                         shaw_lc_history):
    write_points(tmp_path / "pts.csv", shaw_lc_history, 1)
    with open(tmp_path / "pts.csv", "a") as fh:
        fh.write("16,abc,0.5\n")
    assert main(["lcurve", "--points", str(tmp_path / "pts.csv"),
                 "--out", str(tmp_path)]) == 1
    assert (f"{tmp_path / 'pts.csv'}: data row 16: could not convert string to float: "
            "'abc'" in capsys.readouterr().err)
    assert not (tmp_path / "lcurve.csv").exists()


@pytest.mark.parametrize("value", ["0", "-1"])
def test_solve_twsvd_rejects_a_max_iter_below_one(tmp_path, capsys, value):
    assert main(["solve", "--problem", "shaw", "--m", "60", "--n", "41",
                 "--method", "twsvd", "--rule", "dp", "--max-iter", value,
                 "--out", str(tmp_path)]) == 1
    assert f"--max-iter must be >= 1, got {value}" in capsys.readouterr().err


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


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf"])
def test_triplets_rejects_a_triplet_tol_that_is_not_finite_and_nonnegative(
        tmp_path, capsys, monkeypatch, tol):
    # nan marked every triplet false, -1 too, and inf every one true
    monkeypatch.setattr(cli, "build_problem", None)  # any work would raise TypeError
    out = tmp_path / "out"
    rc = main(["triplets", "--problem", "shaw", "--m", "60", "--n", "41",
               "--epsilon", "0", f"--triplet-tol={tol}", "--out", str(out)])
    assert rc == 1
    assert "--triplet-tol must be finite and >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_triplets_accepts_a_zero_triplet_tol(tmp_path, capsys):
    assert main(["triplets", "--problem", "shaw", "--m", "60", "--n", "41",
                 "--epsilon", "0", "--count", "3", "--triplet-tol", "0",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert len(read_csv(tmp_path / "triplets_shaw.csv")) == 3


@pytest.mark.parametrize("command", ["gen", "sweep"])
@pytest.mark.parametrize("epsilon", ["nan", "inf"])
def test_a_non_finite_epsilon_exits_1_and_writes_nothing(tmp_path, capsys, command,
                                                         epsilon):
    out = tmp_path / "out"
    rc = main([command, "--problem", "shaw", "--m", "40", "--n", "31",
               "--epsilon", epsilon, "--seed", "0", "--out", str(out)])
    assert rc == 1
    assert f"epsilon must be finite and >= 0, got {epsilon}" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_exit_code_usage_errors(tmp_path, capsys):
    # dp without noise, for each method that selects with the rule
    for method in ("wlsqr", "lsqr", "twsvd"):
        assert main(["solve", "--problem", "shaw", *SMALL, "--epsilon", "0", "--seed", "0",
                     "--rule", "dp", "--method", method, "--out", str(tmp_path)]) == 1
    # even n
    assert main(["solve", "--problem", "shaw", "--m", "40", "--n", "30",
                 "--epsilon", "1e-3", "--out", str(tmp_path)]) == 1
    # unknown problem name rejected by the parser
    assert main(["solve", "--problem", "nope"]) == 1
    # multiple epsilons passed to a single solve
    assert main(["solve", "--problem", "shaw", *SMALL,
                 "--epsilon", "1e-2", "1e-3", "--out", str(tmp_path)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("value", ["on", "off"])
def test_reorth_option_is_gone(tmp_path, capsys, monkeypatch, value):
    # the recursion always reorthogonalizes, so --reorth is a usage error
    monkeypatch.setattr(cli, "build_problem", None)  # any work would raise TypeError
    assert main(["triplets", "--problem", "shaw", "--m", "60", "--n", "41",
                 "--epsilon", "0", "--reorth", value, "--out", str(tmp_path)]) == 1
    assert "--reorth" in capsys.readouterr().err


def test_paper_h_option_is_gone(tmp_path, capsys, monkeypatch):
    # the quadrature has one spacing, (t2 - t1)/(n - 1); a constant factor
    # on the weights only rescales A, M and b, so no option selects another
    monkeypatch.setattr(cli, "build_problem", None)  # any work would raise TypeError
    assert main(["gen", "--problem", "shaw", "--m", "60", "--n", "41",
                 "--epsilon", "0", "--paper-h", "--out", str(tmp_path)]) == 1
    assert "--paper-h" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_solve_in_a_directory_whose_meta_lacks_a_key_exits_1(tmp_path, capsys):
    main(["gen", "--problem", "shaw", "--m", "40", "--n", "31", "--epsilon", "1e-2",
          "--out", str(tmp_path)])
    meta = Path(capsys.readouterr().out.strip(), "meta")
    meta.write_text("".join(line for line in meta.read_text().splitlines(keepends=True)
                            if not line.startswith("m=")))
    assert main(["solve", "--in", str(meta.parent), "--out", str(tmp_path / "out")]) == 1
    assert f"invalid configuration: {meta}: no 'm' key" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_solve_in_a_directory_whose_meta_value_does_not_parse_exits_1(tmp_path, capsys):
    main(["gen", "--problem", "shaw", "--m", "40", "--n", "31", "--epsilon", "1e-2",
          "--out", str(tmp_path)])
    meta = Path(capsys.readouterr().out.strip(), "meta")
    meta.write_text(meta.read_text().replace("m=40", "m=4o"))
    assert main(["solve", "--in", str(meta.parent), "--out", str(tmp_path / "out")]) == 1
    assert (f"invalid configuration: {meta}: key 'm': invalid literal for int() "
            "with base 10: '4o'" in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_exit_code_runtime_error(tmp_path, capsys):
    rc = main(["solve", "--in", str(tmp_path / "missing_dir"),
               "--out", str(tmp_path)])
    assert rc == 2
    capsys.readouterr()


# -- the README is a map of the package; these keep it true ---------------------

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def readme_section(title):
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def table(section):
    """The rows of the one markdown table in section, header first, each as
    its list of cells."""
    rows = [[c.strip() for c in line.strip().strip("|").split("|")]
            for line in section.splitlines() if line.startswith("|")]
    return [r for r in rows if not set(r[0]) <= set("-")]


def test_every_readme_command_parses():
    # nothing is run: each wsvd line of an sh block, continuations joined and
    # comments dropped, must parse, so it names only options its command reads
    lines = [line.split("#")[0].strip()
             for block in re.findall(r"^```sh\n(.*?)^```", README, re.S | re.M)
             for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("wsvd ")]
    parser = cli._build_parser()
    for argv in commands:
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: wsvd {' '.join(argv)}")
        assert args.run.__name__ == f"cmd_{argv[0]}"
    assert {argv[0] for argv in commands} == {
        "gen", "solve", "sweep", "lcurve", "wsvd", "triplets"}


def test_every_name_in_the_readme_map_is_public_in_its_module():
    rows = table(readme_section("The paper in the code"))[1:]
    assert {row[1] for row in rows} >= {
        "`weights`", "`decomposition`", "`bidiag`", "`solver`", "`regularization`"}
    for _, module, names in rows:
        module = importlib.import_module(f"wsvd.{module.strip('`')}")
        names = re.findall(r"`([^`]+)`", names)
        assert names and not [n for n in names if n.startswith("_")], names
        assert not [n for n in names if not hasattr(module, n)], (module, names)


def test_the_readme_results_are_read_from_the_committed_tables():
    header, *rows = table(readme_section("Results"))
    assert [row[0] for row in rows] == ["shaw", "phillips", "expst", "green"]
    for name, *cells in rows:
        picks = {(r["method"], r["rule"]): r
                 for r in read_csv(ROOT / "tables" / f"sweep_{name}.csv")
                 if (r["epsilon"], r["seed"]) == ("0.001", "0")}
        for column, cell in zip(header[1:], cells):
            method, _, rule = column.partition(" ")
            row = picks[method, rule or "oracle"]
            want = f"{float(row['rel_err']):.2e}"
            assert cell == (want if method == "tikh-opt" else f"{row['stop_k']}, {want}")
