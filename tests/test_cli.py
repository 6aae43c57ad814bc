import csv

import numpy as np
import pytest

from wsvd import load_problem
from wsvd.cli import ExperimentConfig, main


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


SMALL = ["--m", "120", "--n", "101"]


def test_config_round_trip():
    cfg = ExperimentConfig(problem="green", m=77, n=None,
                           epsilons=[3.2e-2, 1e-3], seeds=[0, 4],
                           rules=["dp", "lc"], methods=["wlsqr", "twsvd"],
                           tau=1.05, max_iter=44, reorth=False,
                           paper_h=True, jobs=3, out="somewhere")
    assert ExperimentConfig.from_text(cfg.to_text()) == cfg


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
               "--jobs", "2", "--out", str(tmp_path)])
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


def test_wsvd_dump(tmp_path, capsys):
    rc = main(["wsvd", "--problem", "green", "--out", str(tmp_path)])
    assert rc == 0
    outdir = capsys.readouterr().out.splitlines()[0]
    sig = read_csv(f"{outdir}/sigma.csv")
    vals = [float(r["sigma"]) for r in sig]
    assert vals == sorted(vals, reverse=True)
    raw = open(f"{outdir}/U", "rb").read()
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
