import json
import os

import numpy as np
import pytest

from hmmforget import LGSSM, GridSpec, InitialDistribution, run_two_filters, simulate
from hmmforget.cli import main

MODEL = {"kind": "lgssm", "phi": 0.9, "sigma": 1.0, "beta": 1.0}
GAUSS = lambda m: {"form": "gaussian", "mean": m, "sd": 1.0}


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def experiment_cfg():
    return {"model": MODEL, "nu": GAUSS(-2), "nu_prime": GAUSS(2),
            "nu_star": GAUSS(0), "n": 15, "replications": 2}


def test_missing_seed_exits_2_and_names_seed(tmp_path, capsys):
    cfg = write_cfg(tmp_path, experiment_cfg())
    code = main(["experiment", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["filter", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    code = main(["filter", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 2


@pytest.mark.parametrize("extra,code", [
    (["--set", "grid.m=5"], 2),
    (["--threads", "-1"], 2),
    (["--threads", "0"], 2),
    (["--set", "nu.sd=0"], 2),
    (["--set", "n=0"], 2),
    (["--set", "grid.lo=3", "--set", "grid.hi=1"], 2),
    (["--set", "grid.lo=-100", "--set", "grid.hi=100"], 1),  # DomainError is a ValueError
    (["--set", 'nu.sd="abc"'], 2),
    (["--set", 'model.phi="x"'], 2),
    (["--set", "model.phi=null"], 2),
    (["--set", "grid=3"], 2),
    (["--set", "model.drift=3"], 2),
    (["--set", "bound=3"], 2),
    (["--set", "n=null"], 2),
    (["--set", "model.kind=[1]"], 2),
    (["--set", "nu.form=[1]"], 2),
])
def test_invalid_values_exit_code(tmp_path, capsys, extra, code):
    cfg = write_cfg(tmp_path, experiment_cfg())
    assert main(["experiment", "--config", cfg, "--seed", "1",
                 "--out", str(tmp_path / "o"), *extra]) == code
    err = capsys.readouterr().err
    assert err.startswith("configuration error" if code == 2 else "error")


@pytest.mark.parametrize("observations", [3, {"file": 3}, {"simulate": 3}])
def test_mistyped_observations_exit_2(tmp_path, capsys, observations):
    cfg = write_cfg(tmp_path, {"model": MODEL, "nu": GAUSS(-2), "nu_prime": GAUSS(2),
                               "observations": observations})
    assert main(["filter", "--config", cfg, "--seed", "1",
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("configuration error")


def test_negative_tobit_observation_named_exits_1(tmp_path, capsys):
    record = tmp_path / "y.csv"
    record.write_text("y\n0.0\n1.5\n0.2\n-0.3\n0.7\n")
    cfg = write_cfg(tmp_path, {
        "model": {"kind": "tobit", "phi": 0.5, "sigma": 1.0, "beta": 1.0},
        "nu": GAUSS(-2), "nu_prime": GAUSS(2), "observations": {"file": str(record)}})
    assert main(["filter", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error") and "3" in err and "-0.3" in err


def test_null_entries_select_defaults(tmp_path):
    cfg = write_cfg(tmp_path, {
        "model": {**MODEL, "domain_halfwidth": None}, "nu": GAUSS(-2), "nu_prime": GAUSS(2),
        "grid": {"lo": None, "hi": None, "m": None},
        "observations": {"simulate": {"init": GAUSS(0), "n": 6}},
        "bound": {"form": "geometric", "beta": 0.2, "gamma": 0.5, "eta": 0.5, "K": None,
                  "D": {"interval": [-2, 2]}, "C": {"interval": [-3, 3]}},
    })
    assert main(["bound", "--config", cfg, "--seed", "3", "--out", str(tmp_path / "b")]) == 0


def test_unknown_model_kind_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {**experiment_cfg(), "model": {"kind": "bogus"}})
    code = main(["experiment", "--config", cfg, "--seed", "1",
                 "--out", str(tmp_path / "o")])
    assert code == 2


def test_experiment_outputs_and_resolved_config(tmp_path):
    cfg = write_cfg(tmp_path, experiment_cfg())
    out = tmp_path / "out"
    assert main(["experiment", "--config", cfg, "--seed", "5",
                 "--out", str(out)]) == 0
    assert (out / "tv_curves.csv").exists()
    assert (out / "rates.csv").exists()
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["seed"] == 5
    assert resolved["model"]["phi"] == 0.9
    # nothing written outside --out
    assert set(os.listdir(tmp_path)) == {"cfg.json", "out"}


def test_thread_determinism_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, experiment_cfg())
    outs = []
    for threads in (1, 4):
        out = tmp_path / f"t{threads}"
        assert main(["experiment", "--config", cfg, "--seed", "9",
                     "--threads", str(threads), "--out", str(out)]) == 0
        outs.append(out)
    for name in ("tv_curves.csv", "rates.csv", "summary.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_set_override_wins_over_file(tmp_path):
    cfg = write_cfg(tmp_path, experiment_cfg())
    out = tmp_path / "o"
    assert main(["experiment", "--config", cfg, "--seed", "5",
                 "--set", "replications=3", "--set", "model.phi=0.5",
                 "--out", str(out)]) == 0
    data = np.genfromtxt(out / "tv_curves.csv", delimiter=",", names=True)
    assert int(data["rep"].max()) == 2  # three replications: 0, 1, 2
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["model"]["phi"] == 0.5


def test_simulate_and_filter_subcommands(tmp_path):
    sim_cfg = write_cfg(tmp_path, {"model": MODEL, "init": GAUSS(0),
                                   "n": 10, "replications": 2}, "sim.json")
    out = tmp_path / "sim"
    assert main(["simulate", "--config", sim_cfg, "--seed", "3",
                 "--out", str(out)]) == 0
    assert (out / "trajectory_0000.csv").exists()
    assert (out / "trajectory_0001.csv").exists()

    filt_cfg = write_cfg(tmp_path, {
        "model": MODEL, "nu": GAUSS(-2), "nu_prime": GAUSS(2),
        "observations": {"simulate": {"init": GAUSS(0), "n": 10}},
    }, "filt.json")
    out2 = tmp_path / "filt"
    assert main(["filter", "--config", filt_cfg, "--seed", "3",
                 "--out", str(out2)]) == 0
    trace = np.genfromtxt(out2 / "filter_trace.csv", delimiter=",", names=True)
    assert len(trace) == 11
    assert np.all((trace["tv"] >= 0) & (trace["tv"] <= 1))


def test_bound_subcommand(tmp_path):
    cfg = write_cfg(tmp_path, {
        "model": MODEL, "nu": GAUSS(-2), "nu_prime": GAUSS(2),
        "observations": {"simulate": {"init": GAUSS(0), "n": 12}},
        "bound": {"form": "geometric", "beta": 0.2, "gamma": 0.5, "eta": 0.5,
                  "D": {"interval": [-2, 2]}, "C": {"interval": [-3, 3]}},
    }, "bound.json")
    out = tmp_path / "b"
    assert main(["bound", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
    assert (out / "bound.csv").exists()
    assert (out / "bound_summary.json").exists()


def test_verify_subcommand(tmp_path, capsys):
    out = tmp_path / "v"
    assert main(["verify", "--suite", "counting", "--out", str(out)]) == 0
    assert (out / "verify.csv").exists()
    assert "all_hold=True" in capsys.readouterr().out


def test_grid_flags_applied(tmp_path):
    cfg = write_cfg(tmp_path, {
        "model": MODEL, "nu": GAUSS(-2), "nu_prime": GAUSS(2),
        "observations": {"simulate": {"init": GAUSS(0), "n": 5}},
    })
    out = tmp_path / "g"
    assert main(["filter", "--config", cfg, "--seed", "3", "--set", "grid.lo=-6",
                 "--set", "grid.hi=6", "--set", "grid.m=128", "--out", str(out)]) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["grid"] == {"lo": -6, "hi": 6, "m": 128}
    trace = np.genfromtxt(out / "filter_trace.csv", delimiter=",", names=True)
    grid = GridSpec(-6.0, 6.0, 128)
    nu, nu_prime = (InitialDistribution.gaussian(m, 1.0) for m in (-2, 2))
    obs = simulate(LGSSM(0.9, 1.0, 1.0), 5, InitialDistribution.gaussian(0, 1.0), 3).obs
    expected = run_two_filters(LGSSM(0.9, 1.0, 1.0), grid, nu, nu_prime, obs)
    assert np.array_equal(trace["tv"], [r[1] for r in expected])


ROUND_TRIP = {
    "simulate": {"model": MODEL, "init": GAUSS(0), "n": 10, "replications": 2},
    "filter": {"model": MODEL, "nu": GAUSS(-2), "nu_prime": GAUSS(2),
               "observations": {"simulate": {"init": GAUSS(0), "n": 10}}},
    "bound": {"model": MODEL, "nu": GAUSS(-2), "nu_prime": GAUSS(2),
              "observations": {"simulate": {"init": GAUSS(0), "n": 12}},
              "bound": {"form": "geometric", "beta": 0.2, "gamma": 0.5, "eta": 0.5,
                        "D": {"interval": [-2, 2]}, "C": {"interval": [-3, 3]}}},
    "experiment": {**experiment_cfg(),
                   "bound": {"beta": 0.2, "gamma": 0.5, "eta": 0.5, "M1": 3.0,
                             "D": {"interval": [-2, 2]}, "C": {"interval": [-3, 3]}},
                   "r_sequences": True},
}


def read_dir(path):
    return {name: (path / name).read_bytes() for name in sorted(os.listdir(path))}


@pytest.mark.parametrize("command", list(ROUND_TRIP))
def test_rerun_from_resolved_config_is_byte_identical(tmp_path, command):
    cfg = write_cfg(tmp_path, ROUND_TRIP[command])
    first, second = tmp_path / "first", tmp_path / "second"
    assert main([command, "--config", cfg, "--seed", "4", "--threads", "2",
                 "--set", "grid.lo=-7", "--set", "grid.hi=7", "--set", "grid.m=128",
                 "--out", str(first)]) == 0
    assert main([command, "--config", str(first / "resolved_config.json"),
                 "--out", str(second)]) == 0
    outputs = read_dir(first)
    assert len(outputs) > 1
    assert read_dir(second) == outputs


def test_rerun_verify_from_resolved_config(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["verify", "--suite", "counting", "--out", str(first)]) == 0
    assert json.loads((first / "resolved_config.json").read_text()) == {"suite": "counting"}
    assert main(["verify", "--config", str(first / "resolved_config.json"),
                 "--out", str(second)]) == 0
    assert read_dir(second) == read_dir(first)


def test_failed_runs_leave_resolved_config(tmp_path):
    record = tmp_path / "y.csv"
    record.write_text("y\n0.0\n1.5\n-0.3\n")
    cfg = write_cfg(tmp_path, {
        "model": {"kind": "tobit", "phi": 0.5, "sigma": 1.0, "beta": 1.0},
        "nu": GAUSS(-2), "nu_prime": GAUSS(2), "observations": {"file": str(record)}})
    out = tmp_path / "domain"
    assert main(["filter", "--config", cfg, "--out", str(out)]) == 1
    assert json.loads((out / "resolved_config.json").read_text())["model"]["kind"] == "tobit"

    cfg = write_cfg(tmp_path, experiment_cfg(), "exp.json")
    out = tmp_path / "config"
    assert main(["experiment", "--config", cfg, "--seed", "1", "--set", "nu.sd=0",
                 "--out", str(out)]) == 2
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["nu"]["sd"] == 0 and resolved["seed"] == 1


@pytest.mark.parametrize("model", [
    {**MODEL, "bogus": 1.0},
    {"kind": "finite", "transition": [[0.9, 0.1], [0.2, 0.8]],
     "emission": [[0.3, 0.7], [0.6, 0.4]], "drift": {"form": "one"}},
    {"kind": "lgssm", "sigma": 1.0, "beta": 1.0},
])
def test_unknown_or_missing_model_key_exits_2_and_names_it(tmp_path, capsys, model):
    cfg = write_cfg(tmp_path, {**experiment_cfg(), "model": model})
    assert main(["experiment", "--config", cfg, "--seed", "1",
                 "--out", str(tmp_path / "o")]) == 2
    key = ({"bogus", "drift"} & model.keys() or {"phi"}).pop()
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and repr(key) in err
