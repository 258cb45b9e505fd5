import json
import os

import numpy as np
import pytest

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
    (["--grid-m", "5"], 2),
    (["--threads", "-1"], 2),
    (["--threads", "0"], 2),
    (["--set", "nu.sd=0"], 2),
    (["--set", "n=0"], 2),
    (["--grid-lo", "3", "--grid-hi", "1"], 2),
    (["--grid-lo", "-100", "--grid-hi", "100"], 1),  # DomainError is a ValueError
])
def test_invalid_values_exit_code(tmp_path, capsys, extra, code):
    cfg = write_cfg(tmp_path, experiment_cfg())
    assert main(["experiment", "--config", cfg, "--seed", "1",
                 "--out", str(tmp_path / "o"), *extra]) == code
    err = capsys.readouterr().err
    assert err.startswith("configuration error" if code == 2 else "error")


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
    assert main(["filter", "--config", cfg, "--seed", "3", "--grid-lo", "-6",
                 "--grid-hi", "6", "--grid-m", "128", "--out", str(out)]) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["grid_m"] == 128
