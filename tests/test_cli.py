import collections
import json
import os

import numpy as np
import pytest

from hmmforget import LGSSM, GridSpec, InitialDistribution, run_two_filters, simulate
from hmmforget import bounds, cli, experiments, gridfilter, models
from hmmforget.bounds import _log_sup
from hmmforget.cli import main
from hmmforget.reports import write_trajectory_csv

MODEL = {"kind": "lgssm", "phi": 0.9, "sigma": 1.0, "beta": 1.0}
NLSSM_MODEL = {"kind": "nlssm", "drift_form": "linear_shrink", "delta": 0.5,
               "sigma0": 1.0, "beta": 0.7}
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
    (["--set", "n=20.7"], 2),
    (["--set", "replications=2.5"], 2),
    (["--set", "grid.m=64.9"], 2),
    (["--set", "threads=1.5"], 2),
])
def test_invalid_values_exit_code(tmp_path, capsys, extra, code):
    cfg = write_cfg(tmp_path, experiment_cfg())
    assert main(["experiment", "--config", cfg, "--seed", "1",
                 "--out", str(tmp_path / "o"), *extra]) == code
    err = capsys.readouterr().err
    assert err.startswith("configuration error" if code == 2 else "error")


@pytest.mark.parametrize("command, override, section, key", [
    ("experiment", "n=20.7", "config", "n"),
    ("experiment", "seed=1.5", "config", "seed"),
    ("experiment", "grid.m=64.9", "grid", "m"),
    ("filter", "observations.simulate.n=6.5", "observations.simulate", "n"),
    ("filter", "observations.simulate.replication=0.5", "observations.simulate",
     "replication"),
    ("simulate", "replications=1.5", "config", "replications"),
])
def test_non_integral_count_exits_2_and_names_it(tmp_path, capsys, command, override,
                                                 section, key):
    cfg = write_cfg(tmp_path, ROUND_TRIP[command])
    seed = [] if key == "seed" else ["--seed", "1"]
    assert main([command, "--config", cfg, *seed, "--set", override,
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(
        f"configuration error: {section} entry {key!r} must be an integer")


def test_seed_of_2_to_the_64_is_taken_whole(tmp_path, capsys):
    # NumPy holds such an int as an object array, which is still a number
    cfg = write_cfg(tmp_path, {"model": MODEL, "init": GAUSS(0), "n": 12})
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--seed", str(2**64), "--out", str(out)]) == 0
    ref = tmp_path / "ref"
    ref.mkdir()
    traj = simulate(LGSSM(0.9, 1.0, 1.0), 12, InitialDistribution.gaussian(0, 1.0), 2**64)
    write_trajectory_csv(traj, str(ref / "trajectory_0000.csv"))
    assert (out / "trajectory_0000.csv").read_bytes() == (ref / "trajectory_0000.csv").read_bytes()
    assert main(["simulate", "--config", cfg, "--set", "seed=1.5", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "configuration error: config entry 'seed' must be an integer")


@pytest.mark.parametrize("model, init", [
    (MODEL, GAUSS(0)),
    ({"kind": "tobit", "phi": 0.5, "sigma": 1.0, "beta": 1.0},
     {"form": "uniform", "lo": -1, "hi": 1}),
    ({"kind": "stochvol", "phi": 0.9, "sigma": 0.3, "beta": 1.0}, GAUSS(0)),
    ({"kind": "nlssm", "drift_form": "tanh", "delta": 0.5, "sigma0": 1.0, "beta": 1.0,
      "kappa": -1.5}, {"form": "point_mass", "at": 0.5}),
    ({"kind": "finite", "transition": [[0.8, 0.2], [0.3, 0.7]],
      "emission": [[0.6, 0.4], [0.3, 0.7]]}, {"form": "finite", "weights": [0.5, 0.5]}),
], ids=["lgssm", "tobit", "stochvol", "nlssm", "finite"])
def test_simulate_draws_every_replication_in_one_record_pass(tmp_path, monkeypatch, model, init):
    # each replication is one record pass of its own, so one record is in
    # memory at a time; each file is the bytes of simulate(..., r)'s trajectory
    draws = []
    record_pass = models._simulate_records

    def counted(*args):
        draws.append(list(args[-1]))
        return record_pass(*args)

    monkeypatch.setattr(models, "_simulate_records", counted)
    cfg = write_cfg(tmp_path, {"model": model, "init": init, "n": 30, "replications": 4})
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--seed", "5", "--out", str(out)]) == 0
    assert draws == [[0], [1], [2], [3]]
    built, law = cli.build_model(model), cli.build_init(init, "init")
    for rep in range(4):
        ref = tmp_path / f"ref{rep}.csv"
        write_trajectory_csv(simulate(built, 30, law, 5, replication=rep), str(ref))
        assert (out / f"trajectory_{rep:04d}.csv").read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("replications", [0, -1])
def test_simulate_without_replications_exits_2(tmp_path, capsys, replications):
    cfg = write_cfg(tmp_path, {"model": MODEL, "init": GAUSS(0), "n": 10,
                               "replications": replications})
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--seed", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("configuration error")
    assert not list(out.glob("trajectory_*.csv"))


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


def test_a_nan_observation_past_the_first_block_is_named_by_its_step(tmp_path, capsys):
    # step 300 falls in the filter's second likelihood block, of 163 steps
    # at m = 400: the record is checked before the pass, so the error names
    # step 300 of the record, not its place (137) in the block
    obs = simulate(LGSSM(0.9, 1.0, 1.0), 400, InitialDistribution.gaussian(0, 1), seed=3).obs
    obs[300] = np.nan
    record = tmp_path / "y.csv"
    record.write_text("y\n" + "".join(f"{y!r}\n" for y in obs.tolist()))
    cfg = write_cfg(tmp_path, {"model": MODEL, "nu": GAUSS(-2), "nu_prime": GAUSS(2),
                               "grid": {"m": 400}, "observations": {"file": str(record)}})
    assert main(["filter", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: lgssm observation 300 (nan) is not finite\n"


def test_null_entries_select_defaults(tmp_path):
    cfg = write_cfg(tmp_path, {
        "model": {**MODEL, "domain_halfwidth": None}, "nu": GAUSS(-2), "nu_prime": GAUSS(2),
        "grid": {"lo": None, "hi": None, "m": None},
        "observations": {"simulate": {"init": GAUSS(0), "n": 6}},
        "bound": {"form": "geometric", "beta": 0.2, "gamma": 0.5, "eta": 0.5, "K": None,
                  "D": {"interval": [-2, 2]}, "C": {"interval": [-3, 3]}},
    })
    assert main(["bound", "--config", cfg, "--seed", "3", "--out", str(tmp_path / "b")]) == 0


def bound_experiment_cfg():
    return {**experiment_cfg(), "grid": {"m": 64},
            "bound": {"beta": 0.2, "gamma": 0.5, "eta": 0.5, "M1": 2.0,
                      "D": {"interval": [-2, 2]}, "C": {"interval": [-3, 3]}}}


@pytest.mark.parametrize("override, section, key", [
    ("bound.m1=5", "bound", "m1"), ("nu.sdd=3", "nu", "sdd"), ("grid.mm=5", "grid", "mm"),
    ("bound.D.intervall=[-1, 1]", "LD-set", "intervall"),
    ("nu_star.mean_=0", "nu_star", "mean_"), ("model.drift.cc=1", "drift", "cc"),
    ("r_sequence=true", "config", "r_sequence"),
])
def test_unknown_section_key_exits_2_and_names_it(tmp_path, capsys, override, section, key):
    cfg = write_cfg(tmp_path, bound_experiment_cfg())
    assert main(["experiment", "--config", cfg, "--seed", "1", "--set", override,
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {section} has unknown key {key!r}")


@pytest.mark.parametrize("command, observations", [
    ("filter", {"simulate": {"init": GAUSS(0), "n": 6, "seed": 3}}),
    ("filter", {"simulate": {"init": {**GAUSS(0), "scale": 2}, "n": 6}}),
    ("bound", {"simulate": {"init": GAUSS(0), "n": 6}, "files": "y.csv"}),
])
def test_unknown_observation_key_exits_2(tmp_path, capsys, command, observations):
    cfg = write_cfg(tmp_path, {**ROUND_TRIP[command], "observations": observations})
    assert main([command, "--config", cfg, "--seed", "1", "--out", str(tmp_path / "o")]) == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("override, with_bound", [
    ("r_sequences=3", True), ('r_sequences="yes"', True), ("r_sequences=1", True),
    ("r_sequences=true", False),
])
def test_r_sequences_must_be_true_or_false_and_have_a_bound(tmp_path, capsys, override,
                                                            with_bound):
    # 'r_sequences' is no longer a key: an experiment with a bound writes
    # r_seq.csv unasked, so every value, true too, exits 2 and names the key
    cfg = write_cfg(tmp_path, bound_experiment_cfg() if with_bound else experiment_cfg())
    assert main(["experiment", "--config", cfg, "--seed", "1", "--set", override,
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: config has unknown key 'r_sequences'")
    assert not (tmp_path / "o" / "r_seq.csv").exists()


@pytest.mark.parametrize("form", ["sharp", "sharpp", "Geometric"])
def test_experiment_bound_form_other_than_geometric_exits_2(tmp_path, capsys, form):
    cfg = write_cfg(tmp_path, bound_experiment_cfg())
    assert main(["experiment", "--config", cfg, "--seed", "1", "--set", f'bound.form="{form}"',
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error")
    assert f"'form' must be 'geometric', got {form!r}" in err


@pytest.mark.parametrize("override, message", [
    ("bound.M0=NaN", "M thresholds"), ("bound.M1=NaN", "M thresholds"),
    ("bound.M2=NaN", "M thresholds"), ("bound.K=[2, 0]", "K must"),
    ("bound.K=[NaN, 1]", "K must"),
])
def test_nan_threshold_or_empty_K_exits_2(tmp_path, capsys, override, message):
    cfg = write_cfg(tmp_path, bound_experiment_cfg())
    assert main(["experiment", "--config", cfg, "--seed", "1", "--set", override,
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and message in err
    assert not (tmp_path / "o" / "r_seq.csv").exists()


def test_geometric_bound_on_a_finite_model_without_C_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "model": {"kind": "finite", "transition": [[0.8, 0.2], [0.3, 0.7]],
                  "emission": [[0.6, 0.4], [0.3, 0.7]]},
        "nu": {"form": "finite", "weights": [0.9, 0.1]},
        "nu_prime": {"form": "finite", "weights": [0.1, 0.9]},
        "observations": {"simulate": {"init": {"form": "finite", "weights": [0.5, 0.5]},
                                      "n": 12}},
        "bound": {"form": "geometric", "beta": 0.2, "gamma": 0.5, "eta": 0.5,
                  "D": {"states": [0, 1]}},
    })
    assert main(["bound", "--config", cfg, "--seed", "3", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "explicit C" in err
    assert not (tmp_path / "o" / "bound.csv").exists()


def test_every_known_section_key_still_runs(tmp_path):
    cfg = write_cfg(tmp_path, {**bound_experiment_cfg(), "grid": {"lo": -10, "hi": 10, "m": 64}})
    assert main(["experiment", "--config", cfg, "--seed", "1", "--set", "bound.M0=2",
                 "--set", "bound.K=[-5, 5]", "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "r_seq.csv").exists()


def test_an_experiment_with_a_bound_is_one_pass(tmp_path, monkeypatch):
    # the filter, the bound and the r-sequences read one record pass, one
    # kernel and one evaluation of the envelopes and Phi
    calls = collections.Counter()

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (models, gridfilter, bounds, experiments, cli):
        for name in ("_simulate_records", "transition_kernel", "_record_terms"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(getattr(module, name)))
    cfg = write_cfg(tmp_path, bound_experiment_cfg())
    out = tmp_path / "o"
    assert main(["experiment", "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
    assert (out / "r_seq.csv").exists() and (out / "bound.csv").exists()
    assert calls == {"_simulate_records": 1, "transition_kernel": 1, "_record_terms": 1}


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
    assert not (out / "r_seq.csv").exists()  # no bound section, no r-sequences
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


# LGSSM(0, 1, 0.05) from N(0, 1) and N(3, 1) under a bound with eta = 1e-20 on
# K = D = [-2, 2]: its total falls below 1 with the K-frequency rule holding
SHARP_LGSSM = {"kind": "lgssm", "phi": 0.0, "sigma": 1.0, "beta": 0.05}
SHARP_BOUND = {"beta": 0.05, "gamma": 0.9, "eta": 1e-20, "K": [-2, 2],
               "D": {"interval": [-2, 2]}, "C": {"interval": [-2.48, 2.48]}}


def test_bound_searches_C_on_the_whole_record(tmp_path):
    # a C searched on the first 8 observations (+-1.600 here) breaks the
    # envelope Upsilon_{C^c} <= eta Upsilon_X at 717 of the 3790 observations
    # in K of this record at n = 4000, the first at index 10
    bound = {k: v for k, v in SHARP_BOUND.items() if k != "C"}
    cfg = write_cfg(tmp_path, {
        "model": SHARP_LGSSM, "nu": GAUSS(0), "nu_prime": GAUSS(3), "grid": {"m": 100},
        "observations": {"simulate": {"init": GAUSS(0), "n": 200}},
        "bound": {**bound, "eta": 1e-12}})
    out = tmp_path / "b"
    assert main(["bound", "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
    C = json.loads((out / "bound_summary.json").read_text())["inputs"]["C"]["interval"]
    model = LGSSM(0.0, 1.0, 0.05)
    obs = simulate(model, 200, InitialDistribution.gaussian(0, 1), 1).obs
    in_k = obs[(obs >= -2) & (obs <= 2)]
    ups_x, ups_cc = np.exp(_log_sup(model, ["all", ("complement", tuple(C))], in_k))
    assert np.all(ups_cc <= 1e-12 * ups_x)


def test_bound_search_on_tobit_with_0_in_K_exits_1(tmp_path, capsys):
    # at y = 0 tobit's likelihood peaks at the domain's lower end, in C^c for
    # every C: Upsilon_{C^c} = Upsilon_X, so no C meets the envelope.  From
    # N(5, 1) the record's first zero comes after its first 8 observations
    cfg = write_cfg(tmp_path, {
        "model": {"kind": "tobit", "phi": 0.9, "sigma": 1.0, "beta": 1.0},
        "nu": GAUSS(-2), "nu_prime": GAUSS(2), "grid": {"m": 64},
        "observations": {"simulate": {"init": GAUSS(5), "n": 40}},
        "bound": {"beta": 0.2, "gamma": 0.5, "eta": 0.5, "K": [0, 2],
                  "D": {"interval": [-2, 2]}}})
    assert main(["bound", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "o")]) == 1
    assert "eta" in capsys.readouterr().err
    assert not (tmp_path / "o" / "bound.csv").exists()


def sharp_experiment_cfg():
    return {"model": SHARP_LGSSM, "nu": GAUSS(0), "nu_prime": GAUSS(3), "nu_star": GAUSS(0),
            "n": 300, "replications": 3, "grid": {"m": 100}, "bound": SHARP_BOUND}


def test_experiment_bound_csv_is_the_bound_commands_on_each_record(tmp_path):
    # one bound.csv layout: rep r's rows, the r-th block, are without rep
    # the bytes that `hmmforget bound` writes on replication r's record,
    # header included
    exp = sharp_experiment_cfg()
    assert main(["experiment", "--config", write_cfg(tmp_path, exp), "--seed", "1",
                 "--out", str(tmp_path / "e")]) == 0
    header, *rows = (tmp_path / "e" / "bound.csv").read_text().splitlines(keepends=True)
    assert header.startswith("rep,")
    below = [r for r in rows if float(r.split(",")[5]) < 1 and r.endswith(",true\n")]
    assert below  # the ratio term shows through the total
    for rep in range(3):
        cfg = write_cfg(tmp_path, {
            **{k: exp[k] for k in ("model", "nu", "nu_prime", "grid", "bound")},
            "observations": {"simulate": {"init": exp["nu_star"], "n": exp["n"],
                                          "replication": rep}}}, f"bound{rep}.json")
        out = tmp_path / f"b{rep}"
        assert main(["bound", "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
        mine = rows[rep * (exp["n"] + 1):(rep + 1) * (exp["n"] + 1)]  # rep by rep
        assert all(r.startswith(f"{rep},") for r in mine)
        assert header.split(",", 1)[1] + "".join(r.split(",", 1)[1] for r in mine) == (
            out / "bound.csv").read_text()


def test_experiment_bound_summary_is_the_bound_commands(tmp_path):
    # the experiment's output directory records the bound's inputs: rho_C,
    # beta, gamma, eta, K, and C and D with their eps-/eps+, at any --threads
    cfg = write_cfg(tmp_path, {**sharp_experiment_cfg(), "n": 20})
    summaries = []
    for threads in (1, 2, 3):
        out = tmp_path / f"t{threads}"
        assert main(["experiment", "--config", cfg, "--seed", "1", "--threads", str(threads),
                     "--out", str(out)]) == 0
        summaries.append((out / "bound_summary.json").read_bytes())
    assert summaries[1:] == summaries[:1] * 2
    bound_cfg = write_cfg(tmp_path, {
        "model": SHARP_LGSSM, "nu": GAUSS(0), "nu_prime": GAUSS(3), "grid": {"m": 100},
        "observations": {"simulate": {"init": GAUSS(0), "n": 20}}, "bound": SHARP_BOUND},
        "bound.json")
    assert main(["bound", "--config", bound_cfg, "--seed", "1", "--out", str(tmp_path / "b")]) == 0
    summary = json.loads(summaries[0])
    assert summary == json.loads((tmp_path / "b" / "bound_summary.json").read_text())
    assert set(summary["inputs"]) == {"beta", "gamma", "eta", "K", "C", "D"}
    assert {"eps_minus", "eps_plus"} <= set(summary["inputs"]["C"]) & set(summary["inputs"]["D"])


@pytest.mark.parametrize("overrides, given", [
    (["grid.lo=-3"], "lo"), (["grid.hi=3"], "hi"),
    (["grid.lo=null", "grid.hi=3", "grid.m=64"], "hi"),
], ids=["lo", "hi", "hi-and-null-lo"])
def test_a_grid_end_without_the_other_exits_2_and_names_it(tmp_path, capsys, overrides,
                                                           given):
    # one end alone used to be ignored: the run wrote the default grid's trace
    cfg = write_cfg(tmp_path, ROUND_TRIP["filter"])
    sets = [arg for item in overrides for arg in ("--set", item)]
    assert main(["filter", "--config", cfg, "--seed", "3", *sets,
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: grid entry {given!r} needs the other end")
    assert not (tmp_path / "o" / "filter_trace.csv").exists()


SHARP_FORM = {"form": "sharp", "beta": 0.2, "D": {"interval": [-2, 2]},
              "C": {"interval": [-3, 3]}}


@pytest.mark.parametrize("override", ["bound.K=[5, 6]", "bound.eta=0.9", "bound.gamma=0.1",
                                      "bound.M0=2", "bound.M1=-7", "bound.M2=3"])
def test_the_sharp_bound_refuses_an_entry_it_does_not_read(tmp_path, capsys, override):
    # the sharp form reads beta, C and D alone: a gamma, eta, K or M used to
    # run with an unchanged bound.csv, even an M1 that the geometric form refuses
    cfg = write_cfg(tmp_path, {**ROUND_TRIP["bound"], "bound": SHARP_FORM})
    assert main(["bound", "--config", cfg, "--seed", "3", "--out", str(tmp_path / "ok")]) == 0
    assert main(["bound", "--config", cfg, "--seed", "3", "--set", override,
                 "--out", str(tmp_path / "o")]) == 2
    key = override.split(".")[1].split("=")[0]
    assert capsys.readouterr().err.startswith(
        f"configuration error: sharp bound has unknown key {key!r}")
    assert not (tmp_path / "o" / "bound.csv").exists()


def test_bound_summary_is_the_same_for_K_spelled_with_integers_or_floats(tmp_path):
    outs = []
    for K in ("[-2, 2]", "[-2.0, 2.0]"):
        cfg = write_cfg(tmp_path, {
            "model": SHARP_LGSSM, "nu": GAUSS(0), "nu_prime": GAUSS(3), "grid": {"m": 100},
            "observations": {"simulate": {"init": GAUSS(0), "n": 20}}, "bound": SHARP_BOUND})
        outs.append(tmp_path / f"K{len(outs)}")
        assert main(["bound", "--config", cfg, "--seed", "1", "--set", f"bound.K={K}",
                     "--out", str(outs[-1])]) == 0
    for name in ("bound.csv", "bound_summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    assert json.loads((outs[0] / "bound_summary.json").read_text())["inputs"]["K"] == [-2.0, 2.0]


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
                             "D": {"interval": [-2, 2]}, "C": {"interval": [-3, 3]}}},
}


def read_dir(path):
    return {name: (path / name).read_bytes() for name in sorted(os.listdir(path))}


@pytest.mark.parametrize("command", list(ROUND_TRIP))
def test_rerun_from_resolved_config_is_byte_identical(tmp_path, command):
    cfg = write_cfg(tmp_path, ROUND_TRIP[command])
    first, second = tmp_path / "first", tmp_path / "second"
    grid = [] if command == "simulate" else ["--set", "grid.lo=-7", "--set", "grid.hi=7",
                                             "--set", "grid.m=128"]
    threads = ["--threads", "2"] if command == "experiment" else []
    assert main([command, "--config", cfg, "--seed", "4", *threads, *grid,
                 "--out", str(first)]) == 0
    assert main([command, "--config", str(first / "resolved_config.json"),
                 "--out", str(second)]) == 0
    outputs = read_dir(first)
    assert len(outputs) > 1
    assert read_dir(second) == outputs


@pytest.mark.parametrize("command, foreign", [
    ("simulate", "grid.m=64"), ("filter", 'suite="counting"'), ("bound", "replications=7"),
    ("experiment", 'observations.file="y.csv"'), ("verify", "model.phi=0.5"),
])
def test_a_root_key_the_subcommand_does_not_read_exits_2_and_names_it(tmp_path, capsys,
                                                                       command, foreign):
    cfg = write_cfg(tmp_path, ROUND_TRIP.get(command, {}))
    seed = [] if command == "verify" else ["--seed", "1"]
    assert main([command, "--config", cfg, *seed, "--set", foreign,
                 "--out", str(tmp_path / "o")]) == 2
    key = foreign.split(".")[0].split("=")[0]
    assert capsys.readouterr().err.startswith(
        f"configuration error: config has unknown key {key!r}")


@pytest.mark.parametrize("command, flag", [
    ("simulate", "--threads"), ("filter", "--threads"), ("bound", "--threads"),
    ("verify", "--threads"), ("verify", "--seed"),
])
def test_a_flag_the_subcommand_does_not_read_exits_2(tmp_path, capsys, command, flag):
    cfg = write_cfg(tmp_path, ROUND_TRIP.get(command, {}))
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, flag, "2", "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err
    assert not out.exists()
    # nor may the config set the key the flag would have set
    key = flag.lstrip("-")
    assert main([command, "--config", cfg, "--set", f"{key}=2", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"configuration error: config has unknown key {key!r}")


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
    {**NLSSM_MODEL, "obs_form": "affine", "obs_a": -0.8, "obs_b": -0.3},
])
def test_unknown_or_missing_model_key_exits_2_and_names_it(tmp_path, capsys, model):
    cfg = write_cfg(tmp_path, {**experiment_cfg(), "model": model})
    assert main(["experiment", "--config", cfg, "--seed", "1",
                 "--out", str(tmp_path / "o")]) == 2
    key = ({"bogus", "drift", "obs_form"} & model.keys() or {"phi"}).pop()
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and repr(key) in err


def test_kappa_without_the_tanh_drift_exits_2_and_names_it(tmp_path, capsys):
    # linear_shrink has no tanh term, so a kappa there would be ignored
    cfg = write_cfg(tmp_path, {**experiment_cfg(), "model": {**NLSSM_MODEL, "kappa": 0.4}})
    assert main(["experiment", "--config", cfg, "--seed", "1",
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "'kappa'" in err


@pytest.mark.parametrize("which", ["transition", "emission"])
def test_a_finite_model_with_a_nan_row_exits_2_and_names_it(tmp_path, capsys, which):
    rows = {"transition": [[0.9, 0.1], [0.2, 0.8]], "emission": [[0.3, 0.7], [0.6, 0.4]]}
    rows[which][0][1] = float("nan")  # JSON's NaN, which json.load accepts
    laws = {k: {"form": "finite", "weights": w}
            for k, w in (("nu", [1, 0]), ("nu_prime", [0, 1]), ("nu_star", [1, 1]))}
    cfg = write_cfg(tmp_path, {**experiment_cfg(), "model": {"kind": "finite", **rows}, **laws})
    assert main(["experiment", "--config", cfg, "--seed", "1",
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and f"{which} row 0 [" in err


# the 3-state chain of CI's finite records, its symbols and laws
FINITE3 = {"kind": "finite",
           "transition": [[0.8, 0.15, 0.05], [0.1, 0.7, 0.2], [0.25, 0.25, 0.5]],
           "emission": [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]]}
FINITE_LAW = lambda *w: {"form": "finite", "weights": list(w)}
FINITE_FILTER = {"model": FINITE3, "nu": FINITE_LAW(1, 0, 0), "nu_prime": FINITE_LAW(0, 0, 1),
                 "observations": {"simulate": {"init": FINITE_LAW(1, 1, 1), "n": 60}}}
FINITE_BOUND = {**FINITE_FILTER, "bound": {"form": "sharp", "beta": 0.2,
                                           "C": {"states": [0, 1]}, "D": {"states": [0, 1]}}}
FINITE_EXPERIMENT = {"model": FINITE3, "nu": FINITE_LAW(1, 0, 0),
                     "nu_prime": FINITE_LAW(0, 0, 1), "nu_star": FINITE_LAW(1, 1, 1),
                     "n": 20, "replications": 2}


@pytest.mark.parametrize("states, code, message", [
    ([0, 0, 1], 2, "configuration error: state subset (0, 0, 1) repeats a state"),
    ([-1, 0], 1, "error: state 0 (-1) outside {0..2}"),
    ([0, 5], 1, "error: state 1 (5) outside {0..2}"),
], ids=["repeated", "negative", "out-of-range"])
def test_a_finite_ld_set_is_a_set_of_the_models_states(tmp_path, capsys, states, code,
                                                       message):
    # (0, 0, 1) used to certify eps- = 0.3 where {0, 1} has 0.2, a bound below
    # the valid one; (-1, 0) took state 2's constants by negative indexing but
    # left it out of Phi's mask; (0, 5) raised a bare IndexError
    cfg = write_cfg(tmp_path, FINITE_BOUND)
    assert main(["bound", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "ok")]) == 0
    for which in ("C", "D"):
        out = tmp_path / which
        assert main(["bound", "--config", cfg, "--seed", "1",
                     "--set", f'bound.{which}={{"states": {states}}}', "--out", str(out)]) == code
        assert capsys.readouterr().err.startswith(message)
        assert not (out / "bound.csv").exists()


def test_a_bad_symbol_in_an_observation_file_is_named_by_its_step(tmp_path, capsys):
    # a finite record's bad symbol is named by its step and value, as a
    # continuous record's observation is; it used to read "symbol [7.0]"
    obs = simulate(models.FiniteStateModel(FINITE3["transition"], FINITE3["emission"]), 30,
                   InitialDistribution.finite([1, 1, 1]), seed=1).obs.astype(float)
    obs[5] = 7
    record = tmp_path / "y.csv"
    record.write_text("y\n" + "".join(f"{y!r}\n" for y in obs.tolist()))
    cfg = write_cfg(tmp_path, {**FINITE_FILTER, "observations": {"file": str(record)}})
    assert main(["filter", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: symbol 5 (7.0) outside {0..2}\n"


@pytest.mark.parametrize("command, overrides, key", [
    ("filter", ["grid.m=5"], "m"),
    ("filter", ["grid.lo=-1", "grid.hi=1", "grid.m=64"], "lo"),
    ("experiment", ["grid.m=7"], "m"),
], ids=["filter-m", "filter-lo-hi-m", "experiment-m"])
def test_a_grid_on_a_finite_model_exits_2_and_names_the_entry(tmp_path, capsys, command,
                                                              overrides, key):
    # a finite model has no grid: these used to run as if no grid were given
    cfg = write_cfg(tmp_path, FINITE_FILTER if command == "filter" else FINITE_EXPERIMENT)
    assert main([command, "--config", cfg, "--seed", "1", "--set", "grid.m=null",
                 "--out", str(tmp_path / "ok")]) == 0
    sets = [arg for item in overrides for arg in ("--set", item)]
    assert main([command, "--config", cfg, "--seed", "1", *sets,
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(
        f"configuration error: a finite model has no grid: grid entry {key!r}")


def test_filter_trace_is_the_experiments_tv_curves_of_each_record(tmp_path):
    # one trace layout: rep r's rows of tv_curves.csv are, without rep, the
    # bytes that `hmmforget filter` writes on replication r's record, header
    # included, whichever lock-step block the record was filtered in
    exp = {"model": {"kind": "tobit", "phi": 0.5, "sigma": 1.0, "beta": 1.0},
           "nu": GAUSS(-4), "nu_prime": GAUSS(4), "nu_star": GAUSS(0),
           "n": 40, "replications": 3, "grid": {"m": 100}}
    assert main(["experiment", "--config", write_cfg(tmp_path, exp), "--seed", "7",
                 "--threads", "2", "--out", str(tmp_path / "e")]) == 0
    header, *rows = (tmp_path / "e" / "tv_curves.csv").read_text().splitlines(keepends=True)
    assert header == "rep,n,tv,logZ_nu,logZ_nuprime\n"
    for rep in range(3):
        cfg = write_cfg(tmp_path, {
            **{k: exp[k] for k in ("model", "nu", "nu_prime", "grid")},
            "observations": {"simulate": {"init": exp["nu_star"], "n": exp["n"],
                                          "replication": rep}}}, f"filter{rep}.json")
        out = tmp_path / f"f{rep}"
        assert main(["filter", "--config", cfg, "--seed", "7", "--out", str(out)]) == 0
        mine = rows[rep * (exp["n"] + 1):(rep + 1) * (exp["n"] + 1)]
        assert all(r.startswith(f"{rep},") for r in mine)
        assert header.split(",", 1)[1] + "".join(r.split(",", 1)[1] for r in mine) == (
            out / "filter_trace.csv").read_text()


SHARP_ROUND_TRIP = {**ROUND_TRIP["bound"], "bound": {"form": "sharp", "beta": 0.2,
                                                    "C": {"interval": [-3, 3]},
                                                    "D": {"interval": [-2, 2]}}}
BOUND_SEARCH = {**ROUND_TRIP["bound"],
                "bound": {k: v for k, v in ROUND_TRIP["bound"]["bound"].items() if k != "C"}}
EXPERIMENT_NO_C = {**ROUND_TRIP["experiment"], "bound": BOUND_SEARCH["bound"]}
FINITE_EXPERIMENT_NO_C = {**FINITE_EXPERIMENT,
                          "bound": {**BOUND_SEARCH["bound"], "D": {"states": [0, 1]}}}
TOBIT = '{"kind": "tobit", "phi": 0.5, "sigma": 1.0, "beta": 1.0}'
REFUSALS = [  # (command, config, overrides, exit code, message)
    ("simulate", "simulate", ["n=-1"], 2, "horizon must be >= 0"),
    ("simulate", "simulate", ["model.phi=1.5"], 2, "autoregression needs |phi| < 1"),
    ("simulate", "simulate", ["model.sigma=0"], 2, "state noise s.d. must be positive"),
    ("simulate", "simulate", ["model.beta=0"], 2, "observation noise s.d. must be positive"),
    ("simulate", "simulate", ['model={"kind": "nlssm", "drift_form": "cubic", "delta": 0.5, '
                              '"sigma0": 1, "beta": 1}'], 2, "unknown state drift form 'cubic'"),
    ("simulate", "simulate", ['model={"kind": "nlssm", "drift_form": "tanh", "delta": 2.5, '
                              '"sigma0": 1, "beta": 1}'], 2, "needs delta in (0, 2)"),
    ("simulate", "simulate", ['model={"kind": "finite", "transition": [[1]], "emission": [[1]]}'],
     2, "transition must be a square matrix with m >= 2"),
    ("simulate", "simulate", ['model={"kind": "finite", "transition": [[0.5, 0.5], [0.5, 0.5]], '
                              '"emission": [[1]]}'], 2, "emission must have one row per state"),
    ("simulate", "simulate", ['model={"kind": "finite", "transition": [[0.5, 0.5], [0.5, 0.5]], '
                              '"emission": [[1], [1]], "drift_values": [0.5, 1]}'],
     2, "drift values must be >= 1"),
    ("simulate", "simulate", ["model.transition=[[0.5], [0.5, 0.5]]"],
     2, "model entry 'transition' must be an array of numbers"),
    ("simulate", "simulate", ['model={"phi": 0.5}'], 2, "model section needs a 'kind'"),
    # a parameter that no model, law, drift or grid can hold, NaN and infinities included
    ("simulate", "simulate", ["model.beta=NaN"], 2, "observation noise s.d. must be positive and "
                                                     "finite, got beta=nan"),
    ("simulate", "simulate", ["model.sigma=Infinity"], 2, "got sigma=inf"),
    ("simulate", "simulate", ["init.sd=NaN"], 2, "initial distribution sd must be finite"),
    ("simulate", "simulate", ["model.domain_halfwidth=-1"], 2, "got domain_halfwidth=-1"),
    ("simulate", "simulate", ["model.h0=NaN"], 2, "lgssm h0 must be finite"),
    ("simulate", "simulate", ['model.drift={"form": "exp_abs", "c": NaN}'],
     2, "exp_abs drift needs c > 0 and finite, got c=nan"),
    ("simulate", "simulate", ['init={"form": "point_mass", "at": NaN}'],
     2, "point mass x must be finite"),
    ("simulate", "simulate", ['init={"form": "uniform", "lo": 0, "hi": Infinity}'],
     2, "uniform initial distribution b must be finite"),
    ("simulate", "simulate", ['model={"kind": "nlssm", "drift_form": "tanh", "delta": 0.5, '
                              '"sigma0": 1, "beta": 1, "kappa": NaN}'],
     2, "nlssm kappa must be finite"),
    ("simulate", "simulate", ['model={"kind": "finite", "transition": [[0.5, 0.5], [0.5, 0.5]], '
                              '"emission": [[1], [1]], "drift_values": [1, NaN]}'],
     2, "finite model drift_values must be finite"),
    ("simulate", "simulate", ['model={"kind": "finite", "transition": [[0.5, 0.5], [0.5, 0.5]], '
                              '"emission": [[1], [1]], "drift_values": [1]}'],
     2, "drift_values must hold one value per state, got [1]"),
    ("filter", "filter", ["grid.lo=-Infinity", "grid.hi=7"], 2, "grid lo must be finite"),
    ("filter", "filter", ['nu={"form": "finite", "weights": [NaN, 1]}'],
     2, "finite initial vector p must be finite"),
    ("simulate", "simulate", ['model.drift={"form": "cubic"}'], 2, "unknown drift"),
    ("filter", [1], [], 2, "config root must be a JSON object"),
    ("filter", "filter", ["grid"], 2, "override 'grid' is not of the form key=value"),
    ("filter", "filter", ['nu={"mean": 0}'], 2, "nu needs a 'form'"),
    ("filter", "filter", ['nu={"form": "gaussian", "mean": 0}'],
     2, "initial form 'gaussian' is missing parameter 'sd'"),
    ("filter", "filter", ['nu={"form": "uniform", "lo": 1, "hi": 0}'], 2, "needs a < b"),
    ("filter", "filter", ['nu={"form": "finite", "weights": [-1, 2]}'],
     2, "finite initial vector must be nonnegative and normalizable"),
    ("filter", "filter", ['nu={"form": "finite", "weights": [1, 2]}'],
     2, "finite initial vector cannot be projected on a continuous grid"),
    ("filter", "filter", ["observations=null"], 2, "config needs an 'observations' section"),
    ("filter", "filter", ["observations={}"], 2, "'observations' needs either 'file' or 'simulate'"),
    ("filter", "filter", ['observations={"file": "no-such-file.csv"}'],
     2, "cannot read observation file no-such-file.csv"),
    ("bound", "bound", ["bound=null"], 2, "config needs a 'bound' section"),
    ("bound", "bound", ['bound.form="parabolic"'], 2, "unknown bound form 'parabolic'"),
    ("bound", "bound", ['bound.D={"interval": [2, -2]}'], 2, "interval must be nonempty"),
    ("bound", "bound", ['bound.C={"interval": [-1000, 1000]}'], 1, "not LD in floating point"),
    ("bound", "bound", ["bound.C={}"], 2, "LD-set section needs 'interval' or 'states'"),
    ("bound", "bound", ["bound.beta=1.5"], 2, "beta and gamma must lie in (0, 1)"),
    ("bound", "bound", ["observations.simulate.n=0"], 2, "needs at least two observations"),
    ("bound", BOUND_SEARCH, ["bound.K=[50, 60]"], 2, "need at least one probe observation in K"),
    ("bound", FINITE_BOUND, ['bound.C={"states": []}'], 2, "state subset must be nonempty"),
    # an LD-set key that does not fit the model: it was read as the other kind
    ("bound", SHARP_ROUND_TRIP, ['bound.C={"states": [0, 1, 2]}'],
     2, "LD-set has unknown key 'states'"),
    ("bound", SHARP_ROUND_TRIP, ['bound.C={"states": []}'],
     2, "LD-set has unknown key 'states' (known keys: interval)"),
    ("bound", FINITE_BOUND, ['bound.C={"interval": [0, 1]}'],
     2, "LD-set has unknown key 'interval' (known keys: states)"),
    ("experiment", "experiment", ["replications=0"], 2, "need at least one replication"),
    # without a C, experiment searches one on its records as bound does on its record
    ("experiment", FINITE_EXPERIMENT_NO_C, [], 2, "a finite model needs an explicit C"),
    ("experiment", EXPERIMENT_NO_C, [f"model={TOBIT}"], 1, "no interval of radius"),
    ("bound", BOUND_SEARCH, [f"model={TOBIT}"], 1, "no interval of radius"),
]


@pytest.mark.parametrize("command, config, overrides, code, message", REFUSALS,
                         ids=[f"{r[0]}-{r[4]}" for r in REFUSALS])
def test_each_refusal_exits_with_its_code_and_message(tmp_path, capsys, command, config,
                                                      overrides, code, message):
    cfg = write_cfg(tmp_path, ROUND_TRIP[config] if isinstance(config, str) else config)
    sets = [arg for item in overrides for arg in ("--set", item)]
    assert main([command, "--config", cfg, *sets, "--seed", "3",
                 "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert err.startswith("configuration error: " if code == 2 else "error: ")
    assert message in err


@pytest.mark.parametrize("content, code, message", [
    ("x\n0.5\n", 2, "needs a 'y' column"),
    ("y\n", 2, "need at least one observation"),
], ids=["no-y-column", "no-observation"])
def test_an_observation_file_without_observations_exits_2(tmp_path, capsys, content, code,
                                                          message):
    (tmp_path / "obs.csv").write_text(content)
    cfg = write_cfg(tmp_path, {**ROUND_TRIP["filter"],
                               "observations": {"file": str(tmp_path / "obs.csv")}})
    assert main(["filter", "--config", cfg, "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err


def test_an_override_that_is_not_json_is_a_string(tmp_path):
    cfg = write_cfg(tmp_path, ROUND_TRIP["simulate"])
    assert main(["simulate", "--config", cfg, "--seed", "3", "--set", "model.kind=lgssm",
                 "--out", str(tmp_path / "o")]) == 0
    assert json.loads((tmp_path / "o" / "resolved_config.json").read_text())["model"][
        "kind"] == "lgssm"


def test_a_drift_entry_reaches_the_bound(tmp_path):
    # V = exp(c |x|) enters Upsilon through QV/V; a null drift is V = 1
    cfg = write_cfg(tmp_path, ROUND_TRIP["bound"])
    texts = []
    for drift in ("null", '{"form": "one"}', '{"form": "exp_abs", "c": 0.5}'):
        out = tmp_path / f"d{len(texts)}"
        assert main(["bound", "--config", cfg, "--seed", "3", "--set", f"model.drift={drift}",
                     "--out", str(out)]) == 0
        texts.append((out / "bound.csv").read_text())
    assert texts[0] == texts[1] != texts[2]
