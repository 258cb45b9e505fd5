"""Command line front end.

Subcommands::

    hmmforget simulate   --config cfg.json --seed S --out DIR
    hmmforget filter     --config cfg.json [--seed S] --out DIR
    hmmforget bound      --config cfg.json [--seed S] --out DIR
    hmmforget experiment --config cfg.json --seed S [--threads T] --out DIR
    hmmforget verify     --suite NAME --out DIR

Configuration is a JSON file; ``--set key=value`` (repeatable, dotted
paths) overrides individual entries and wins over the file.  The resolved
configuration, with ``--seed``, ``--threads`` and ``--suite`` folded in,
is the only input of a subcommand.  It is written to
``<out>/resolved_config.json`` before the subcommand runs, so a run, a
failed one too, is reproducible from its output directory alone.  All
writes stay inside ``--out``.  ``simulate`` holds one record at a time,
replication r's from ``models.simulate``.  A geometric ``bound`` section
without ``C`` searches C on every record it bounds; ``experiment`` writes
its bound and r-sequences (``r_seq.csv``) from one ``run_forgetting`` pass.

Exit codes: 0 success, 1 domain failure (degenerate filter, set not
certifiable, hypothesis not verifiable), 2 usage or configuration error
(including invalid values).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .bounds import (BoundConfig, H2UnverifiedError, NotCertifiableError,
                     certify_ld_set, geometric_bound, find_ld_set_for_eta, sharp_bound)
from .experiments import DEFAULT_GRID_M, ExperimentConfig, emit_report, run_forgetting
from .gridfilter import DegenerateFilterError, _run_records, resolve_grid, transition_kernel
from .grids import GridSpec, InitialDistribution
from .models import (LGSSM, NLSSM, DomainError, DriftFunction, FiniteStateModel,
                     StochVolModel, TobitModel, simulate)
from .reports import (ensure_dir, write_bound_csv, write_bound_summary, write_csv,
                      write_trace_csv, write_trajectory_csv)
from .verify import SUITES, DriftPreconditionError, run_suite


class ConfigError(ValueError):
    pass


# Config entries that hold a JSON number, a pair of numbers or an array of
# numbers (nested for a matrix), in whichever section they appear.
NUMBERS = {"phi", "sigma", "beta", "h0", "delta", "sigma0", "kappa", "obs_a", "obs_b",
           "domain_halfwidth", "c", "mean", "sd", "lo", "hi", "at", "m", "gamma",
           "eta", "M0", "M1", "M2", "n", "replications", "replication", "seed", "threads"}
# NUMBERS entries that count or key something: a float must be a whole number
INTEGERS = {"m", "n", "replications", "replication", "seed", "threads"}
PAIRS = {"interval", "K"}
ARRAYS = {"transition", "emission", "drift_values", "weights", "states"}


def _holds_numbers(value, key):
    if key in INTEGERS and type(value) is int:  # of any size: np.asarray holds 2^64 as an object
        return True
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged nested array
        return False
    shape_ok = arr.shape == (2,) if key in PAIRS else bool(arr.shape) == (key in ARRAYS)
    return arr.dtype.kind in "iuf" and shape_ok


def section(d, what, nullable=(), keys=None):
    """``d`` if it is a JSON object whose NUMBERS, PAIRS and ARRAYS entries
    hold numbers (whole ones for INTEGERS; or null, for the keys in
    ``nullable``) and, when ``keys`` is given, whose every key is one of
    them; else a ConfigError."""
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be a JSON object, got {d!r}")
    unknown = sorted(d.keys() - set(keys)) if keys is not None else []
    if unknown:
        raise ConfigError(f"{what} has unknown key {unknown[0]!r} "
                          f"(known keys: {', '.join(sorted(keys))})")
    for key in (NUMBERS | PAIRS | ARRAYS) & d.keys():
        value = d[key]
        if not (value is None and key in nullable or _holds_numbers(value, key)):
            kind = ("a pair of numbers" if key in PAIRS else
                    "an array of numbers" if key in ARRAYS else "a number")
            raise ConfigError(f"{what} entry {key!r} must be {kind}, got {value!r}")
    for key in INTEGERS & d.keys():
        if isinstance(d[key], float) and not d[key].is_integer():
            raise ConfigError(f"{what} entry {key!r} must be an integer, got {d[key]!r}")
    return d


# ---------------------------------------------------------------------------
# Config -> objects


def build_drift(d):
    if d is None:
        return DriftFunction.one()
    d = section(d, "drift", keys=("form", "c"))
    if d.get("form") == "one":
        return DriftFunction.one()
    if d.get("form") == "exp_abs":
        return DriftFunction.exp_abs(d["c"])
    raise ConfigError(f"unknown drift {d!r}")


MODELS = {"finite": FiniteStateModel, "lgssm": LGSSM, "tobit": TobitModel,
          "nlssm": NLSSM, "stochvol": StochVolModel}
# InitialDistribution constructor of each form, and the config keys of its arguments
INITS = {"gaussian": ("mean", "sd"), "uniform": ("lo", "hi"), "point_mass": ("at",),
         "finite": ("weights",)}
# the root keys each subcommand reads; a subcommand takes the flags --seed,
# --threads and --suite where it reads the key the flag sets
COMMAND_KEYS = {
    "simulate": ("seed", "model", "init", "n", "replications"),
    "filter": ("seed", "model", "nu", "nu_prime", "grid", "observations"),
    "bound": ("seed", "model", "nu", "nu_prime", "grid", "observations", "bound"),
    "experiment": ("seed", "threads", "model", "star_model", "nu", "nu_prime", "nu_star",
                   "n", "replications", "grid", "bound"),
    "verify": ("suite",),
}
# the keys of the other sections
GRID_KEYS = ("lo", "hi", "m")
BOUND_KEYS = ("form", "beta", "gamma", "eta", "C", "D", "K", "M0", "M1", "M2")
OBSERVATION_KEYS = ("file", "simulate")
SIMULATE_KEYS = ("model", "init", "n", "replication")


def build_model(d):
    """The model ``d`` names; its entries are the model's constructor keywords."""
    if "kind" not in section(d, "model", nullable=("domain_halfwidth", "drift_values")):
        raise ConfigError("model section needs a 'kind'")
    params = dict(d)
    kind = params.pop("kind")
    if not isinstance(kind, str) or kind not in MODELS:
        raise ConfigError(f"unknown model kind {kind!r}")
    if "drift" in params:
        params["drift"] = build_drift(params["drift"])
    try:
        return MODELS[kind](**params)
    except TypeError as exc:  # a missing or unexpected key
        raise ConfigError(f"model kind {kind!r}: {exc}") from exc


def build_init(d, what):
    """The initial law of section ``what``: its 'form' and that form's keys."""
    if "form" not in section(d, what):
        raise ConfigError(f"{what} needs a 'form'")
    form = d["form"]
    if not isinstance(form, str) or form not in INITS:
        raise ConfigError(f"unknown initial distribution form {form!r}")
    section(d, what, keys=("form", *INITS[form]))
    try:
        return getattr(InitialDistribution, form)(*(d[key] for key in INITS[form]))
    except KeyError as exc:
        raise ConfigError(f"initial form {form!r} is missing parameter {exc}") from exc


def build_grid(cfg, model):
    g = section(cfg.get("grid", {}), "grid", nullable=GRID_KEYS, keys=GRID_KEYS)
    given = [key for key in GRID_KEYS if g.get(key) is not None]
    if model.kind == "finite" and given:
        raise ConfigError(f"a finite model has no grid: grid entry {given[0]!r} must be "
                          "null or absent")
    lo, hi = g.get("lo"), g.get("hi")
    if (lo is None) != (hi is None):
        raise ConfigError(f"grid entry {'hi' if lo is None else 'lo'!r} needs the other end too")
    m = DEFAULT_GRID_M if g.get("m") is None else int(g["m"])
    grid = None if lo is None else GridSpec(float(lo), float(hi), m)
    return resolve_grid(model, grid, m)


def build_ld_set(d, model):
    key = "states" if model.kind == "finite" else "interval"
    if key not in section(d, "LD-set", keys=(key,)):
        raise ConfigError(f"LD-set section needs 'interval' or 'states': {key!r} on a "
                          f"{model.kind} model")
    return certify_ld_set(model, d[key])


def build_bound_cfg(d, model):
    """A geometric bound section's BoundConfig and C (None: C is searched)."""
    D = build_ld_set(section(d, "bound", nullable=("K",), keys=BOUND_KEYS)["D"], model)
    K = tuple(map(float, d["K"])) if d.get("K") is not None else None
    bcfg = BoundConfig(beta=d["beta"], gamma=d["gamma"], eta=d["eta"], D=D, K=K,
                       M0=d.get("M0", 1.0), M1=d.get("M1", 1.0), M2=d.get("M2", 1.0))
    return bcfg, build_ld_set(d["C"], model) if "C" in d else None


# ---------------------------------------------------------------------------
# Config loading / overrides


def parse_override(text):
    if "=" not in text:
        raise ConfigError(f"override {text!r} is not of the form key=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def apply_override(cfg, key, value):
    parts = key.split(".")
    node = cfg
    for part in parts[:-1]:
        if part not in node or not isinstance(node[part], dict):
            node[part] = {}
        node = node[part]
    node[parts[-1]] = value


def load_config(args):
    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {args.config}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
    for item in args.set or []:
        key, value = parse_override(item)
        apply_override(cfg, key, value)
    for name in ("seed", "threads", "suite"):  # a flag wins over the config
        if getattr(args, name, None) is not None:
            cfg[name] = getattr(args, name)
    return section(cfg, "config", nullable=("seed",), keys=COMMAND_KEYS[args.command])


def require_seed(cfg):
    if cfg.get("seed") is None:
        raise ConfigError("this subcommand draws random numbers: provide seed "
                          "(--seed or config key 'seed')")
    return int(cfg["seed"])


def echo_config(cfg, out_dir):
    with open(os.path.join(out_dir, "resolved_config.json"), "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Observation records


def get_observations(cfg, model):
    """Observations either from a CSV (column 'y') or freshly simulated."""
    obs_cfg = cfg.get("observations")
    if obs_cfg is None:
        raise ConfigError("config needs an 'observations' section")
    if "file" in section(obs_cfg, "observations", keys=OBSERVATION_KEYS):
        path = obs_cfg["file"]
        if not isinstance(path, str):
            raise ConfigError(f"observations entry 'file' must be a path, got {path!r}")
        try:
            data = np.genfromtxt(path, delimiter=",", names=True)
        except OSError as exc:
            raise ConfigError(f"cannot read observation file {path}") from exc
        if data.dtype.names is None or "y" not in data.dtype.names:
            raise ConfigError(f"observation file {path} needs a 'y' column")
        return np.atleast_1d(data["y"])
    if "simulate" in obs_cfg:
        sim = section(obs_cfg["simulate"], "observations.simulate", keys=SIMULATE_KEYS)
        seed = require_seed(cfg)
        star = build_model(sim["model"]) if "model" in sim else model
        init = build_init(sim["init"], "observations.simulate.init")
        traj = simulate(star, int(sim["n"]), init, seed,
                        replication=int(sim.get("replication", 0)))
        return traj.obs
    raise ConfigError("'observations' needs either 'file' or 'simulate'")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_simulate(cfg, out_dir):
    seed = require_seed(cfg)
    model = build_model(cfg["model"])
    init = build_init(cfg["init"], "init")
    n = int(cfg["n"])
    reps = int(cfg.get("replications", 1))
    if reps < 1:
        raise ConfigError(f"need at least one replication, got {reps}")
    for rep in range(reps):  # one record in memory at a time
        path = os.path.join(out_dir, f"trajectory_{rep:04d}.csv")
        write_trajectory_csv(simulate(model, n, init, seed, replication=rep), path)
    return 0


def filter_inputs(cfg):
    """The model, grid, initial laws and record that filter and bound run on."""
    model = build_model(cfg["model"])
    nu, nu_prime = build_init(cfg["nu"], "nu"), build_init(cfg["nu_prime"], "nu_prime")
    return model, build_grid(cfg, model), nu, nu_prime, get_observations(cfg, model)


def cmd_filter(cfg, out_dir):
    model, grid, nu, nu_prime, obs = filter_inputs(cfg)
    tv, logZ = _run_records(model, grid, nu, nu_prime, obs[None], transition_kernel(model, grid))
    write_trace_csv(tv[0], logZ[0, :, 0], logZ[0, :, 1], os.path.join(out_dir, "filter_trace.csv"))
    return 0


def cmd_bound(cfg, out_dir):
    model, grid, nu, nu_prime, obs = filter_inputs(cfg)
    bnd = cfg.get("bound")
    if bnd is None:
        raise ConfigError("config needs a 'bound' section")
    form = section(bnd, "bound", nullable=("K",), keys=BOUND_KEYS).get("form", "geometric")
    if form == "sharp":
        section(bnd, "sharp bound", keys=("form", "beta", "C", "D"))  # refuse what it ignores
        C = build_ld_set(bnd["C"], model)
        D = build_ld_set(bnd["D"], model)
        report = sharp_bound(model, nu, nu_prime, obs, bnd["beta"], C, D, grid=grid)
    elif form == "geometric":
        bcfg, C = build_bound_cfg(bnd, model)
        if C is None:
            C = find_ld_set_for_eta(model, bcfg.eta, bcfg.K, obs)
        report = geometric_bound(model, nu, nu_prime, obs, bcfg, C, grid=grid)
    else:
        raise ConfigError(f"unknown bound form {form!r}")
    write_bound_csv(report, os.path.join(out_dir, "bound.csv"))
    write_bound_summary(report, os.path.join(out_dir, "bound_summary.json"))
    return 0


def cmd_experiment(cfg, out_dir):
    seed = require_seed(cfg)
    model = build_model(cfg["model"])
    star = build_model(cfg.get("star_model", cfg["model"]))
    grid = build_grid(cfg, model)
    bound_cfg = ld_set = None
    if "bound" in cfg:
        bound_cfg, ld_set = build_bound_cfg(cfg["bound"], model)  # ld_set None: searched
        if cfg["bound"].get("form", "geometric") != "geometric":
            raise ConfigError("experiment runs the geometric bound: bound entry 'form' must "
                              f"be 'geometric', got {cfg['bound']['form']!r}")
    ecfg = ExperimentConfig(
        model=model, star_model=star,
        nu=build_init(cfg["nu"], "nu"), nu_prime=build_init(cfg["nu_prime"], "nu_prime"),
        nu_star=build_init(cfg["nu_star"], "nu_star"),
        n=int(cfg["n"]), replications=int(cfg["replications"]), seed=seed,
        grid=grid, bound_cfg=bound_cfg, ld_set=ld_set,
        threads=int(cfg.get("threads", 1)),
    )
    emit_report(run_forgetting(ecfg), out_dir)
    return 0


def cmd_verify(cfg, out_dir):
    suites = [cfg["suite"]] if cfg.get("suite", "all") != "all" else SUITES
    rows = []
    all_hold = True
    for name in suites:
        for record in run_suite(name):
            rows.append((record["suite"], record["case"], record["metric"],
                         record["holds"]))
            all_hold = all_hold and record["holds"]
    write_csv(os.path.join(out_dir, "verify.csv"),
              ["suite", "case", "metric", "holds"], rows)
    print(f"verify: {len(rows)} checks, all_hold={all_hold}")
    return 0 if all_hold else 1


# ---------------------------------------------------------------------------


def make_parser():
    parser = argparse.ArgumentParser(prog="hmmforget",
                                     description="filter forgetting laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in [("simulate", cmd_simulate), ("filter", cmd_filter),
                     ("bound", cmd_bound), ("experiment", cmd_experiment),
                     ("verify", cmd_verify)]:
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config entry (dotted path, JSON value)")
        p.add_argument("--out", required=True, help="output directory")
        keys = COMMAND_KEYS[name]
        if "seed" in keys:
            p.add_argument("--seed", type=int)
        if "threads" in keys:
            p.add_argument("--threads", type=int,
                           help="worker threads; results are independent of it")
        if "suite" in keys:
            p.add_argument("--suite", choices=[*SUITES, "all"])
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
        out_dir = ensure_dir(args.out)
        echo_config(cfg, out_dir)
        return args.fn(cfg, out_dir)
    except (DegenerateFilterError, NotCertifiableError, H2UnverifiedError,
            DomainError, DriftPreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:  # DomainError, a ValueError, is caught above
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
