"""Command line front end.

Subcommands::

    hmmforget simulate   --config cfg.json --seed S --out DIR
    hmmforget filter     --config cfg.json [--seed S] --out DIR
    hmmforget bound      --config cfg.json [--seed S] --out DIR
    hmmforget experiment --config cfg.json --seed S --out DIR
    hmmforget verify     --suite NAME --out DIR

Configuration is a JSON file; ``--set key=value`` (repeatable, dotted
paths) overrides individual entries and wins over the file.  The resolved
configuration is echoed to ``<out>/resolved_config.json`` so a run is
reproducible from its output directory alone.  All writes stay inside
``--out``.

Exit codes: 0 success, 1 domain failure (degenerate filter, set not
certifiable, hypothesis not verifiable), 2 usage or configuration error
(including invalid values).
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys

import numpy as np

from .bounds import (BoundConfig, H2UnverifiedError, LDSet, NotCertifiableError,
                     certify_ld_set, geometric_bound, find_ld_set_for_eta,
                     sharp_bound)
from .experiments import (DEFAULT_GRID_M, ExperimentConfig, emit_report,
                          estimate_r_sequences, run_forgetting)
from .gridfilter import DegenerateFilterError, resolve_grid, run_two_filters
from .grids import GridSpec, InitialDistribution
from .models import (LGSSM, NLSSM, CoverageError, DomainError, DriftFunction,
                     FiniteStateModel, StochVolModel, TobitModel, simulate)
from .reports import (ensure_dir, fmt, write_csv, write_filter_trace_csv,
                      write_trajectory_csv)
from .verify import DriftPreconditionError, run_suite


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config -> objects


def build_drift(d):
    if d is None:
        return DriftFunction.one()
    if d.get("form") == "one":
        return DriftFunction.one()
    if d.get("form") == "exp_abs":
        return DriftFunction.exp_abs(d["c"])
    raise ConfigError(f"unknown drift {d!r}")


def build_model(d):
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError("model section needs a 'kind'")
    d = dict(d)
    kind = d.pop("kind")
    drift = build_drift(d.pop("drift", None))
    try:
        if kind == "finite":
            return FiniteStateModel(np.asarray(d["transition"], dtype=float),
                                    np.asarray(d["emission"], dtype=float),
                                    d.get("drift_values"))
        if kind == "lgssm":
            return LGSSM(d["phi"], d["sigma"], d["beta"], d.get("h0", 1.0),
                         drift=drift, domain_halfwidth=d.get("domain_halfwidth"))
        if kind == "tobit":
            return TobitModel(d["phi"], d["sigma"], d["beta"], drift=drift,
                              domain_halfwidth=d.get("domain_halfwidth"))
        if kind == "nlssm":
            return NLSSM(d["drift_form"], d["delta"], d["sigma0"], d["beta"],
                         kappa=d.get("kappa", 0.0),
                         obs_form=d.get("obs_form", "identity"),
                         obs_a=d.get("obs_a", 1.0), obs_b=d.get("obs_b", 0.0),
                         drift=drift, domain_halfwidth=d.get("domain_halfwidth"))
        if kind == "stochvol":
            return StochVolModel(d["phi"], d["sigma"], d["beta"], drift=drift,
                                 domain_halfwidth=d.get("domain_halfwidth"))
    except KeyError as exc:
        raise ConfigError(f"model kind {kind!r} is missing parameter {exc}") from exc
    raise ConfigError(f"unknown model kind {kind!r}")


def build_init(d):
    if not isinstance(d, dict) or "form" not in d:
        raise ConfigError("initial distribution needs a 'form'")
    form = d["form"]
    try:
        if form == "gaussian":
            return InitialDistribution.gaussian(d["mean"], d["sd"])
        if form == "uniform":
            return InitialDistribution.uniform(d["lo"], d["hi"])
        if form == "point_mass":
            return InitialDistribution.point_mass(d["at"])
        if form == "finite":
            return InitialDistribution.finite(np.asarray(d["weights"], dtype=float))
    except KeyError as exc:
        raise ConfigError(f"initial form {form!r} is missing parameter {exc}") from exc
    raise ConfigError(f"unknown initial distribution form {form!r}")


def build_grid(cfg, args, model):
    lo = args.grid_lo if args.grid_lo is not None else cfg.get("grid", {}).get("lo")
    hi = args.grid_hi if args.grid_hi is not None else cfg.get("grid", {}).get("hi")
    m = args.grid_m if args.grid_m is not None else cfg.get("grid", {}).get("m")
    m = DEFAULT_GRID_M if m is None else int(m)
    grid = None if lo is None or hi is None else GridSpec(float(lo), float(hi), m)
    return resolve_grid(model, grid, m)


def build_ld_set(d, model):
    if "interval" in d:
        return certify_ld_set(model, tuple(d["interval"]))
    if "states" in d:
        return certify_ld_set(model, d["states"])
    raise ConfigError("LD-set section needs 'interval' or 'states'")


def build_bound_cfg(d, model):
    D = build_ld_set(d["D"], model)
    K = tuple(d["K"]) if d.get("K") is not None else None
    return BoundConfig(beta=d["beta"], gamma=d["gamma"], eta=d["eta"], D=D, K=K,
                       M0=d.get("M0", 1.0), M1=d.get("M1", 1.0), M2=d.get("M2", 1.0))


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
    cfg = copy.deepcopy(cfg)
    for item in args.set or []:
        key, value = parse_override(item)
        apply_override(cfg, key, value)
    return cfg


def require_seed(args, cfg):
    seed = args.seed if args.seed is not None else cfg.get("seed")
    if seed is None:
        raise ConfigError("this subcommand draws random numbers: provide seed "
                          "(--seed or config key 'seed')")
    return int(seed)


def echo_config(cfg, args, out_dir):
    resolved = copy.deepcopy(cfg)
    for name in ("seed", "threads", "grid_lo", "grid_hi", "grid_m"):
        value = getattr(args, name, None)
        if value is not None:
            resolved[name] = value
    with open(os.path.join(out_dir, "resolved_config.json"), "w") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Observation records


def get_observations(cfg, args, model):
    """Observations either from a CSV (column 'y') or freshly simulated."""
    obs_cfg = cfg.get("observations")
    if obs_cfg is None:
        raise ConfigError("config needs an 'observations' section")
    if "file" in obs_cfg:
        path = obs_cfg["file"]
        try:
            data = np.genfromtxt(path, delimiter=",", names=True)
        except OSError as exc:
            raise ConfigError(f"cannot read observation file {path}") from exc
        if data.dtype.names is None or "y" not in data.dtype.names:
            raise ConfigError(f"observation file {path} needs a 'y' column")
        return np.atleast_1d(data["y"])
    if "simulate" in obs_cfg:
        sim = obs_cfg["simulate"]
        seed = require_seed(args, cfg)
        star = build_model(sim.get("model", cfg.get("model")))
        init = build_init(sim["init"])
        traj = simulate(star, int(sim["n"]), init, seed,
                        replication=int(sim.get("replication", 0)))
        return traj.obs
    raise ConfigError("'observations' needs either 'file' or 'simulate'")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_simulate(cfg, args, out_dir):
    seed = require_seed(args, cfg)
    model = build_model(cfg["model"])
    init = build_init(cfg["init"])
    n = int(cfg["n"])
    reps = int(cfg.get("replications", 1))
    for rep in range(reps):
        traj = simulate(model, n, init, seed, replication=rep)
        write_trajectory_csv(traj, os.path.join(out_dir, f"trajectory_{rep:04d}.csv"))
    return 0


def cmd_filter(cfg, args, out_dir):
    model = build_model(cfg["model"])
    nu = build_init(cfg["nu"])
    nu_prime = build_init(cfg["nu_prime"])
    grid = build_grid(cfg, args, model)
    obs = get_observations(cfg, args, model)
    records = run_two_filters(model, grid, nu, nu_prime, obs)
    write_filter_trace_csv(records, os.path.join(out_dir, "filter_trace.csv"))
    return 0


def cmd_bound(cfg, args, out_dir):
    model = build_model(cfg["model"])
    nu = build_init(cfg["nu"])
    nu_prime = build_init(cfg["nu_prime"])
    grid = build_grid(cfg, args, model)
    obs = get_observations(cfg, args, model)
    bnd = cfg.get("bound")
    if bnd is None:
        raise ConfigError("config needs a 'bound' section")
    form = bnd.get("form", "geometric")
    if form == "sharp":
        C = build_ld_set(bnd["C"], model)
        D = build_ld_set(bnd["D"], model)
        report = sharp_bound(model, nu, nu_prime, obs, bnd["beta"], C, D, grid=grid)
    elif form == "geometric":
        bcfg = build_bound_cfg(bnd, model)
        if "C" in bnd:
            C = build_ld_set(bnd["C"], model)
        else:
            C = find_ld_set_for_eta(model, bcfg.eta, bcfg.K, obs[:8])
        report = geometric_bound(model, nu, nu_prime, obs, bcfg, C, grid=grid)
    else:
        raise ConfigError(f"unknown bound form {form!r}")
    report.write_csv(os.path.join(out_dir, "bound.csv"))
    from .reports import write_bound_summary

    write_bound_summary(report, os.path.join(out_dir, "bound_summary.json"))
    return 0


def cmd_experiment(cfg, args, out_dir):
    seed = require_seed(args, cfg)
    model = build_model(cfg["model"])
    star = build_model(cfg.get("star_model", cfg["model"]))
    grid = build_grid(cfg, args, model)
    bound_cfg = ld_set = None
    if "bound" in cfg:
        bound_cfg = build_bound_cfg(cfg["bound"], model)
        if "C" in cfg["bound"]:
            ld_set = build_ld_set(cfg["bound"]["C"], model)
        else:
            raise ConfigError("experiment bound section needs an explicit 'C'")
    ecfg = ExperimentConfig(
        model=model, star_model=star,
        nu=build_init(cfg["nu"]), nu_prime=build_init(cfg["nu_prime"]),
        nu_star=build_init(cfg["nu_star"]),
        n=int(cfg["n"]), replications=int(cfg["replications"]), seed=seed,
        grid=grid, bound_cfg=bound_cfg, ld_set=ld_set,
        threads=args.threads if args.threads is not None else int(cfg.get("threads", 1)),
    )
    result = run_forgetting(ecfg)
    r_seq = None
    if cfg.get("r_sequences") and bound_cfg is not None:
        r_seq = estimate_r_sequences(ecfg)
    emit_report(result, out_dir, r_seq=r_seq)
    return 0


def cmd_verify(cfg, args, out_dir):
    suites = ([args.suite] if args.suite and args.suite != "all"
              else ["numerator", "denominator", "counting", "exponential"])
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
        p.add_argument("--seed", type=int)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--threads", type=int,
                       help="worker threads; results are independent of it")
        p.add_argument("--grid-lo", type=float, dest="grid_lo")
        p.add_argument("--grid-hi", type=float, dest="grid_hi")
        p.add_argument("--grid-m", type=int, dest="grid_m")
        if name == "verify":
            p.add_argument("--suite",
                           choices=["numerator", "denominator", "counting", "exponential", "all"])
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
        out_dir = ensure_dir(args.out)
        code = args.fn(cfg, args, out_dir)
        echo_config(cfg, args, out_dir)
        return code
    except (DegenerateFilterError, NotCertifiableError, H2UnverifiedError,
            DomainError, CoverageError, DriftPreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:  # DomainError, a ValueError, is caught above
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
