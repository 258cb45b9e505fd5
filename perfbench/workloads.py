"""The benchmark's four workloads, their inputs and their correctness checks.

A workload is a list of parts; one round runs one part.  ``run`` is the
timed call into the package, ``summarise`` turns its result into the
JSON-able output that ``check`` compares with the fingerprint taken at the
default seed (``fingerprints.json``), or, at any other seed, with
invariants that hold for every seed.  The package is reached only through
``hmmforget.cli.main`` and the names in ``hmmforget.__all__``, looked up at
call time so that the tracer's wrappers are seen.  See README.md for why
each workload exists.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np

import hmmforget as H
from hmmforget import cli

FINGERPRINTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fingerprints.json")

NU = {"form": "gaussian", "mean": -4, "sd": 1}
NU_PRIME = {"form": "gaussian", "mean": 4, "sd": 1}
NU_STAR = {"form": "gaussian", "mean": 0, "sd": 1}


def _init(d):
    return H.InitialDistribution.gaussian(d["mean"], d["sd"])


class Workload:
    name = ""
    default_seed = 0
    parts = ()
    threads = 1  # worker threads the package is asked to use
    # how strongly round times are scaled by the speed probe (worker.py):
    # round time x (PROBE_REF_S / probe time) ** probe_weight.  It is the
    # measured slope of log round time on log probe time; 0 means unprobed.
    probe_weight = 1.0

    def __init__(self, seed, workdir, threads=None):
        self.seed = self.default_seed if seed is None else seed
        self.workdir = workdir
        if threads is not None:
            self.threads = threads

    def warm_up(self):
        """Run every part once on a small input."""

    def run(self, part):
        raise NotImplementedError

    def summarise(self, part, result):
        raise NotImplementedError

    def invariants_hold(self, part, out):
        raise NotImplementedError

    def matches(self, part, out, expected):
        return out == expected

    def check(self, part, out):
        if not self.invariants_hold(part, out):
            return False
        if self.seed != self.default_seed:
            return True
        with open(FINGERPRINTS) as fh:
            expected = json.load(fh)[self.name][part]
        return self.matches(part, out, expected)


class Forgetting(Workload):
    """`hmmforget experiment` in-process on the three criterion-07 models."""

    name = "forgetting"
    default_seed = 7
    parts = ("tobit", "nlssm", "stochvol")
    REPLICATIONS = 2  # criterion 07 runs 20; a shorter round gives more samples
    MODELS = {
        "tobit": {"kind": "tobit", "phi": 0.5, "sigma": 1.0, "beta": 1.0},
        "nlssm": {"kind": "nlssm", "drift_form": "linear_shrink", "delta": 0.5,
                  "sigma0": 1.0, "beta": 1.0},
        "stochvol": {"kind": "stochvol", "phi": 0.9, "sigma": 0.3, "beta": 1.0},
    }

    def __init__(self, seed, workdir, threads=None):
        super().__init__(seed, workdir, threads)
        self.configs = {}
        for part, model in self.MODELS.items():
            cfg = {"model": model, "nu": NU, "nu_prime": NU_PRIME, "nu_star": NU_STAR,
                   "n": 200, "replications": self.REPLICATIONS, "grid": {"m": 400}}
            path = os.path.join(workdir, f"forgetting-{part}.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            self.configs[part] = path

    def _experiment(self, part, *extra):
        out = os.path.join(self.workdir, part)
        code = cli.main(["experiment", "--config", self.configs[part],
                         "--seed", str(self.seed), "--threads", str(self.threads),
                         "--out", out, *extra])
        return code, out

    def warm_up(self):
        for part in self.parts:
            self._experiment(part, "--set", "n=4", "--set", "replications=1")

    def run(self, part):
        return self._experiment(part)

    def summarise(self, part, result):
        code, out = result
        rate = None
        if code == 0:
            with open(os.path.join(out, "summary.txt")) as fh:
                for line in fh:
                    if line.startswith("median_rate:"):
                        rate = float(line.split(":", 1)[1])
        return {"exit_code": code, "median_rate": rate}

    def invariants_hold(self, part, out):
        rate = out["median_rate"]
        return out["exit_code"] == 0 and rate is not None and math.isfinite(rate) and rate < 0

    def matches(self, part, out, expected):
        return abs(out["median_rate"] - expected["median_rate"]) <= 1e-9


class RSequences(Workload):
    """Criterion-09 event frequencies on tobit records of n = 64."""

    name = "rseq"
    default_seed = 11
    parts = ("tobit",)
    threads = 2
    # the probe runs on one thread and a round on two: ten runs spread 10.5%
    # with weight 1 against 6.5% in wall time
    probe_weight = 0.0
    REPLICATIONS = 50  # criterion 09 runs 200; a shorter round gives more samples

    def __init__(self, seed, workdir, threads=None):
        super().__init__(seed, workdir, threads)
        model = H.TobitModel(0.5, 1.0, 1.0)
        bcfg = H.BoundConfig(beta=0.2, gamma=0.5, eta=0.5,
                             D=H.certify_ld_set(model, (-2.0, 2.0)), K=None,
                             M0=1.0, M1=0.1, M2=2.5)
        self.cfg = H.ExperimentConfig(
            model=model, star_model=model, nu=_init(NU), nu_prime=_init(NU_PRIME),
            nu_star=_init(NU_STAR), n=64, replications=self.REPLICATIONS, seed=self.seed,
            bound_cfg=bcfg, ld_set=H.certify_ld_set(model, (-3.0, 3.0)),
            threads=self.threads)

    def warm_up(self):
        H.estimate_r_sequences(dataclasses.replace(self.cfg, n=8, replications=2))

    def run(self, part):
        return H.estimate_r_sequences(self.cfg)

    def summarise(self, part, result):
        return {key: [float(v) for v in getattr(result, key)]
                for key in ("r0_nu", "r0_nu_prime", "r1", "r2", "r3")}

    def invariants_hold(self, part, out):
        # Exact on every record: log Upsilon_X <= 0 for tobit, so r1 = 0; K is
        # every observation, so r3 = 0; each record's Phi is fixed while the
        # threshold exp(-M0 n) falls, so r0 cannot grow with n.  r2 is not
        # monotone record by record (seeds 36, 41, 57 and 75 break it), so it
        # is only compared with the fingerprint.
        return (not any(out["r1"]) and not any(out["r3"])
                and all(np.all(np.diff(out[k]) <= 0) for k in ("r0_nu", "r0_nu_prime")))


class LongBound(Workload):
    """One n = 4000 record per bound: sharp on tobit, geometric on LGSSM."""

    name = "longbound"
    default_seed = 5
    parts = ("sharp", "geometric")
    # n = 8000 gave one or two rounds per part in a 25 s run and ten runs
    # spread 18% (middle half); 4000 keeps the O(n^2) assembly and the
    # 4096 x n envelopes dominant and gives four or five
    N = 4000
    # memory-bound on envelopes far larger than the cache, a round slows less
    # in a slow phase than the probe does: over 96 rounds the slope of log
    # pass time on log probe time, in windows of 4-6 rounds, was 0.32-0.41
    # (correlation 0.75); with weight 1, ten runs at n = 8000 spread 10.8%
    # against 6.6% in wall time
    probe_weight = 0.4
    CHECK_AT = (1, 100, 4000)

    def __init__(self, seed, workdir, threads=None):
        super().__init__(seed, workdir, threads)
        self.nu, self.nu_prime, self.nu_star = _init(NU), _init(NU_PRIME), _init(NU_STAR)
        self.tobit = H.TobitModel(0.5, 1.0, 1.0)
        self.tobit_grid = H.GridSpec(*self.tobit.domain, 400)
        self.C = H.certify_ld_set(self.tobit, (-3.0, 3.0))
        self.D = H.certify_ld_set(self.tobit, (-2.0, 2.0))
        self.lgssm = H.LGSSM(0.9, 1.0, 1.0)
        self.lgssm_grid = H.GridSpec(*self.lgssm.domain, 400)
        self.bcfg = H.BoundConfig(beta=0.2, gamma=0.5, eta=0.5,
                                  D=H.certify_ld_set(self.lgssm, (-2.0, 2.0)), K=None)

    def _bound(self, part, n):
        if part == "sharp":
            obs = H.simulate(self.tobit, n, self.nu_star, self.seed).obs
            return H.sharp_bound(self.tobit, self.nu, self.nu_prime, obs, 0.2,
                                 self.C, self.D, grid=self.tobit_grid)
        # the `hmmforget bound` path when the config names no C
        obs = H.simulate(self.lgssm, n, self.nu_star, self.seed).obs
        C = H.find_ld_set_for_eta(self.lgssm, self.bcfg.eta, self.bcfg.K, obs[:8])
        return H.geometric_bound(self.lgssm, self.nu, self.nu_prime, obs, self.bcfg, C,
                                 grid=self.lgssm_grid)

    def warm_up(self):
        for part in self.parts:
            self._bound(part, 16)

    def run(self, part):
        return self._bound(part, self.N)

    def summarise(self, part, result):
        log_total = result.log_total
        return {"log_total": [float(log_total[n]) for n in self.CHECK_AT],
                "applies": int(np.sum(result.applies)),
                "finite": bool(np.all(np.isfinite(log_total[1:])))}

    def invariants_hold(self, part, out):
        return out["finite"]

    def matches(self, part, out, expected):
        return (out["applies"] == expected["applies"]
                and all(abs(a - b) <= 1e-9 * abs(b)
                        for a, b in zip(out["log_total"], expected["log_total"])))


class Oracles(Workload):
    """Finite-state oracles: the verify suites, criteria 04 and 10."""

    name = "oracles"
    default_seed = 0
    parts = ("suites", "bound_vs_tv", "supermartingale")
    SUITES = ("numerator", "denominator", "counting", "exponential")
    CASES = 50

    def __init__(self, seed, workdir, threads=None):
        super().__init__(seed, workdir, threads)
        # criterion 10: V = exp(|x|/2) on LGSSM(.9, 1, 1), b from the exact drift slack
        self.mc_model = H.LGSSM(0.9, 1.0, 1.0)
        with_v = H.LGSSM(0.9, 1.0, 1.0, drift=H.DriftFunction.exp_abs(0.5))
        xs = np.linspace(*self.mc_model.domain, 401)
        self.mc_b = float(np.log(with_v.qv_ratio_exact(xs)).max() + 0.15)

    def _cases(self):
        return range(self.seed, self.seed + self.CASES)

    def _bound_dominates_tv(self, s):
        """Criterion 04 on one random 3-state model."""
        model = H.random_finite_model(s)
        # the two random initial laws of the verification corpus, stream (s, 778, tag)
        nu, nup = (H.InitialDistribution.finite(
                       H.substream(s, 778, tag).dirichlet(np.ones(model.m)))
                   for tag in (0, 1))
        obs = H.simulate(model, 20, nu, seed=s).obs
        tv = np.array([r[1] for r in H.run_two_filters(model, None, nu, nup, obs)])
        C = D = H.certify_ld_set(model, tuple(range(model.m)))
        cfg = H.BoundConfig(beta=0.2, gamma=0.5, eta=0.5, D=D, K=None)
        rep = H.geometric_bound(model, nu, nup, obs, cfg, C)
        mask = rep.applies
        return bool(mask.any() and np.all(tv[mask] <= rep.total_clipped[mask] + 1e-12))

    def _supermartingale(self, replications):
        V = lambda x: np.exp(0.5 * np.abs(x))
        W = lambda x: np.full_like(np.asarray(x, float), 0.1)
        F = [lambda x: 0.05 * np.clip(np.abs(np.asarray(x, float)), 0, 2.0)] * 5
        return H.supermartingale_check(self.mc_model, V, W, self.mc_b, F, 5, x0=0.0,
                                       replications=replications, seed=self.seed)[2]

    def warm_up(self):
        H.run_suite("exponential")
        self._bound_dominates_tv(self.seed)
        self._supermartingale(10)

    def run(self, part):
        if part == "suites":
            return [r["holds"] for suite in self.SUITES
                    for r in H.run_suite(suite, seeds=self._cases())]
        if part == "bound_vs_tv":
            return [self._bound_dominates_tv(s) for s in self._cases()]
        return [self._supermartingale(10_000)]

    def summarise(self, part, result):
        return {"checks": len(result), "holds": sum(bool(h) for h in result)}

    def invariants_hold(self, part, out):
        return out["checks"] > 0 and out["holds"] == out["checks"]


WORKLOADS = {w.name: w for w in (Forgetting, RSequences, LongBound, Oracles)}
