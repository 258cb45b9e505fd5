"""Acceptance gate: eleven pinned criteria, one pass/fail line each.

Exact inequalities are checked with zero tolerance for violations on the
seeded corpora; numerical agreements use the stated tolerances.  The
thresholds marked as frozen goldens (rate threshold, M2, seeds) were fixed
after the first verified run and are regression-tested here.
"""

import json
import time

import numpy as np
import pytest

from hmmforget import (BoundConfig, ExperimentConfig, FiniteStateModel,
                       GridSpec, InitialDistribution, LGSSM, NLSSM,
                       StochVolModel, TobitModel, certify_ld_set,
                       geometric_bound, estimate_r_sequences, filter_step,
                       init_filter, log_upsilon_batch, rho, run_forgetting,
                       run_suite, run_two_filters, simulate,
                       supermartingale_check, upsilon)
from hmmforget.cli import main as cli_main
from hmmforget.models import _folded_exp_moment
from hmmforget.verify import (random_finite_model, random_probability_vector,
                              random_g_seq)


def report(num, desc, ok):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}"
    print(line)
    assert ok, line


def test_criterion_01_pair_chain_numerator_exact():
    t0 = time.time()
    records = run_suite("numerator", seeds=range(50), horizon=20)
    elapsed = time.time() - t0
    ok = len(records) == 50 and all(r["holds"] for r in records) and elapsed < 30
    report(1, f"exact numerator gap <= pair-chain bound on 50 models, "
              f"n<=20, {elapsed:.1f}s", ok)


def test_criterion_02_denominator_lower_bound_exact():
    records = run_suite("denominator", seeds=range(50), horizon=20)
    ok = len(records) == 50 and all(r["holds"] for r in records)
    report(2, "forward-recursion mass >= certified lower bound on 50 models", ok)


def test_criterion_03_counting_inequality_exhaustive():
    records = run_suite("counting")
    ok = all(r["holds"] for r in records)
    report(3, "counting inequality holds for all 4096 length-12 sequences", ok)


def test_criterion_04_assembled_bound_dominates_exact_tv():
    violations = 0
    checked = 0
    for s in range(50):
        model = random_finite_model(s)
        nu = InitialDistribution.finite(random_probability_vector(s, model.m, 0))
        nup = InitialDistribution.finite(random_probability_vector(s, model.m, 1))
        obs = simulate(model, 20, nu, seed=s).obs
        tv = np.array([r[1] for r in run_two_filters(model, None, nu, nup, obs)])
        C = D = certify_ld_set(model, tuple(range(model.m)))
        cfg = BoundConfig(beta=0.2, gamma=0.5, eta=0.5, D=D, K=None)
        rep = geometric_bound(model, nu, nup, obs, cfg, C)
        mask = rep.applies
        checked += int(mask.sum())
        violations += int(np.sum(tv[mask] > rep.total_clipped[mask] + 1e-12))
    report(4, f"geometric bound >= exact tv at {checked} applying steps, "
              f"{violations} violations", violations == 0 and checked > 0)


def test_criterion_05_kalman_oracle():
    model = LGSSM(0.9, 1.0, 1.0, 1.0)
    grid = GridSpec(*model.domain, 2000)
    nu = InitialDistribution.gaussian(0.0, 1.0)
    obs = simulate(model, 50, nu, seed=123).obs
    m, p = 0.0, 1.0
    state = None
    worst = 0.0
    for i, y in enumerate(obs):
        if i > 0:
            m, p = 0.9 * m, 0.81 * p + 1.0
            state = filter_step(state, model, y)
        else:
            state = init_filter(model, grid, nu, y)
        k = p / (p + 1.0)
        m, p = m + k * (y - m), (1.0 - k) * p
        mean = state.weights @ grid.centers
        var = state.weights @ (grid.centers - mean) ** 2
        worst = max(worst, abs(mean - m), abs(var - p))
    report(5, f"grid filter matches Kalman recursion, max error {worst:.2e}",
           worst < 1e-3)


def test_criterion_06_uniform_ergodicity_envelope():
    model = FiniteStateModel([[0.6, 0.4], [0.3, 0.7]],
                             [[0.7, 0.3], [0.2, 0.8]])
    nu = InitialDistribution.finite([0.95, 0.05])
    nup = InitialDistribution.finite([0.05, 0.95])
    obs = simulate(model, 50, nu, seed=6).obs
    tv = np.array([r[1] for r in run_two_filters(model, None, nu, nup, obs)])
    rho_x = rho(certify_ld_set(model, (0, 1)))
    ok = bool(np.all(tv <= rho_x ** np.arange(51) + 1e-12))
    report(6, f"tv(n) <= rho_X^n for n <= 50 (rho_X = {rho_x:.4f})", ok)


@pytest.mark.parametrize("name,model", [
    ("censored AR(1)", TobitModel(0.5, 1.0, 1.0)),
    ("nonlinear shrink", NLSSM("linear_shrink", 0.5, 1.0, 1.0)),
    ("stochastic volatility", StochVolModel(0.9, 0.3, 1.0)),
])
def test_criterion_07_geometric_forgetting(name, model):
    t0 = time.time()
    cfg = ExperimentConfig(
        model=model, star_model=model,
        nu=InitialDistribution.gaussian(-4, 1),
        nu_prime=InitialDistribution.gaussian(4, 1),
        nu_star=InitialDistribution.gaussian(0, 1),
        n=200, replications=20, seed=7)
    res = run_forgetting(cfg)
    elapsed = time.time() - t0
    ok = res.median_rate < -0.05 and elapsed < 300
    report(7, f"{name}: median log-tv slope {res.median_rate:.3f} < -0.05, "
              f"{elapsed:.1f}s", ok)


def test_criterion_08_sv_envelope_closed_form():
    sv = StochVolModel(0.9, 0.3, 1.0)
    worst = 0.0
    for y in (0.5, 1.0, 2.0, 4.0):
        exact = (2 * np.pi * np.e) ** -0.5 / abs(y)
        worst = max(worst, abs(upsilon(sv, "all", y) - exact) / exact)
    report(8, f"volatility likelihood envelope matches closed form, "
              f"max rel err {worst:.2e}", worst < 1e-6)


def test_criterion_09_event_frequencies():
    model = TobitModel(0.5, 1.0, 1.0)
    D = certify_ld_set(model, (-2.0, 2.0))
    # sup over observations of the log envelope is at most 0 (the censored
    # likelihood is a probability); M1 = 0.1 clears it
    probe = np.concatenate([[0.0], np.linspace(0.01, 10.0, 500)])
    sup_log_ups = float(log_upsilon_batch(model, "all", probe).max())
    assert sup_log_ups < 0.1
    # M2 = 2.5 and seed = 11 frozen as goldens after the first verified run
    bcfg = BoundConfig(beta=0.2, gamma=0.5, eta=0.5, D=D, K=None,
                       M0=1.0, M1=0.1, M2=2.5)
    cfg = ExperimentConfig(
        model=model, star_model=model,
        nu=InitialDistribution.gaussian(-4, 1),
        nu_prime=InitialDistribution.gaussian(4, 1),
        nu_star=InitialDistribution.gaussian(0, 1),
        n=64, replications=200, seed=11,
        bound_cfg=bcfg, ld_set=certify_ld_set(model, (-3.0, 3.0)))
    rs = estimate_r_sequences(cfg)
    ok = (np.all(rs.r1 == 0.0) and np.all(rs.r3 == 0.0)
          and np.all(np.diff(rs.r2) <= 1e-12))
    report(9, f"r1 == 0, r3 == 0, r2 non-increasing {np.round(rs.r2, 3)}", ok)


def test_criterion_10_exponential_moment_bound():
    records = run_suite("exponential")
    exact_ok = all(r["holds"] for r in records)

    model = LGSSM(0.9, 1.0, 1.0)
    V = lambda x: np.exp(0.5 * np.abs(x))
    xs = np.linspace(*model.domain, 401)
    slack = np.log(_folded_exp_moment(0.9 * xs, 1.0, 0.5)) - 0.5 * np.abs(xs)
    b = float(slack.max() + 0.15)
    W = lambda x: np.full_like(np.asarray(x, float), 0.1)
    F = [lambda x: 0.05 * np.clip(np.abs(np.asarray(x, float)), 0, 2.0)
         for _ in range(5)]
    mc, rhs, mc_ok = supermartingale_check(model, V, W, b, F, 5, x0=0.0,
                                           replications=10_000, seed=0)
    report(10, f"exponential bound: 20 exact cases hold, MC {mc:.3f} vs "
               f"analytic {rhs:.3f} within 3 s.e.", exact_ok and mc_ok)


def test_criterion_11_cli_thread_determinism(tmp_path):
    cfg = {"model": {"kind": "lgssm", "phi": 0.9, "sigma": 1.0, "beta": 1.0},
           "nu": {"form": "gaussian", "mean": -2, "sd": 1},
           "nu_prime": {"form": "gaussian", "mean": 2, "sd": 1},
           "nu_star": {"form": "gaussian", "mean": 0, "sd": 1},
           "n": 20, "replications": 4}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    outs = []
    for threads in (1, 2, 8):
        out = tmp_path / f"run{threads}"
        code = cli_main(["experiment", "--config", str(path), "--seed", "77",
                         "--threads", str(threads), "--out", str(out)])
        assert code == 0
        outs.append(out)
    same = all((outs[0] / name).read_bytes() == (o / name).read_bytes()
               for o in outs[1:] for name in ("tv_curves.csv", "rates.csv",
                                              "summary.txt"))
    report(11, "CSVs byte-identical across --threads {1, 2, 8}", same)
