import os

import numpy as np
import pytest

from hmmforget import (BoundConfig, ExperimentConfig, FiniteStateModel,
                       GridSpec, InitialDistribution, LGSSM, TobitModel,
                       certify_ld_set, emit_report, estimate_r_sequences,
                       fit_rate, log_psi_batch, rho, run_forgetting, simulate)
from hmmforget.experiments import TV_FLOOR, dyadic_horizons


def test_fit_rate_recovers_exact_geometric_decay():
    n = np.arange(101)
    tv = 0.8 * np.exp(-0.07 * n)
    assert fit_rate(tv) == pytest.approx(-0.07, abs=1e-10)


def test_fit_rate_skips_floored_steps_and_falls_back():
    n = np.arange(101)
    tv = np.exp(-0.5 * n)  # floored beyond n ~ 64
    assert np.any(tv[50:] <= TV_FLOOR)
    assert fit_rate(tv) == pytest.approx(-0.5, abs=1e-6)


def test_fit_rate_identical_filters_sentinel():
    assert fit_rate(np.zeros(51)) == -np.inf


def test_dyadic_horizons():
    assert list(dyadic_horizons(64)) == [4, 8, 16, 32, 64]
    assert list(dyadic_horizons(50)) == [4, 8, 16, 32, 50]
    assert list(dyadic_horizons(3)) == [3]


@pytest.fixture
def small_cfg():
    model = LGSSM(0.9, 1.0, 1.0)
    return ExperimentConfig(
        model=model, star_model=model,
        nu=InitialDistribution.gaussian(-2, 1),
        nu_prime=InitialDistribution.gaussian(2, 1),
        nu_star=InitialDistribution.gaussian(0, 1),
        n=25, replications=4, seed=100,
        grid=GridSpec(*model.domain, 200))


def test_run_forgetting_shapes_and_negativity(small_cfg):
    res = run_forgetting(small_cfg)
    assert res.tv.shape == (4, 26)
    assert np.all((res.tv >= 0) & (res.tv <= 1))
    assert res.median_rate < 0
    q1, q3 = res.rate_iqr
    assert q1 <= res.median_rate <= q3


def test_thread_count_does_not_change_results(small_cfg):
    base = run_forgetting(small_cfg)
    small_cfg.threads = 3
    threaded = run_forgetting(small_cfg)
    assert np.array_equal(base.tv, threaded.tv)
    assert np.array_equal(base.rates, threaded.rates)


def test_equal_initials_rate_sentinel(small_cfg):
    small_cfg.nu_prime = small_cfg.nu
    res = run_forgetting(small_cfg)
    assert np.all(res.tv == 0.0)
    assert np.all(res.rates == -np.inf)


def test_finite_tv_below_uniform_ergodicity_rate():
    model = FiniteStateModel([[0.6, 0.4], [0.3, 0.7]],
                             [[0.7, 0.3], [0.2, 0.8]])
    cfg = ExperimentConfig(
        model=model, star_model=model,
        nu=InitialDistribution.finite([0.95, 0.05]),
        nu_prime=InitialDistribution.finite([0.05, 0.95]),
        nu_star=InitialDistribution.finite([0.5, 0.5]),
        n=30, replications=5, seed=21)
    res = run_forgetting(cfg)
    rho_x = rho(certify_ld_set(model, (0, 1)))
    envelope = rho_x ** np.arange(31)
    assert np.all(res.tv <= envelope[None, :] + 1e-12)
    assert res.median_rate < 0


def test_misspecified_tobit_still_forgets():
    cfg = ExperimentConfig(
        model=TobitModel(0.5, 1.0, 1.0),
        star_model=TobitModel(0.7, 1.0, 1.0),
        nu=InitialDistribution.gaussian(-4, 1),
        nu_prime=InitialDistribution.gaussian(4, 1),
        nu_star=InitialDistribution.gaussian(0, 1),
        n=80, replications=5, seed=33)
    res = run_forgetting(cfg)
    assert res.median_rate < 0


def tobit_r_config(M2, n=32, replications=60, seed=11):
    model = TobitModel(0.5, 1.0, 1.0)
    D = certify_ld_set(model, (-2.0, 2.0))
    bcfg = BoundConfig(beta=0.2, gamma=0.5, eta=0.5, D=D, K=None,
                       M0=1.0, M1=0.1, M2=M2)
    return ExperimentConfig(
        model=model, star_model=model,
        nu=InitialDistribution.gaussian(-4, 1),
        nu_prime=InitialDistribution.gaussian(4, 1),
        nu_star=InitialDistribution.gaussian(0, 1),
        n=n, replications=replications, seed=seed,
        bound_cfg=bcfg, ld_set=certify_ld_set(model, (-3.0, 3.0)))


def test_r_frequencies_in_unit_interval_and_monotone_in_threshold():
    low = estimate_r_sequences(tobit_r_config(2.2))
    high = estimate_r_sequences(tobit_r_config(3.0))
    for rs in (low, high):
        for arr in (rs.r0_nu, rs.r0_nu_prime, rs.r1, rs.r2, rs.r3):
            assert np.all((arr >= 0) & (arr <= 1))
    # raising M2 makes the event rarer at every horizon
    assert np.all(high.r2 <= low.r2 + 1e-12)


def test_bound_curves_attached_when_configured():
    cfg = tobit_r_config(2.5, n=16, replications=3)
    res = run_forgetting(cfg)
    assert res.bound_totals.shape == res.tv.shape
    ok = res.bound_applies
    assert np.all(res.tv[ok] <= res.bound_totals[ok] + 1e-9)
    assert len(res.conditions) == 3


def test_cesaro_psi_average_settles():
    model = TobitModel(0.5, 1.0, 1.0)
    D = certify_ld_set(model, (-2.0, 2.0))
    obs = simulate(model, 2000, InitialDistribution.gaussian(0, 1), seed=14).obs
    lp = log_psi_batch(model, D, obs)
    avg = np.cumsum(lp[2:]) / np.arange(1, len(lp) - 1)
    assert abs(avg[-1] - avg[len(avg) // 2]) < 0.1


def test_emit_report_files_and_consistency(tmp_path, small_cfg):
    res = run_forgetting(small_cfg)
    out = tmp_path / "report"
    emit_report(res, str(out))
    for name in ("tv_curves.csv", "rates.csv", "summary.txt"):
        assert (out / name).exists()
    rates = np.genfromtxt(out / "rates.csv", delimiter=",", names=True)["rate"]
    assert np.median(rates) == pytest.approx(res.median_rate)
    text = (out / "summary.txt").read_text()
    assert "median_rate" in text and str(small_cfg.seed) in text


def test_emit_report_is_deterministic(tmp_path, small_cfg):
    a, b = tmp_path / "a", tmp_path / "b"
    emit_report(run_forgetting(small_cfg), str(a))
    emit_report(run_forgetting(small_cfg), str(b))
    for name in os.listdir(a):
        assert (a / name).read_bytes() == (b / name).read_bytes()
