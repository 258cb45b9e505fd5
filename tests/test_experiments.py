import dataclasses
import os

import numpy as np
import pytest

from hmmforget import (BoundConfig, ExperimentConfig, FiniteStateModel,
                       GridSpec, HypothesisWarning, InitialDistribution, LDSet, LGSSM,
                       StochVolModel, TobitModel, certify_ld_set, check_conditions,
                       emit_report, estimate_r_sequences, fit_rate, log_psi_batch, phi,
                       random_finite_model, rho, run_forgetting, simulate, transition_kernel)
from hmmforget import bounds, experiments, gridfilter
from hmmforget.bounds import _conditions, _log_phi, _phi_laws, _record_terms
from hmmforget.experiments import DEFAULT_GRID_M, TV_FLOOR, dyadic_horizons
from hmmforget.gridfilter import resolve_grid


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


def test_kernel_built_once_per_experiment(small_cfg, monkeypatch):
    calls, build = [], gridfilter.transition_kernel

    def counted(model, grid):
        calls.append(grid)
        return build(model, grid)

    for module in (experiments, gridfilter, bounds):
        monkeypatch.setattr(module, "transition_kernel", counted)
    assert run_forgetting(small_cfg).tv.shape == (4, 26)
    assert calls == [small_cfg.grid]
    # with a bound section, each record's bound reads the experiment's kernel
    calls.clear()
    model = small_cfg.model
    bound_cfg = BoundConfig(beta=0.2, gamma=0.5, eta=0.5, D=certify_ld_set(model, (-2.0, 2.0)))
    with_bound = dataclasses.replace(small_cfg, bound_cfg=bound_cfg,
                                     ld_set=certify_ld_set(model, (-3.0, 3.0)))
    assert run_forgetting(with_bound).bound_totals.shape == (4, 26)
    assert calls == [small_cfg.grid]


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


def test_conditions_equal_check_conditions_on_each_record():
    cfg = tobit_r_config(2.5, n=16, replications=3)
    res = run_forgetting(cfg)
    for rep, cond in enumerate(res.conditions):
        obs = simulate(cfg.star_model, cfg.n, cfg.nu_star, cfg.seed, rep).obs
        direct = check_conditions(obs, cfg.model, cfg.bound_cfg)
        for f in dataclasses.fields(direct):
            assert np.array_equal(getattr(cond, f.name), getattr(direct, f.name)), f.name


def test_r2_sums_log_psi_from_index_two():
    # r2 counts the records with sum_{i=2..n} log Psi_D(y_i) <= -M2 n, the
    # sum the bound's denominator uses
    cfg = tobit_r_config(1.5, n=16, replications=20, seed=3)
    rs = estimate_r_sequences(cfg)
    events = []
    for rep in range(cfg.replications):
        obs = simulate(cfg.star_model, cfg.n, cfg.nu_star, cfg.seed, rep).obs
        cum = np.cumsum(log_psi_batch(cfg.model, cfg.bound_cfg.D, obs)[2:])
        events.append(cum[rs.ns - 2] <= -1.5 * rs.ns)
    assert np.array_equal(rs.r2, np.mean(events, axis=0))
    assert list(rs.r2) == pytest.approx([0.1, 0.1, 0.0])


def test_r3_is_the_complement_of_applies():
    # one K-frequency rule: r3 at n is the share of records on which the
    # geometric bound does not apply at n
    cfg = tobit_r_config(2.5, n=16, replications=20, seed=3)
    cfg = dataclasses.replace(cfg, bound_cfg=dataclasses.replace(cfg.bound_cfg, K=(0.0, 1.5)))
    rs = estimate_r_sequences(cfg)
    applies = run_forgetting(cfg).bound_applies
    assert np.array_equal(rs.r3, np.mean(~applies[:, rs.ns], axis=0))
    assert np.any((rs.r3 > 0) & (rs.r3 < 1))


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


def r_sequences_per_record(cfg):
    """estimate_r_sequences as a loop over records: each record simulated on
    its own, its _record_terms (envelopes, prefix sums and both laws' Phi)
    taken on it alone, then its _conditions; the frequencies of r0-r3."""
    b = cfg.bound_cfg
    grid = resolve_grid(cfg.model, cfg.grid, DEFAULT_GRID_M)
    kernel = transition_kernel(cfg.model, grid)
    ns = dyadic_horizons(cfg.n)
    events = []
    for rep in range(cfg.replications):
        obs = simulate(cfg.star_model, cfg.n, cfg.nu_star, cfg.seed, rep).obs
        terms = _record_terms(cfg.model, cfg.nu, cfg.nu_prime, obs, b.D, None, grid, kernel)
        k_ok, ups_ok, psi_ok = _conditions(obs, terms, b)[1]
        lphi, lphi2 = terms.log_phi
        events.append(np.stack([lphi <= -b.M0 * ns, lphi2 <= -b.M0 * ns,
                                ~ups_ok[ns], ~psi_ok[ns], ~k_ok[ns]]))
    return np.mean(np.stack(events).astype(float), axis=0)


def phi_by_double_sum(model, nu, D, y0, y1, grid, kernel):
    """nu[g(., y0) Q g(., y1) 1_D] in the operations and order of a single
    record's Phi: the law's weights, g0, g1 masked to D, then one GEMV."""
    x = model.support(grid)
    w = np.exp(model.log_init(nu, grid))
    mask = (np.isin(x, D.states) if D.interval is None
            else (x >= D.interval[0]) & (x <= D.interval[1]))
    g0 = np.exp(model.loglik(x, y0))
    g1 = np.where(mask, np.exp(model.loglik(x, y1)), 0.0)
    return float((w * g0) @ (kernel @ g1))


def r_config(model, D, C, nu, nu_prime, nu_star, M2, n=64, replications=50, seed=11):
    bcfg = BoundConfig(beta=0.2, gamma=0.5, eta=0.5, D=certify_ld_set(model, D), K=None,
                       M0=1.0, M1=0.1, M2=M2)
    return ExperimentConfig(model=model, star_model=model, nu=nu, nu_prime=nu_prime,
                            nu_star=nu_star, n=n, replications=replications, seed=seed,
                            bound_cfg=bcfg, ld_set=certify_ld_set(model, C))


G = InitialDistribution.gaussian
R_CONFIGS = {
    # the benchmark's rseq config: tobit, D = [-2, 2], M2 = 2.5
    "tobit": lambda: tobit_r_config(2.5, n=64, replications=50),
    "lgssm": lambda: r_config(LGSSM(0.9, 1.0, 1.0), (-2.0, 2.0), (-3.0, 3.0),
                              G(-4, 1), G(4, 1), G(0, 1), M2=2.2),
    "stochvol": lambda: r_config(StochVolModel(0.9, 0.3, 1.0), (-1.0, 1.0), (-1.5, 1.5),
                                 G(-1, 0.5), G(1, 0.5), G(0, 0.5), M2=1.5),
    "finite": lambda: r_config(random_finite_model(5), (0, 1), (0, 1, 2),
                               InitialDistribution.finite([0.8, 0.1, 0.1]),
                               InitialDistribution.finite([0.1, 0.1, 0.8]),
                               InitialDistribution.finite([1.0, 1.0, 1.0]), M2=0.9),
}


@pytest.mark.parametrize("name", R_CONFIGS)
def test_r_sequences_equal_the_per_record_loop(name):
    # the experiment-wide passes (one record pass, one envelope batch over
    # every distinct observation, each law's Phi factors once) give the
    # frequencies of the record-by-record loop exactly, at any thread count
    cfg = R_CONFIGS[name]()
    expected = r_sequences_per_record(cfg)
    assert np.any((expected > 0) & (expected < 1))
    for threads in (1, 2):
        rs = estimate_r_sequences(dataclasses.replace(cfg, threads=threads))
        got = np.stack([rs.r0_nu, rs.r0_nu_prime, rs.r1, rs.r2, rs.r3])
        assert got.tobytes() == expected.tobytes(), threads
    # log Phi of every record, both laws, is np.log(phi(...)) bit for bit
    grid = resolve_grid(cfg.model, cfg.grid, DEFAULT_GRID_M)
    kernel = transition_kernel(cfg.model, grid)
    laws = (cfg.nu, cfg.nu_prime)
    phis = _phi_laws(cfg.model, laws, cfg.bound_cfg.D, grid, kernel)
    obs = experiments._records(cfg)
    for y0, y1 in obs[:, :2]:
        batched = np.array(_log_phi(phis(y0, y1)))
        one = [np.log(phi(cfg.model, law, cfg.bound_cfg.D, y0, y1, grid, kernel))
               for law in laws]
        direct = [np.log(phi_by_double_sum(cfg.model, law, cfg.bound_cfg.D, y0, y1, grid,
                                           kernel)) for law in laws]
        assert batched.tobytes() == np.array(one).tobytes() == np.array(direct).tobytes()


def test_a_law_that_cannot_reach_D_warns_through_the_r_sequences():
    # nu = delta_0 on a chain that never leaves state 0 has nu Q 1_D = 0 for
    # D = {1}: its Phi reads 0, so log Phi = -inf and r0 is 1 at every n
    model = FiniteStateModel([[1.0, 0.0], [0.0, 1.0]], [[0.6, 0.4], [0.3, 0.7]])
    D = LDSet(0.5, 0.5, states=(1,))
    cfg = ExperimentConfig(
        model=model, star_model=model,
        nu=InitialDistribution.finite([1.0, 0.0]),
        nu_prime=InitialDistribution.finite([0.0, 1.0]),
        nu_star=InitialDistribution.finite([0.5, 0.5]),
        n=8, replications=3, seed=2,
        bound_cfg=BoundConfig(beta=0.2, gamma=0.5, eta=0.5, D=D), ld_set=D)
    with pytest.warns(HypothesisWarning):
        rs = estimate_r_sequences(cfg)
    assert np.all(rs.r0_nu == 1.0) and np.all(rs.r0_nu_prime < 1.0)
