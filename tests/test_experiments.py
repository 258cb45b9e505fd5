import dataclasses
import os
import warnings

import numpy as np
import pytest

from hmmforget import (NLSSM, BoundConfig, DegenerateFilterError, DriftFunction,
                       ExperimentConfig, FiniteStateModel, GridSpec, HypothesisWarning,
                       InitialDistribution, LDSet, LGSSM, StochVolModel, TobitModel,
                       certify_ld_set, check_conditions, emit_report, estimate_r_sequences,
                       find_ld_set_for_eta, fit_rate, geometric_bound, log_psi_batch, phi, random_finite_model, rho,
                       run_forgetting, run_two_filters, simulate, transition_kernel)
from hmmforget import bounds, experiments, gridfilter
from hmmforget.bounds import _conditions, _record_terms
from hmmforget.experiments import DEFAULT_GRID_M, TV_FLOOR, ExperimentResult, dyadic_horizons
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
    # with a bound section, the bound reads the experiment's kernel
    calls.clear()
    model = small_cfg.model
    bound_cfg = BoundConfig(beta=0.2, gamma=0.5, eta=0.5, D=certify_ld_set(model, (-2.0, 2.0)))
    with_bound = dataclasses.replace(small_cfg, bound_cfg=bound_cfg,
                                     ld_set=certify_ld_set(model, (-3.0, 3.0)))
    assert run_forgetting(with_bound).bound.total_clipped.shape == (4, 26)
    assert calls == [small_cfg.grid]


def test_equal_initials_rate_sentinel(small_cfg):
    small_cfg.nu_prime = small_cfg.nu
    res = run_forgetting(small_cfg)
    assert np.all(res.tv == 0.0)
    assert np.all(res.rates == -np.inf)


def test_rate_iqr_between_two_sentinels_is_minus_inf(tmp_path, small_cfg):
    # linear interpolation between two -inf sentinels reads NaN
    def iqr(rates):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return ExperimentResult(small_cfg, None, None, None, np.array(rates)).rate_iqr

    assert iqr([-np.inf, -np.inf, -1.0]) == (-np.inf, -np.inf)
    assert iqr([-np.inf] * 4) == (-np.inf, -np.inf)
    assert iqr([-np.inf, -np.inf, -np.inf, -2.0, -1.0]) == (-np.inf, -2.0)
    assert iqr([-np.inf, -1.0, -0.5]) == (-np.inf, -0.75)
    rates = np.random.default_rng(3).normal(-1.0, 0.3, size=(20, 7))
    for row in rates:  # all finite: the quartiles as np.percentile takes them
        assert np.array(iqr(row)).tobytes() == np.percentile(row, [25, 75]).tobytes()
    small_cfg.nu_prime = small_cfg.nu
    emit_report(run_forgetting(small_cfg), str(tmp_path))
    assert "rate_iqr: [-inf, -inf]\n" in (tmp_path / "summary.txt").read_text()


@pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
def test_a_degenerate_replication_is_named_at_every_thread_count(monkeypatch):
    # y = 1e200 makes y^2 overflow, so SV's likelihood is 0 on the whole
    # grid: replication 3 underflows at step 2 and replication 2 at step 5.
    # The error is replication 2's, as a loop over the records raises it,
    # whatever the blocks: {0..3}, {0, 1} {2, 3} or {0, 1} {2} {3}
    model = StochVolModel(0.9, 0.3, 1.0)
    cfg = ExperimentConfig(model=model, star_model=model,
                           nu=InitialDistribution.gaussian(-1, 0.5),
                           nu_prime=InitialDistribution.gaussian(1, 0.5),
                           nu_star=InitialDistribution.gaussian(0, 0.5),
                           n=12, replications=4, seed=3)
    obs = experiments._records(cfg)
    obs[2, 5] = obs[3, 2] = 1e200
    monkeypatch.setattr(experiments, "_records", lambda cfg: obs.copy())
    grid = resolve_grid(model, None, DEFAULT_GRID_M)
    with pytest.raises(DegenerateFilterError) as one:
        run_two_filters(model, grid, cfg.nu, cfg.nu_prime, obs[2])
    assert str(one.value) == "filter weights underflowed to zero at step 5 (observation 1e+200)"
    expected = "filter weights underflowed to zero in replication 2 at step 5 (observation 1e+200)"
    for threads in (1, 2, 3):
        with pytest.raises(DegenerateFilterError) as err:
            run_forgetting(dataclasses.replace(cfg, threads=threads))
        assert str(err.value) == expected, threads
    obs[2, 5] = obs[0, 1]
    assert run_forgetting(dataclasses.replace(cfg, replications=3)).tv.shape == (3, 13)
    with pytest.raises(DegenerateFilterError, match=r"replication 3 at step 2 \("):
        run_forgetting(cfg)


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
    assert res.bound.total_clipped.shape == res.tv.shape
    ok = res.bound.applies
    assert np.all(res.tv[ok] <= res.bound.total_clipped[ok] + 1e-9)
    # one ConditionReport: a row of averages and a verdict per replication
    assert res.bound.conditions.avg_k_frequency.shape == res.tv.shape
    assert res.bound.conditions.all_ok.shape == (3,)


def test_conditions_equal_check_conditions_on_each_record():
    cfg = tobit_r_config(2.5, n=16, replications=3)
    res = run_forgetting(cfg)
    for rep in range(cfg.replications):
        obs = simulate(cfg.star_model, cfg.n, cfg.nu_star, cfg.seed, rep).obs
        direct = check_conditions(obs, cfg.model, cfg.bound_cfg)
        for f in dataclasses.fields(direct):
            batched = getattr(res.bound.conditions, f.name)
            row = batched if f.name == "n" else batched[rep]
            assert np.array_equal(row, getattr(direct, f.name)), f.name


def bound_case(model, D, C, nu, nu_prime, nu_star, K, star_model=None, n=40):
    bcfg = BoundConfig(beta=0.2, gamma=0.5, eta=0.5, D=certify_ld_set(model, D), K=K,
                       M0=1.0, M1=0.1, M2=1.5)
    return ExperimentConfig(model=model, star_model=star_model or model, nu=nu,
                            nu_prime=nu_prime, nu_star=nu_star, n=n, replications=5, seed=9,
                            bound_cfg=bcfg, ld_set=certify_ld_set(model, C))


BOUND_CASES = {
    "tobit": lambda: bound_case(TobitModel(0.5, 1.0, 1.0), (-2.0, 2.0), (-3.0, 3.0),
                                G(-4, 1), G(4, 1), G(0, 1), K=(0.0, 1.5)),
    # SV filtering tobit's records: every y = 0 takes Psi's quadrature and
    # Upsilon's dense scan, and y_0 or y_1 = 0 Phi's likelihood at 0
    "stochvol": lambda: bound_case(StochVolModel(0.9, 0.3, 1.0), (-1.0, 1.0), (-1.5, 1.5),
                                   G(-1, 0.5), G(1, 0.5), G(0, 1), K=(-1.0, 1.0),
                                   star_model=TobitModel(0.5, 1.0, 1.0)),
    "lgssm": lambda: bound_case(LGSSM(0.9, 1.0, 1.0), (-2.0, 2.0), (-3.0, 3.0),
                                G(-4, 1), G(4, 1), G(0, 1), K=(-1.5, 1.5)),
    # V != 1: Upsilon's dense scan with log QV/V, and log nu V != 0
    "nlssm_tanh": lambda: bound_case(
        NLSSM("tanh", 0.5, 1.0, 1.0, kappa=-1.5, drift=DriftFunction.exp_abs(0.5)),
        (-2.0, 2.0), (-3.0, 3.0), G(-4, 1), G(4, 1), G(0, 1), K=(-1.5, 1.5)),
    "finite": lambda: bound_case(random_finite_model(5), (0, 1), (0, 1, 2),
                                 InitialDistribution.finite([0.8, 0.1, 0.1]),
                                 InitialDistribution.finite([0.1, 0.1, 0.8]),
                                 InitialDistribution.finite([1.0, 1.0, 1.0]), K=(0, 1)),
}


def bounds_per_record(cfg):
    """The experiment's bound as a loop over records: each record simulated
    on its own and given to its own geometric_bound call, on the
    experiment's grid."""
    grid = resolve_grid(cfg.model, cfg.grid, DEFAULT_GRID_M)
    return [geometric_bound(cfg.model, cfg.nu, cfg.nu_prime,
                            simulate(cfg.star_model, cfg.n, cfg.nu_star, cfg.seed, rep).obs,
                            cfg.bound_cfg, cfg.ld_set, grid=grid)
            for rep in range(cfg.replications)]


@pytest.mark.parametrize("name", BOUND_CASES)
def test_the_experiments_bound_equals_the_per_record_loop(name, monkeypatch):
    # one _record_terms call on every record of the experiment gives each
    # record the bound, the verdicts and the conditions of its own
    # geometric_bound call, bit for bit, at any replication and thread count
    cfg = BOUND_CASES[name]()
    expected = bounds_per_record(cfg)
    applies = np.stack([b.applies for b in expected])
    assert np.any(applies[:, 1:]) and not np.all(applies[:, 1:])
    calls = []

    def counted(*args, **kwargs):
        calls.append(np.shape(args[3]))
        return _record_terms(*args, **kwargs)

    monkeypatch.setattr(experiments, "_record_terms", counted)
    for replications in (1, 3, 5):
        want = expected[:replications]
        for threads in (1, 2, 3):
            calls.clear()
            res = run_forgetting(dataclasses.replace(cfg, replications=replications,
                                                     threads=threads))
            assert calls == [(replications, cfg.n + 1)]
            for name in ("total_clipped", "applies", "log_term_ratio"):
                assert getattr(res.bound, name).tobytes() == np.stack(
                    [getattr(b, name) for b in want]).tobytes(), (name, replications, threads)
            for name in ("n", "log_term_geo"):
                assert np.array_equal(getattr(res.bound, name), getattr(want[0], name)), name
            assert (res.bound.rho, res.bound.inputs) == (want[0].rho, want[0].inputs)
            for f in dataclasses.fields(res.bound.conditions):
                got = getattr(res.bound.conditions, f.name)
                rows = [getattr(b.conditions, f.name) for b in want]
                assert got.tobytes() == (rows[0] if f.name == "n" else np.stack(rows)).tobytes()
            assert res.bound.conditions.all_ok.tobytes() == np.stack(
                [b.conditions.all_ok for b in want]).tobytes()
    # the totals clip at 1 on these horizons: the ratio term is finite past n = 0
    assert np.all(np.isfinite(res.bound.log_term_ratio[:, 1:]))


@pytest.mark.parametrize("name", ["lgssm", "nlssm_tanh"])
def test_an_experiment_without_C_searches_it_on_every_record(name):
    # C is find_ld_set_for_eta's on the observations of all the records, as
    # `hmmforget bound` takes it on its one record, and the bound is
    # geometric_bound's with that C
    cfg = dataclasses.replace(BOUND_CASES[name](), ld_set=None)
    b = cfg.bound_cfg
    obs = experiments._records(cfg)
    C = find_ld_set_for_eta(cfg.model, b.eta, b.K, obs)
    assert C != find_ld_set_for_eta(cfg.model, b.eta, b.K, obs[0])
    res = run_forgetting(cfg)
    assert res.bound.inputs["C"] == C
    want = geometric_bound(cfg.model, cfg.nu, cfg.nu_prime, obs, b, C,
                           grid=resolve_grid(cfg.model, cfg.grid, DEFAULT_GRID_M))
    for f in ("n", "log_term_geo", "log_term_ratio", "total_clipped", "applies"):
        assert getattr(res.bound, f).tobytes() == getattr(want, f).tobytes(), f
    assert (res.bound.rho, res.bound.inputs) == (want.rho, want.inputs)


def test_a_search_that_fails_stops_the_experiment_before_the_filter(monkeypatch):
    # tobit with 0 in K: at y = 0 no interval meets the envelope
    cfg = dataclasses.replace(BOUND_CASES["tobit"](), ld_set=None)
    filtered = []
    monkeypatch.setattr(experiments, "_run_records", lambda *args: filtered.append(args))
    with pytest.raises(bounds.H2UnverifiedError):
        run_forgetting(cfg)
    assert not filtered


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
    applies = run_forgetting(cfg).bound.applies
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
    "nlssm_tanh": lambda: r_config(
        NLSSM("tanh", 0.5, 1.0, 1.0, kappa=-1.5, drift=DriftFunction.exp_abs(0.5)),
        (-2.0, 2.0), (-3.0, 3.0), G(-4, 1), G(4, 1), G(0, 1), M2=2.2),
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
    # the experiment's r_seq, read from the terms of its bound (taken with a
    # C, which no event reads), is the filter-free estimate
    for threads in (1, 2, 3):
        r_seq = run_forgetting(dataclasses.replace(cfg, threads=threads)).r_seq
        for f in dataclasses.fields(rs):
            assert np.array_equal(getattr(r_seq, f.name), getattr(rs, f.name)), (f.name, threads)
    # log Phi of every record, both laws, is np.log(phi(...)) bit for bit
    grid = resolve_grid(cfg.model, cfg.grid, DEFAULT_GRID_M)
    kernel = transition_kernel(cfg.model, grid)
    laws = (cfg.nu, cfg.nu_prime)
    obs = experiments._records(cfg)
    log_phi = _record_terms(cfg.model, *laws, obs, cfg.bound_cfg.D, None, grid, kernel).log_phi
    for (y0, y1), batched in zip(obs[:, :2], log_phi.T):
        one = [np.log(phi(cfg.model, law, cfg.bound_cfg.D, y0, y1, grid))
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


def test_experiment_refusals(small_cfg):
    with pytest.raises(ValueError, match="r-sequence estimation needs a bound configuration"):
        estimate_r_sequences(small_cfg)
    D = certify_ld_set(small_cfg.model, (-2.0, 2.0))
    bcfg = BoundConfig(beta=0.2, gamma=0.5, eta=0.5, D=D)
    # a bound without a C is one whose C is searched on the records
    assert dataclasses.replace(small_cfg, bound_cfg=bcfg).ld_set is None
    with pytest.raises(ValueError, match="an ld_set needs a bound_cfg"):
        dataclasses.replace(small_cfg, ld_set=D)
