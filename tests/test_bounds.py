import itertools
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import optimize
from scipy.special import logsumexp, ndtr

import hmmforget
from hmmforget import (LGSSM, NLSSM, BoundConfig, DomainError, DriftFunction,
                       FiniteStateModel, GridSpec, HypothesisWarning,
                       InitialDistribution, LDSet, NotCertifiableError,
                       StochVolModel, TobitModel, a_n, certify_ld_set,
                       check_conditions, geometric_bound, find_ld_set_for_eta,
                       sharp_bound, log_upsilon_batch, phi, rho,
                       random_finite_model, run_two_filters, simulate, upsilon)
from hmmforget.bounds import (_EM_LIMIT, _RECORD_BLOCK, PSI_QUAD_M, UPSILON_QUAD_M,
                              _components, _log_g_qv, _log_psi_location,
                              _log_sup, _record_series, _record_terms, _top_sums,
                              log_psi_batch)
from hmmforget.grids import logsumexp as grid_logsumexp


@pytest.mark.parametrize("model", [
    LGSSM(0.5, 1.0, 1.0), TobitModel(0.5, 1.0, 1.0), StochVolModel(0.5, 1.0, 1.0),
    NLSSM("linear_shrink", 0.5, 1.0, 1.0),
], ids=lambda m: m.kind)
def test_certify_lgssm_hand_values(model):
    # every affine-mean model at slope 0.5: the means over C are phi C, so the
    # offsets x' - phi x range over [-1.5, 1.5] and the constants are exact
    ld = certify_ld_set(model, (-1.0, 1.0))
    assert ld.eps_plus == pytest.approx(2.0 / np.sqrt(2 * np.pi), rel=1e-12)
    assert ld.eps_minus == pytest.approx(
        2.0 / np.sqrt(2 * np.pi) * np.exp(-1.5 ** 2 / 2), rel=1e-12)
    assert rho(ld) == pytest.approx(0.894602, abs=5e-6)


TANH_MODELS = {  # the mean 0.5 x + kappa tanh(x) turns at +-1.146 when kappa = -1.5,
    # -0.5 x + 0.9 tanh(x) at +-0.795 and 0.8 x - 0.9 tanh(x) at +-0.345
    "tanh-0.4": NLSSM("tanh", 0.5, 1.0, 1.0, kappa=0.4),
    "tanh--1.5": NLSSM("tanh", 0.5, 1.0, 1.0, kappa=-1.5),
    "tanh-1.5-0.9": NLSSM("tanh", 1.5, 1.0, 1.0, kappa=0.9),
    "tanh-0.2--0.9": NLSSM("tanh", 0.2, 1.0, 1.0, kappa=-0.9),
}


def test_certify_matches_lattice_search():
    # the closed form brackets a 2001-point lattice of |C| q over C x C, eps-
    # at or below its minimum and eps+ at or above its maximum (where an
    # extremum sits on a lattice point, as on the LGSSM case, the two
    # arithmetics differ in the last bits, which the outward rounding
    # covers), and is within 1e-5 of it: on an affine mean and on the tanh
    # mean, whose extrema over C sit at its turning points where C holds them
    cases = [(LGSSM(0.7, 1.0, 1.0), (-2.0, 1.0))] + [
        (model, C) for model in TANH_MODELS.values()
        for C in [(-1.0, 1.0), (-3.0, 3.0), (0.2, 2.5), (-4.0, -0.5), (-2.0, 2.0)]]
    for model, C in cases:
        ld = certify_ld_set(model, C)
        x = np.linspace(*C, 2001)
        logq = model._trans_logpdf(x[:, None], x[None, :])
        width = C[1] - C[0]
        lattice_minus, lattice_plus = width * np.exp(logq.min()), width * np.exp(logq.max())
        assert ld.eps_minus <= lattice_minus
        assert ld.eps_plus >= lattice_plus
        assert ld.eps_minus == pytest.approx(lattice_minus, rel=1e-5)
        assert ld.eps_plus == pytest.approx(lattice_plus, rel=1e-5)


@pytest.mark.parametrize("model", [
    LGSSM(0.9, 1.0, 1.0), LGSSM(-0.7, 2.0, 1.0), TobitModel(0.5, 1.0, 1.0),
    StochVolModel(0.9, 0.3, 1.0), NLSSM("linear_shrink", 1.5, 1.0, 1.0), *TANH_MODELS.values(),
], ids=lambda m: getattr(m, "drift_form", m.kind) + f"-{m.phi}-{getattr(m, 'kappa', 0)}")
def test_mean_range_against_a_dense_grid(model):
    # the least and greatest state mean over [lo, hi], elementwise: at most
    # a few ulps outside a 2^16-cell grid with both ends, and within 1e-9 of
    # it; the intervals hold none, one or both tanh turning points
    lo = np.array([-1.0, -3.0, 0.2, -4.0, -2.0, 0.5, -0.5, 1.1, -0.4])
    hi = np.array([1.0, 3.0, 2.5, -0.5, 2.0, 1.2, -0.2, 6.0, 0.4])
    m_lo, m_hi = model.mean_range(lo, hi)
    for j in range(len(lo)):
        means = model.state_mean(np.linspace(lo[j], hi[j], 2**16 + 1))
        slack = 1e-14 * (1 + np.abs(means).max())
        assert means.min() - 1e-9 <= m_lo[j] <= means.min() + slack
        assert means.max() - slack <= m_hi[j] <= means.max() + 1e-9
        assert (m_lo[j], m_hi[j]) == model.mean_range(lo[j], hi[j])


def test_certify_finite_and_failure():
    model = FiniteStateModel([[0.6, 0.4], [0.3, 0.7]], [[0.5, 0.5], [0.5, 0.5]])
    ld = certify_ld_set(model, (0, 1))
    assert ld.eps_minus == pytest.approx(2 * 0.3)
    assert ld.eps_plus == pytest.approx(2 * 0.7)
    zero = FiniteStateModel([[1.0, 0.0], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(NotCertifiableError):
        certify_ld_set(zero, (0, 1))


def test_certify_rounds_eps_outward():
    # eps- down and eps+ up by the relative 1e-13, on both branches: the
    # finite constants are |C| times transition entries, the Gaussian ones
    # |C| times the kernel's density at the farthest and nearest offset
    finite = FiniteStateModel([[0.6, 0.4], [0.3, 0.7]], [[0.5, 0.5], [0.5, 0.5]])
    ld = certify_ld_set(finite, (0, 1))
    assert (ld.eps_minus, ld.eps_plus) == (2 * 0.3 * (1 - 1e-13), 2 * 0.7 * (1 + 1e-13))
    model = LGSSM(0.5, 1.0, 1.0)
    ld = certify_ld_set(model, (-1.0, 1.0))
    q = np.exp(model._trans_logpdf(np.array([1.0, 0.0]), np.array([-1.0, 0.0])))
    assert ld.eps_minus / (2.0 * q[0]) == pytest.approx(1 - 1e-13, abs=1e-15)
    assert ld.eps_plus / (2.0 * q[1]) == pytest.approx(1 + 1e-13, abs=1e-15)


def test_ld_set_validation():
    with pytest.raises(ValueError):
        LDSet(eps_minus=0.5, eps_plus=0.4, interval=(-1, 1))
    with pytest.raises(ValueError):
        LDSet(eps_minus=0.1, eps_plus=0.4)
    assert rho(LDSet(0.3, 0.3, interval=(0, 1))) == 0.0


def test_upsilon_sv_closed_form():
    # (2 pi e y^2)^{-1/2}, reached at log(y^2 / beta^2), inside the domain;
    # at y = 0 log g falls in x: there is no peak
    sv = StochVolModel(0.9, 0.3, 1.0)
    for y in (0.1, 0.5, 1.0, 2.0, 4.0, -2.0):
        exact = (2 * np.pi * np.e) ** -0.5 / abs(y)
        assert upsilon(sv, "all", y) == pytest.approx(exact, rel=1e-12)
    assert np.isnan(sv.obs_peak(0.0))


def test_upsilon_monotone_in_region():
    model = TobitModel(0.5, 1.0, 1.0, drift=DriftFunction.exp_abs(0.5))
    for y in (0.0, 0.5, 2.0):
        u_all = upsilon(model, "all", y)
        u_cc = upsilon(model, ("complement", (-2.0, 2.0)), y)
        assert u_cc <= u_all + 1e-12


def test_upsilon_complement_ratio_small_for_large_sets():
    model = TobitModel(0.5, 1.0, 1.0, drift=DriftFunction.exp_abs(1.0),
                       domain_halfwidth=30.0)
    for y in (0.5, 1.0, 2.0):
        ratio = (upsilon(model, ("complement", (-12.0, 12.0)), y)
                 / upsilon(model, "all", y))
        assert ratio <= 0.01


def test_find_ld_set_eta_one_and_tobit():
    model = TobitModel(0.5, 1.0, 1.0, drift=DriftFunction.exp_abs(0.5),
                       domain_halfwidth=30.0)
    probes = [0.0, 0.5, 1.0, 2.0, 4.0]
    loose = find_ld_set_for_eta(model, 1.0, None, probes)
    tight = find_ld_set_for_eta(model, 0.1, None, probes)
    assert loose.interval is not None and tight.interval is not None
    assert tight.interval[1] >= loose.interval[1]
    for y in probes:
        assert (upsilon(model, ("complement", tight.interval), y)
                <= 0.1 * upsilon(model, "all", y) * (1 + 1e-9))


def test_find_ld_set_nlssm():
    model = NLSSM("linear_shrink", 0.5, 1.0, 1.0,
                  drift=DriftFunction.exp_abs(0.5), domain_halfwidth=30.0)
    C = find_ld_set_for_eta(model, 0.1, None, [0.0, 1.0, 2.0])
    assert C.interval[1] < 30.0


def test_finite_drift_values_enter_upsilon_and_nu_v():
    P = np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
    E = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.3, 0.6]])
    V = np.array([1.0, 2.5, 4.0])
    model = FiniteStateModel(P, E, drift_values=V)
    ratio = (P @ V) / V
    outside = [0, 2]  # the complement of C = {1}
    ys = np.array([0, 1, 2, 2, 0])
    expected = np.array([np.max(E[outside, y] * ratio[outside]) for y in ys])
    batch = np.exp(log_upsilon_batch(model, ("complement", (1,)), ys))
    assert batch == pytest.approx(expected, rel=1e-12)
    for y, e in zip(ys, expected):
        assert upsilon(model, ("complement", (1,)), y) == pytest.approx(e, rel=1e-12)
    assert upsilon(model, "all", 1) == pytest.approx(np.max(E[:, 1] * ratio), rel=1e-12)

    nu = InitialDistribution.finite([0.8, 0.1, 0.1])
    nup = InitialDistribution.finite([0.1, 0.1, 0.8])
    C = certify_ld_set(model, (1,))
    D = certify_ld_set(model, (0, 1, 2))
    terms = _record_terms(model, nu, nup, ys, D, C, None)
    assert terms.log_ups_cc == pytest.approx(np.log(expected), rel=1e-12)
    assert terms.log_nuv[0] == pytest.approx(np.log(nu.values @ V), rel=1e-12)
    assert terms.log_nuv[1] == pytest.approx(np.log(nup.values @ V), rel=1e-12)


def test_psi_finite_average():
    model = FiniteStateModel([[0.5, 0.5], [0.5, 0.5]], [[0.2, 0.8], [0.6, 0.4]])
    D = certify_ld_set(model, (0, 1))
    assert np.exp(log_psi_batch(model, D, [0, 1])) == pytest.approx([0.4, 0.6])


def test_psi_sv_jensen_lower_bound():
    # averaging the SV likelihood over D = [-1, 1] can only beat the
    # convexity bound exp(-log(2 pi)/2 - y^2 sinh(1)/2)
    sv = StochVolModel(0.9, 0.3, 1.0)
    D = certify_ld_set(sv, (-1.0, 1.0))
    ys = np.array([0.0, 1.0, 2.0])
    lower = -0.5 * np.log(2 * np.pi) - ys * ys * np.sinh(1.0) / 2.0
    assert np.all(log_psi_batch(sv, D, ys) >= lower - 1e-9)


def test_phi_hand_value_and_zero_reach_warning():
    model = FiniteStateModel([[0.5, 0.5], [0.5, 0.5]], [[1.0, 0.2], [1.0, 0.8]])
    D = LDSet(0.5, 0.5, states=(1,))
    nu = InitialDistribution.finite([1.0, 0.0])
    # g(., y0) = (1, 1), g(., y1) = (0.2, 0.8), D = {1}: 0.5 * 0.8
    assert phi(model, nu, D, 0, 1) == pytest.approx(0.4)

    blocked = FiniteStateModel([[1.0, 0.0], [0.0, 1.0]],
                               [[1.0, 0.2], [1.0, 0.8]])
    with pytest.warns(HypothesisWarning):
        assert phi(blocked, nu, D, 0, 1) == 0.0


def test_phi_total_mass_when_g_constant():
    model = LGSSM(0.5, 1.0, 1.0, domain_halfwidth=8.0)
    grid = GridSpec(*model.domain, 800)
    D = certify_ld_set(model, model.domain)
    nu = InitialDistribution.gaussian(0.0, 0.5)
    # likelihoods at a fixed y vary, so instead check against the direct
    # double sum computed independently
    x = grid.centers
    w = np.exp(nu.log_weights_on(grid))
    K = np.exp(model._trans_logpdf(x[:, None], x[None, :])) * grid.delta
    g0 = np.exp(model.log_likelihood(x, 0.3))
    g1 = np.exp(model.log_likelihood(x, -0.2))
    direct = (w * g0) @ (K @ g1)
    assert phi(model, nu, D, 0.3, -0.2, grid) == pytest.approx(direct, rel=1e-12)


def test_a_n_values():
    assert a_n(10, 0.5) == 2
    assert a_n(7, 0.5) == 1
    assert a_n(0, 0.3) == 0
    with pytest.raises(ValueError):
        a_n(5, 1.5)


def test_bound_config_validation():
    D = LDSet(0.2, 0.4, states=(0, 1))
    with pytest.raises(ValueError):
        BoundConfig(beta=0.6, gamma=0.5, eta=0.5, D=D)
    with pytest.raises(ValueError):
        BoundConfig(beta=0.2, gamma=0.5, eta=1.5, D=D)
    BoundConfig(beta=0.2, gamma=0.5, eta=0.5, D=D)
    # a NaN M made an r-sequence read 1 at every n, and K = (2, 0) left the
    # geometric bound applying at no step, both without a word
    for bad in ({"M0": np.nan}, {"M1": np.nan}, {"M2": np.nan}, {"M1": 0.0}):
        with pytest.raises(ValueError, match="M thresholds"):
            BoundConfig(beta=0.2, gamma=0.5, eta=0.5, D=D, **bad)
    for K in ((2.0, 0.0), (np.nan, 1.0), (0.0, np.nan)):
        with pytest.raises(ValueError, match="K must"):
            BoundConfig(beta=0.2, gamma=0.5, eta=0.5, D=D, K=K)
    BoundConfig(beta=0.2, gamma=0.5, eta=0.5, D=D, K=(0.0, 0.0))  # one point is an interval


def brute_force_subset_max(log_ups_x, log_ups_cc, an):
    idx = range(len(log_ups_x))
    best = -np.inf
    for I in itertools.combinations(idx, an):
        I = set(I)
        total = sum(log_ups_cc[i] if i in I else log_ups_x[i] for i in idx)
        best = max(best, total)
    return best


def test_factorized_subset_max_matches_brute_force():
    rng = np.random.default_rng(3)
    for trial in range(20):
        n = int(rng.integers(2, 11))
        lx = rng.normal(size=n + 1)
        lcc = lx + rng.normal(size=n + 1) - 0.5  # arbitrary signs of the gap
        for an in range(0, n + 2):
            a = min(an, n + 1)
            sorted_diffs = np.sort(lcc - lx)[::-1]
            fact = lx.sum() + sorted_diffs[:a].sum()
            brute = brute_force_subset_max(lx, lcc, a)
            assert fact == pytest.approx(brute, abs=1e-10)


@pytest.fixture
def finite_setup():
    model = FiniteStateModel(
        [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]],
        [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.3, 0.6]])
    nu = InitialDistribution.finite([0.8, 0.1, 0.1])
    nup = InitialDistribution.finite([0.1, 0.1, 0.8])
    obs = simulate(model, 20, nu, seed=17).obs
    return model, nu, nup, obs


def test_bound_validity_finite(finite_setup):
    model, nu, nup, obs = finite_setup
    tv = np.array([r[1] for r in run_two_filters(model, None, nu, nup, obs)])
    C = D = certify_ld_set(model, (0, 1, 2))
    cfg = BoundConfig(beta=0.2, gamma=0.5, eta=0.5, D=D, K=None)
    sharp = sharp_bound(model, nu, nup, obs, 0.2, C, D)
    coarse = geometric_bound(model, nu, nup, obs, cfg, C)
    assert np.all(tv[1:] <= sharp.total_clipped[1:] + 1e-12)
    applies = coarse.applies
    assert np.all(tv[applies] <= coarse.total_clipped[applies] + 1e-12)


def test_sharp_form_dominated_by_geometric_form(finite_setup):
    # with C a proper subset and eta the worst observed envelope ratio, the
    # sharp subset-maximum bound is dominated by its geometric coarsening
    model, nu, nup, obs = finite_setup
    C = certify_ld_set(model, (0, 1))
    D = certify_ld_set(model, (0, 1, 2))
    lx = log_upsilon_batch(model, "all", obs)
    lcc = log_upsilon_batch(model, ("complement", (0, 1)), obs)
    eta = min(float(np.exp(np.max(lcc - lx))), 1.0 - 1e-9)
    cfg = BoundConfig(beta=0.2, gamma=0.5, eta=eta, D=D, K=None)
    sharp = sharp_bound(model, nu, nup, obs, 0.2, C, D)
    coarse = geometric_bound(model, nu, nup, obs, cfg, C)
    ok = coarse.applies
    # compare in log space: at the applying steps the sharp ratio term is
    # below the geometric one's whenever a_n >= (gamma - beta) n / 2
    ns = sharp.n[ok]
    comparable = ns[sharp.a_n[ok] >= (cfg.gamma - cfg.beta) * ns / 2.0]
    assert len(comparable) > 0
    assert np.all(sharp.total_clipped[comparable]
                  <= coarse.total_clipped[comparable] + 1e-12)


def test_geometric_term_matches_uniform_ergodicity_at_beta_one(finite_setup):
    model, nu, nup, obs = finite_setup
    C = D = certify_ld_set(model, (0, 1, 2))
    beta = 1.0 - 1e-9
    rep = sharp_bound(model, nu, nup, obs, beta, C, D)
    rho_x = rho(C)
    n = np.arange(len(obs))
    assert np.allclose(rep.log_term_geo[1:], (beta * n * np.log(rho_x))[1:])


def test_applies_uses_the_k_frequency_rule_at_its_margin():
    # gamma = 0.5 and two K visits among y_0..y_2: 2 < (1 + gamma)(2 + 1)/2,
    # so the geometric bound does not apply at n = 2 (the count against
    # (1 + gamma) n / 2 alone would have let it)
    model = FiniteStateModel([[0.6, 0.4], [0.3, 0.7]], [[0.7, 0.3], [0.2, 0.8]])
    nu, nup = InitialDistribution.finite([0.9, 0.1]), InitialDistribution.finite([0.1, 0.9])
    C = D = certify_ld_set(model, (0, 1))
    cfg = BoundConfig(beta=0.2, gamma=0.5, eta=0.5, D=D, K=(0, 0))
    report = geometric_bound(model, nu, nup, [0, 0, 1], cfg, C)
    assert report.applies.tolist() == [False, True, False]
    assert report.conditions.avg_k_frequency[2] == pytest.approx(2 / 3)
    assert not report.conditions.k_frequency_ok


def test_check_conditions_k_all(finite_setup):
    model, nu, nup, obs = finite_setup
    D = certify_ld_set(model, (0, 1, 2))
    cfg = BoundConfig(beta=0.2, gamma=0.5, eta=0.5, D=D, K=None)
    rep = check_conditions(obs, model, cfg)
    assert np.all(rep.avg_k_frequency == 1.0)
    assert rep.k_frequency_ok


def test_check_conditions_sv_jensen_band():
    sv = StochVolModel(0.9, 0.3, 1.0)
    D = certify_ld_set(sv, (-1.0, 1.0))
    cfg = BoundConfig(beta=0.2, gamma=0.5, eta=0.5, D=D, K=None, M2=5.0)
    for seed in range(20):
        obs = simulate(sv, 100, InitialDistribution.gaussian(0, 1), seed=seed).obs
        rep = check_conditions(obs, sv, cfg)
        ybar2 = float(np.mean(obs[2:] ** 2))
        lower = -(0.5 * np.log(2 * np.pi) + np.sinh(1.0) * ybar2 / 2.0)
        assert rep.avg_log_psi[-1] >= lower - 0.1


def test_log_psi_batch_matches_scalar():
    sv = StochVolModel(0.9, 0.3, 1.0)
    D = certify_ld_set(sv, (-1.0, 1.0))
    ys = np.array([0.1, 1.0, 2.5])
    batch = log_psi_batch(sv, D, ys)
    for y, v in zip(ys, batch):
        assert log_psi_batch(sv, D, [y])[0] == pytest.approx(v, rel=1e-12)


@pytest.mark.parametrize("model, form", [
    (LGSSM(0.9, 1.0, 1.0), "sharp"), (TobitModel(0.5, 1.0, 1.0), "sharp"),
    (LGSSM(0.9, 1.0, 1.0), "geometric"), (TobitModel(0.5, 1.0, 1.0), "geometric"),
], ids=["lgssm", "tobit", "lgssm-geometric", "tobit-geometric"])
def test_sharp_ratio_term_matches_public_batches(model, form):
    # the bound reads its envelopes from one grid evaluation and assembles
    # every n at once from prefix sums; assembled here from the public
    # batches, one n at a time, it must give the same ratio term
    grid = GridSpec(*model.domain, 200)
    nu = InitialDistribution.gaussian(-2, 1)
    nup = InitialDistribution.gaussian(2, 1)
    obs = simulate(model, 50, InitialDistribution.gaussian(0, 1), seed=8).obs
    C = certify_ld_set(model, (-3.0, 3.0))
    D = certify_ld_set(model, (-2.0, 2.0))
    beta, gamma, eta = 0.2, 0.5, 0.5
    if form == "sharp":
        report = sharp_bound(model, nu, nup, obs, beta, C, D, grid=grid)
    else:
        cfg = BoundConfig(beta=beta, gamma=gamma, eta=eta, D=D)
        report = geometric_bound(model, nu, nup, obs, cfg, C, grid=grid)

    lx = log_upsilon_batch(model, "all", obs)
    lcc = log_upsilon_batch(model, ("complement", C.interval), obs)
    lpsi = log_psi_batch(model, D, obs)
    log_phis = [np.log(phi(model, law, D, obs[0], obs[1], grid)) for law in (nu, nup)]
    log_v = model.log_v(model.support(grid))
    log_nuvs = [logsumexp(model.log_init(law, grid) + log_v) for law in (nu, nup)]
    expected = []
    for n in range(1, len(obs)):
        if form == "sharp":
            gaps = np.sort(lcc[:n + 1] - lx[:n + 1])[::-1]
            num = 2.0 * np.sum(lx[:n + 1]) + np.sum(gaps[:a_n(n, beta)])
        else:
            num = (gamma - beta) * n / 2.0 * np.log(eta) + 2.0 * np.sum(lx[:n + 1])
        den = (2.0 * (n - 1) * np.log(D.eps_minus) + sum(log_phis)
               + 2.0 * np.sum(lpsi[2:n + 1]))
        expected.append(num - den + sum(log_nuvs))
    np.testing.assert_allclose(report.log_term_ratio[1:], expected, rtol=1e-12)


def dense_grid(model):
    """The Upsilon quadrature grid (None on a finite state set) and its support."""
    if model.kind == "finite":
        return None, np.arange(model.m)
    quad = GridSpec(*model.domain, UPSILON_QUAD_M)
    return quad, quad.centers


def dense_region_mask(model, region, x):
    if region == "all":
        return np.ones(len(x), dtype=bool)
    if model.kind == "finite":
        return ~np.isin(x, region[1])
    lo, hi = region[1]
    return (x < lo) | (x > hi)


def dense_log_upsilon(model, region, ys):
    """The reference grid envelope: log g QV/V on every support point, then
    the column maximum over the region."""
    _, x = dense_grid(model)
    vals = _log_g_qv(model, x[:, None], np.asarray(ys)[None, :])
    mask = dense_region_mask(model, region, x)
    return np.max(vals, axis=0, where=mask[:, None], initial=-np.inf)


def dense_log_sup(model, region, y):
    """The reference log upsilon: the dense grid maximum, polished from the
    first support point that reaches it by SciPy's bounded Brent search on
    the interval of the region around it."""
    quad, x = dense_grid(model)
    xs = x[dense_region_mask(model, region, x)]
    vals = _log_g_qv(model, xs, y)
    best = vals.max(initial=-np.inf)
    if quad is not None and len(xs):
        x0 = xs[int(np.argmax(vals))]
        a, b = next((a, b) for a, b in _components(region, model.domain) if a < x0 < b)
        res = optimize.minimize_scalar(lambda t: -_log_g_qv(model, np.array([t]), y)[0],
                                       bounds=(max(a, x0 - 2 * quad.delta),
                                               min(b, x0 + 2 * quad.delta)),
                                       method="bounded", options={"xatol": 1e-12})
        best = max(best, -res.fun)
    return best


SERIES_MODELS = {
    "tobit": (TobitModel(0.5, 1.0, 1.0), (-3.0, 3.0), (-2.0, 2.0)),
    "lgssm-exp-abs": (LGSSM(0.9, 1.0, 1.0, drift=DriftFunction.exp_abs(0.5)),
                      (-3.0, 3.0), (-2.0, 2.0)),
    "finite": (random_finite_model(4), (1,), (0, 2)),
    "lgssm": (LGSSM(0.9, 1.0, 1.0), (-3.0, 3.0), (-2.0, 2.0)),
    "lgssm-h0-neg": (LGSSM(0.9, 1.0, 1.0, h0=-1.7), (-0.7, 1.3), (-2.0, 2.0)),
    "nlssm-tanh-affine": (NLSSM("tanh", 0.5, 1.0, 1.0, kappa=0.4, obs_a=1.3, obs_b=0.2),
                          (-0.7, 1.3), (-2.0, 2.0)),
    "nlssm-affine-neg": (NLSSM("linear_shrink", 0.5, 1.0, 0.7, obs_a=-0.8, obs_b=-0.3),
                         (-3.0, 3.0), (-2.0, 2.0)),
    "nlssm-identity": (NLSSM("linear_shrink", 0.5, 1.0, 1.0), (-3.0, 3.0), (-2.0, 2.0)),
    "stochvol": (StochVolModel(0.9, 0.3, 1.0), (-0.7, 1.3), (-2.0, 2.0)),
}


def on_window(model, ys):
    """Where the record's log Upsilon is the grid maximum of the mode window:
    V == 1 and log g(., y) peaks.  Every other observation takes _log_sup."""
    return ~np.isnan(model.obs_peak(ys)) & (model.log_qv(dense_grid(model)[1]) is None)


def record_log_upsilon(model, region, ys):
    """The reference record envelope: the dense grid maximum on the window's
    observations, the closed form _log_sup on the others."""
    ys = np.asarray(ys)
    return np.where(on_window(model, ys), dense_log_upsilon(model, region, ys),
                    _log_sup(model, region, ys))


def check_record_series(model, obs, D, C):
    """_record_series against the reference envelopes and Psi over the whole record."""
    log_ups_x, log_ups_cc, log_psi = _record_series(model, obs, D, C)
    assert np.array_equal(log_ups_x, record_log_upsilon(model, "all", obs))
    region = ("complement", C.interval or C.states)
    assert np.array_equal(log_ups_cc, record_log_upsilon(model, region, obs))
    assert np.array_equal(log_psi, log_psi_batch(model, D, obs))
    assert np.array_equal(log_upsilon_batch(model, "all", obs), log_ups_x)
    assert np.array_equal(log_upsilon_batch(model, region, obs), log_ups_cc)
    assert _record_series(model, obs, D)[1] is None


@pytest.mark.parametrize("length", [_RECORD_BLOCK - 1, _RECORD_BLOCK, _RECORD_BLOCK + 1,
                                    2 * _RECORD_BLOCK + 1])
@pytest.mark.parametrize("name", list(SERIES_MODELS))
def test_record_series_blocks_equal_single_block_batches(name, length):
    # bit for bit: neither the blocks nor the evaluation once per distinct
    # observation nor the mode windows nor the split between the window and
    # the closed form may change a single envelope or Psi
    model, c, d = SERIES_MODELS[name]
    C, D = certify_ld_set(model, c), certify_ld_set(model, d)
    init = InitialDistribution.finite([0.2, 0.3, 0.5]) if model.kind == "finite" \
        else InitialDistribution.gaussian(0, 1)
    obs = simulate(model, length - 1, init, seed=12).obs
    check_record_series(model, obs, D, C)


def adversarial_observations(model):
    """Grid centres, midpoints between them, points beyond both grid ends,
    +-0.0 and, on tobit, censored zeros; mapped through the channel's
    location (on SV, its peak), so that they sit on and between the grid
    points in state space."""
    quad, x = dense_grid(model)
    lo, hi = model.domain
    ys = np.concatenate([x[::97], 0.5 * (x[:-1] + x[1:])[::89], x[:3], x[-3:],
                         [lo - 3.0, hi + 3.0, 4 * lo, 4 * hi, 0.0, -0.0, 1e-300]])
    if model.kind in ("lgssm", "nlssm"):
        ys = np.append(location(model, ys), -0.0)  # h (-0.0) + b drops the sign
    elif model.kind == "tobit":
        ys = np.abs(ys)
        ys[::4] = 0.0
    elif model.kind == "stochvol":  # the peak log(y^2 / beta^2), either sign of y
        ys = np.where(ys == 0.0, ys, model.beta * np.exp(ys / 2))
        ys[1::2] *= -1
    return ys


@pytest.mark.parametrize("name", [n for n in SERIES_MODELS if n != "finite"])
def test_record_series_equals_dense_scan_on_adversarial_observations(name):
    # the window's rows are the dense grid maximum and every other row the
    # closed form, on and between the grid points and past the domain's ends
    model, c, d = SERIES_MODELS[name]
    C, D = certify_ld_set(model, c), certify_ld_set(model, d)
    ys = adversarial_observations(model)
    check_record_series(model, ys, D, C)
    for y in (ys[5], ys[-3], ys[-2], 0.0):  # one distinct value, +-0.0 among them
        for length in (1, 2, 3, _RECORD_BLOCK + 1):
            check_record_series(model, np.full(length, y), D, C)
    check_record_series(model, np.array([0.0, -0.0, 0.0]), D, C)


OFF_WINDOW_MODELS = {  # (model, C, D, observations added to a simulated record)
    "tobit-zeros": (TobitModel(0.5, 1.0, 1.0), (-3.0, 3.0), (-2.0, 2.0), [0.0]),
    "stochvol-zero": (StochVolModel(0.9, 0.3, 1.0), (-0.7, 1.3), (-2.0, 2.0), [0.0, -0.0]),
    "lgssm-exp-abs": (LGSSM(0.9, 1.0, 1.0, drift=DriftFunction.exp_abs(0.5)),
                      (-3.0, 3.0), (-2.0, 2.0), [0.0, 40.0, -40.0]),
    "nlssm-tanh-exp-abs": (NLSSM("tanh", 0.5, 1.0, 1.0, kappa=-1.5,
                                 drift=DriftFunction.exp_abs(0.5)),
                           (-0.7, 1.3), (-2.0, 2.0), [0.0, 40.0, -40.0]),
    "finite-drift": (FiniteStateModel([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]],
                                      [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.3, 0.6]],
                                      drift_values=[1.0, 2.5, 4.0]),
                     (1,), (0, 1, 2), [0, 2]),
}


def fine_grid_max(model, region, ys):
    """The maximum of log g + log QV/V over the region's points of a grid
    three times finer than the UPSILON_QUAD_M cells, ends included (over
    the region's states on a finite model)."""
    if model.kind == "finite":
        x = np.arange(model.m)
    else:
        x = np.linspace(*model.domain, 3 * UPSILON_QUAD_M + 1)
    inside = dense_region_mask(model, region, x)
    return _log_g_qv(model, x[inside, None], np.asarray(ys)[None, :]).max(axis=0)


def test_record_series_off_the_window_is_the_closed_form():
    # every record envelope off the V == 1 mode window (no peak, a drift V != 1,
    # a finite model) is _log_sup bit for bit: at or above every point of a
    # grid three times finer than the 4096 cells, and at or above the 4096
    # cell centres' maximum that it replaced
    for name, (model, c, d, extra) in OFF_WINDOW_MODELS.items():
        C, D = certify_ld_set(model, c), certify_ld_set(model, d)
        init = InitialDistribution.finite([0.2, 0.3, 0.5]) if model.kind == "finite" \
            else InitialDistribution.gaussian(0, 1)
        obs = np.concatenate([simulate(model, 299, init, seed=12).obs, extra])
        off = ~on_window(model, obs)
        assert off.any(), name
        ys = obs[off]
        log_ups_x, log_ups_cc, _ = _record_series(model, obs, D, C)
        for region, log_ups in (("all", log_ups_x[off]),
                                (("complement", C.interval or C.states), log_ups_cc[off])):
            assert np.array_equal(log_ups, _log_sup(model, region, ys)), (name, region)
            assert np.all(log_ups >= fine_grid_max(model, region, ys)), (name, region)
            assert np.all(log_ups >= dense_log_upsilon(model, region, ys)), (name, region)


def assert_above_the_polish(model, region, y):
    """With a drift V != 1 upsilon is at least the polished dense maximum,
    and above it by at most drift_excess."""
    log_ups = _log_sup(model, region, np.array([y]))[0]
    excess = log_ups - dense_log_sup(model, region, y)
    assert 0.0 <= excess <= drift_excess(model, log_ups)


@pytest.mark.parametrize("h0", [1.0, -1.7])
def test_upsilon_equals_dense_scan_with_polish(h0):
    # a drift V != 1: at least the grid-plus-polish value, within the cell
    # rule's excess (V == 1 has its own closed form, tested below)
    model = LGSSM(0.9, 1.0, 1.0, h0=h0, drift=DriftFunction.exp_abs(0.5))
    probes = np.concatenate([simulate(model, 7, InitialDistribution.gaussian(0, 1),
                                      seed=3).obs, adversarial_observations(model)[::7]])
    for y in probes:
        for region in ("all", ("complement", (-3.0, 3.0)), ("complement", (-0.4, 2.0))):
            assert_above_the_polish(model, region, y)


@pytest.mark.parametrize("beta", [1.0, 1e6, 1e7])
def test_polish_starts_at_the_first_of_a_run_of_tied_maxima(beta):
    # with a wide beta log g is flat to the last bit across many grid points
    # around the mode, wider than the mode window.  With a drift V != 1
    # upsilon is at least the polish started at the first argmax of the
    # dense scan, within the cell rule's excess; with V == 1 the mode window
    # still gives the dense grid maximum
    drifted = LGSSM(0.9, 1.0, beta, drift=DriftFunction.exp_abs(0.5))
    model = LGSSM(0.9, 1.0, beta)
    _, x = dense_grid(model)
    ys = np.array([0.0, 3.0, -7.5, 1e7, x[100], 0.5 * (x[2000] + x[2001])])
    for region in ("all", ("complement", (-3.0, 3.0)), ("complement", (-0.5, 0.5))):
        for y in ys:
            assert_above_the_polish(drifted, region, y)
        assert np.array_equal(log_upsilon_batch(model, region, ys),
                              dense_log_upsilon(model, region, ys))


@pytest.mark.parametrize("name", list(SERIES_MODELS))
def test_psi_does_not_depend_on_its_batch(name):
    # each observation is one row, summed pairwise over that row alone
    model, _, d = SERIES_MODELS[name]
    D = certify_ld_set(model, d)
    init = InitialDistribution.finite([0.2, 0.3, 0.5]) if model.kind == "finite" \
        else InitialDistribution.gaussian(0, 1)
    ys = simulate(model, 300, init, seed=8).obs
    batch = log_psi_batch(model, D, ys)
    for j in range(len(ys)):
        assert batch[j] == log_psi_batch(model, D, ys[j:j + 1])[0]


def quadrature_log_psi(model, D, ys):
    """The reference Psi: the log of the mean of g over the PSI_QUAD_M
    midpoints of D (over the states of a finite D), one row per observation."""
    x = np.asarray(D.states) if D.interval is None else GridSpec(*D.interval, PSI_QUAD_M).centers
    logg = model.loglik(x[None, :], np.asarray(ys)[:, None])
    return grid_logsumexp(logg, axis=1) - np.log(len(x))


def location(model, x):
    """The observations whose peak is x, on a location channel."""
    return model.obs_slope * np.asarray(x) + model.obs_offset


def series_limit_observations(model, D):
    """Observations whose rows sit just inside and just outside kappa T =
    _EM_LIMIT, the reach of Psi's closed form, with the peak on either side
    of D (tobit: the right side alone), as (inside, outside)."""
    a, b = D.interval
    kappa = abs(model.obs_slope) * (b - a) / (PSI_QUAD_M * model.beta)
    reach = _EM_LIMIT / kappa * model.beta / abs(model.obs_slope)  # |peak - far end of D|
    sides = [(a, 1.0)] if model.kind == "tobit" else [(a, 1.0), (b, -1.0)]
    return tuple(location(model, np.array([end + sign * reach * f for end, sign in sides]))
                 for f in (1 - 1e-6, 1 + 1e-6))


GAUSSIAN_SERIES = [name for name in SERIES_MODELS if name not in ("finite", "stochvol")]


@pytest.mark.parametrize("name", GAUSSIAN_SERIES)
def test_psi_equals_the_quadrature(name):
    # the closed form plus the midpoint rule's error series is the 2048-cell
    # mean to rounding: on simulated records (tobit's mix zeros and positive
    # values), on the adversarial observations, at |y| >= 30 beta and on rows
    # at the series' limit.  Rows it leaves (no peak, or past the limit) are
    # the quadrature bit for bit
    model, _, d = SERIES_MODELS[name]
    D = certify_ld_set(model, d)
    inside, outside = series_limit_observations(model, D)
    far = model.beta * np.array([30.0, 45.0, 80.0, -30.0, -45.0, -80.0])
    ys = np.concatenate([
        *(simulate(model, 400, InitialDistribution.gaussian(0, 1), seed=s).obs for s in (2, 3)),
        adversarial_observations(model), np.abs(far) if model.kind == "tobit" else far,
        inside, outside])
    psi, ref = log_psi_batch(model, D, ys), quadrature_log_psi(model, D, ys)
    np.testing.assert_allclose(psi, ref, rtol=1e-14, atol=0)
    rest = _log_psi_location(model, D.interval, ys, np.empty(len(ys)))
    assert np.array_equal(psi[rest], ref[rest])
    k = len(outside)
    assert not rest[-2 * k:-k].any() and rest[-k:].all()
    if model.kind == "tobit":
        assert 300 < np.count_nonzero(ys == 0) < len(ys) - 300


@pytest.mark.parametrize("model", [
    StochVolModel(0.9, 0.3, 1.0), LGSSM(0.9, 1.0, 1.0, h0=0.0), TobitModel(0.5, 1.0, 1.0),
], ids=["stochvol", "lgssm-h0-zero", "tobit-zeros"])
def test_psi_without_a_peak_is_the_quadrature_bit_for_bit(model):
    D = certify_ld_set(model, (-2.0, 2.0))
    ys = np.concatenate([simulate(model, 600, InitialDistribution.gaussian(0, 1), seed=4).obs,
                         adversarial_observations(model)])
    rows = ys == 0 if model.kind == "tobit" else slice(None)  # tobit: records mix both
    assert np.array_equal(log_psi_batch(model, D, ys)[rows], quadrature_log_psi(model, D, ys)[rows])


def envelope_holds(model, eta, radius, probes):
    return all(upsilon(model, ("complement", (-radius, radius)), y)
               <= eta * upsilon(model, "all", y) for y in probes)


@pytest.mark.parametrize("h0, eta, radius", [
    (1.0, 0.5, 5.453267989112646), (1.0, 0.2, 6.06998054459109),
    (-1.7, 0.5, 2.463800585037461), (-1.7, 0.2, 2.826572676494834),
])
def test_find_ld_set_for_eta_radius_and_envelope(h0, eta, radius):
    # the radii of the search on the closed-form Upsilon (the grid-plus-polish
    # Upsilon gave 5.45326782983102, 6.069980447569833, 2.4638005367378355
    # and 2.8265726075296698).  The last bisection bracket is [r_lo, r] with
    # r - r_lo <= r 2^-40, and the envelope fails at r_lo, so it fails at
    # r (1 - 2^-40) too: Upsilon_{C^c} only grows as C shrinks
    model = LGSSM(0.9, 1.0, 1.0, h0=h0)
    probes = simulate(model, 7, InitialDistribution.gaussian(0, 1), seed=3).obs
    assert find_ld_set_for_eta(model, eta, None, probes).interval == (-radius, radius)
    assert envelope_holds(model, eta, radius, probes)
    assert not envelope_holds(model, eta, radius * (1 - 2.0**-40), probes)


CLOSED_FORM_MODELS = {
    "lgssm": LGSSM(0.9, 1.0, 1.0),
    "lgssm-h0-neg": LGSSM(0.9, 1.0, 1.0, h0=-1.7),
    "lgssm-h0-zero": LGSSM(0.9, 1.0, 1.0, h0=0.0),
    "nlssm-identity": NLSSM("linear_shrink", 0.5, 1.0, 1.0),
    "nlssm-affine-neg": NLSSM("tanh", 0.5, 1.0, 0.7, kappa=0.4, obs_a=-0.8, obs_b=-0.3),
    "tobit": TobitModel(0.5, 1.0, 1.0),
    "stochvol": StochVolModel(0.9, 0.3, 1.0),
}


def closed_form_cases(model):
    """Regions and observations for the closed form: "all"; C inside the
    domain, C straddling either end and C covering it; observations whose
    peak lies inside C, on its edges, at and beyond the domain's ends, and
    tobit's and SV's y = 0."""
    lo, hi = model.domain
    regions = ["all", ("complement", (-0.7, 1.3)), ("complement", (lo - 1.0, lo + 2.0)),
               ("complement", (hi - 2.0, hi + 5.0)), ("complement", (lo - 1.0, hi + 1.0))]
    peaks = np.array([0.3, -0.7, 1.3, lo + 2.0, hi - 2.0, lo + 1.0, hi - 1.0, lo, hi,
                      lo - 3.0, hi + 3.0, 0.0, -4.1, 2.7])
    if model.kind in ("lgssm", "nlssm"):
        ys = location(model, peaks) if model.obs_slope else peaks
    elif model.kind == "tobit":
        ys = np.concatenate([np.abs(peaks), [0.0]])
    else:  # stochvol peaks at log(y^2 / beta^2), either sign of y
        ys = model.beta * np.exp(peaks / 2)
        ys = np.concatenate([ys, -ys[::3], [0.0]])
    return regions, ys


@pytest.mark.parametrize("name", list(CLOSED_FORM_MODELS))
def test_upsilon_closed_form_against_a_dense_grid(name):
    # exact sup over the region within the domain: at least the maximum of
    # a 2^16-cell grid and above it by at most one cell times the largest
    # slope of log g, plus the upward rounding; and at least the old
    # grid-plus-polish value
    model = CLOSED_FORM_MODELS[name]
    quad = GridSpec(*model.domain, 2**16)
    x = quad.centers
    regions, ys = closed_form_cases(model)
    for y in ys:
        vals = model.loglik(x, y)
        lipschitz = np.abs(np.diff(vals)).max() / quad.delta
        for region in regions:
            grid_max = vals[dense_region_mask(model, region, x)].max(initial=-np.inf)
            ups = upsilon(model, region, y)
            assert ups >= np.exp(dense_log_sup(model, region, y))
            if grid_max == -np.inf:  # C covers the domain
                assert ups == 0.0
                continue
            excess = np.log(ups) - grid_max
            assert excess >= 0.0
            assert excess <= 1.01 * lipschitz * quad.delta + 2e-13 * (1 + abs(grid_max))
        batch = np.exp(_log_sup(model, regions[1], ys))
        assert np.array_equal(batch, [upsilon(model, regions[1], y) for y in ys])


DRIFT = DriftFunction.exp_abs(0.5)
DRIFT_MODELS = {
    "lgssm": LGSSM(0.9, 1.0, 1.0, drift=DRIFT),
    "lgssm-h0-neg": LGSSM(0.9, 1.0, 1.0, h0=-1.7, drift=DRIFT),
    "tobit": TobitModel(0.5, 1.0, 1.0, drift=DRIFT),
    "nlssm-tanh": NLSSM("tanh", 0.5, 1.0, 1.0, kappa=-1.5, drift=DRIFT),
    "stochvol": StochVolModel(0.9, 0.3, 1.0, drift=DRIFT),
}


def drift_excess(model, log_ups):
    """How far log Upsilon may sit above the sup where V = exp(c|x|): the
    oscillation of log QV/V over one UPSILON_QUAD_M cell, c (1 + |phi| +
    |kappa|) times its width, plus the upward rounding."""
    delta = (model.domain[1] - model.domain[0]) / UPSILON_QUAD_M
    slope = 1 + abs(model.phi) + abs(getattr(model, "kappa", 0.0))
    return model.drift.c * slope * delta + 2e-13 * (1 + np.abs(log_ups))


def fine_log_sup(model, region, ys):
    """The maximum of log g + log QV/V on a 2^16-cell grid of each interval
    of the region, ends included; -inf where C covers the domain."""
    best = np.full(len(ys), -np.inf)
    for a, b in _components(region, model.domain):
        x = np.linspace(a, b, 2**16 + 1)
        best = np.maximum(best, _log_g_qv(model, x[:, None], ys[None, :]).max(axis=0))
    return best


@pytest.mark.parametrize("name", list(DRIFT_MODELS))
def test_upsilon_with_a_drift_is_an_upper_bound(name):
    # cell by cell, log g at its clamped peak and ends plus the cell's bound
    # on log QV/V: never below the fine grid's maximum, and above it by at
    # most drift_excess
    model = DRIFT_MODELS[name]
    regions, ys = closed_form_cases(model)
    for region in regions:
        log_ups, ref = _log_sup(model, region, ys), fine_log_sup(model, region, ys)
        assert np.array_equal(np.isinf(log_ups), np.isinf(ref))
        finite = np.isfinite(ref)
        excess = log_ups[finite] - ref[finite]
        assert np.all(excess >= 0.0)
        assert np.all(excess <= drift_excess(model, log_ups[finite]))


def test_upsilon_closed_form_on_censored_and_gaussian_channels():
    tobit = TobitModel(0.5, 1.0, 1.0)  # Phi(-x) falls: its sup is at the domain's left end
    lo = tobit.domain[0]
    assert upsilon(tobit, "all", 0.0) == pytest.approx(ndtr(-lo), rel=1e-12)
    assert upsilon(tobit, ("complement", (lo - 1.0, 0.5)), 0.0) == pytest.approx(
        ndtr(-0.5), rel=1e-12)
    lgssm = LGSSM(0.9, 1.0, 2.0)  # 1/(sqrt(2 pi) beta) wherever the peak is in the region
    assert upsilon(lgssm, "all", 1.0) == pytest.approx(1 / (np.sqrt(2 * np.pi) * 2.0),
                                                       rel=1e-12)


@pytest.mark.parametrize("model", [LGSSM(0.9, 1.0, 1.0), StochVolModel(0.9, 0.3, 1.0),
                                   LGSSM(0.9, 1.0, 1.0, drift=DriftFunction.exp_abs(0.5))],
                         ids=["lgssm", "stochvol", "lgssm-exp-abs"])
def test_non_finite_probe_named_by_its_index(model):
    for K in (None, (-5.0, 5.0)):  # NaN is in no K: it must not be filtered out unseen
        with pytest.raises(DomainError,
                           match=rf"^{model.kind} observation 2 \(nan\) is not finite$"):
            find_ld_set_for_eta(model, 0.5, K, [0.3, -1.0, np.nan, 0.8])
    with pytest.raises(DomainError, match=rf"^{model.kind} observation 0 \(inf\) is not finite$"):
        upsilon(model, ("complement", (-1.0, 1.0)), np.inf)


def test_search_and_upsilon_leave_scipy_optimize_unloaded():
    # neither the CLI's imports nor the LD-set search nor upsilon, with or
    # without a drift V != 1, load scipy.optimize (nor scipy.stats)
    src = os.path.dirname(os.path.dirname(hmmforget.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "\n".join([
        "import sys",
        "import hmmforget.cli",
        "from hmmforget import LGSSM, DriftFunction, find_ld_set_for_eta, upsilon",
        "model = LGSSM(0.9, 1.0, 1.0)",
        "find_ld_set_for_eta(model, 0.5, None, [0.3, -1.2, 2.0])",
        "upsilon(model, ('complement', (-1.0, 1.0)), 0.4)",
        "print(sorted(m for m in ('scipy.optimize', 'scipy.stats') if m in sys.modules))",
        "upsilon(LGSSM(0.9, 1.0, 1.0, drift=DriftFunction.exp_abs(0.5)), 'all', 0.4)",
        "print('scipy.optimize' in sys.modules)",
    ])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split("\n")[:2] == ["[]", "False"]


def top_sums_by_sorting(gaps, beta):
    """The sharp bound's excursion sums as it took them before the heaps: for
    each n, sort gaps[0..n] and add up the a_n largest."""
    return np.array([np.sum(np.sort(gaps[:n + 1])[::-1][:a_n(n, beta)])
                     for n in range(len(gaps))])


@pytest.mark.parametrize("beta", [1e-9, 0.2, 0.5, 1 - 1e-9])
@pytest.mark.parametrize("kind", ["normal", "ties", "one-step", "with -inf"])
def test_top_sums_equal_the_per_n_sort(kind, beta):
    rng = np.random.default_rng(4)
    gaps = {"normal": -np.abs(rng.normal(size=4001)) * 3.0,
            "ties": rng.integers(-3, 1, size=600).astype(float),
            "one-step": np.array([-0.7, -0.2]),  # n = 1
            "with -inf": np.where(rng.random(300) < 0.7, -np.inf, -rng.random(300))}[kind]
    counts = a_n(np.arange(len(gaps)), beta)
    assert np.array_equal(counts, [a_n(n, beta) for n in range(len(gaps))])
    np.testing.assert_allclose(_top_sums(gaps, counts), top_sums_by_sorting(gaps, beta),
                               rtol=1e-12)


def test_sharp_bound_memory_is_flat_in_the_horizon():
    # the envelopes are taken in blocks: a dense 4096 x 4001 evaluation
    # alone would take 131 MB, and the whole bound took 892 MB that way.  On
    # SV every Psi row is a 2048-cell quadrature, so Psi's blocks count too
    for model in (TobitModel(0.5, 1.0, 1.0), StochVolModel(0.9, 0.3, 1.0)):
        obs = simulate(model, 4000, InitialDistribution.gaussian(0, 1), seed=5).obs
        C, D = certify_ld_set(model, (-3.0, 3.0)), certify_ld_set(model, (-2.0, 2.0))
        nu, nup = InitialDistribution.gaussian(-2, 1), InitialDistribution.gaussian(2, 1)
        tracemalloc.start()
        try:
            sharp_bound(model, nu, nup, obs, 0.2, C, D, grid=GridSpec(*model.domain, 400))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, model.kind


def test_upsilon_with_a_drift_memory_is_flat_in_the_observations():
    # with a drift each observation meets 4096 cells x 3 points: 1024
    # observations in one block would take 100 MB per array
    model = DRIFT_MODELS["lgssm"]
    ys = simulate(model, 1023, InitialDistribution.gaussian(0, 1), seed=5).obs
    tracemalloc.start()
    try:
        _log_sup(model, ("complement", (-3.0, 3.0)), ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 20, 40])
@pytest.mark.parametrize("model", [LGSSM(0.9, 1.0, 1.0), TobitModel(0.5, 1.0, 1.0)],
                         ids=lambda m: m.kind)
def test_non_finite_observation_named_by_its_index(model, where, value):
    obs = simulate(model, 40, InitialDistribution.gaussian(0, 1), seed=6).obs
    obs[where] = value
    grid = GridSpec(*model.domain, 64)
    nu, nup = InitialDistribution.gaussian(-2, 1), InitialDistribution.gaussian(2, 1)
    C, D = certify_ld_set(model, (-3.0, 3.0)), certify_ld_set(model, (-2.0, 2.0))
    message = rf"^{model.kind} observation {where} \({value}\) is not finite$"
    with pytest.raises(DomainError, match=message):
        run_two_filters(model, grid, nu, nup, obs)
    with pytest.raises(DomainError, match=message):
        log_upsilon_batch(model, "all", obs)
    with pytest.raises(DomainError, match=message):
        sharp_bound(model, nu, nup, obs, 0.2, C, D, grid=grid)
    cfg = BoundConfig(beta=0.2, gamma=0.5, eta=0.5, D=D, K=None)
    with pytest.raises(DomainError, match=message):
        geometric_bound(model, nu, nup, obs, cfg, C, grid=grid)
    # one observation: its index is 0
    message = rf"^{model.kind} observation 0 \({value}\) is not finite$"
    with pytest.raises(DomainError, match=message):
        upsilon(model, ("complement", (-3.0, 3.0)), obs[where])


FINITE2 = FiniteStateModel([[0.8, 0.2], [0.3, 0.7]], [[0.6, 0.4], [0.3, 0.7]])
BOUND_REFUSALS = {
    "region-continuous": (lambda: upsilon(LGSSM(0.9, 1.0, 1.0), ("inside", (-1, 1)), 0.0),
                          "unknown region"),
    "region-finite": (lambda: log_upsilon_batch(FINITE2, ("inside", (0,)), [0]),
                      "unknown region"),
    "interval-of-three": (lambda: certify_ld_set(LGSSM(0.9, 1.0, 1.0), (0, 1, 2)),
                          r"lgssm LD-set is an interval \(lo, hi\), got \(0, 1, 2\)"),
    "interval-empty": (lambda: certify_ld_set(LGSSM(0.9, 1.0, 1.0), []),
                       r"lgssm LD-set is an interval \(lo, hi\), got \[\]"),
    "eta-above-1": (lambda: find_ld_set_for_eta(LGSSM(0.9, 1.0, 1.0), 1.5, None, [0.0]),
                    r"eta must lie in \(0, 1\]"),
    "eta-0": (lambda: find_ld_set_for_eta(LGSSM(0.9, 1.0, 1.0), 0.0, None, [0.0]),
              r"eta must lie in \(0, 1\]"),
    "negative-n": (lambda: a_n(-1, 0.2), "n must be >= 0"),
    "negative-n-in-array": (lambda: a_n(np.array([0, 3, -1]), 0.2), "n must be >= 0"),
    "a_n-beta": (lambda: a_n(np.arange(4), 1.0), r"beta must lie in \(0, 1\)"),
    "sharp-beta": (lambda: sharp_bound(FINITE2, *[InitialDistribution.finite([1, 1])] * 2,
                                       [0, 1, 0], 0.0, *[certify_ld_set(FINITE2, (0, 1))] * 2),
                   r"beta must lie in \(0, 1\)"),
    "empty-interval": (lambda: LDSet(0.1, 0.2, interval=(1.0, 1.0)), "LD interval must be nonempty"),
    "empty-states": (lambda: LDSet(0.1, 0.2, states=()), "LD state subset must be nonempty"),
    "repeated-states": (lambda: LDSet(0.1, 0.2, states=(0, 0)), r"\(0, 0\) repeats a state"),
}


@pytest.mark.parametrize("case", BOUND_REFUSALS)
def test_bound_refusals(case):
    call, message = BOUND_REFUSALS[case]
    with pytest.raises(ValueError, match=message):
        call()


def test_a_finite_ld_set_is_checked_against_the_models_states():
    # the constants of a repeated or out-of-range state are not those of a set
    model = FiniteStateModel([[0.8, 0.15, 0.05], [0.1, 0.7, 0.2], [0.25, 0.25, 0.5]],
                             np.ones((3, 2)) / 2)
    assert certify_ld_set(model, (1, 0)) == certify_ld_set(model, np.array([0, 1]))
    with pytest.raises(ValueError, match=r"state subset \(0, 0, 1\) repeats a state"):
        certify_ld_set(model, (0, 0, 1))
    for states in ((-1, 0), (0, 5), (0, 1.5)):
        with pytest.raises(DomainError, match=r"outside \{0\.\.2\}"):
            certify_ld_set(model, states)
