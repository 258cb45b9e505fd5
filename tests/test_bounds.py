import itertools
import warnings

import numpy as np
import pytest

from hmmforget import (LGSSM, NLSSM, BoundConfig, DriftFunction,
                       FiniteStateModel, GridSpec, HypothesisWarning,
                       InitialDistribution, LDSet, NotCertifiableError,
                       StochVolModel, TobitModel, a_n, certify_ld_set,
                       check_conditions, geometric_bound, find_ld_set_for_eta,
                       sharp_bound, log_upsilon_batch, phi, psi, rho,
                       run_two_filters, simulate, upsilon)
from hmmforget.bounds import _trajectory_terms, log_psi_batch


@pytest.mark.parametrize("model", [
    LGSSM(0.5, 1.0, 1.0), TobitModel(0.5, 1.0, 1.0), StochVolModel(0.5, 1.0, 1.0),
    NLSSM("linear_shrink", 0.5, 1.0, 1.0),
], ids=lambda m: m.kind)
def test_certify_lgssm_hand_values(model):
    # every affine-mean model at slope 0.5 takes the analytic path; 1e-12 is
    # beyond what the 256-point lattice fallback reaches
    ld = certify_ld_set(model, (-1.0, 1.0))
    assert ld.eps_plus == pytest.approx(2.0 / np.sqrt(2 * np.pi), rel=1e-12)
    assert ld.eps_minus == pytest.approx(
        2.0 / np.sqrt(2 * np.pi) * np.exp(-1.5 ** 2 / 2), rel=1e-12)
    assert rho(ld) == pytest.approx(0.894602, abs=5e-6)


def test_certify_matches_lattice_search():
    # the analytic shortcut and a dense lattice agree on an affine-mean kernel
    model = LGSSM(0.7, 1.0, 1.0)
    analytic = certify_ld_set(model, (-2.0, 1.0))
    x = np.linspace(-2.0, 1.0, 2001)
    logq = model._trans_logpdf(x[:, None], x[None, :])
    assert analytic.eps_plus == pytest.approx(3.0 * np.exp(logq.max()), rel=1e-5)
    assert analytic.eps_minus == pytest.approx(3.0 * np.exp(logq.min()), rel=1e-5)


def test_certify_probe_refinement_is_stable():
    # the tanh drift forces the lattice path; doubling the probes moves
    # the constants by well under 1%
    model = NLSSM("tanh", 0.5, 1.0, 1.0, kappa=0.5)
    a = certify_ld_set(model, (-1.0, 1.0), m_probe=256)
    b = certify_ld_set(model, (-1.0, 1.0), m_probe=512)
    assert abs(a.eps_plus - b.eps_plus) / b.eps_plus < 0.01
    assert abs(a.eps_minus - b.eps_minus) / b.eps_minus < 0.01


def test_certify_finite_and_failure():
    model = FiniteStateModel([[0.6, 0.4], [0.3, 0.7]], [[0.5, 0.5], [0.5, 0.5]])
    ld = certify_ld_set(model, (0, 1))
    assert ld.eps_minus == pytest.approx(2 * 0.3)
    assert ld.eps_plus == pytest.approx(2 * 0.7)
    zero = FiniteStateModel([[1.0, 0.0], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(NotCertifiableError):
        certify_ld_set(zero, (0, 1))


def test_ld_set_validation():
    with pytest.raises(ValueError):
        LDSet(eps_minus=0.5, eps_plus=0.4, interval=(-1, 1))
    with pytest.raises(ValueError):
        LDSet(eps_minus=0.1, eps_plus=0.4)
    assert LDSet(0.1, 0.4, interval=(-2.0, 2.0)).lambda_norm == 0.25
    assert rho(LDSet(0.3, 0.3, interval=(0, 1))) == 0.0


def test_upsilon_sv_closed_form():
    sv = StochVolModel(0.9, 0.3, 1.0)
    for y in (0.5, 1.0, 2.0, 4.0):
        exact = (2 * np.pi * np.e) ** -0.5 / abs(y)
        assert upsilon(sv, "all", y) == pytest.approx(exact, rel=1e-6)


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
    terms = _trajectory_terms(model, nu, nup, ys, C, D, None, 2048)
    assert terms[1] == pytest.approx(np.log(expected), rel=1e-12)
    assert terms[5] == pytest.approx(np.log(nu.values @ V), rel=1e-12)
    assert terms[6] == pytest.approx(np.log(nup.values @ V), rel=1e-12)


def test_psi_finite_average():
    model = FiniteStateModel([[0.5, 0.5], [0.5, 0.5]], [[0.2, 0.8], [0.6, 0.4]])
    D = certify_ld_set(model, (0, 1))
    assert psi(model, D, 0) == pytest.approx(0.4)
    assert psi(model, D, 1) == pytest.approx(0.6)


def test_psi_sv_jensen_lower_bound():
    # averaging the SV likelihood over D = [-1, 1] can only beat the
    # convexity bound exp(-log(2 pi)/2 - y^2 sinh(1)/2)
    sv = StochVolModel(0.9, 0.3, 1.0)
    D = certify_ld_set(sv, (-1.0, 1.0))
    for y in (0.0, 1.0, 2.0):
        lower = -0.5 * np.log(2 * np.pi) - y * y * np.sinh(1.0) / 2.0
        assert np.log(psi(sv, D, y)) >= lower - 1e-9


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
    g0 = model.likelihood(x, 0.3)
    g1 = model.likelihood(x, -0.2)
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
    batch = np.exp(log_psi_batch(sv, D, ys))
    for y, v in zip(ys, batch):
        assert psi(sv, D, y) == pytest.approx(v, rel=1e-12)
