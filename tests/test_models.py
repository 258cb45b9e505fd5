import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.special import log_ndtr, ndtr

import hmmforget

from hmmforget import (LGSSM, NLSSM, DomainError, DriftFunction, FiniteStateModel,
                       GridSpec, InitialDistribution, StochVolModel, TobitModel,
                       simulate, substream)
from hmmforget.verify import _qv_numeric

INV_SQRT_2PI = 1.0 / np.sqrt(2 * np.pi)


def test_tobit_transition_density_at_mean():
    m = TobitModel(0.5, 1.0, 1.0)
    grid = GridSpec(-2.05, 2.05, 41)  # cell width 0.1, centres -2.0, -1.9, .., 2.0
    density = m.kernel(grid) / grid.delta
    assert density[20, 20] == pytest.approx(INV_SQRT_2PI, rel=1e-12)  # x = x' = 0
    # x' - phi x = 0.5 - 0.5 = 0: still the density at its mode
    assert density[30, 25] == pytest.approx(INV_SQRT_2PI, rel=1e-12)


def test_finite_transition_lookup():
    m = FiniteStateModel([[0.9, 0.1], [0.2, 0.8]], [[0.5, 0.5], [0.5, 0.5]])
    assert m.kernel(None)[0, 1] == m.transition[0, 1] == 0.1


def test_likelihood_hand_values():
    def g(m, x, y):
        return np.exp(m.log_likelihood(x, y))

    assert g(TobitModel(0.5, 1.0, 1.0), 0.0, 0.0) == pytest.approx(0.5, rel=1e-12)
    sv = StochVolModel(0.9, 0.3, 1.0)
    assert g(sv, 0.0, 1.0) == pytest.approx(INV_SQRT_2PI * np.exp(-0.5), rel=1e-12)
    lg = LGSSM(0.9, 1.0, 1.0, 1.0)
    assert g(lg, 2.0, 2.0) == pytest.approx(INV_SQRT_2PI, rel=1e-12)
    fin = FiniteStateModel([[0.9, 0.1], [0.2, 0.8]], [[0.3, 0.7], [0.6, 0.4]])
    assert g(fin, 1, 0) == pytest.approx(0.6, rel=1e-12)


def test_tobit_rejects_negative_observation():
    with pytest.raises(DomainError, match=r"^tobit observation -0\.5 is negative$"):
        TobitModel(0.5, 1.0, 1.0).log_likelihood(0.0, -0.5)
    with pytest.raises(DomainError, match=r"^tobit observation 3 \(-0\.3\) is negative$"):
        TobitModel(0.5, 1.0, 1.0).loglik(0.0, [0.0, 1.2, 0.0, -0.3, -0.4])


def test_state_domain_enforced():
    m = LGSSM(0.9, 1.0, 1.0)
    with pytest.raises(DomainError):
        m.log_likelihood(m.domain[1] + 1.0, 0.0)
    xs = np.array([0.0, 1.0, 40.0, -50.0])
    with pytest.raises(DomainError, match=r"^state 2 \(40\.0\) is outside the truncation"):
        m.log_likelihood(xs, 0.0)
    with pytest.raises(DomainError, match=r"^state nan is outside the truncation"):
        m.log_likelihood(np.nan, 0.0)
    with pytest.raises(DomainError, match=r"^state 1 \(nan\) is outside the truncation"):
        m.log_likelihood(np.array([0.0, np.nan, 1.0]), 0.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_observations_rejected(value):
    for m in (LGSSM(0.9, 1.0, 1.0), TobitModel(0.5, 1.0, 1.0),
              NLSSM("linear_shrink", 0.5, 1.0, 1.0), StochVolModel(0.9, 0.3, 1.0)):
        ys = np.array([0.5, 0.0, value, 1.0])
        named = rf"^{m.kind} observation 2 \({value}\) is not finite$"
        with pytest.raises(DomainError, match=named):
            m.loglik(np.zeros(3)[:, None], ys[None, :])
        with pytest.raises(DomainError, match=rf"^{m.kind} observation {value} is not finite$"):
            m.log_likelihood(0.0, value)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("shape", ["scalar", "array"])
@pytest.mark.parametrize("what", ["state", "symbol"])
def test_finite_model_rejects_non_finite_indices(what, shape, value):
    m = FiniteStateModel([[0.9, 0.1], [0.2, 0.8]], [[0.3, 0.7], [0.6, 0.4]])
    bad = value if shape == "scalar" else np.array([0.0, value, 1.0])
    x, y = (bad, 0) if what == "state" else (0, bad)
    named = rf"^{what} \[?{value}\]? outside \{{0\.\.1\}}$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=named):
            m.log_likelihood(x, y)


def tobit_scipy_logpdf(m, x, y):
    x, y = np.broadcast_arrays(x, y)
    return np.where(y == 0, log_ndtr(-x / m.beta), stats.norm.logpdf(y, loc=x, scale=m.beta))


GAUSS_CHANNELS = {
    "lgssm": (LGSSM(0.9, 1.0, 0.7, h0=1.3, drift=DriftFunction.exp_abs(0.5)),
              lambda m, x, y: stats.norm.logpdf(y, loc=m.h0 * x, scale=m.beta)),
    "tobit": (TobitModel(0.5, 1.0, 1.0), tobit_scipy_logpdf),
    "nlssm": (NLSSM("linear_shrink", 0.3, 1.0, 1.0),
              lambda m, x, y: stats.norm.logpdf(y, loc=x, scale=m.beta)),
    "nlssm-tanh": (NLSSM("tanh", 0.3, 1.0, 0.7, kappa=0.5, obs_form="affine",
                         obs_a=2.0, obs_b=0.5),
                   lambda m, x, y: stats.norm.logpdf(y, loc=m.obs_map(x), scale=m.beta)),
    "stochvol": (StochVolModel(0.9, 0.5, 1.0), None),
}


@pytest.mark.parametrize("name", list(GAUSS_CHANNELS))
def test_closed_form_densities_equal_scipy_bit_for_bit(name):
    m, reference = GAUSS_CHANNELS[name]
    obs = simulate(m, 300, InitialDistribution.gaussian(0, 1), seed=4).obs
    grid = GridSpec(*m.domain, 200)
    x = grid.centers
    kernel = np.exp(stats.norm.logpdf(x[None, :], loc=m.state_mean(x[:, None]),
                                      scale=m.state_sd)) * grid.delta
    assert np.array_equal(m.kernel(grid), kernel)
    if reference is None:  # no Gaussian observation density
        return
    for xs, ys in ((GridSpec(*m.domain, 4096).centers[:, None], obs[None, :]),
                   (x[None, :], obs[:, None]), (x[:1], obs[:1]), (x[7], obs[5])):
        ours, ref = m.loglik(xs, ys), reference(m, xs, ys)
        assert np.shape(ours) == np.shape(ref) and np.array_equal(ours, ref)


def test_import_leaves_scipy_stats_unloaded():
    src = os.path.dirname(os.path.dirname(hmmforget.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, hmmforget; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_drift_function_values():
    assert DriftFunction.exp_abs(0.1).log(0.0) == 0.0
    assert np.exp(DriftFunction.exp_abs(1.0).log(2.0)) == pytest.approx(np.e ** 2)
    assert DriftFunction.one().log(13.7) == 0.0
    with pytest.raises(ValueError):
        DriftFunction.exp_abs(-1.0)


def qv_ratio_numeric(m, x):
    """QV(x)/V(x) by verify's quadrature of QV."""
    v = lambda z: np.exp(m.drift.log(z))
    return _qv_numeric(m, v, x) / v(x)


def test_qv_ratio_identity_drift():
    m = LGSSM(0.9, 1.0, 1.0)
    xs = np.array([-3.0, 0.0, 2.5])
    assert m.log_qv(xs) is None
    assert np.all(m.qv_ratio_exact(xs) == 1.0)
    assert qv_ratio_numeric(m, xs) == pytest.approx(np.ones(3), abs=1e-9)


def test_qv_ratio_folded_moment_oracle():
    # x = 0, V = e^{|x|}, sigma = 1: QV(0)/V(0) = 2 e^{1/2} Phi(1)
    m = LGSSM(0.9, 1.0, 1.0, drift=DriftFunction.exp_abs(1.0))
    expected = 2.0 * np.exp(0.5) * ndtr(1.0)
    assert expected == pytest.approx(2.774, abs=1e-3)
    assert m.qv_ratio_exact(np.array([0.0]))[0] == pytest.approx(expected, rel=1e-12)
    xs = np.array([-3.0, 0.0, 2.5])
    assert qv_ratio_numeric(m, xs) == pytest.approx(m.qv_ratio_exact(xs), rel=1e-5)


def test_qv_ratio_vanishes_in_the_tails():
    m = TobitModel(0.5, 1.0, 1.0, drift=DriftFunction.exp_abs(1.0),
                   domain_halfwidth=25.0)
    assert m.qv_ratio_exact(np.array([20.0]))[0] < m.qv_ratio_exact(np.array([0.0]))[0]
    assert m.qv_ratio_exact(np.array([-20.0]))[0] < 1e-3


def test_transition_quadrature_normalization():
    for m in (LGSSM(0.9, 1.0, 1.0), TobitModel(0.5, 1.0, 1.0),
              NLSSM("linear_shrink", 0.5, 1.0, 1.0),
              NLSSM("tanh", 0.5, 1.0, 1.0, kappa=0.5),
              StochVolModel(0.9, 0.3, 1.0)):
        for x in (-2.0, 0.0, 2.0):
            r = 10.0 * m.state_sd
            mu = float(np.asarray(m.state_mean(x)))
            q = GridSpec(mu - r, mu + r, 4001)
            mass = np.exp(m._trans_logpdf(x, q.centers)).sum() * q.delta
            assert abs(mass - 1.0) < 1e-6


def test_finite_model_validation():
    with pytest.raises(ValueError):
        FiniteStateModel([[0.5, 0.6], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ValueError):
        FiniteStateModel([[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.0], [0.5, 0.5]])
    exact = FiniteStateModel([[0.5, 0.5], [0.5, 0.5]], [[0.4, 0.6], [0.9, 0.1]])
    assert np.allclose(exact.transition.sum(axis=1), 1.0)


def test_simulate_determinism():
    m = TobitModel(0.5, 1.0, 1.0)
    init = InitialDistribution.gaussian(0.0, 1.0)
    a = simulate(m, 25, init, seed=42, replication=3)
    b = simulate(m, 25, init, seed=42, replication=3)
    assert np.array_equal(a.obs, b.obs) and np.array_equal(a.hidden, b.hidden)
    c = simulate(m, 25, init, seed=42, replication=4)
    assert not np.array_equal(a.obs, c.obs)


def test_simulate_n_zero():
    m = LGSSM(0.9, 1.0, 1.0)
    traj = simulate(m, 0, InitialDistribution.point_mass(0.0), seed=1)
    assert len(traj.obs) == 1 and len(traj.hidden) == 1


def test_tobit_censoring_consistency():
    m = TobitModel(0.5, 1.0, 1.0)
    traj = simulate(m, 400, InitialDistribution.gaussian(0.0, 1.0), seed=5)
    # y == 0 exactly when the latent x + beta*eps was <= 0; otherwise y > 0
    assert np.all(traj.obs >= 0)
    assert np.any(traj.obs == 0)
    assert np.any(traj.obs > 0)


def test_tobit_censoring_fraction_matches_quadrature():
    # phi* = 0: X' ~ N(0, 1), y = max(X' + eps, 0); P(y = 0) = P(N(0, 2) <= 0) = 1/2
    m = TobitModel(0.0, 1.0, 1.0)
    rng = substream(9, 0)
    xs = rng.standard_normal(10_000)
    ys = np.maximum(xs + rng.standard_normal(10_000), 0.0)
    assert abs(np.mean(ys == 0) - 0.5) < 0.02


def test_transition_sample_mean_clt():
    m = TobitModel(0.5, 1.0, 1.0)
    rng = substream(11, 0)
    draws = np.array([m.sample_transition(0.0, rng) for _ in range(10_000)])
    assert abs(draws.mean()) < 3.0 / np.sqrt(10_000)


def test_nlssm_tanh_mean():
    m = NLSSM("tanh", 0.5, 1.0, 1.0, kappa=0.7)
    x = 1.3
    assert m.state_mean(x) == pytest.approx(0.5 * x + 0.7 * np.tanh(x))


def test_substream_independent_of_call_order():
    a = substream(1, 2, 3).standard_normal(4)
    _ = substream(9, 9).standard_normal(100)
    b = substream(1, 2, 3).standard_normal(4)
    assert np.array_equal(a, b)
