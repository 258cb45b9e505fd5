import os
import re
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
                       random_finite_model, simulate, substream)
from hmmforget.models import StateSpaceModel, _simulate_records
from hmmforget.grids import norm_logpdf
from hmmforget import rng
from hmmforget.rng import _keys, _rekeyed, normal_pairs, normal_rows, uniform_pairs
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
    entry = f"{value}" if shape == "scalar" else rf"1 \({value}\)"  # an array's by its index
    named = rf"^{what} {entry} outside \{{0\.\.1\}}$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=named):
            m.log_likelihood(x, y)


def tobit_scipy_logpdf(m, x, y):
    x, y = np.broadcast_arrays(x, y)
    return np.where(y == 0, log_ndtr(-x / m.beta), stats.norm.logpdf(y, loc=x, scale=m.beta))


GAUSS_CHANNELS = {
    "lgssm": (LGSSM(0.9, 1.0, 0.7, h0=1.3, drift=DriftFunction.exp_abs(0.5)),
              lambda m, x, y: stats.norm.logpdf(y, loc=1.3 * x, scale=m.beta)),
    "tobit": (TobitModel(0.5, 1.0, 1.0), tobit_scipy_logpdf),
    "nlssm": (NLSSM("linear_shrink", 0.3, 1.0, 1.0),
              lambda m, x, y: stats.norm.logpdf(y, loc=x, scale=m.beta)),
    "nlssm-tanh": (NLSSM("tanh", 0.3, 1.0, 0.7, kappa=0.5, obs_a=2.0, obs_b=0.5),
                   lambda m, x, y: stats.norm.logpdf(y, loc=2.0 * x + 0.5, scale=m.beta)),
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


@pytest.mark.parametrize("name", list(GAUSS_CHANNELS))
def test_obs_slope_and_peak_give_the_location_channel(name):
    # y = h x + b + beta e with h = obs_slope and b = obs_offset, so g(x, y) =
    # phi(h (x - p)/beta)/beta with p = obs_peak(y) = (y - b)/h wherever y has
    # a peak (tobit: y > 0); SV has no location channel
    m, _ = GAUSS_CHANNELS[name]
    if m.kind == "stochvol":
        assert m.obs_slope is None
        return
    obs = simulate(m, 300, InitialDistribution.gaussian(0, 1), seed=4).obs
    peaks = m.obs_peak(obs)
    no_peak = obs == 0 if m.kind == "tobit" else np.zeros(len(obs), dtype=bool)
    assert np.array_equal(np.isnan(peaks), no_peak)
    x = GridSpec(*m.domain, 200).centers[:, None]
    ys, peaks = obs[~np.isnan(peaks)], peaks[~np.isnan(peaks)]
    h, b = m.obs_slope, m.obs_offset
    assert np.array_equal(peaks, (ys - b) / h)
    assert np.array_equal(m.loglik(x, ys), norm_logpdf(ys, h * x + b, m.beta))
    expected = stats.norm.logpdf(h * (x - peaks) / m.beta) - np.log(m.beta)
    np.testing.assert_allclose(m.loglik(x, ys), expected, rtol=1e-12)


def test_nlssm_observes_through_obs_a_and_obs_b():
    # y = a x + b + beta e for whatever drift; neither keyword needs a switch
    m = NLSSM("linear_shrink", 0.5, 1.0, 0.7, obs_a=-0.8, obs_b=-0.3)
    ys = np.array([-2.0, -0.3, 0.0, 0.5, 3.1])
    assert np.array_equal(m.obs_peak(ys), (ys + 0.3) / -0.8)
    assert (m.obs_slope, m.obs_offset) == (-0.8, -0.3)
    x = np.linspace(-2.0, 2.0, 9)[:, None]
    assert np.array_equal(m.loglik(x, ys), norm_logpdf(ys, -0.8 * x - 0.3, 0.7))


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("which", ["transition", "emission"])
def test_finite_model_refuses_non_finite_rows(which, bad):
    # every later check (P < 0, |row sum - 1| > 1e-12, E <= 0) is false for
    # NaN, so a NaN row used to construct and fail only in the filter
    rows = {"transition": [[0.5, 0.5], [0.3, 0.7]], "emission": [[0.4, 0.6], [0.2, 0.8]]}
    rows[which][1][1] = bad
    message = f"{which} row 1 {rows[which][1]} is not finite"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FiniteStateModel(rows["transition"], rows["emission"])


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


SEEDS = [0, 5, 2**32 - 1, 2**32, 2**70 + 12345]
PATHS = [(), (3,), (778, 1), (2**33,)]


@pytest.mark.parametrize("path", PATHS, ids=str)
@pytest.mark.parametrize("seed", SEEDS, ids=str)
def test_keys_equal_seed_sequence(seed, path):
    draw = np.random.default_rng([seed % 2**32, len(path)])
    ks = [0, 1, 4000, int(draw.integers(2**32)), 2**32 - 1]
    expected = [np.random.SeedSequence([seed, *path, k]).generate_state(2, np.uint64)
                for k in ks]
    assert np.array_equal(_keys(seed, [path], ks)[0], expected)
    # a step or stream index is below 2^32: a larger k is refused, not
    # hashed as a second entropy word
    with pytest.raises(ValueError, match=r"below 2\^32"):
        _keys(seed, [path], [0, int(draw.integers(2**32, 2**63))])
    # _rekeyed re-keys one Philox with exactly these keys, in order, and a
    # record pass hands out each record's step-0 generator under its key, in
    # record order, whatever the entropy length of the others
    keys = [gen.bit_generator.state["state"]["key"].copy()
            for gen in _rekeyed(_keys(seed, [path], np.arange(4001))[0])]
    assert np.array_equal(np.take(keys, ks[:3], axis=0), expected[:3])
    paths = [(2**32 + 1, 9), path, (2,)]
    firsts = [np.random.SeedSequence([seed, *p, 0]).generate_state(2, np.uint64)
              for p in paths]
    for record_pass in (normal_pairs, uniform_pairs):
        gens, _ = record_pass(seed, paths, n=3)
        got = [gen.bit_generator.state["state"]["key"].copy() for _, gen in zip(paths, gens)]
        assert np.array_equal(got, firsts)


DRAWS = {
    "raw": lambda g: g.bit_generator.random_raw(6),
    "uint32": lambda g: g.integers(0, 2**32, size=3, dtype=np.uint32),
    "random": lambda g: g.random(5),
    "standard_normal": lambda g: g.standard_normal(7),
    "choice": lambda g: g.choice(4, size=5, p=[0.1, 0.2, 0.3, 0.4]),
    "dirichlet": lambda g: g.dirichlet(np.ones(3), size=2),
}


@pytest.mark.parametrize("kind", DRAWS)
def test_rekeyed_draws_equal_a_fresh_substream(kind):
    draw = DRAWS[kind]
    for k, gen in enumerate(_rekeyed(_keys(2**40, [(3,)], np.arange(6))[0])):
        assert np.array_equal(draw(gen), draw(substream(2**40, 3, k)))
        # leave a cached 32-bit half and a half-used output buffer behind
        gen.bit_generator.random_raw(k % 3)
        state = {"has_uint32": 0}
        while not (state["has_uint32"] and state["buffer_pos"] < 4):
            gen.integers(0, 2**32, dtype=np.uint32)
            state = gen.bit_generator.state


@pytest.mark.parametrize("seed, path", [(-1, ()), (0, (-3,)), (5, (2, -1))])
def test_negative_entries_raise_as_substream_does(seed, path):
    with pytest.raises(ValueError) as ref:
        substream(seed, *path, 0)
    for record_pass in (normal_pairs, uniform_pairs):
        with pytest.raises(ValueError, match=f"^{ref.value}$"):
            record_pass(seed, [(1,), path], n=3)
    with pytest.raises(ValueError, match=f"^{ref.value}$"):
        normal_rows(seed, *path, n=3, k=2)
    with pytest.raises(ValueError, match=f"^{ref.value}$"):
        _keys(seed, [path], [0])
    with pytest.raises(ValueError) as ref:
        substream(0, -1)
    with pytest.raises(ValueError, match=f"^{ref.value}$"):
        _keys(0, [()], [2, -1])


def test_non_integral_entries_raise_and_numpy_integers_key_as_ints():
    # a float seed or replication is refused, not truncated
    model, init = LGSSM(0.9, 1.0, 1.0), InitialDistribution.gaussian(0, 1)
    for seed, replication in [(1.5, 0), (1, 0.7), (2.0, 0), (np.float64(1), 0)]:
        with pytest.raises(TypeError):
            simulate(model, 5, init, seed=seed, replication=replication)
        with pytest.raises(TypeError):
            substream(seed, replication)
    # so is a float horizon
    for n in (5.5, 5.0, np.float64(3)):
        with pytest.raises(TypeError):
            simulate(model, n, init, seed=1)
    expected = simulate(model, 5, init, seed=3, replication=2).obs
    assert np.array_equal(simulate(model, np.int64(5), init, seed=np.int64(3),
                                   replication=np.uint16(2)).obs, expected)
    assert np.array_equal(substream(np.int64(3), np.int32(2)).random(4),
                          substream(3, 2).random(4))


def simulate_per_step(model, n, init, seed, replication):
    """``simulate``'s path, drawing each step k from a fresh
    ``substream(seed, replication, k)``."""
    rng = substream(seed, replication, 0)
    x = init.sample(rng)
    hidden, obs = [x], [model.sample_observation(x, rng)]
    for k in range(1, n + 1):
        x, y = model.sample_step(x, substream(seed, replication, k))
        hidden.append(x)
        obs.append(y)
    return np.asarray(obs), np.asarray(hidden)


SIMULATED = {
    "lgssm": (LGSSM(0.9, 1.0, 1.0), InitialDistribution.gaussian(0.0, 1.0)),
    "tobit": (TobitModel(0.5, 1.0, 1.0), InitialDistribution.gaussian(0.0, 1.0)),
    "nlssm-tanh-affine": (NLSSM("tanh", 0.5, 1.0, 1.0, kappa=0.4, obs_a=1.3, obs_b=0.2),
                          InitialDistribution.uniform(-1.0, 1.0)),
    "stochvol": (StochVolModel(0.9, 0.3, 1.0), InitialDistribution.gaussian(0.0, 1.0)),
    "finite": (random_finite_model(4), InitialDistribution.finite([0.5, 0.3, 0.2])),
    "lgssm-point-mass": (LGSSM(0.5, 2.0, 0.3, h0=-0.7), InitialDistribution.point_mass(0.3)),
}


@pytest.mark.parametrize("n", [0, 1, 500])
@pytest.mark.parametrize("replication", [0, 3])
@pytest.mark.parametrize("name", SIMULATED)
def test_simulate_equals_per_step_substreams(name, replication, n):
    model, init = SIMULATED[name]
    traj = simulate(model, n, init, seed=2**40, replication=replication)
    obs, hidden = simulate_per_step(model, n, init, 2**40, replication)
    assert np.array_equal(traj.obs, obs) and np.array_equal(traj.hidden, hidden)
    assert traj.obs.dtype == obs.dtype and traj.hidden.dtype == hidden.dtype


def test_a_long_record_equals_per_step_substreams():
    # n = 4000 holds about 120 steps off the ziggurat's fast path; a
    # replication of 2^32 or more adds a word to every key
    model, init = SIMULATED["nlssm-tanh-affine"]
    traj = simulate(model, 4000, init, seed=2**64 + 9, replication=2**33)
    obs, hidden = simulate_per_step(model, 4000, init, 2**64 + 9, 2**33)
    assert np.array_equal(traj.obs, obs) and np.array_equal(traj.hidden, hidden)


def test_simulate_names_a_model_class_it_cannot_draw():
    # a new model with the README's surface and both scalar samplers, but
    # neither a FiniteStateModel's transition and emission nor a
    # GaussianStateModel's state_mean, state_sd and observe
    class Walk(StateSpaceModel):
        kind, domain = "walk", (-10.0, 10.0)

        def _check_state(self, x):
            return x

        _check_obs = _check_state

        def _obs_logpdf(self, x, y):
            return norm_logpdf(y, x, 1.0)

        def sample_transition(self, x, rng):
            return x + rng.standard_normal()

        sample_observation = sample_transition

    assert np.isfinite(simulate_per_step(Walk(), 5, SIMULATED["lgssm"][1], 1, 0)[0]).all()
    with pytest.raises(TypeError, match="records of a Walk"):
        simulate(Walk(), 5, SIMULATED["lgssm"][1], seed=1)


RECORD_REPLICATIONS = [0, 1, 2**32 + 5, 2**40]


@pytest.mark.parametrize("n", [0, 1, 64])
@pytest.mark.parametrize("name", ["tobit", "stochvol", "lgssm", "nlssm-tanh-affine", "finite"])
def test_record_pass_equals_per_replication_substreams(name, n):
    # one pass draws every record of an experiment: each row must be the
    # record that fresh substream(seed, r, k) draws give, byte for byte,
    # whatever the entropy length of the other rows' keys
    model, init = SIMULATED[name]
    obs, hidden = _simulate_records(model, n, init, 11, RECORD_REPLICATIONS)
    assert obs.shape == hidden.shape == (len(RECORD_REPLICATIONS), n + 1)
    for row, replication in enumerate(RECORD_REPLICATIONS):
        ref_obs, ref_hidden = simulate_per_step(model, n, init, 11, replication)
        assert obs[row].tobytes() == ref_obs.tobytes(), replication
        assert hidden[row].tobytes() == ref_hidden.tobytes(), replication
        assert obs.dtype == ref_obs.dtype and hidden.dtype == ref_hidden.dtype
    if n == 64 and name != "finite":
        # some of these steps are off the ziggurat's fast path and were
        # redrawn by the generator that then serves each record's step 0
        keys = _keys(11, [(r,) for r in RECORD_REPLICATIONS], np.arange(n + 1))
        assert rng._fast_normals(keys[:, 1:].reshape(-1, 2), 2, *rng._ziggurat())[1].any()


@pytest.mark.parametrize("name", SIMULATED)
def test_the_scalar_fallback_alone_gives_the_same_records(name, monkeypatch):
    # every ki 0 sends every step to the scalar generator, as a failed
    # self-check does
    wi, _ = rng._ziggurat()
    monkeypatch.setattr(rng, "_ziggurat", lambda: (wi, np.zeros(256, np.uint64)))
    model, init = SIMULATED[name]
    traj = simulate(model, 300, init, seed=5, replication=1)
    obs, hidden = simulate_per_step(model, 300, init, 5, 1)
    assert np.array_equal(traj.obs, obs) and np.array_equal(traj.hidden, hidden)


def test_philox_words_equal_the_bit_generator():
    keys = np.concatenate([_keys(2**64 + 3, [(2**32 + 7,)], np.arange(50_000))[0],
                           _keys(7, [(0,)], np.arange(10**9, 10**9 + 50_000))[0]])
    raw = np.array([gen.bit_generator.random_raw(9) for gen in rng._rekeyed(keys)])
    assert np.array_equal(rng._philox_words(keys), raw[:, :2].T)
    # words past the first block come from the blocks at counters 2, 3, ...
    for k in (1, 4, 5, 9):
        assert np.array_equal(rng._philox_words(keys[::97], k), raw[::97, :k].T)


FINITE_INITS = {"finite": lambda m: InitialDistribution.finite(np.arange(1.0, m + 1)),
                "point-mass": lambda m: InitialDistribution.point_mass(m - 1),
                "float-point-mass": lambda m: InitialDistribution.point_mass(1.0)}


@pytest.mark.parametrize("n", [0, 1, 2, 500])
@pytest.mark.parametrize("init", FINITE_INITS)
@pytest.mark.parametrize("m, n_symbols", [(2, 2), (5, 6), (8, 3)])
def test_finite_records_equal_per_step_substreams(m, n_symbols, init, n):
    # the uniforms of steps k >= 1 are Philox words 0 and 1, searched in each
    # state's cdf; a replication of 2^32 or more adds a word to every key
    model = random_finite_model(m + n_symbols, m=m, n_symbols=n_symbols)
    init = FINITE_INITS[init](m)
    for seed, replication in [(7, 0), (2**40, 2**33)]:
        traj = simulate(model, n, init, seed=seed, replication=replication)
        obs, hidden = simulate_per_step(model, n, init, seed, replication)
        assert np.array_equal(traj.obs, obs) and np.array_equal(traj.hidden, hidden)
        assert traj.obs.dtype == obs.dtype and traj.hidden.dtype == hidden.dtype


@pytest.mark.parametrize("emission", [[[1.0, 0.2], [1.0, 0.8]]], ids=["likelihood-weights"])
def test_a_finite_record_refuses_rows_that_are_not_probabilities(emission):
    # FiniteStateModel takes such rows as likelihood weights, but they cannot
    # be sampled: the record pass raises choice's own error, as the per-step
    # loop does at its first visit.  A NaN row no longer constructs
    # (test_finite_model_refuses_non_finite_rows)
    model = FiniteStateModel([[0.5, 0.5], [0.3, 0.7]], emission)
    init = InitialDistribution.point_mass(0)
    with pytest.raises(ValueError) as ref:
        simulate_per_step(model, 50, init, 3, 0)
    with pytest.raises(ValueError, match=f"^{ref.value}$"):
        simulate(model, 50, init, seed=3)


@pytest.mark.parametrize("slack", [1e-13, 5e-9])
def test_a_finite_record_takes_rows_within_choices_tolerance(slack):
    # choice takes rows within √eps of 1 and scales their cdf by the sum
    model = FiniteStateModel([[0.5, 0.5], [0.3, 0.7]], [[0.25, 0.75 + slack], [0.6, 0.4]])
    init = InitialDistribution.finite([0.5, 0.5])
    traj = simulate(model, 500, init, seed=4)
    obs, hidden = simulate_per_step(model, 500, init, 4, 0)
    assert np.array_equal(traj.obs, obs) and np.array_equal(traj.hidden, hidden)


def _draw_words(bit, gen, words):
    """``gen.standard_normal()`` on the Philox output ``words``, and whether
    it took the fast path (one word).  A slow path reads a uniform 0, then
    0.5, which ends the tail loop of layer 0 within the buffer."""
    state = bit.state
    state["buffer"] = np.array([words, 0, 2**63, 0], np.uint64)
    state["buffer_pos"] = 0
    bit.state = state
    x = gen.standard_normal()
    return x, bit.state["buffer_pos"] == 1


def test_ziggurat_tables_match_numpy():
    wi, ki = rng._ziggurat()
    bit = np.random.Philox(0)
    gen = np.random.Generator(bit)
    for i in range(256):
        # NumPy's ki[i]: the least rabs off the fast path, by bisection
        lo, hi = 0, 2**52
        while lo < hi:
            mid = (lo + hi) // 2
            if _draw_words(bit, gen, mid << 9 | i)[1]:
                lo = mid + 1
            else:
                hi = mid
        assert ki[i] <= lo, i
        if lo:  # the largest rabs on the fast path, with the sign bit set
            x, fast = _draw_words(bit, gen, (lo - 1) << 9 | 1 << 8 | i)
            assert fast and x == -(lo - 1) * wi[i], i
    assert ki[1] == 0 and np.all(ki[np.arange(256) != 1] > 2**51)


def test_self_check_turns_the_fast_path_off(monkeypatch):
    assert np.any(rng._ziggurat.__wrapped__()[1])
    words = rng._philox_words
    monkeypatch.setattr(rng, "_philox_words", lambda *args: words(*args) ^ np.uint64(1 << 20))
    wi, ki = rng._ziggurat.__wrapped__()
    assert not np.any(ki)


def test_drift_and_trajectory_refusals():
    with pytest.raises(ValueError, match="unknown drift form 'cubic'"):
        DriftFunction("cubic")
    with pytest.raises(ValueError, match="exp_abs drift needs c > 0"):
        DriftFunction.exp_abs(0.0)
    with pytest.raises(ValueError, match="hidden and observed paths must have equal length"):
        hmmforget.Trajectory(obs=[0.1, 0.2], hidden=[0.0])


NAN, INF = float("nan"), float("inf")
G = InitialDistribution


UNHOLDABLE = {  # a parameter no model, law, drift or grid can hold, and its message
    "sigma-nan": (lambda: LGSSM(0.5, NAN, 1),
                  "state noise s.d. must be positive and finite, got sigma=nan"),
    "sigma-inf": (lambda: LGSSM(0.5, INF, 1),
                  "state noise s.d. must be positive and finite, got sigma=inf"),
    "beta-nan": (lambda: LGSSM(0.5, 1, NAN), "observation noise s.d. must be positive and finite"),
    "h0-nan": (lambda: LGSSM(0.5, 1, 1, h0=NAN), "lgssm h0 must be finite, got nan"),
    "halfwidth-negative": (lambda: LGSSM(0.5, 1, 1, domain_halfwidth=-1),
                           "got domain_halfwidth=-1"),
    "halfwidth-inf": (lambda: LGSSM(0.5, 1, 1, domain_halfwidth=INF), "got domain_halfwidth=inf"),
    "kappa-nan": (lambda: NLSSM("tanh", 0.5, 1, 1, kappa=NAN), "nlssm kappa must be finite"),
    "obs_a-inf": (lambda: NLSSM("linear_shrink", 0.5, 1, 1, obs_a=INF),
                  "nlssm obs_a must be finite"),
    "obs_b-nan": (lambda: NLSSM("linear_shrink", 0.5, 1, 1, obs_b=NAN),
                  "nlssm obs_b must be finite"),
    "drift-c-nan": (lambda: DriftFunction.exp_abs(NAN), "exp_abs drift needs c > 0 and finite"),
    "drift-c-inf": (lambda: DriftFunction.exp_abs(INF), "exp_abs drift needs c > 0 and finite"),
    "gaussian-mean-inf": (lambda: G.gaussian(INF, 1), "gaussian initial distribution mean must"),
    "gaussian-sd-nan": (lambda: G.gaussian(0, NAN), "gaussian initial distribution sd must"),
    "point-mass-nan": (lambda: G.point_mass(NAN), "point mass x must be finite, got nan"),
    "uniform-inf": (lambda: G.uniform(0, INF), "uniform initial distribution b must be finite"),
    "finite-law-nan": (lambda: G.finite([NAN, 1]),
                       r"finite initial vector p must be finite, got \[nan, 1.0\]"),
    "drift-values-nan": (lambda: FiniteStateModel([[0.5, 0.5], [0.5, 0.5]], [[1.0], [1.0]],
                                                  drift_values=[1, NAN]),
                         r"finite model drift_values must be finite, got \[1.0, nan\]"),
    "drift-values-short": (lambda: FiniteStateModel([[0.5, 0.5], [0.5, 0.5]], [[1.0], [1.0]],
                                                    drift_values=[1]),
                           r"drift_values must hold one value per state, got \[1\]"),
    "grid-m-fraction": (lambda: GridSpec(0, 1, 16.5),
                        "grid must have a whole number m >= 16 of cells, got m=16.5"),
    "grid-lo-inf": (lambda: GridSpec(-INF, 1, 16), "grid lo must be finite, got -inf"),
    "grid-hi-nan": (lambda: GridSpec(0, NAN, 16), "grid hi must be finite, got nan"),
}


@pytest.mark.parametrize("name", UNHOLDABLE)
def test_a_parameter_nothing_can_hold_is_refused_at_construction_and_named(name):
    # each check is written so that NaN fails it; a refusal is a plain
    # ValueError (exit 2 in the CLI), never the DomainError of an input
    build, message = UNHOLDABLE[name]
    with pytest.raises(ValueError, match=message) as exc:
        build()
    assert type(exc.value) is ValueError


def test_a_zero_observation_slope_and_a_numpy_cell_count_are_held():
    assert LGSSM(0.5, 1, 1, h0=0).obs_slope == 0.0
    assert NLSSM("linear_shrink", 0.5, 1, 1, obs_a=0).obs_slope == 0.0
    assert GridSpec(0, 1, np.int64(16)).centers.shape == (16,)
