import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmmforget import (LGSSM, DegenerateFilterError, DomainError, FiniteStateModel,
                       FilterState, GridSpec, InitialDistribution, filter_step,
                       init_filter, run_two_filters, simulate,
                       transition_kernel, tv_distance)


def two_state(transition=None, emission=None):
    P = transition if transition is not None else [[0.5, 0.5], [0.5, 0.5]]
    E = emission if emission is not None else [[0.5, 0.5], [0.5, 0.5]]
    return FiniteStateModel(P, E)


def test_init_uniform_when_likelihood_constant():
    model = two_state(emission=[[0.3, 0.7], [0.3, 0.7]])
    st0 = init_filter(model, None, InitialDistribution.finite([0.5, 0.5]), 0)
    assert np.allclose(st0.weights, [0.5, 0.5])


def test_init_point_mass_dominates():
    model = two_state(emission=[[0.3, 0.7], [0.6, 0.4]])
    st0 = init_filter(model, None, InitialDistribution.point_mass(1), 0)
    assert np.allclose(st0.weights, [0.0, 1.0])


def test_init_hand_bayes():
    model = two_state(emission=[[0.2, 0.8], [0.8, 0.2]])
    st0 = init_filter(model, None, InitialDistribution.finite([0.5, 0.5]), 0)
    assert np.allclose(st0.weights, [0.2, 0.8])


def test_step_hand_bayes():
    # nu = (1, 0), symmetric transition, likelihood ratio 1:3 -> (0.25, 0.75)
    model = two_state(emission=[[0.25, 0.75], [0.75, 0.25]])
    st0 = init_filter(model, None, InitialDistribution.finite([1.0, 0.0]), 1)
    st1 = filter_step(st0, model, 0)
    assert np.allclose(st1.weights, [0.25, 0.75], atol=1e-14)


def test_step_identity_transition_is_fixed_point():
    model = two_state(transition=[[1.0, 0.0], [0.0, 1.0]],
                      emission=[[0.4, 0.6], [0.4, 0.6]])
    st0 = init_filter(model, None, InitialDistribution.finite([0.3, 0.7]), 0)
    st1 = filter_step(st0, model, 1)
    assert np.allclose(st1.weights, st0.weights)


def test_finite_filter_matches_forward_algorithm():
    rng = np.random.default_rng(0)
    P = rng.dirichlet(np.ones(3), size=3)
    E = rng.dirichlet(np.ones(4), size=3)
    model = FiniteStateModel(P, E)
    nu = np.array([0.2, 0.5, 0.3])
    obs = [0, 2, 1, 3, 0, 1]
    # independent unnormalized forward recursion
    u = nu * E[:, obs[0]]
    state = init_filter(model, None, InitialDistribution.finite(nu), obs[0])
    assert np.allclose(state.weights, u / u.sum(), atol=1e-12)
    for y in obs[1:]:
        u = (u @ P) * E[:, y]
        state = filter_step(state, model, y)
        assert np.allclose(state.weights, u / u.sum(), atol=1e-12)
    assert state.logZ == pytest.approx(np.log(u.sum()), abs=1e-12)


def kalman_trace(obs, phi, sigma, beta, m0, p0):
    """Reference Kalman recursion for x' = phi x + sigma z, y = x + beta e."""
    means, variances = [], []
    m, p = m0, p0
    for i, y in enumerate(obs):
        if i > 0:
            m, p = phi * m, phi * phi * p + sigma * sigma
        k = p / (p + beta * beta)
        m = m + k * (y - m)
        p = (1.0 - k) * p
        means.append(m)
        variances.append(p)
    return np.array(means), np.array(variances)


def test_one_step_kalman_agreement():
    model = LGSSM(0.9, 1.0, 1.0, 1.0)
    grid = GridSpec(*model.domain, 2000)
    nu = InitialDistribution.gaussian(0.5, 1.2)
    obs = np.array([0.3, -0.7])
    means, variances = kalman_trace(obs, 0.9, 1.0, 1.0, 0.5, 1.2 ** 2)
    state = init_filter(model, grid, nu, obs[0])
    state = filter_step(state, model, obs[1])
    assert state.mean() == pytest.approx(means[1], abs=1e-4)
    assert state.variance() == pytest.approx(variances[1], abs=1e-4)


def test_grid_refinement_stability():
    model = LGSSM(0.9, 1.0, 1.0, 1.0)
    nu = InitialDistribution.gaussian(-2.0, 1.0)
    nup = InitialDistribution.gaussian(2.0, 1.0)
    obs = simulate(model, 20, InitialDistribution.gaussian(0, 1), seed=2).obs
    tv = {}
    for m in (1000, 2000):
        grid = GridSpec(*model.domain, m)
        tv[m] = np.array([r[1] for r in run_two_filters(model, grid, nu, nup, obs)])
    assert np.max(np.abs(tv[1000] - tv[2000])) < 1e-4


def test_weights_normalized_every_step():
    model = LGSSM(0.9, 1.0, 1.0)
    grid = GridSpec(*model.domain, 256)
    obs = simulate(model, 30, InitialDistribution.gaussian(0, 1), seed=8).obs
    state = init_filter(model, grid, InitialDistribution.gaussian(0, 1), obs[0])
    kern = transition_kernel(model, grid)
    for y in obs[1:]:
        state = filter_step(state, model, y, kern)
        assert abs(state.weights.sum() - 1.0) < 1e-10


def test_tv_hand_values_and_grid_mismatch():
    a = FilterState(None, np.log([0.2, 0.8]), 0.0)
    b = FilterState(None, np.log([0.5, 0.5]), 0.0)
    assert tv_distance(a, b) == pytest.approx(0.3)
    assert tv_distance(a, a) == 0.0
    c = FilterState(None, np.log([1e-300, 1.0 - 1e-300]), 0.0)
    d = FilterState(None, np.log([1.0 - 1e-300, 1e-300]), 0.0)
    assert tv_distance(c, d) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        tv_distance(a, FilterState(None, np.log([0.4, 0.3, 0.3]), 0.0))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
       st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
       st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3))
def test_tv_is_a_metric(wa, wb, wc):
    def state(w):
        w = np.asarray(w) / np.sum(w)
        return FilterState(None, np.log(w), 0.0)

    a, b, c = state(wa), state(wb), state(wc)
    assert tv_distance(a, b) == pytest.approx(tv_distance(b, a))
    assert 0.0 <= tv_distance(a, b) <= 1.0
    assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-12


def test_identical_initials_give_zero_tv():
    model = LGSSM(0.9, 1.0, 1.0)
    grid = GridSpec(*model.domain, 200)
    nu = InitialDistribution.gaussian(0.0, 1.0)
    obs = simulate(model, 10, nu, seed=4).obs
    recs = run_two_filters(model, grid, nu, nu, obs)
    assert all(r[1] == 0.0 for r in recs)


def test_grid_wider_than_domain_raises():
    model = LGSSM(0.9, 1.0, 1.0)
    lo, hi = model.domain
    grid = GridSpec(lo - 1.0, hi + 1.0, 256)
    nu = InitialDistribution.gaussian(0.0, 1.0)
    with pytest.raises(DomainError):
        run_two_filters(model, grid, nu, nu, [0.1, 0.2])


def test_degenerate_filter_raises():
    # state noise far narrower than the grid spacing: the one-step predicted
    # mass lands between cell centers and underflows to exactly zero
    model = LGSSM(0.5, 1e-6, 1.0, domain_halfwidth=10.0)
    grid = GridSpec(-10.0, 10.0, 64)
    state = init_filter(model, grid, InitialDistribution.point_mass(-9.0), -9.0)
    with pytest.raises(DegenerateFilterError):
        filter_step(state, model, 0.0)
