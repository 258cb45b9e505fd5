import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from hmmforget import (LGSSM, NLSSM, DegenerateFilterError, DomainError, ExperimentConfig,
                       FiniteStateModel, FilterState, GridSpec, InitialDistribution,
                       StochVolModel, TobitModel, filter_step, init_filter,
                       random_finite_model, run_forgetting, run_two_filters, simulate,
                       transition_kernel, tv_distance)
from hmmforget.gridfilter import _Rows, _run_records


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
    mean = state.weights @ grid.centers
    assert mean == pytest.approx(means[1], abs=1e-4)
    assert state.weights @ (grid.centers - mean) ** 2 == pytest.approx(variances[1], abs=1e-4)


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


def degenerate_setup():
    # state noise far narrower than the grid spacing: the one-step predicted
    # mass lands between cell centers and underflows to exactly zero
    model = LGSSM(0.5, 1e-6, 1.0, domain_halfwidth=10.0)
    grid = GridSpec(-10.0, 10.0, 64)
    return model, grid, InitialDistribution.point_mass(-9.0), [-9.0, 0.0]


def test_degenerate_filter_raises():
    model, grid, nu, obs = degenerate_setup()
    state = init_filter(model, grid, nu, obs[0])
    with pytest.raises(DegenerateFilterError):
        filter_step(state, model, obs[1])


def test_degenerate_two_filters_name_the_observation():
    model, grid, nu, obs = degenerate_setup()
    with pytest.raises(DegenerateFilterError, match=r" at step 1 \(observation 0\.0\)"):
        run_two_filters(model, grid, nu, nu, obs)
    # centers j * delta, j = -31..31: x' = x / 2 keeps a point mass on a
    # center while j is even, so the one at j = 16 goes 8, 4, 2, 1 and
    # falls between two centers at step 5
    grid = GridSpec(-10.0, 10.0, 63)
    nu = InitialDistribution.point_mass(16 * grid.delta)
    obs = [0.5, -0.25, 1.0, 0.0, 2.0, 0.75, 0.5, 0.0]
    assert run_two_filters(model, grid, nu, nu, obs[:5])[-1][1] == 0.0
    with pytest.raises(DegenerateFilterError, match=r" at step 5 \(observation 0\.75\)$"):
        run_two_filters(model, grid, nu, nu, obs)


@pytest.mark.parametrize("where", [0, 17, 40])
def test_two_filters_reject_a_negative_tobit_observation(where):
    model = TobitModel(0.5, 1.0, 1.0)
    obs = simulate(model, 40, InitialDistribution.gaussian(0, 1), seed=3).obs
    obs[where] = -0.25
    nu = InitialDistribution.gaussian(0, 1)
    with pytest.raises(DomainError):
        run_two_filters(model, GridSpec(*model.domain, 64), nu, nu, obs)


def test_two_filters_name_the_bad_finite_symbols():
    model = random_finite_model(1)
    nu = InitialDistribution.finite([0.2, 0.3, 0.5])
    obs = simulate(model, 30, nu, seed=1).obs
    obs[5] = 7
    with pytest.raises(DomainError, match=r"^symbol \[7\] outside \{0\.\.3\}$"):
        run_two_filters(model, None, nu, nu, obs)


GAUSS = (InitialDistribution.gaussian(-4.0, 1.0), InitialDistribution.gaussian(4.0, 1.0))
RECORDS = {
    "tobit": (TobitModel(0.5, 1.0, 1.0), 400, 200, GAUSS),
    "nlssm": (NLSSM("linear_shrink", 0.5, 1.0, 1.0), 400, 200, GAUSS),
    "stochvol": (StochVolModel(0.9, 0.3, 1.0), 400, 200, GAUSS),
    "finite": (random_finite_model(2), None, 60,
               (InitialDistribution.finite([0.7, 0.2, 0.1]),
                InitialDistribution.point_mass(2))),
}


@pytest.mark.parametrize("pass_kernel", [False, True], ids=["own-kernel", "kernel"])
@pytest.mark.parametrize("name", list(RECORDS))
def test_two_filters_equal_one_filter_loops_bit_for_bit(name, pass_kernel):
    model, m, n, (nu, nup) = RECORDS[name]
    grid = GridSpec(*model.domain, m) if m else None
    obs = simulate(model, n, InitialDistribution.gaussian(0, 1) if m else nu, seed=7).obs
    kern = transition_kernel(model, grid)
    a, b = init_filter(model, grid, nu, obs[0]), init_filter(model, grid, nup, obs[0])
    loop = [(tv_distance(a, b), a.logZ, b.logZ)]
    for y in obs[1:]:
        a, b = filter_step(a, model, y, kern), filter_step(b, model, y)
        loop.append((tv_distance(a, b), a.logZ, b.logZ))
    stacked = run_two_filters(model, grid, nu, nup, obs,
                              kernel=kern if pass_kernel else None)
    assert [r[0] for r in stacked] == list(range(n + 1))
    assert np.array_equal(np.array([r[1:] for r in stacked]), np.array(loop))
    assert loop[0][0] > 0.1 and loop[-1][0] < loop[0][0]


def test_normalizer_matches_logsumexp_with_ties_and_zero_weights():
    # bit for bit: the forgetting rates are fitted on TV values near 1e-14,
    # where a last-bit change in a normalizer moves a rate by about 1e-5
    rng = np.random.default_rng(5)
    rows = _Rows(200, 64)
    rows.u[:] = rng.normal(-5.0, 2.0, size=(200, 64))
    rows.u[1, [3, 9, 60]] = rows.u[1].max() + 1.0  # a three-way tie for the max
    rows.u[2, ::2] = -np.inf
    rows.u[3] = rows.u[3, 0]                         # all entries equal
    u, logZ = rows.u.copy(), np.empty(200)
    with np.errstate(divide="ignore", invalid="ignore"):
        rows.normalize(np.zeros(200), logZ)
    assert np.array_equal(logZ, [logsumexp(row) for row in u])
    np.testing.assert_allclose(np.exp(rows.logw).sum(axis=1), 1.0, rtol=1e-13)
    rows.u[:] = u
    rows.u[4] = -np.inf
    with pytest.raises(DegenerateFilterError, match=r"zero \(initialization\)"):
        with np.errstate(divide="ignore", invalid="ignore"):
            rows.normalize(np.zeros(200), logZ)


def reference_logsumexp(u, axis):
    """log-sum-exp over ``axis`` in the operations the fingerprints were taken with."""
    amax = np.max(u, axis=axis, keepdims=True)
    top = u == amax
    with np.errstate(invalid="ignore", divide="ignore"):
        e = np.subtract(u, amax)
        np.exp(e, out=e)
        np.copyto(e, 0.0, where=top)
        c = np.count_nonzero(top, axis=axis, keepdims=True)
        z = np.log1p(e.sum(axis=axis, keepdims=True) / c) + np.log(c) + amax
    return np.squeeze(z, axis=axis)


def reference_two_filters(model, grid, nu, nup, obs):
    """(tv, logZ, logZ') per step, from the two-filter recursion written out
    as the fingerprints were taken: a fresh array per operation, one GEMV per
    row, the shift with np.max and the TV as half the L1 norm of Δexp."""
    loglik = model.log_likelihood(model.support(grid)[None, :], obs[:, None])
    kernel = transition_kernel(model, grid)

    def normalize(logu, logZ):
        z = reference_logsumexp(logu, 1)
        return logu - z[:, None], logZ + z

    def tv(logw):
        return 0.5 * float(np.abs(np.subtract(*np.exp(logw))).sum())

    logu = np.stack([model.log_init(nu, grid), model.log_init(nup, grid)])
    logw, logZ = normalize(logu + loglik[0], 0.0)
    out = [(tv(logw), *logZ)]
    for n in range(1, len(obs)):
        shift = np.max(logw, axis=1, keepdims=True)
        pred = np.stack([row @ kernel for row in np.exp(logw - shift)])
        with np.errstate(divide="ignore"):
            logu = np.log(pred) + shift + loglik[n]
        logw, logZ = normalize(logu, logZ)
        out.append((tv(logw), *logZ))
    return np.array(out)


def reference_cases():
    star = InitialDistribution.gaussian(0, 1)
    for model in (TobitModel(0.5, 1.0, 1.0), NLSSM("linear_shrink", 0.5, 1.0, 1.0),
                  StochVolModel(0.9, 0.3, 1.0), LGSSM(0.9, 1.0, 1.0)):
        grid = GridSpec(*model.domain, 400)
        for seed in range(3):
            yield model, grid, *GAUSS, simulate(model, 200, star, seed=seed).obs
    for seed in range(20):
        model = random_finite_model(seed)
        nu, nup = (InitialDistribution.finite(p)
                   for p in np.random.default_rng(seed).dirichlet(np.ones(model.m), size=2))
        yield model, None, nu, nup, simulate(model, 20, nu, seed=seed).obs


def test_two_filters_equal_the_reference_recursion_bit_for_bit():
    cases = list(reference_cases())
    assert len(cases) == 32
    for model, grid, nu, nup, obs in cases:
        got = np.array([r[1:] for r in run_two_filters(model, grid, nu, nup, obs)])
        assert np.array_equal(got, reference_two_filters(model, grid, nu, nup, obs))


def test_the_recursion_leaves_its_inputs_alone_and_keeps_no_state():
    model, m, n, (nu, nup) = RECORDS["tobit"]
    grid = GridSpec(*model.domain, m)
    obs = simulate(model, 30, InitialDistribution.gaussian(0, 1), seed=3).obs
    kern = transition_kernel(model, grid)
    kern_bytes, obs_bytes = kern.tobytes(), obs.tobytes()
    state = init_filter(model, grid, nu, obs[0])
    logw_bytes = state.logw.tobytes()
    nxt = filter_step(state, model, obs[1], kern)
    assert state.logw.tobytes() == logw_bytes
    assert not np.shares_memory(nxt.logw, state.logw)
    first = run_two_filters(model, grid, nu, nup, obs, kernel=kern)
    assert run_two_filters(model, grid, nu, nup, obs, kernel=kern) == first
    # the threads of run_forgetting share one kernel
    with ThreadPoolExecutor(4) as pool:
        runs = [pool.submit(run_two_filters, model, grid, nu, nup, obs, kern)
                for _ in range(8)]
        assert all(run.result(timeout=60) == first for run in runs)
    assert kern.tobytes() == kern_bytes and obs.tobytes() == obs_bytes


def forgetting_cases():
    star = InitialDistribution.gaussian(0, 1)
    for model in (TobitModel(0.5, 1.0, 1.0), NLSSM("linear_shrink", 0.5, 1.0, 1.0),
                  StochVolModel(0.9, 0.3, 1.0), LGSSM(0.9, 1.0, 1.0)):
        yield model, GridSpec(*model.domain, 400), *GAUSS, star, 80
    for seed in range(10):
        model = random_finite_model(seed)
        nu, nup = (InitialDistribution.finite(p)
                   for p in np.random.default_rng(seed).dirichlet(np.ones(model.m), size=2))
        yield model, None, nu, nup, nu, 20


@pytest.mark.parametrize("replications", [1, 3, 5])
def test_every_replication_equals_the_reference_recursion(replications):
    # one lock-step pass per block of replications, at any block sizes,
    # gives each record the rows of the record-by-record recursion
    for model, grid, nu, nup, star, n in forgetting_cases():
        expected = [reference_two_filters(model, grid, nu, nup,
                                          simulate(model, n, star, seed=5, replication=rep).obs)
                    for rep in range(replications)]
        for threads in (1, 2, 3):
            res = run_forgetting(ExperimentConfig(
                model=model, star_model=model, nu=nu, nu_prime=nup, nu_star=star, n=n,
                replications=replications, seed=5, grid=grid, threads=threads))
            for rep, want in enumerate(expected):
                got = np.column_stack([res.tv[rep], res.logZ_nu[rep], res.logZ_nu_prime[rep]])
                assert got.tobytes() == want.tobytes(), (model.kind, rep, threads)


@pytest.mark.parametrize("replications", [1, 2, 5, 7, 60])
def test_the_likelihood_block_holds_at_most_one_records_matrix(replications, monkeypatch):
    # the pass evaluates the likelihood of every step exactly once, in
    # blocks of at most (n + 1) x m entries while R <= n + 1 (one step's R
    # rows beyond), and holds one block at a time, so its memory stays
    # bounded in the horizon
    model, m, n = TobitModel(0.5, 1.0, 1.0), 64, 40
    grid = GridSpec(*model.domain, m)
    obs = np.stack([simulate(model, n, GAUSS[0], seed=1, replication=r).obs
                    for r in range(replications)])
    sizes, blocks, evaluate = [], [], model.log_likelihood

    def counted(x, y):
        assert all(block() is None for block in blocks)
        out = evaluate(x, y)
        sizes.append(out.size)
        blocks.append(weakref.ref(out))
        return out

    monkeypatch.setattr(model, "log_likelihood", counted)
    tv, logZ = _run_records(model, grid, *GAUSS, obs, transition_kernel(model, grid))
    assert tv.shape == (replications, n + 1) and logZ.shape == (replications, n + 1, 2)
    assert sum(sizes) == replications * (n + 1) * m
    assert max(sizes) <= max(n + 1, replications) * m
    assert len(sizes) <= 2 * min(replications, n + 1)
