import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from hmmforget import (LGSSM, NLSSM, DomainError, DriftPreconditionError,
                       FiniteStateModel, GridSpec, InitialDistribution, StochVolModel,
                       TobitModel, certify_ld_set, counting_inequality_check, exact_delta,
                       exact_denominator_bound, exact_moment_bound, random_finite_model, rho,
                       run_suite, run_two_filters, simulate,
                       substream, supermartingale_check, transition_kernel)
from hmmforget import rng
from hmmforget.models import _folded_exp_moment
from hmmforget.verify import _qv_numeric, random_g_seq, random_probability_vector


def test_counting_examples():
    # an unbroken run of ones: the pair count trails the count by one
    m, n, bound, holds = counting_inequality_check([1, 1, 1, 1, 1, 1], n=5)
    assert (m, n, bound, holds) == (5, 5, 5.5, True)
    # same prefix but nothing after it (zero padding): one fewer pair
    m, n, bound, holds = counting_inequality_check([1, 1, 1, 1, 1], n=5)
    assert (m, n, bound, holds) == (5, 4, 5.0, True)
    m, n, bound, holds = counting_inequality_check([1, 0, 1, 0, 1, 0], n=6)
    assert (m, n, bound, holds) == (3, 0, 3.5, True)
    with pytest.raises(ValueError):
        counting_inequality_check([0, 2, 1])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=0, max_size=30))
def test_counting_inequality_property(bits):
    *_, holds = counting_inequality_check(bits)
    assert holds


def test_exhaustive_counting_length_12():
    for code in range(2 ** 12):
        bits = [(code >> i) & 1 for i in range(12)]
        *_, holds = counting_inequality_check(bits, n=12)
        assert holds


@pytest.fixture
def model3():
    return random_finite_model(1)


def test_exact_delta_zero_for_equal_initials(model3):
    nu = random_probability_vector(1, 3, 0)
    g = random_g_seq(1, 10, 3)
    res = exact_delta(model3.transition, (0, 1), nu, nu, g)
    assert np.all(res.log_delta_n == -np.inf)  # the carried difference is exactly 0


def test_exact_delta_symmetric_in_initials(model3):
    nu = random_probability_vector(2, 3, 0)
    nup = random_probability_vector(2, 3, 1)
    g = random_g_seq(2, 10, 3)
    a = exact_delta(model3.transition, (0, 1), nu, nup, g)
    b = exact_delta(model3.transition, (0, 1), nup, nu, g)
    np.testing.assert_allclose(a.log_delta_n, b.log_delta_n, rtol=0, atol=1e-10)


def test_exact_delta_full_target_uniform_ergodicity():
    # C = X on a strictly positive 2-state chain: every step is a joint
    # visit, so the bound is rho_X^n times the unnormalized mass product
    model = FiniteStateModel([[0.6, 0.4], [0.3, 0.7]],
                             [[0.5, 0.5], [0.5, 0.5]])
    nu = np.array([0.9, 0.1])
    nup = np.array([0.2, 0.8])
    g = random_g_seq(5, 8, 2)
    res = exact_delta(model.transition, (0, 1), nu, nup, g)
    rho_x = rho(certify_ld_set(model, (0, 1)))
    assert res.rho_c == pytest.approx(rho_x)
    gbar = [np.outer(gi, gi).ravel() for gi in g]
    mass = np.outer(nu, nup).ravel() * gbar[0]
    qbar = np.kron(model.transition, model.transition)
    for n in range(1, 9):
        mass = (mass @ qbar) * gbar[n]
        assert np.exp(res.log_rhs_n[n]) == pytest.approx(rho_x ** n * mass.sum(), rel=1e-10)


def test_exact_delta_empty_target_collapses_to_mass(model3):
    nu = random_probability_vector(3, 3, 0)
    nup = random_probability_vector(3, 3, 1)
    g = random_g_seq(3, 6, 3)
    res = exact_delta(model3.transition, (), nu, nup, g)
    gbar = [np.outer(gi, gi).ravel() for gi in g]
    mass = np.outer(nu, nup).ravel() * gbar[0]
    assert np.exp(res.log_rhs_n[0]) == pytest.approx(mass.sum())
    for n in range(1, 7):
        mass = (mass @ np.kron(model3.transition, model3.transition)) * gbar[n]
        assert np.exp(res.log_rhs_n[n]) == pytest.approx(mass.sum(), rel=1e-10)


def count_axis_exact_delta(model, C, nu, nu_prime, g_seq, N):
    """The pair chain on its m^2 states with a joint-visit count axis, as
    exact_delta computed it before its (m, m) recursion: Delta_n from the
    tensor forwards from nu x nu' and nu' x nu, and rhs_n = sum_k rho_C^k
    mass_k(n), mass_k(n) the pair mass after k moves from C x C into C x C.
    Returns Delta_n, rhs_n, rho_C and the pair mass Z_n Z'_n."""
    m = model.m
    rho_c = rho(certify_ld_set(model, C)) if len(C) else 0.0
    qbar = np.kron(model.transition, model.transition)
    in_c = np.zeros(m, dtype=bool)
    in_c[list(C)] = True
    in_cc = (in_c[:, None] & in_c[None, :]).ravel()
    gbar = [np.outer(g, g).ravel() for g in g_seq]
    fwd = np.outer(nu, nu_prime).ravel() * gbar[0]
    rev = np.outer(nu_prime, nu).ravel() * gbar[0]
    mass = np.zeros((m * m, N + 1))  # mass[z, k]: k joint visits so far
    mass[:, 0] = fwd
    powers = rho_c ** np.arange(N + 1)
    out_cc = ~in_cc
    from_in, from_out = qbar[in_cc].T, qbar[out_cc].T
    delta, rhs, zz = np.zeros(N + 1), np.zeros(N + 1), np.zeros(N + 1)
    for n in range(N + 1):
        if n:
            fwd = (fwd @ qbar) * gbar[n]
            rev = (rev @ qbar) * gbar[n]
            to_from_in = (from_in @ mass[in_cc]) * gbar[n][:, None]
            to_from_out = (from_out @ mass[out_cc]) * gbar[n][:, None]
            new = to_from_out.copy()            # source outside C x C: count unchanged
            new[out_cc] += to_from_in[out_cc]   # in -> out: count unchanged
            new[in_cc, 1:] += to_from_in[in_cc, :-1]  # in -> in: one more joint visit
            mass = new
        diff = fwd.reshape(m, m).sum(axis=1) - rev.reshape(m, m).sum(axis=1)
        delta[n] = diff[diff > 0].sum()
        rhs[n] = mass.sum(axis=0) @ powers
        zz[n] = fwd.sum()
    return delta, rhs, rho_c, zz


def assert_matches_count_axis(model, C, nu, nup, g, N):
    """rhs_n within 1e-13 relative of the count-axis DP; Delta_n within
    1e-15 Z_n Z'_n of its exact rational value (the DP's own Delta_n, a
    difference of two tensor forwards of mass Z_n Z'_n, is itself about
    1e-15 Z_n Z'_n off on m = 2, so it is no reference at that tolerance)."""
    res = exact_delta(model.transition, C, nu, nup, g)
    _, rhs, rho_c, _ = count_axis_exact_delta(model, C, nu, nup, g, N)
    assert res.rho_c == rho_c
    np.testing.assert_allclose(res.log_rhs_n, np.log(rhs), rtol=0, atol=1e-13)
    for n, (delta, zz) in enumerate(fraction_forward_delta(model.transition, nu, nup, g)):
        assert abs(Fraction(np.exp(res.log_delta_n[n])) - delta) <= Fraction(1e-15) * zz, n


@pytest.mark.parametrize("kind", ["empty", "partial", "full"])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8, 16])
def test_exact_delta_matches_the_count_axis_dp(m, kind):
    model = random_finite_model(m, m=m)
    nu = random_probability_vector(m, m, 0)
    nup = random_probability_vector(m, m, 1)
    C = {"empty": (), "partial": tuple(range(0, m, 2)), "full": tuple(range(m))}[kind]
    assert_matches_count_axis(model, C, nu, nup, random_g_seq(m, 25, m), 25)


def test_exact_delta_size_guards():
    # no limit on the states: a 16-state chain runs, equal to the count-axis DP
    big = random_finite_model(0, m=16)
    assert_matches_count_axis(big, (0, 1), np.ones(16) / 16, random_probability_vector(0, 16),
                              random_g_seq(0, 5, 16), 5)


def fraction_exact_delta(P, C, nu, nup, g_seq, rho_c):
    """Delta_n, rhs_n (the count-axis DP) and Z_n Z'_n in exact rational arithmetic."""
    m, N = len(P), len(g_seq) - 1
    pairs = [(x, y) for x in range(m) for y in range(m)]
    in_cc = {(x, y): x in C and y in C for x, y in pairs}
    fwd = {(x, y): nu[x] * nup[y] * g_seq[0][x] * g_seq[0][y] for x, y in pairs}
    rev = {(x, y): nup[x] * nu[y] * g_seq[0][x] * g_seq[0][y] for x, y in pairs}
    mass = {s: [fwd[s]] + [Fraction(0)] * N for s in pairs}
    out = []
    for n in range(N + 1):
        if n:
            g = g_seq[n]
            new_fwd, new_rev = {}, {}
            new_mass = {t: [Fraction(0)] * (N + 1) for t in pairs}
            for t in pairs:
                gg = g[t[0]] * g[t[1]]
                q = {s: P[s[0]][t[0]] * P[s[1]][t[1]] * gg for s in pairs}
                new_fwd[t] = sum(fwd[s] * q[s] for s in pairs)
                new_rev[t] = sum(rev[s] * q[s] for s in pairs)
                for s in pairs:
                    shift = in_cc[s] and in_cc[t]
                    for k in range(N + 1 - shift):
                        new_mass[t][k + shift] += mass[s][k] * q[s]
            fwd, rev, mass = new_fwd, new_rev, new_mass
        diff = [sum(fwd[(x, y)] - rev[(x, y)] for y in range(m)) for x in range(m)]
        delta = sum(d for d in diff if d > 0)
        rhs = sum(rho_c ** k * sum(mass[s][k] for s in pairs) for k in range(N + 1))
        out.append((delta, rhs, sum(fwd.values())))
    return out


def test_exact_delta_equals_rational_arithmetic():
    # dyadic P, laws and likelihoods are exact in floating point, so the
    # Fraction recursion is the exact value of the inputs exact_delta gets
    F = Fraction
    P = [[F(1, 2), F(1, 4), F(1, 4)], [F(1, 8), F(5, 8), F(1, 4)], [F(3, 8), F(1, 8), F(1, 2)]]
    nu, nup = [F(1, 4), F(1, 4), F(1, 2)], [F(5, 8), F(1, 4), F(1, 8)]
    g_seq = [[F(int(k), 8) for k in row]
             for row in np.random.default_rng(3).integers(1, 17, size=(26, 3))]
    C = (0, 2)
    res = exact_delta(np.array(P, dtype=float), C, np.array(nu, dtype=float),
                      np.array(nup, dtype=float), np.array(g_seq, dtype=float))
    for n, (delta, rhs, zz) in enumerate(fraction_exact_delta(P, C, nu, nup, g_seq,
                                                               F(res.rho_c))):
        assert abs(F(np.exp(res.log_delta_n[n])) - delta) <= F(1e-15) * zz, n
        assert abs(F(np.exp(res.log_delta_n[n])) - delta) <= F(1e-13) * delta, n
        assert abs(F(np.exp(res.log_rhs_n[n])) - rhs) <= F(1e-14) * rhs, n


def fraction_forward_delta(P, nu, nup, g_seq):
    """Delta_n = sum (u_n Z'_n - u'_n Z_n)_+ of the chain's two forwards and
    Z_n Z'_n, n = 0..N, in exact rational arithmetic, from the floats P, nu,
    nu' and g_seq."""
    P, g_seq = [[Fraction(p) for p in row] for row in P], [[Fraction(v) for v in g] for g in g_seq]
    u, u2 = ([Fraction(a) * g for a, g in zip(law, g_seq[0])] for law in (nu, nup))
    out = []
    for n, g in enumerate(g_seq):
        if n:
            u, u2 = ([sum(v[i] * P[i][j] for i in range(len(P))) * g[j] for j in range(len(P))]
                     for v in (u, u2))
        z, z2 = sum(u), sum(u2)
        out.append((sum(max(a * z2 - b * z, 0) for a, b in zip(u, u2)), z * z2))
    return out


def test_exact_delta_is_relatively_exact_where_it_is_small():
    # the old Delta_n, the positive part of u_n Z'_n - u'_n Z_n, was exact
    # only to about 1e-16 Z_n Z'_n and read 1.3e-2 relative here; the carried
    # difference keeps Delta_n's own relative precision
    worst = 0.0
    for s in range(20):
        model = random_finite_model(s, m=6)
        nu, nup = random_probability_vector(s, 6, 0), random_probability_vector(s, 6, 1)
        g = random_g_seq(s, 20, 6)
        res = exact_delta(model.transition, (0, 2, 3), nu, nup, g)
        for n, (delta, _) in enumerate(fraction_forward_delta(model.transition, nu, nup, g)):
            if delta > 0:
                err = abs(Fraction(np.exp(res.log_delta_n[n])) - delta) / delta
                worst = max(worst, float(err))
    assert worst <= 1e-12, worst


@pytest.fixture(scope="module")
def tobit64():
    """TobitModel(0.5, 1, 1) on 64 cells, C the cells in [-1, 1], and a
    record's likelihood rows g_n(x_j) at the cells."""
    model = TobitModel(0.5, 1.0, 1.0)
    grid = GridSpec(*model.domain, 64)
    x = model.support(grid)
    nu, nup = InitialDistribution.gaussian(-2.0, 1.0), InitialDistribution.gaussian(3.0, 1.0)
    obs = simulate(model, 2000, InitialDistribution.gaussian(0.0, 1.0), seed=11).obs
    return dict(model=model, grid=grid, P=transition_kernel(model, grid),
                C=tuple(np.flatnonzero((x >= -1.0) & (x <= 1.0))), laws=(nu, nup), obs=obs,
                w=[np.exp(model.log_init(law, grid)) for law in (nu, nup)],
                g=np.exp(model.log_likelihood(x, obs[:, None])))


def test_oracles_on_a_tobit_discretization(tobit64):
    # the kernel on the grid is sub-stochastic: its edge rows lose mass past the domain
    t = tobit64
    assert t["P"].sum(axis=1).min() < 1.0 - 1e-6
    g, (w, w2) = t["g"][:51], t["w"]
    res = exact_delta(t["P"], t["C"], w, w2, g)
    assert np.all(res.log_delta_n <= res.log_rhs_n + 1e-12)
    recs = run_two_filters(t["model"], t["grid"], *t["laws"], t["obs"][:51])
    tv, za, zb = np.array([r[1:] for r in recs]).T
    above = tv > 1e-8
    assert above.sum() > 10
    np.testing.assert_allclose((res.log_delta_n - za - zb)[above], np.log(tv[above]),
                               rtol=0, atol=1e-6)
    pairs = exact_denominator_bound(t["P"], w, t["C"], g)
    np.testing.assert_allclose(pairs[:, 0], za[1:], rtol=1e-12, atol=0)
    assert np.all(pairs[:, 0] >= pairs[:, 1])


@pytest.mark.parametrize("chain", ["finite3", "tobit64"])
def test_oracles_run_past_the_old_horizon_cap(chain, tobit64):
    # N = 2000: the rescaled recursion leaves no output outside the float
    # range, where the linear one stopped at N = 25
    if chain == "finite3":
        P = random_finite_model(5).transition
        (w, w2), g, C = [random_probability_vector(5, 3, k) for k in (0, 1)], random_g_seq(5, 2000, 3), (0, 1)
    else:
        P, (w, w2), g, C = tobit64["P"], tobit64["w"], tobit64["g"], tobit64["C"]
    res = exact_delta(P, C, w, w2, g)
    assert len(res.log_delta_n) == 2001
    assert np.all(np.isfinite(res.log_delta_n)) and np.all(np.isfinite(res.log_rhs_n))
    assert np.all(res.log_delta_n <= res.log_rhs_n + 1e-12)
    assert res.log_delta_n[-1] - res.log_rhs_n[-1] < -700  # far below the rhs, and below 1e-308
    pairs = exact_denominator_bound(P, w, C, g)
    assert np.all(np.isfinite(pairs)) and np.all(pairs[:, 0] >= pairs[:, 1])


def test_exact_delta_matches_normalized_filter_gap(model3):
    # half-L1 of the normalized filters equals Delta_n / (unnormalized mass)
    model = model3
    nu = random_probability_vector(4, 3, 0)
    nup = random_probability_vector(4, 3, 1)
    obs = simulate(model, 8, InitialDistribution.finite(nu), seed=4).obs
    g = np.exp(model.log_likelihood(model.support(None)[None, :], obs[:, None]))
    res = exact_delta(model.transition, (0, 1), nu, nup, g)
    recs = run_two_filters(model, None, InitialDistribution.finite(nu),
                           InitialDistribution.finite(nup), obs)
    for n, tv, za, zb in recs:
        assert tv == pytest.approx(np.exp(res.log_delta_n[n] - za - zb), rel=1e-8)


def test_denominator_bound_trivial_cases():
    model = FiniteStateModel([[0.5, 0.5], [0.5, 0.5]],
                             [[0.5, 0.5], [0.5, 0.5]])
    nu = np.array([0.3, 0.7])
    g = np.ones((6, 2))
    pairs = exact_denominator_bound(model.transition, nu, (0, 1), g)
    # g == 1, C = X, doubly stochastic: lhs = 1, rhs = (eps-)^{n-1} <= 1
    assert pairs.shape == (5, 2)
    assert np.allclose(pairs[:, 0], 0.0, atol=1e-15)
    assert np.all(pairs[:, 1] <= 1e-12)
    assert np.all(pairs[:, 0] >= pairs[:, 1] - 1e-12)


def test_denominator_bound_n1_reduces_to_restriction():
    model = random_finite_model(6)
    nu = random_probability_vector(6, 3, 0)
    g = random_g_seq(6, 1, 3)
    pairs = exact_denominator_bound(model.transition, nu, (0, 1), g)
    idx = [0, 1]
    g1c = np.zeros(3)
    g1c[idx] = g[1][idx]
    overlap = (nu * g[0]) @ (model.transition @ g1c)
    assert np.exp(pairs[0, 1]) == pytest.approx(overlap, rel=1e-12)
    assert pairs[0, 0] >= pairs[0, 1]


def _drift_inputs(P, seed):
    """V, W and b meeting log(V^-1 P V) <= -W + b with 0.1 to spare."""
    V = 1.0 + substream(seed, 5).random(len(P)) * 3.0
    slack = np.log((P @ V) / V)
    b = float(slack.max() + 0.3)
    return V, b - slack - 0.1, b


def test_supermartingale_finite_exact():
    model = random_finite_model(7)
    V = np.array([1.0, 2.0, 1.5])
    slack = np.log((model.transition @ V) / V)
    b = float(slack.max() + 0.3)
    W = b - slack - 0.1
    F = [np.array([0.05, 0.1, 0.02])] * 6
    pairs = exact_moment_bound(model.transition, V, W, b, F, x0=1)
    assert pairs.shape == (6, 2) and np.all(pairs[:, 0] <= pairs[:, 1])


def test_supermartingale_zero_f_trivial():
    model = random_finite_model(8)
    V = np.ones(3)
    W = np.full(3, 0.1)
    F = [np.zeros(3)] * 4
    lhs, rhs = exact_moment_bound(model.transition, V, W, 0.2, F, x0=0).T
    np.testing.assert_allclose(lhs, 0.0, atol=1e-15)  # log 1: the chain keeps its mass
    np.testing.assert_allclose(rhs, 0.1 * np.arange(1, 5), rtol=1e-15)  # b n - n W
    assert np.all(lhs <= rhs)


def test_supermartingale_precondition_error():
    model = random_finite_model(9)
    V = np.ones(3)
    W = np.full(3, 5.0)  # demands far more contraction than V = 1 offers
    with pytest.raises(DriftPreconditionError, match="fails on the state set"):
        exact_moment_bound(model.transition, V, W, 0.0, [np.zeros(3)], x0=0)


def _moment_by_paths(P, F, x0, n):
    """E_x0[exp sum_{k<n} |F_k(X_k)|] on the chain P, summed over every path."""
    total = 0.0
    for path in itertools.product(range(len(P)), repeat=n - 1):
        states = (x0, *path)
        weight = np.prod([P[i, j] for i, j in zip(states, states[1:])])
        total += weight * np.exp(sum(abs(F[k][x]) for k, x in enumerate(states)))
    return total


@pytest.mark.parametrize("seed", range(6))
def test_exact_moment_bound_equals_the_sum_over_paths(seed):
    # stochastic chains and chains whose rows sum to less than 1 (odd seeds):
    # a path is counted up to its last state X_{n-1}, with no move after it
    P = random_finite_model(seed).transition
    if seed % 2:
        P = P * substream(seed, 6).uniform(0.5, 1.0, (3, 1))
    V, W, b = _drift_inputs(P, seed)
    F = substream(seed, 7).uniform(-2.0, 2.0, (6, 3))
    x0 = seed % 3
    pairs = exact_moment_bound(P, V, W, b, F, x0)
    brute = [_moment_by_paths(P, F, x0, n) for n in range(1, 7)]
    np.testing.assert_allclose(pairs[:, 0], np.log(brute), rtol=0, atol=1e-12)
    assert np.all(pairs[:, 0] <= pairs[:, 1])
    # |F_k| + 800 overflows exp: the moment is exp(800 n) times the one above
    shifted = exact_moment_bound(P, V, W, b, np.abs(F) + 800.0, x0)
    np.testing.assert_allclose(shifted[:, 0], pairs[:, 0] + 800.0 * np.arange(1, 7),
                               rtol=1e-15)


def test_exact_moment_bound_at_a_long_horizon():
    P = random_finite_model(3).transition
    V, W, b = _drift_inputs(P, 3)
    F = substream(3, 8).uniform(-50.0, 50.0, (2000, 3))
    for x0 in range(3):
        lhs, rhs = exact_moment_bound(P, V, W, b, F, x0).T
        assert np.all(np.isfinite(lhs)) and np.all(np.isfinite(rhs))
        assert np.all(lhs <= rhs)


def test_exact_moment_bound_on_a_grid_kernel():
    # criterion 10's LGSSM, V, W, F and b on its 801-cell kernel, whose rows
    # sum to less than 1 at the edges; x0 = 0 is the middle cell's centre
    model = LGSSM(0.9, 1.0, 1.0)
    grid = GridSpec(*model.domain, 801)
    x = model.support(grid)
    xs = np.linspace(*model.domain, 401)
    b = float((np.log(_folded_exp_moment(0.9 * xs, 1.0, 0.5)) - 0.5 * np.abs(xs)).max() + 0.15)
    V_c = lambda x: np.exp(0.5 * np.abs(x))
    W_c = lambda x: np.full_like(np.asarray(x, float), 0.1)
    F_c = [lambda x: 0.05 * np.clip(np.abs(np.asarray(x, float)), 0, 2.0)] * 5
    x0 = int(np.flatnonzero(x == 0.0)[0])
    lhs, rhs = exact_moment_bound(transition_kernel(model, grid), V_c(x), W_c(x), b,
                                  [f(x) for f in F_c], x0).T
    assert np.all(lhs <= rhs)
    mc, mc_rhs, _ = supermartingale_check(model, V_c, W_c, b, F_c, 5, x0=0.0,
                                          replications=10_000, seed=0)
    assert np.exp(lhs[4]) == pytest.approx(mc, rel=1e-3)
    assert np.exp(rhs[4]) == pytest.approx(mc_rhs, rel=1e-12)


def test_exact_moment_bound_refusals(model3):
    P = model3.transition
    V, W, b = _drift_inputs(P, 1)
    F = np.full((4, 3), 0.1)
    # x0 is a state index, checked as C's are
    for x0 in (-1, 3, 1.7):
        with pytest.raises(DomainError, match=rf"state {x0} outside \{{0..2\}}"):
            exact_moment_bound(P, V, W, b, F, x0)
    np.testing.assert_array_equal(exact_moment_bound(P, V, W, b, F, 2.0),
                                  exact_moment_bound(P, V, W, b, F, 2))
    # x0 is one state index, not a list or an array of them
    for x0 in ([1], np.array([1]), [0, 1]):
        with pytest.raises(DomainError, match=r"^x0 = \[.*\] is not one state index$"):
            exact_moment_bound(P, V, W, b, F, x0)
    shape = r"^F_seq must be N >= 1 finite vectors of shape \(3,\)$"
    for bad_f in ([], np.zeros((0, 3)), np.ones((4, 2)), np.ones(3),
                  np.where(np.eye(4, 3) > 0, np.nan, F), np.where(np.eye(4, 3) > 0, -np.inf, F)):
        with pytest.raises(ValueError, match=shape):
            exact_moment_bound(P, V, W, b, bad_f, 0)
    for bad_v in (np.zeros(3), -V, np.r_[V[:2], np.nan], np.r_[V[:2], np.inf], V[:2]):
        with pytest.raises(ValueError, match=r"^V must be a finite positive vector"):
            exact_moment_bound(P, bad_v, W, b, F, 0)
    for bad_w in (np.r_[W[:2], np.nan], np.r_[W[:2], -np.inf], W[:2]):
        with pytest.raises(ValueError, match=r"^W must be a finite vector"):
            exact_moment_bound(P, V, bad_w, b, F, 0)
    with pytest.raises(ValueError, match="P must be a finite nonnegative square matrix"):
        exact_moment_bound(P[:2], V, W, b, F, 0)
    # a finite model's vectors go to the oracle, not the Monte Carlo
    with pytest.raises(TypeError, match=r"exact_moment_bound\(model\.transition"):
        supermartingale_check(model3, V, W, b, list(F), 4, x0=0)


def _monte_carlo_one_replication_at_a_time(model, F_seq, n, x0, replications, seed):
    """The continuous Monte Carlo as a loop over replications and steps, with
    scalar draws: the reference the vectorised check must equal bit for bit."""
    totals = np.zeros(replications)
    for r in range(replications):
        rng = substream(seed, r)
        x = float(x0)
        acc = 0.0
        for k in range(n):
            acc += abs(float(F_seq[k](np.array([x]))[0]))
            x = model.state_mean(x) + model.state_sd * rng.standard_normal()
        totals[r] = np.exp(acc)
    return float(totals.mean()), float(totals.std(ddof=1) / np.sqrt(replications))


@pytest.mark.parametrize("model", [LGSSM(0.9, 1.0, 1.0),
                                   NLSSM("tanh", 0.5, 1.0, 1.0, kappa=0.4),
                                   StochVolModel(0.9, 0.3, 1.0)], ids=lambda m: m.kind)
def test_supermartingale_monte_carlo_equals_the_replication_loop(model):
    V = lambda x: np.exp(0.5 * np.abs(x))
    W = lambda x: np.full_like(np.asarray(x, float), 0.05)
    F = [lambda x: 0.05 * np.clip(np.abs(np.asarray(x, float)), 0, 2.0),
         lambda x: 0.02 * np.tanh(x)] * 3
    mc, rhs, holds = supermartingale_check(model, V, W, 3.0, F, 6, x0=0.3,
                                           replications=300, seed=4)
    ref_mc, ref_se = _monte_carlo_one_replication_at_a_time(model, F, 6, 0.3, 300, 4)
    assert mc == ref_mc
    assert holds == (ref_mc + 3 * ref_se <= rhs)


@pytest.mark.parametrize("fallback", [False, True], ids=["record-pass", "scalar-fallback"])
@pytest.mark.parametrize("n", [1, 3, 4, 5, 8, 9])
def test_supermartingale_draws_equal_per_replication_substreams(n, fallback, monkeypatch):
    # n normals a replication read n Philox words: 4 and 5, 8 and 9 fill one
    # block or cross into the next.  Every ki 0 sends every replication to
    # the scalar generator, as a failed self-check does
    if fallback:
        wi, _ = rng._ziggurat()
        monkeypatch.setattr(rng, "_ziggurat", lambda: (wi, np.zeros(256, np.uint64)))
    z = rng.normal_rows(6, n=400, k=n)
    assert np.array_equal(z, [substream(6, r).standard_normal(n) for r in range(400)])
    model = LGSSM(0.9, 1.0, 1.0)
    V = lambda x: np.exp(0.5 * np.abs(x))
    W = lambda x: np.full_like(np.asarray(x, float), 0.05)
    F = [lambda x: 0.05 * np.clip(np.abs(np.asarray(x, float)), 0, 2.0)] * n
    mc, _, _ = supermartingale_check(model, V, W, 3.0, F, n, x0=0.3, replications=400, seed=6)
    assert mc == _monte_carlo_one_replication_at_a_time(model, F, n, 0.3, 400, 6)[0]


def test_counting_suite_equals_the_scalar_check_on_every_code():
    length = 12
    checks = [counting_inequality_check([(code >> i) & 1 for i in range(length)], n=length)
              for code in range(2 ** length)]
    (record,) = run_suite("counting")
    assert record["metric"] == min(bound - m_n for m_n, _, bound, _ in checks)
    assert record["holds"] is all(holds for *_, holds in checks)


@pytest.mark.parametrize("suite", ["numerator", "denominator", "counting", "exponential"])
def test_run_suite_all_hold(suite):
    kwargs = {"seeds": range(10)} if suite in ("numerator", "denominator") else {}
    records = run_suite(suite, **kwargs)
    assert records and all(r["holds"] for r in records)


def test_run_suite_unknown():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_oracle_refusals(model3):
    P, nu = model3.transition, np.ones(3) / 3
    g = random_g_seq(0, 5, 3)
    shape = r"g_seq must have shape \(N \+ 1, 3\), N >= 0"
    for bad_g in (np.ones((5, 2)), np.ones((0, 3)), np.ones(3)):
        with pytest.raises(ValueError, match=shape):
            exact_delta(P, (0, 1), nu, nu, bad_g)
        with pytest.raises(ValueError, match=shape):
            exact_denominator_bound(P, nu, (0, 1), bad_g)
    # a bad likelihood is named by its index: a negative one, NaN or +-inf
    for (n, j), v in [((0, 0), -1.0), ((2, 1), np.nan), ((3, 0), np.inf), ((5, 2), -np.inf)]:
        bad_g = g.copy()
        bad_g[n, j] = v
        named = rf"^g_seq\[{n}, {j}\] = {v} is not a finite nonnegative likelihood$"
        with pytest.raises(ValueError, match=named):
            exact_delta(P, (0, 1), nu, nu, bad_g)
        with pytest.raises(ValueError, match=named):
            exact_denominator_bound(P, nu, (0, 1), bad_g)
    # P is any finite nonnegative square matrix: rows may sum to less than 1
    square = "P must be a finite nonnegative square matrix"
    for bad_p in (P[:2], P[0], -P, np.where(np.eye(3) > 0, np.nan, P), P * np.inf):
        with pytest.raises(ValueError, match=square):
            exact_delta(bad_p, (0, 1), nu, nu, g)
        with pytest.raises(ValueError, match=square):
            exact_denominator_bound(bad_p, nu, (0, 1), g)
    # C is a set of state indices of P; whole floats are indices too
    with pytest.raises(DomainError, match=r"state 1 \(5\) outside \{0..2\}"):
        exact_delta(P, (0, 5), nu, nu, g)
    with pytest.raises(DomainError, match=r"state 0 \(0.5\) outside \{0..2\}"):
        exact_delta(P, (0.5, 1), nu, nu, g)
    with pytest.raises(ValueError, match=r"state subset \(0, 0\) repeats a state"):
        exact_denominator_bound(P, nu, (0, 0), g)
    nup = random_probability_vector(0, 3, 1)
    a, b = exact_delta(P, (0.0, 2.0), nu, nup, g), exact_delta(P, (0, 2), nu, nup, g)
    assert (a.rho_c, a.log_delta_n.tolist(), a.log_rhs_n.tolist()) == \
        (b.rho_c, b.log_delta_n.tolist(), b.log_rhs_n.tolist())
    np.testing.assert_array_equal(exact_denominator_bound(P, nu, (0.0, 2.0), g),
                                  exact_denominator_bound(P, nu, (0, 2), g))
    # malformed initial laws, named: a length-1 law would broadcast
    law = r"must be a finite nonnegative vector of shape \(3,\)"
    with pytest.raises(ValueError, match=r"^nu " + law):
        exact_delta(P, (0, 1), [1.0], nu, g)
    with pytest.raises(ValueError, match=r"^nu " + law):
        exact_delta(P, (0, 1), [-1.0, 1.0, 1.0], nu, g)
    with pytest.raises(ValueError, match=r"^nu_prime " + law):
        exact_delta(P, (0, 1), nu, [0.5, np.nan, 0.5], g)
    with pytest.raises(ValueError, match=r"^nu " + law):
        exact_denominator_bound(P, [1.0], (0, 1), g)
    with pytest.raises(ValueError, match=r"^nu " + law):
        exact_denominator_bound(P, [0.5, -0.5, 1.0], (0, 1), g)
    with pytest.raises(ValueError, match=r"^nu " + law):
        exact_denominator_bound(P, [np.inf, 0.0, 0.0], (0, 1), g)
    # no limit on the states: a 16-state chain runs, and its lhs is the
    # forward mass, whose square the count-axis DP gives with C empty
    big = random_finite_model(0, m=16)
    nu16, g16 = random_probability_vector(0, 16), random_g_seq(0, 5, 16)
    pairs = exact_denominator_bound(big.transition, nu16, (0, 1), g16)
    _, mass2, _, _ = count_axis_exact_delta(big, (), nu16, nu16, g16, 5)
    np.testing.assert_allclose(2 * pairs[:, 0], np.log(mass2[1:]), rtol=0, atol=1e-13)
    assert np.all(pairs[:, 0] >= pairs[:, 1])
    with pytest.raises(ValueError, match=r"stated for n >= 1"):
        exact_denominator_bound(P, nu, (0, 1), random_g_seq(0, 0, 3))


def test_a_vanishing_forward_reads_minus_inf(model3):
    # no forward mass left: Delta_n = 0, rhs_n = 0 and lhs_n = 0 from that
    # step on, whose logs are -inf; the steps before keep their values
    P, nu, nup = model3.transition, np.ones(3) / 3, random_probability_vector(0, 3, 1)
    g = random_g_seq(0, 5, 3)
    whole_d, whole_b = exact_delta(P, (0, 1), nu, nup, g), exact_denominator_bound(P, nu, (0, 1), g)
    g[2] = 0.0  # a likelihood row of zeros: both forwards vanish at step 2
    res, pairs = exact_delta(P, (0, 1), nu, nup, g), exact_denominator_bound(P, nu, (0, 1), g)
    assert res.log_delta_n[:2].tolist() == whole_d.log_delta_n[:2].tolist()
    assert res.log_rhs_n[:2].tolist() == whole_d.log_rhs_n[:2].tolist()
    assert np.all(res.log_delta_n[2:] == -np.inf) and np.all(res.log_rhs_n[2:] == -np.inf)
    assert pairs[0].tolist() == whole_b[0].tolist() and np.all(pairs[1:] == -np.inf)
    # a zero row of a sub-stochastic P: the forward from that state alone vanishes at step 1
    Q, start = P.copy(), np.array([0.0, 0.0, 1.0])
    Q[2] = 0.0
    g = random_g_seq(0, 5, 3)
    res = exact_delta(Q, (0, 1), nu, start, g)
    assert np.isfinite(res.log_delta_n[0]) and np.all(res.log_delta_n[1:] == -np.inf)
    assert np.all(res.log_rhs_n[1:] == -np.inf)
    assert np.all(exact_denominator_bound(Q, start, (0, 1), g) == -np.inf)
    assert np.all(np.isfinite(exact_denominator_bound(Q, nu, (0, 1), g)))


def test_supermartingale_check_refusals(model3):
    # on a finite model the oracle takes one F_k per step: N is len(F_seq)
    V, W = np.ones(3), np.zeros(3)
    with pytest.raises(ValueError, match="F_seq must be N >= 1 finite vectors"):
        exact_moment_bound(model3.transition, V, W, 0.0, [np.zeros(2)] * 3, x0=0)
    assert len(exact_moment_bound(model3.transition, V, W, 0.0, [np.zeros(3)] * 2, x0=0)) == 2
    lgssm = LGSSM(0.9, 1.0, 1.0)
    V_c = lambda x: np.exp(0.5 * np.abs(x))
    W_c = lambda x: np.full_like(np.asarray(x, float), 0.1)
    with pytest.raises(ValueError, match="need one F_k per step"):
        supermartingale_check(lgssm, V_c, W_c, 5.0, [W_c] * 2, 3, x0=0.0)
    # log(V^-1 Q V) = log E exp(c |0.9 x + Z|) - c |x| is above -W + b = -0.1 at x = 0
    with pytest.raises(DriftPreconditionError, match="fails on the test grid"):
        supermartingale_check(lgssm, V_c, W_c, 0.0, [W_c] * 3, 3, x0=0.0)


@pytest.mark.parametrize("replications", [1, 0, -3])
def test_supermartingale_check_needs_two_replications(replications):
    # one replication has no standard error, none has no mean
    lgssm = LGSSM(0.9, 1.0, 1.0)
    V_c = lambda x: np.exp(0.5 * np.abs(x))
    W_c = lambda x: np.full_like(np.asarray(x, float), 0.1)
    with pytest.raises(ValueError, match=rf"^replications = {replications}: .* at least 2$"):
        supermartingale_check(lgssm, V_c, W_c, 5.0, [W_c] * 3, 3, x0=0.0,
                              replications=replications)


def test_counting_refuses_a_negative_n():
    with pytest.raises(ValueError, match=r"^n = -1 is negative$"):
        counting_inequality_check([1, 0, 1], n=-1)
    assert counting_inequality_check([1, 0, 1], n=0) == (0, 0, 0.5, True)


def _criterion_10(model):
    """Criterion 10's V, W, b and five F_k on LGSSM(.9, 1, 1)."""
    V = lambda x: np.exp(0.5 * np.abs(x))
    xs = np.linspace(*model.domain, 401)
    b = float((np.log(_folded_exp_moment(0.9 * xs, 1.0, 0.5)) - 0.5 * np.abs(xs)).max() + 0.15)
    W = lambda x: np.full_like(np.asarray(x, float), 0.1)
    F = [lambda x: 0.05 * np.clip(np.abs(np.asarray(x, float)), 0, 2.0)] * 5
    return V, W, b, F


def _qv_dense(model, v_fn, x):
    """The drift test's quadrature as one (len(x), 4001) array, with SciPy's
    log-density (which grids.norm_logpdf, the kernel's, equals bit for bit)."""
    z = np.linspace(-12.0 * model.state_sd, 12.0 * model.state_sd, 4001)
    pts = model.state_mean(np.asarray(x, float))[:, None] + z[None, :]
    dens = np.exp(norm.logpdf(z, 0.0, model.state_sd))
    return (v_fn(pts) * dens[None, :]).sum(axis=1) * (z[1] - z[0])


@pytest.mark.parametrize("points", [201, 1, 7])
@pytest.mark.parametrize("model", [LGSSM(0.9, 1.0, 1.0),
                                   NLSSM("tanh", 0.5, 1.0, 1.0, kappa=0.4),
                                   StochVolModel(0.9, 0.3, 1.0), TobitModel(0.5, 1.0, 1.0)],
                         ids=lambda m: m.kind)
def test_qv_numeric_in_blocks_equals_the_dense_quadrature(model, points):
    # 201 points are 12 full blocks of 16 and one of 9: each row is summed
    # alone either way, so the blocks give the dense array's bits
    xs = np.linspace(*model.domain, points)
    for v_fn in (lambda x: np.exp(0.5 * np.abs(x)), lambda x: 1.0 + x ** 2,
                 lambda x: np.exp(0.05 * x ** 2)):
        assert np.array_equal(_qv_numeric(model, v_fn, xs), _qv_dense(model, v_fn, xs))


def test_supermartingale_check_memory_is_flat_in_the_test_points():
    # the drift test's 201 x 4001 quadrature in one array took 18.5 MB
    model = LGSSM(0.9, 1.0, 1.0)
    V, W, b, F = _criterion_10(model)
    tracemalloc.start()
    try:
        *_, holds = supermartingale_check(model, V, W, b, F, 5, x0=0.0, replications=10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert holds and peak < 6 * 2**20


@pytest.mark.parametrize("b", [np.nan, np.inf, -np.inf])
def test_moment_checks_refuse_a_non_finite_b(model3, b):
    # NaN compared false and inf passed vacuously
    V, W, _ = _drift_inputs(model3.transition, 1)
    with pytest.raises(ValueError, match=rf"^b = {b} is not finite$"):
        exact_moment_bound(model3.transition, V, W, b, np.full((4, 3), 0.1), 0)
    lgssm = LGSSM(0.9, 1.0, 1.0)
    V_c, W_c, _, F = _criterion_10(lgssm)
    with pytest.raises(ValueError, match=rf"^b = {b} is not finite$"):
        supermartingale_check(lgssm, V_c, W_c, b, F, 5, x0=0.0, replications=100)


def test_supermartingale_check_refuses_an_x0_off_the_domain():
    model = LGSSM(0.9, 1.0, 1.0)
    V, W, b, F = _criterion_10(model)
    for x0 in (1e6, -1e6, np.nan, np.inf):
        with pytest.raises(DomainError, match=rf"^state {x0} is outside the truncation domain"):
            supermartingale_check(model, V, W, b, F, 5, x0=x0, replications=100)
    for x0 in ([0.0, 1.0], np.zeros(1)):
        with pytest.raises(DomainError, match=r"^x0 = \[.*\] is not one state$"):
            supermartingale_check(model, V, W, b, F, 5, x0=x0, replications=100)
    # a 0-d array is one state
    assert supermartingale_check(model, V, W, b, F, 5, x0=np.array(0.0), replications=100) == \
        supermartingale_check(model, V, W, b, F, 5, x0=0.0, replications=100)


def test_supermartingale_precondition_fails_on_nan():
    # a NaN in V, QV or W compares false: the precondition must fail on it
    model = LGSSM(0.9, 1.0, 1.0)
    V, W, b, F = _criterion_10(model)
    nan_w = lambda x: np.where(np.asarray(x) > 5.0, np.nan, W(x))
    nan_v = lambda x: np.where(np.asarray(x) > 5.0, np.nan, V(x))
    for v_fn, w_fn in ((V, nan_w), (nan_v, W)):
        with pytest.raises(DriftPreconditionError, match="fails on the test grid"):
            supermartingale_check(model, v_fn, w_fn, b, F, 5, x0=0.0, replications=100)
