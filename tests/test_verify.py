from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmmforget import (LGSSM, NLSSM, DriftPreconditionError, FiniteStateModel,
                       InitialDistribution, StochVolModel, certify_ld_set,
                       counting_inequality_check, exact_delta,
                       exact_denominator_bound, random_finite_model, rho,
                       run_suite, run_two_filters, simulate,
                       substream, supermartingale_check)
from hmmforget import rng
from hmmforget.verify import random_g_seq, random_probability_vector


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
    res = exact_delta(model3, (0, 1), nu, nu, g, 10)
    assert np.allclose(res.delta_n, 0.0, atol=1e-15)


def test_exact_delta_symmetric_in_initials(model3):
    nu = random_probability_vector(2, 3, 0)
    nup = random_probability_vector(2, 3, 1)
    g = random_g_seq(2, 10, 3)
    a = exact_delta(model3, (0, 1), nu, nup, g, 10)
    b = exact_delta(model3, (0, 1), nup, nu, g, 10)
    assert np.allclose(a.delta_n, b.delta_n, rtol=1e-10)


def test_exact_delta_full_target_uniform_ergodicity():
    # C = X on a strictly positive 2-state chain: every step is a joint
    # visit, so the bound is rho_X^n times the unnormalized mass product
    model = FiniteStateModel([[0.6, 0.4], [0.3, 0.7]],
                             [[0.5, 0.5], [0.5, 0.5]])
    nu = np.array([0.9, 0.1])
    nup = np.array([0.2, 0.8])
    g = random_g_seq(5, 8, 2)
    res = exact_delta(model, (0, 1), nu, nup, g, 8)
    rho_x = rho(certify_ld_set(model, (0, 1)))
    assert res.rho_c == pytest.approx(rho_x)
    gbar = [np.outer(gi, gi).ravel() for gi in g]
    mass = np.outer(nu, nup).ravel() * gbar[0]
    qbar = np.kron(model.transition, model.transition)
    for n in range(1, 9):
        mass = (mass @ qbar) * gbar[n]
        assert res.rhs_n[n] == pytest.approx(rho_x ** n * mass.sum(), rel=1e-10)


def test_exact_delta_empty_target_collapses_to_mass(model3):
    nu = random_probability_vector(3, 3, 0)
    nup = random_probability_vector(3, 3, 1)
    g = random_g_seq(3, 6, 3)
    res = exact_delta(model3, (), nu, nup, g, 6)
    gbar = [np.outer(gi, gi).ravel() for gi in g]
    mass = np.outer(nu, nup).ravel() * gbar[0]
    assert res.rhs_n[0] == pytest.approx(mass.sum())
    for n in range(1, 7):
        mass = (mass @ np.kron(model3.transition, model3.transition)) * gbar[n]
        assert res.rhs_n[n] == pytest.approx(mass.sum(), rel=1e-10)


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
    """rhs_n within 1e-13 relative, Delta_n within 1e-15 Z_n Z'_n."""
    res = exact_delta(model, C, nu, nup, g, N)
    delta, rhs, rho_c, zz = count_axis_exact_delta(model, C, nu, nup, g, N)
    assert res.rho_c == rho_c
    np.testing.assert_allclose(res.rhs_n, rhs, rtol=1e-13, atol=0)
    assert np.all(np.abs(res.delta_n - delta) <= 1e-15 * zz)


@pytest.mark.parametrize("kind", ["empty", "partial", "full"])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8, 16])
def test_exact_delta_matches_the_count_axis_dp(m, kind):
    model = random_finite_model(m, m=m)
    nu = random_probability_vector(m, m, 0)
    nup = random_probability_vector(m, m, 1)
    C = {"empty": (), "partial": tuple(range(0, m, 2)), "full": tuple(range(m))}[kind]
    assert_matches_count_axis(model, C, nu, nup, random_g_seq(m, 25, m), 25)


def test_exact_delta_size_guards(model3):
    with pytest.raises(ValueError, match="N <= 25"):
        exact_delta(model3, (0, 1), np.ones(3) / 3, np.ones(3) / 3,
                    random_g_seq(0, 30, 3), 30)
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
    model = FiniteStateModel(np.array(P, dtype=float), np.ones((3, 2)) / 2)
    C = (0, 2)
    res = exact_delta(model, C, np.array(nu, dtype=float), np.array(nup, dtype=float),
                      np.array(g_seq, dtype=float), 25)
    for n, (delta, rhs, zz) in enumerate(fraction_exact_delta(P, C, nu, nup, g_seq,
                                                               F(res.rho_c))):
        assert abs(F(res.delta_n[n]) - delta) <= F(1e-15) * zz, n
        assert abs(F(res.rhs_n[n]) - rhs) <= F(1e-14) * rhs, n


def test_exact_delta_matches_normalized_filter_gap(model3):
    # half-L1 of the normalized filters equals Delta_n / (unnormalized mass)
    model = model3
    nu = random_probability_vector(4, 3, 0)
    nup = random_probability_vector(4, 3, 1)
    obs = simulate(model, 8, InitialDistribution.finite(nu), seed=4).obs
    g = np.exp(model.log_likelihood(model.support(None)[None, :], obs[:, None]))
    res = exact_delta(model, (0, 1), nu, nup, g, 8)
    recs = run_two_filters(model, None, InitialDistribution.finite(nu),
                           InitialDistribution.finite(nup), obs)
    for n, tv, za, zb in recs:
        denom = np.exp(za + zb)
        assert tv == pytest.approx(res.delta_n[n] / denom, rel=1e-8)


def test_denominator_bound_trivial_cases():
    model = FiniteStateModel([[0.5, 0.5], [0.5, 0.5]],
                             [[0.5, 0.5], [0.5, 0.5]])
    nu = np.array([0.3, 0.7])
    g = np.ones((6, 2))
    pairs = exact_denominator_bound(model, nu, (0, 1), g, 5)
    # g == 1, C = X, doubly stochastic: lhs = 1, rhs = (eps-)^{n-1} <= 1
    assert np.allclose(pairs[:, 0], 1.0)
    assert np.all(pairs[:, 1] <= 1.0 + 1e-12)
    assert np.all(pairs[:, 0] >= pairs[:, 1] - 1e-12)


def test_denominator_bound_n1_reduces_to_restriction():
    model = random_finite_model(6)
    nu = random_probability_vector(6, 3, 0)
    g = random_g_seq(6, 1, 3)
    pairs = exact_denominator_bound(model, nu, (0, 1), g, 1)
    idx = [0, 1]
    g1c = np.zeros(3)
    g1c[idx] = g[1][idx]
    overlap = (nu * g[0]) @ (model.transition @ g1c)
    assert pairs[0, 1] == pytest.approx(overlap, rel=1e-12)
    assert pairs[0, 0] >= pairs[0, 1]


def test_supermartingale_finite_exact():
    model = random_finite_model(7)
    V = np.array([1.0, 2.0, 1.5])
    slack = np.log((model.transition @ V) / V)
    b = float(slack.max() + 0.3)
    W = b - slack - 0.1
    F = [np.array([0.05, 0.1, 0.02])] * 6
    lhs, rhs, holds = supermartingale_check(model, V, W, b, F, 6, x0=1)
    assert holds and lhs <= rhs


def test_supermartingale_zero_f_trivial():
    model = random_finite_model(8)
    V = np.ones(3)
    W = np.full(3, 0.1)
    F = [np.zeros(3)] * 4
    lhs, rhs, holds = supermartingale_check(model, V, W, 0.2, F, 4, x0=0)
    assert lhs == pytest.approx(1.0)
    assert holds


def test_supermartingale_precondition_error():
    model = random_finite_model(9)
    V = np.ones(3)
    W = np.full(3, 5.0)  # demands far more contraction than V = 1 offers
    with pytest.raises(DriftPreconditionError):
        supermartingale_check(model, V, W, 0.0, [np.zeros(3)], 1, x0=0)


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
    nu = np.ones(3) / 3
    g = random_g_seq(0, 5, 3)
    with pytest.raises(ValueError, match=r"g_seq must have shape \(6, 3\)"):
        exact_delta(model3, (0, 1), nu, nu, np.ones((5, 3)), 5)
    with pytest.raises(ValueError, match="likelihood vectors must be nonnegative"):
        exact_delta(model3, (0, 1), nu, nu, -np.ones((6, 3)), 5)
    # malformed initial laws, named: a length-1 law would broadcast
    law = r"must be a finite nonnegative vector of shape \(3,\)"
    with pytest.raises(ValueError, match=r"^nu " + law):
        exact_delta(model3, (0, 1), [1.0], nu, g, 5)
    with pytest.raises(ValueError, match=r"^nu " + law):
        exact_delta(model3, (0, 1), [-1.0, 1.0, 1.0], nu, g, 5)
    with pytest.raises(ValueError, match=r"^nu_prime " + law):
        exact_delta(model3, (0, 1), nu, [0.5, np.nan, 0.5], g, 5)
    with pytest.raises(ValueError, match=r"^nu " + law):
        exact_denominator_bound(model3, [1.0], (0, 1), g, 5)
    with pytest.raises(ValueError, match=r"^nu " + law):
        exact_denominator_bound(model3, [0.5, -0.5, 1.0], (0, 1), g, 5)
    with pytest.raises(ValueError, match=r"^nu " + law):
        exact_denominator_bound(model3, [np.inf, 0.0, 0.0], (0, 1), g, 5)
    # no limit on the states: a 16-state chain runs, and its lhs is the
    # forward mass, whose square the count-axis DP gives with C empty
    big = random_finite_model(0, m=16)
    nu16, g16 = random_probability_vector(0, 16), random_g_seq(0, 5, 16)
    pairs = exact_denominator_bound(big, nu16, (0, 1), g16, 5)
    _, mass2, _, _ = count_axis_exact_delta(big, (), nu16, nu16, g16, 5)
    np.testing.assert_allclose(pairs[:, 0] ** 2, mass2[1:], rtol=1e-13)
    assert np.all(pairs[:, 0] >= pairs[:, 1])
    with pytest.raises(ValueError, match="N <= 25"):
        exact_denominator_bound(model3, nu, (0, 1), random_g_seq(0, 30, 3), 30)
    with pytest.raises(ValueError, match=r"stated for n >= 1"):
        exact_denominator_bound(model3, nu, (0, 1), random_g_seq(0, 0, 3), 0)


def test_supermartingale_check_refusals(model3):
    # one F_k per step, checked before either branch
    V, W = np.ones(3), np.zeros(3)
    with pytest.raises(ValueError, match="need one F_k per step"):
        supermartingale_check(model3, V, W, 0.0, [np.zeros(3)] * 2, 3, x0=0)
    lgssm = LGSSM(0.9, 1.0, 1.0)
    V_c = lambda x: np.exp(0.5 * np.abs(x))
    W_c = lambda x: np.full_like(np.asarray(x, float), 0.1)
    with pytest.raises(ValueError, match="need one F_k per step"):
        supermartingale_check(lgssm, V_c, W_c, 5.0, [W_c] * 2, 3, x0=0.0)
    # log(V^-1 Q V) = log E exp(c |0.9 x + Z|) - c |x| is above -W + b = -0.1 at x = 0
    with pytest.raises(DriftPreconditionError, match="fails on the test grid"):
        supermartingale_check(lgssm, V_c, W_c, 0.0, [W_c] * 3, 3, x0=0.0)
