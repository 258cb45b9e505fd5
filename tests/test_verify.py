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


def test_exact_delta_size_guards(model3):
    with pytest.raises(ValueError, match="N <= 25"):
        exact_delta(model3, (0, 1), np.ones(3) / 3, np.ones(3) / 3,
                    random_g_seq(0, 30, 3), 30)
    big = random_finite_model(0, m=9)
    with pytest.raises(ValueError, match="m <= 8 states"):
        exact_delta(big, (0, 1), np.ones(9) / 9, np.ones(9) / 9, random_g_seq(0, 5, 9), 5)


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
    with pytest.raises(ValueError, match=r"g_seq must have shape \(6, 3\)"):
        exact_delta(model3, (0, 1), nu, nu, np.ones((5, 3)), 5)
    with pytest.raises(ValueError, match="likelihood vectors must be nonnegative"):
        exact_delta(model3, (0, 1), nu, nu, -np.ones((6, 3)), 5)
    big = random_finite_model(0, m=9)
    with pytest.raises(ValueError, match="limited to small models and horizons"):
        exact_denominator_bound(big, np.ones(9) / 9, (0, 1), random_g_seq(0, 5, 9), 5)
    with pytest.raises(ValueError, match="limited to small models and horizons"):
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
