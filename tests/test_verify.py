import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmmforget import (DriftPreconditionError, FiniteStateModel,
                       InitialDistribution, PairChainSpec, certify_ld_set,
                       counting_inequality_check, exact_delta,
                       exact_denominator_bound, random_finite_model, rho,
                       run_suite, run_two_filters, simulate,
                       supermartingale_check)
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
def spec3():
    model = random_finite_model(1)
    return PairChainSpec(model, C=(0, 1))


def test_exact_delta_zero_for_equal_initials(spec3):
    nu = random_probability_vector(1, 3, 0)
    g = random_g_seq(1, 10, 3)
    res = exact_delta(spec3, nu, nu, g, 10)
    assert np.allclose(res.delta_n, 0.0, atol=1e-15)


def test_exact_delta_symmetric_in_initials(spec3):
    nu = random_probability_vector(2, 3, 0)
    nup = random_probability_vector(2, 3, 1)
    g = random_g_seq(2, 10, 3)
    a = exact_delta(spec3, nu, nup, g, 10)
    b = exact_delta(spec3, nup, nu, g, 10)
    assert np.allclose(a.delta_n, b.delta_n, rtol=1e-10)


def test_exact_delta_full_target_uniform_ergodicity():
    # C = X on a strictly positive 2-state chain: every step is a joint
    # visit, so the bound is rho_X^n times the unnormalized mass product
    model = FiniteStateModel([[0.6, 0.4], [0.3, 0.7]],
                             [[0.5, 0.5], [0.5, 0.5]])
    spec = PairChainSpec(model, C=(0, 1))
    nu = np.array([0.9, 0.1])
    nup = np.array([0.2, 0.8])
    g = random_g_seq(5, 8, 2)
    res = exact_delta(spec, nu, nup, g, 8)
    rho_x = rho(certify_ld_set(model, (0, 1)))
    assert res.rho_c == pytest.approx(rho_x)
    gbar = [np.outer(gi, gi).ravel() for gi in g]
    mass = np.outer(nu, nup).ravel() * gbar[0]
    qbar = spec.product_kernel
    for n in range(1, 9):
        mass = (mass @ qbar) * gbar[n]
        assert res.rhs_n[n] == pytest.approx(rho_x ** n * mass.sum(), rel=1e-10)
    # the counter support is concentrated on the maximal count
    assert res.n_counter_support[-1] == pytest.approx(1.0)


def test_exact_delta_empty_target_collapses_to_mass(spec3):
    model = spec3.model
    spec = PairChainSpec(model, C=())
    nu = random_probability_vector(3, 3, 0)
    nup = random_probability_vector(3, 3, 1)
    g = random_g_seq(3, 6, 3)
    res = exact_delta(spec, nu, nup, g, 6)
    gbar = [np.outer(gi, gi).ravel() for gi in g]
    mass = np.outer(nu, nup).ravel() * gbar[0]
    assert res.rhs_n[0] == pytest.approx(mass.sum())
    for n in range(1, 7):
        mass = (mass @ spec.product_kernel) * gbar[n]
        assert res.rhs_n[n] == pytest.approx(mass.sum(), rel=1e-10)


def test_exact_delta_size_guards(spec3):
    with pytest.raises(ValueError):
        exact_delta(spec3, np.ones(3) / 3, np.ones(3) / 3,
                    random_g_seq(0, 30, 3), 30)


def test_exact_delta_matches_normalized_filter_gap(spec3):
    # half-L1 of the normalized filters equals Delta_n / (unnormalized mass)
    model = spec3.model
    nu = random_probability_vector(4, 3, 0)
    nup = random_probability_vector(4, 3, 1)
    obs = simulate(model, 8, InitialDistribution.finite(nu), seed=4).obs
    g = np.stack([model.likelihood(model.support(None), y) for y in obs])
    res = exact_delta(spec3, nu, nup, g, 8)
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


@pytest.mark.parametrize("suite", ["numerator", "denominator", "counting", "exponential"])
def test_run_suite_all_hold(suite):
    kwargs = {"seeds": range(10)} if suite in ("numerator", "denominator") else {}
    records = run_suite(suite, **kwargs)
    assert records and all(r["holds"] for r in records)


def test_run_suite_unknown():
    with pytest.raises(ValueError):
        run_suite("nope")
