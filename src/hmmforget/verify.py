"""Exact and Monte Carlo verification of the coupling inequalities.

On small finite-state models both sides of every inequality are computable
exactly: the pair-chain numerator bound (with the joint-visit counter), the
denominator lower bound, the counting inequality on binary sequences, and
the supermartingale exponential bound.  These exact checks are the
package's ground-truth oracles; the continuous-state Monte Carlo variant
of the exponential bound is checked within a CLT band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import certify_ld_set, rho
from .models import FiniteStateModel
from .rng import normal_rows, substream

MAX_STATES = 8
MAX_HORIZON = 25
DRIFT_TEST_M = 201  # test points of the drift precondition on continuous models
SUITES = ("numerator", "denominator", "counting", "exponential")  # the names run_suite takes


@dataclass
class ExactDeltaResult:
    """Exact numerator gap and its coupling bound, per horizon."""

    delta_n: np.ndarray
    rhs_n: np.ndarray
    rho_c: float


def _check_g_seq(g_seq, m, N):
    g_seq = np.asarray(g_seq, dtype=float)
    if g_seq.shape != (N + 1, m):
        raise ValueError(f"g_seq must have shape ({N + 1}, {m})")
    if np.any(g_seq < 0):
        raise ValueError("likelihood vectors must be nonnegative")
    return g_seq


def exact_delta(model: FiniteStateModel, C, nu, nu_prime, g_seq, N: int) -> ExactDeltaResult:
    """Exact Delta_n versus the pair-chain bound, n = 0..N, for two
    independent copies of the chain with the joint target set C x C (C a
    state subset, possibly empty).

    Delta_n is the supremum over state subsets of the difference between
    the two tensor forward recursions started from nu x nu' and nu' x nu;
    since their total masses coincide by symmetry it equals the positive
    part of the signed first-coordinate marginal.  The right-hand side is
    a dynamic program over (pair state, joint visit count).
    """
    m = model.m
    if m > MAX_STATES:
        raise ValueError(f"pair-chain verification is limited to m <= {MAX_STATES} states")
    if N > MAX_HORIZON:
        raise ValueError(f"horizon limited to N <= {MAX_HORIZON}")
    g_seq = _check_g_seq(g_seq, m, N)
    nu = np.asarray(nu, dtype=float)
    nu_prime = np.asarray(nu_prime, dtype=float)
    rho_c = rho(certify_ld_set(model, C)) if len(C) else 0.0
    # Qbar[(x, x'), (z, z')] = P(x, z) P(x', z'), and C x C over the pair index
    qbar = np.kron(model.transition, model.transition)
    in_c = np.zeros(m, dtype=bool)
    in_c[list(C)] = True
    in_cc = (in_c[:, None] & in_c[None, :]).ravel()

    gbar = [np.outer(g, g).ravel() for g in g_seq]
    fwd = np.outer(nu, nu_prime).ravel() * gbar[0]
    rev = np.outer(nu_prime, nu).ravel() * gbar[0]
    # count DP: mass[z, k] with k joint visits of consecutive pairs so far
    mass = np.zeros((m * m, N + 1))
    mass[:, 0] = fwd

    delta = np.zeros(N + 1)
    rhs = np.zeros(N + 1)

    powers = rho_c ** np.arange(N + 1)
    out_cc = ~in_cc
    from_in, from_out = qbar[in_cc].T, qbar[out_cc].T

    def record(n, fwd, rev, mass):
        diff = fwd.reshape(m, m).sum(axis=1) - rev.reshape(m, m).sum(axis=1)
        assert abs(diff.sum()) <= 1e-8 * max(fwd.sum(), 1e-300)
        delta[n] = diff[diff > 0].sum()
        rhs[n] = float(mass.sum(axis=0) @ powers)

    record(0, fwd, rev, mass)
    for i in range(1, N + 1):
        fwd = (fwd @ qbar) * gbar[i]
        rev = (rev @ qbar) * gbar[i]
        to_from_in = (from_in @ mass[in_cc]) * gbar[i][:, None]
        to_from_out = (from_out @ mass[out_cc]) * gbar[i][:, None]
        new = to_from_out.copy()            # source outside C x C: count unchanged
        new[out_cc] += to_from_in[out_cc]   # in -> out: count unchanged
        new[in_cc, 1:] += to_from_in[in_cc, :-1]  # in -> in: one more joint visit
        mass = new
        record(i, fwd, rev, mass)
    return ExactDeltaResult(delta_n=delta, rhs_n=rhs, rho_c=rho_c)


def exact_denominator_bound(model: FiniteStateModel, nu, C, g_seq, N: int):
    """Forward-recursion mass versus the Doeblin lower bound, n = 1..N.

    Returns an (N, 2) array of (lhs, rhs) pairs where lhs is
    E_nu[prod_{i<=n} g_i(X_i)] and rhs the certified lower bound built from
    eps-, the two-step overlap through C, and the averaged likelihoods.
    """
    if model.m > MAX_STATES or N > MAX_HORIZON:
        raise ValueError("exact verification limited to small models and horizons")
    if N < 1:
        raise ValueError("the lower bound is stated for n >= 1")
    g_seq = _check_g_seq(g_seq, model.m, N)
    nu = np.asarray(nu, dtype=float)
    ld = certify_ld_set(model, C)
    idx = np.asarray(ld.states)
    P = model.transition

    u = nu * g_seq[0]
    g1_on_c = np.zeros(model.m)
    g1_on_c[idx] = g_seq[1][idx]
    overlap = float((nu * g_seq[0]) @ (P @ g1_on_c))  # nu(g0 Q g1 1_C)
    out = np.zeros((N, 2))
    log_lam = 0.0
    for n in range(1, N + 1):
        u = (u @ P) * g_seq[n]
        if n >= 2:
            log_lam += np.log(np.mean(g_seq[n][idx]))
        lhs = float(u.sum())
        rhs = float((n - 1) * np.log(ld.eps_minus) + np.log(overlap) + log_lam)
        out[n - 1] = (lhs, np.exp(rhs))
    return out


def counting_inequality_check(bits, n: int | None = None):
    """Check M_n <= (n + 1)/2 + N_n/2 on a binary sequence.

    ``bits`` is x_0, x_1, ...; positions beyond the sequence are zero.
    M_n counts ones among x_0..x_{n-1}, N_n counts adjacent pairs of ones.
    Returns (M_n, N_n, bound, holds).
    """
    x = np.asarray(bits, dtype=int)
    if np.any((x != 0) & (x != 1)):
        raise ValueError("sequence must be binary")
    if n is None:
        n = len(x)
    padded = np.zeros(n + 1, dtype=int)
    padded[:min(len(x), n + 1)] = x[:n + 1]
    m_n, n_n = (int(c) for c in _counts(padded, n))
    bound = (n + 1) / 2.0 + n_n / 2.0
    return m_n, n_n, bound, m_n <= bound


def _counts(padded, n):
    """M_n and N_n along the last axis of 0/1 sequences of length n + 1."""
    return padded[..., :n].sum(axis=-1), (padded[..., :n] & padded[..., 1:]).sum(axis=-1)


def _qv_numeric(model, v_fn, x):
    """QV(x) for an arbitrary positive function V, by quadrature."""
    half_width = 12.0 * model.state_sd
    x = np.atleast_1d(np.asarray(x, dtype=float))
    mu = model.state_mean(x)
    z = np.linspace(-half_width, half_width, 4001)
    dz = z[1] - z[0]
    pts = mu[:, None] + z[None, :]
    dens = np.exp(-0.5 * (z / model.state_sd) ** 2) / (np.sqrt(2 * np.pi) * model.state_sd)
    return (v_fn(pts) * dens[None, :]).sum(axis=1) * dz


class DriftPreconditionError(RuntimeError):
    """log(V^{-1} Q V) <= -W + b fails on the test grid."""


def supermartingale_check(model, V, W, b, F_seq, n, x0, replications=10_000, seed=0):
    """Verify E_x[exp sum_k |F_k(X_k)|] <= V(x) exp(b n + sum_k sup(|F_k| - W)).

    On finite-state models (V, W, F_k given as state vectors) the left side
    is computed exactly by dynamic programming and ``replications`` is
    ignored.  On continuous models (callables) it is a Monte Carlo
    estimate, with each F_k applied elementwise to an array of states; the
    check passes when the estimate plus three standard errors stays below
    the analytic right side.

    The multiplicative drift precondition log(V^{-1} Q V) <= -W + b is
    asserted on the test grid before anything else.
    """
    if len(F_seq) != n:
        raise ValueError("need one F_k per step k = 0..n-1")
    if isinstance(model, FiniteStateModel):
        V = np.asarray(V, dtype=float)
        W = np.asarray(W, dtype=float)
        F = [np.asarray(f, dtype=float) for f in F_seq]
        drift_gap = np.log((model.transition @ V) / V) + W - b
        if np.any(drift_gap > 1e-12):
            raise DriftPreconditionError("multiplicative drift condition fails on the state set")
        u = np.zeros(model.m)
        u[int(x0)] = 1.0
        for k in range(n):
            u = (u * np.exp(np.abs(F[k]))) @ model.transition
        lhs = float(u.sum())
        se = 0.0
        sup_terms = sum(float(np.max(np.abs(f) - W)) for f in F)
        rhs = float(V[int(x0)] * np.exp(b * n + sup_terms))
        return lhs, rhs, lhs <= rhs

    xs = np.linspace(model.domain[0], model.domain[1], DRIFT_TEST_M)
    drift_gap = np.log(_qv_numeric(model, V, xs) / V(xs)) + W(xs) - b
    if np.any(drift_gap > 1e-9):
        raise DriftPreconditionError("multiplicative drift condition fails on the test grid")
    sup_terms = sum(float(np.max(np.abs(f(xs)) - W(xs))) for f in F_seq)
    rhs = float(V(np.array([x0]))[0] * np.exp(b * n + sup_terms))

    # replication r draws its n normals from stream (seed, r), as n scalar
    # calls would; all are taken in one record pass (``rng.normal_rows``),
    # and the replications step together, so each F_k is called once on all
    z = normal_rows(seed, n=replications, k=n)
    x = np.full(replications, float(x0))
    acc = np.zeros(replications)
    for k in range(n):
        acc += np.abs(F_seq[k](x))
        x = model.state_mean(x) + model.state_sd * z[:, k]
    totals = np.exp(acc)
    mc = float(totals.mean())
    se = float(totals.std(ddof=1) / np.sqrt(replications))
    return mc, rhs, mc + 3 * se <= rhs


# ---------------------------------------------------------------------------
# Randomized verification corpus


def random_finite_model(seed, m=3, n_symbols=4) -> FiniteStateModel:
    """Dirichlet(1,..,1) transition rows, log-normal emission weights."""
    rng = substream(seed, 777)
    P = rng.dirichlet(np.ones(m), size=m)
    E = np.exp(rng.standard_normal((m, n_symbols)))
    E /= E.sum(axis=1, keepdims=True)
    return FiniteStateModel(P, E)


def random_probability_vector(seed, m, tag=0) -> np.ndarray:
    rng = substream(seed, 778, tag)
    return rng.dirichlet(np.ones(m))


def random_g_seq(seed, n, m) -> np.ndarray:
    rng = substream(seed, 779)
    return np.exp(rng.standard_normal((n + 1, m)))


def run_suite(name, seeds=range(50), horizon=20):
    """Run the verification suite ``name``, one of SUITES; returns a list of
    per-case records.  ``seeds`` and ``horizon`` apply to numerator and
    denominator only: counting is exhaustive at n = 12, and exponential runs
    20 fixed cases."""
    cases = []
    if name == "numerator":
        for s in seeds:
            model = random_finite_model(s)
            nu = random_probability_vector(s, model.m, 0)
            nu2 = random_probability_vector(s, model.m, 1)
            g_seq = random_g_seq(s, horizon, model.m)
            res = exact_delta(model, (0, 1), nu, nu2, g_seq, horizon)
            margin = float(np.min(res.rhs_n - res.delta_n))
            cases.append({"suite": name, "case": s, "metric": margin,
                          "holds": bool(np.all(res.delta_n <= res.rhs_n * (1 + 1e-12) + 1e-300))})
    elif name == "denominator":
        for s in seeds:
            model = random_finite_model(s)
            nu = random_probability_vector(s, model.m, 0)
            g_seq = random_g_seq(s, horizon, model.m)
            pairs = exact_denominator_bound(model, nu, (0, 1), g_seq, horizon)
            margin = float(np.min(pairs[:, 0] - pairs[:, 1]))
            cases.append({"suite": name, "case": s, "metric": margin,
                          "holds": bool(np.all(pairs[:, 0] >= pairs[:, 1] * (1 - 1e-12)))})
    elif name == "counting":
        # every binary sequence of the length at once, each code's bits
        # 0..length, the last one zero as the padding
        length = 12
        bits = np.arange(2 ** length)[:, None] >> np.arange(length + 1) & 1
        m_n, n_n = _counts(bits, length)
        bound = (length + 1) / 2.0 + n_n / 2.0
        cases.append({"suite": name, "case": f"exhaustive-n{length}",
                      "metric": float(np.min(bound - m_n)), "holds": bool(np.all(m_n <= bound))})
    elif name == "exponential":
        for s in range(20):
            model = random_finite_model(s)
            rng = substream(s, 780)
            V = 1.0 + rng.random(model.m) * 3.0
            slack = np.log((model.transition @ V) / V)
            b = float(slack.max() + 0.5)
            W = b - slack - 0.25  # leaves log(V^-1 Q V) = -W + b - 0.25 < -W + b
            F = [rng.random(model.m) * W for _ in range(10)]
            lhs, rhs, holds = supermartingale_check(model, V, W, b, F, 10, x0=0)
            cases.append({"suite": name, "case": s, "metric": rhs - lhs, "holds": bool(holds)})
    else:
        raise ValueError(f"unknown suite {name!r}")
    return cases
