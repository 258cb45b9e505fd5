"""Exact and Monte Carlo verification of the coupling inequalities.

On finite-state models both sides of every inequality are computable
exactly: the numerator gap Delta_n (from the chain's own forwards from the
two initial laws) and its pair-chain bound (one (m, m) pair matrix per
step), both in O(N m^3) time and O(m^2) memory, the denominator lower
bound, the counting inequality on binary sequences, and the
supermartingale exponential bound.  These exact checks are the package's
ground-truth oracles; the continuous-state Monte Carlo variant of the
exponential bound is checked within a CLT band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import certify_ld_set, rho
from .models import FiniteStateModel
from .rng import normal_rows, substream

# the exact oracles' outputs are linear, not logs: Delta_n and rhs_n scale
# with Z_n Z'_n, a product of 2(N + 1) likelihood factors that leaves the
# floating-point range as N grows, so the horizon is capped
MAX_HORIZON = 25
DRIFT_TEST_M = 201  # test points of the drift precondition on continuous models
SUITES = ("numerator", "denominator", "counting", "exponential")  # the names run_suite takes


@dataclass
class ExactDeltaResult:
    """Exact numerator gap and its coupling bound, per horizon."""

    delta_n: np.ndarray
    rhs_n: np.ndarray
    rho_c: float


def _check_inputs(m, g_seq, N, **laws):
    """g_seq as an (N + 1, m) array and each initial law as an (m,) array,
    refused with a ValueError that names what is malformed."""
    if N > MAX_HORIZON:
        raise ValueError(f"horizon limited to N <= {MAX_HORIZON}")
    g_seq = np.asarray(g_seq, dtype=float)
    if g_seq.shape != (N + 1, m):
        raise ValueError(f"g_seq must have shape ({N + 1}, {m})")
    if np.any(g_seq < 0):
        raise ValueError("likelihood vectors must be nonnegative")
    out = [g_seq]
    for name, law in laws.items():
        law = np.asarray(law, dtype=float)
        if law.shape != (m,) or not np.all(np.isfinite(law)) or np.any(law < 0):
            raise ValueError(f"{name} must be a finite nonnegative vector of shape ({m},)")
        out.append(law)
    return out


def _forward(P, nu, g_seq):
    """The unnormalized forward u_n = (u_{n-1} P) * g_n from u_0 = nu * g_0,
    one row per n = 0..len(g_seq) - 1."""
    u = np.empty_like(g_seq)
    u[0] = nu * g_seq[0]
    for n in range(1, len(g_seq)):
        u[n] = (u[n - 1] @ P) * g_seq[n]
    return u


def exact_delta(model: FiniteStateModel, C, nu, nu_prime, g_seq, N: int) -> ExactDeltaResult:
    """Exact Delta_n versus the pair-chain bound, n = 0..N, for two
    independent copies of the chain with the joint target set C x C (C a
    state subset, possibly empty).

    Delta_n is the supremum over state subsets of the difference between
    the pair chain's forwards from nu x nu' and from nu' x nu.  These are
    u_n x u'_n and u'_n x u_n, with u_n and u'_n the chain's own forwards
    from nu and nu', so Delta_n is the positive part of u_n Z'_n - u'_n Z_n
    (Z_n the total mass of u_n).  The right-hand side rhs_n is the sum of
    the (m, m) pair matrix M_n: M_0 = u_0 x u'_0 and
        M_n = [P^T (M 1_rest) P + P^T (M 1_CC) P (rho_C 1_CC + 1_rest)] (g_n x g_n),
    products taken entrywise where not matrix products, so that a move
    gains the factor rho_C when it goes from C x C back into C x C.  It
    takes O(m^2) memory and O(N m^3) time.
    """
    m = model.m
    g_seq, nu, nu_prime = _check_inputs(m, g_seq, N, nu=nu, nu_prime=nu_prime)
    rho_c = rho(certify_ld_set(model, C)) if len(C) else 0.0
    P = model.transition
    in_c = np.isin(np.arange(m), list(C))
    in_cc = np.outer(in_c, in_c)
    gain = np.where(in_cc, rho_c, 1.0)

    u, u2 = _forward(P, nu, g_seq), _forward(P, nu_prime, g_seq)
    z, z2 = u.sum(axis=1, keepdims=True), u2.sum(axis=1, keepdims=True)
    diff = u * z2 - u2 * z
    delta = np.maximum(diff, 0.0).sum(axis=1)

    M = np.outer(u[0], u2[0])
    rhs = [M.sum()]
    for g in g_seq[1:]:
        M = (P.T @ np.where(in_cc, 0.0, M) @ P
             + (P.T @ np.where(in_cc, M, 0.0) @ P) * gain) * np.outer(g, g)
        rhs.append(M.sum())
    return ExactDeltaResult(delta_n=delta, rhs_n=np.array(rhs), rho_c=rho_c)


def exact_denominator_bound(model: FiniteStateModel, nu, C, g_seq, N: int):
    """Forward-recursion mass versus the Doeblin lower bound, n = 1..N.

    Returns an (N, 2) array of (lhs, rhs) pairs where lhs is
    E_nu[prod_{i<=n} g_i(X_i)] and rhs the certified lower bound built from
    eps-, the two-step overlap through C, and the averaged likelihoods.
    """
    g_seq, nu = _check_inputs(model.m, g_seq, N, nu=nu)
    if N < 1:
        raise ValueError("the lower bound is stated for n >= 1")
    ld = certify_ld_set(model, C)
    idx = np.asarray(ld.states)
    P = model.transition

    g1_on_c = g_seq[1] * np.isin(np.arange(model.m), idx)
    overlap = float((nu * g_seq[0]) @ (P @ g1_on_c))  # nu(g0 Q g1 1_C)
    lhs = _forward(P, nu, g_seq)[1:].sum(axis=1)
    # log rhs_n = (n - 1) log eps- + log overlap + sum_{2<=i<=n} log lambda_C(g_i)
    log_lam = np.cumsum(np.r_[0.0, np.log(g_seq[2:, idx].mean(axis=1))])
    rhs = np.exp(np.arange(N) * np.log(ld.eps_minus) + np.log(overlap) + log_lam)
    return np.column_stack([lhs, rhs])


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
