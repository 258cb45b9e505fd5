"""Exact and Monte Carlo verification of the coupling inequalities.

The exact oracles take a transition matrix P (rows may sum to less than 1,
as a grid kernel's do) and C as state indices, and return logs at any N:
Delta_n, from the two filters' difference carried as such (a subtraction
keeps it only to 1e-16 of the forward mass), against its pair-chain bound
in O(N m^3) time and O(m^2) memory, the forward mass against the Doeblin
lower bound and an exponential moment against its drift bound.  Also: the
counting inequality, and that moment by Monte Carlo on continuous models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import _SUP_BLOCK, _blocks, _certify_states, rho
from .models import DomainError, FiniteStateModel, _check_index
from .rng import normal_rows, substream

DRIFT_TEST_M = 201  # test points of the drift precondition on continuous models
SUITES = ("numerator", "denominator", "counting", "exponential")  # the names run_suite takes


@dataclass
class ExactDeltaResult:
    """log Delta_n and the log of its coupling bound rhs_n, per horizon."""

    log_delta_n: np.ndarray
    log_rhs_n: np.ndarray
    rho_c: float


def _check_matrix(P):
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1] or not np.all((P >= 0) & (P < np.inf)):
        raise ValueError("P must be a finite nonnegative square matrix")
    return P


def _check_inputs(P, g_seq, **laws):
    """P, g_seq and each initial law as float arrays of shapes (m, m), (N + 1, m)
    and (m,), all finite and nonnegative, else a ValueError naming the culprit."""
    P = _check_matrix(P)
    m = len(P)
    g_seq = np.asarray(g_seq, dtype=float)
    if g_seq.ndim != 2 or g_seq.shape[1] != m or not len(g_seq):
        raise ValueError(f"g_seq must have shape (N + 1, {m}), N >= 0")
    bad = ~((g_seq >= 0) & (g_seq < np.inf))  # NaN fails both tests
    if bad.any():
        n, j = np.argwhere(bad)[0]
        raise ValueError(f"g_seq[{n}, {j}] = {g_seq[n, j]} is not a finite nonnegative likelihood")
    out = [P, g_seq]
    for name, law in laws.items():
        law = np.asarray(law, dtype=float)
        if law.shape != (m,) or not np.all((law >= 0) & (law < np.inf)):
            raise ValueError(f"{name} must be a finite nonnegative vector of shape ({m},)")
        out.append(law)
    return out


def _forwards(P, g_seq, nu, nu_prime=None):
    """log Z_n, n = 0..N, of the forward u_n = (u_{n-1} P) g_n from u_{-1} = nu
    (Z_n = sum u_n, pi_n = u_n/Z_n), and with nu_prime also log Z'_n and
    log ||pi_n - pi'_n||_1: the rows of one array, all -inf from a step on
    where Z_n or Z'_n is 0 (then Delta_n = 0).

    Rows of x: pi, pi' and pi - pi' = delta e^L (||delta||_1 = 1), rescaled
    at every step (step 0: P = I, e^L delta = nu - nu').  With a, a', e the
    rows after a step, c, c', s their sums and c - c' = e^L s, pi_n - pi'_n
    = e^L (e - pi'_n s)/c: no subtraction of close laws, no lost digits."""
    x = np.array([nu] if nu_prime is None else [nu, nu_prime, nu - nu_prime])
    scale = np.empty((len(g_seq), len(x)))  # c per step, then c' and ||e - pi'_n s||_1 / c
    with np.errstate(divide="ignore", invalid="ignore"):  # 0, then NaN, past a vanished mass
        for g, row in zip(g_seq, scale):
            x *= g
            row[:] = sums = x.sum(axis=1)
            if nu_prime is not None:
                x[2] -= x[1] * (sums[2] / sums[1])
                norm = np.abs(x[2]).sum()
                row[2] = norm / sums[0]
                sums[2] = norm or 1.0  # delta stays 0 once the two forwards agree
            x = (x / sums[:, None]) @ P
        scale[np.logical_or.accumulate(~np.all(scale[:, :2] > 0, axis=1))] = 0.0  # log: -inf
        return np.cumsum(np.log(scale), axis=0).T


def exact_delta(P, C, nu, nu_prime, g_seq) -> ExactDeltaResult:
    """log Delta_n and the log of its pair-chain bound rhs_n, n = 0..N, for two
    independent copies of the chain P (rows may sum to less than 1) with the
    joint target set C x C (C a possibly empty set of state indices).

    Delta_n is the supremum over state subsets of the difference between
    the pair chain's forwards from nu x nu' and from nu' x nu: u_n x u'_n
    and u'_n x u_n, u_n and u'_n the chain's own forwards, so Delta_n =
    sum (u_n Z'_n - u'_n Z_n)_+ = Z_n Z'_n ||pi_n - pi'_n||_1 / 2, whose
    difference ``_forwards`` carries (the subtraction is exact only to about
    1e-16 Z_n Z'_n).  rhs_n is the sum of the pair matrix M_0 = u_0 x u'_0,
        M_n = [P^T (M 1_rest) P + P^T (M 1_CC) P (rho_C 1_CC + 1_rest)] (g_n x g_n),
    products entrywise where not matrix products, so that a move gains
    rho_C when it goes from C x C back into C x C; M is rescaled to sum 1 at
    every step, with the log of the sum kept.
    """
    P, g_seq, nu, nu_prime = _check_inputs(P, g_seq, nu=nu, nu_prime=nu_prime)
    ld = _certify_states(P, C) if len(C) else None
    in_c = np.zeros(len(P), dtype=bool)
    in_c[list(ld.states if ld else ())] = True
    in_cc = np.outer(in_c, in_c)
    rho_c = rho(ld) if ld else 0.0
    masks, gain = np.array([~in_cc, in_cc], dtype=float), np.where(in_cc, rho_c, 1.0)
    log_z, log_z2, log_l1 = _forwards(P, g_seq, nu, nu_prime)

    M = np.outer(nu * g_seq[0], nu_prime * g_seq[0])
    mass = [M.sum()]
    for g in g_seq[1:]:
        Pg = P * g  # P^T X P (g x g) = (P diag g)^T X (P diag g)
        R = Pg.T @ ((M / (mass[-1] or 1.0) * masks) @ Pg)  # from outside C x C, from inside
        M = R[0] + R[1] * gain
        mass.append(M.sum())
    with np.errstate(divide="ignore"):  # a pair mass of 0 stays 0: log rhs_n = -inf
        log_rhs = np.cumsum(np.log(mass))
    return ExactDeltaResult(log_z + log_z2 + log_l1 - np.log(2.0), log_rhs, rho_c)


def exact_denominator_bound(P, nu, C, g_seq):
    """(log lhs, log rhs), n = 1..N, an (N, 2) array, on the chain P (rows may
    sum to less than 1) with C state indices: lhs is the forward mass
    E_nu[prod_{i<=n} g_i(X_i)] from ``_forwards``, rhs its lower bound built
    from eps-, the two-step overlap through C and the averaged likelihoods."""
    P, g_seq, nu = _check_inputs(P, g_seq, nu=nu)
    if len(g_seq) < 2:
        raise ValueError("the lower bound is stated for n >= 1")
    ld = _certify_states(P, C)
    overlap = float((nu * g_seq[0]) @ (P[:, ld.states] @ g_seq[1, ld.states]))  # nu(g0 Q g1 1_C)
    with np.errstate(divide="ignore"):  # no overlap, or lambda_C(g_i) = 0: rhs_n = 0
        # log rhs_n = (n - 1) log eps- + log overlap + sum_{2<=i<=n} log lambda_C(g_i)
        log_lam = np.cumsum(np.r_[0.0, np.log(g_seq[2:, ld.states].mean(axis=1))])
        log_rhs = np.arange(len(g_seq) - 1) * np.log(ld.eps_minus) + np.log(overlap) + log_lam
    return np.column_stack([_forwards(P, g_seq, nu)[0][1:], log_rhs])


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
    if n < 0:
        raise ValueError(f"n = {n} is negative")
    padded = np.zeros(n + 1, dtype=int)
    padded[:min(len(x), n + 1)] = x[:n + 1]
    m_n, n_n = (int(c) for c in _counts(padded, n))
    bound = (n + 1) / 2.0 + n_n / 2.0
    return m_n, n_n, bound, m_n <= bound


def _counts(padded, n):
    """M_n and N_n along the last axis of 0/1 sequences of length n + 1."""
    return padded[..., :n].sum(axis=-1), (padded[..., :n] & padded[..., 1:]).sum(axis=-1)


def _qv_numeric(model, v_fn, x):
    """QV(x) for an arbitrary positive function V, by a 4001-node quadrature.
    The points go in blocks of _SUP_BLOCK // 4001 = 16, so memory does not
    grow with len(x); each row is summed on its own (pairwise, as NumPy sums
    a row), so a point's value does not depend on its block."""
    half_width = 12.0 * model.state_sd
    x = np.atleast_1d(np.asarray(x, dtype=float))
    mu = model.state_mean(x)
    z = np.linspace(-half_width, half_width, 4001)
    dz = z[1] - z[0]
    dens = np.exp(-0.5 * (z / model.state_sd) ** 2) / (np.sqrt(2 * np.pi) * model.state_sd)
    out = np.empty(len(x))
    for rows in _blocks(len(x), _SUP_BLOCK // len(z)):
        out[rows] = (v_fn(mu[rows, None] + z[None, :]) * dens[None, :]).sum(axis=1)
    return out * dz


class DriftPreconditionError(RuntimeError):
    """log(V^{-1} Q V) <= -W + b fails on the test grid or the state set."""


def exact_moment_bound(P, V, W, b, F_seq, x0):
    """(log lhs, log rhs), n = 1..N, an (N, 2) array, of E_x0[exp sum_{k<n}
    |F_k(X_k)|] <= V(x0) exp(b n + sum_{k<n} sup(|F_k| - W)) on the chain P
    (rows may sum to less than 1) from the state index x0, V, W and F_k given
    on P's states: lhs is the forward mass of g_k = exp|F_k| (``_forwards``).
    The drift precondition log(V^{-1} P V) <= -W + b is asserted first.  A
    non-finite b is refused (ValueError), and so is an x0 that is not one
    state index (DomainError)."""
    if not np.isfinite(b):
        raise ValueError(f"b = {b} is not finite")
    if np.ndim(x0):
        raise DomainError(f"x0 = {x0} is not one state index")
    P = _check_matrix(P)
    m = len(P)
    F, V, W = (np.asarray(a, dtype=float) for a in (np.abs(F_seq), V, W))
    if F.ndim != 2 or F.shape[1] != m or not len(F) or not np.all(np.isfinite(F)):
        raise ValueError(f"F_seq must be N >= 1 finite vectors of shape ({m},)")
    if V.shape != (m,) or not np.all((V > 0) & (V < np.inf)):
        raise ValueError(f"V must be a finite positive vector of shape ({m},)")
    if W.shape != (m,) or not np.all(np.isfinite(W)):
        raise ValueError(f"W must be a finite vector of shape ({m},)")
    x0 = _check_index(x0, m, "state")
    if not np.all(P @ V <= V * np.exp(b - W + 1e-12)):  # log(PV/V) <= -W + b + 1e-12
        raise DriftPreconditionError("multiplicative drift condition fails on the state set")
    top = F.max(axis=1, keepdims=True)  # g_k = exp|F_k| / exp(max|F_k|): none overflows
    log_rhs = np.log(V[x0]) + b * np.arange(1, len(F) + 1) + np.cumsum((F - W).max(axis=1))
    return np.column_stack([_forwards(P, np.exp(F - top), np.eye(m)[x0])[0] + np.cumsum(top),
                            log_rhs])


def supermartingale_check(model, V, W, b, F_seq, n, x0, replications=10_000, seed=0):
    """Verify E_x[exp sum_k |F_k(X_k)|] <= V(x) exp(b n + sum_k sup(|F_k| - W))
    by Monte Carlo on a continuous model (``exact_moment_bound`` is exact on a
    transition matrix), V, W and each F_k callables applied elementwise to
    arrays of states, after asserting log(V^{-1} Q V) <= -W + b on the test
    grid (``_qv_numeric``, 16 test points at a time): the check passes when
    the estimate plus three standard errors stays below the analytic right
    side.  A non-finite b is refused (ValueError), and so is an x0 that is
    not one state of the truncation domain (DomainError)."""
    if not callable(V):
        raise TypeError("V, W and F_k must be callables on a continuous model; on a finite one "
                        "call exact_moment_bound(model.transition, V, W, b, F_seq, x0)")
    if len(F_seq) != n:
        raise ValueError("need one F_k per step k = 0..n-1")
    if replications < 2:
        raise ValueError(f"replications = {replications}: the standard error needs at least 2")
    if not np.isfinite(b):
        raise ValueError(f"b = {b} is not finite")
    if np.ndim(x0):
        raise DomainError(f"x0 = {x0} is not one state")
    x0 = float(model._check_state(x0))

    xs = np.linspace(model.domain[0], model.domain[1], DRIFT_TEST_M)
    drift_gap = np.log(_qv_numeric(model, V, xs) / V(xs)) + W(xs) - b
    if not np.all(drift_gap <= 1e-9):  # NaN in V, QV or W fails too
        raise DriftPreconditionError("multiplicative drift condition fails on the test grid")
    sup_terms = sum(float(np.max(np.abs(f(xs)) - W(xs))) for f in F_seq)
    rhs = float(V(np.array([x0]))[0] * np.exp(b * n + sup_terms))

    # replication r draws its n normals from stream (seed, r), as n scalar
    # calls would; all are taken in one record pass (``rng.normal_rows``),
    # and the replications step together, so each F_k is called once on all
    z = normal_rows(seed, n=replications, k=n)
    x = np.full(replications, x0)
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
    if name in ("numerator", "denominator"):
        for s in seeds:  # metric: the log margin min_n (log big - log small)
            model = random_finite_model(s)
            nu = random_probability_vector(s, model.m, 0)
            g_seq = random_g_seq(s, horizon, model.m)
            if name == "numerator":  # Delta_n <= rhs_n
                nu2 = random_probability_vector(s, model.m, 1)
                res = exact_delta(model.transition, (0, 1), nu, nu2, g_seq)
                small, big = res.log_delta_n, res.log_rhs_n
            else:  # the forward mass >= its lower bound
                big, small = exact_denominator_bound(model.transition, nu, (0, 1), g_seq).T
            cases.append({"suite": name, "case": s, "metric": float(np.min(big - small)),
                          "holds": bool(np.all(small <= big + 1e-12))})
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
            lhs, rhs = exact_moment_bound(model.transition, V, W, b, F, x0=0).T
            cases.append({"suite": name, "case": s, "metric": float(np.min(rhs - lhs)),
                          "holds": bool(np.all(lhs <= rhs))})
    else:
        raise ValueError(f"unknown suite {name!r}")
    return cases
