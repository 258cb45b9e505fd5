"""Local-Doeblin machinery and assembly of the pathwise forgetting bound.

Everything the explicit bound needs lives here: certification of
local-Doeblin (LD) sets and their constants, the contraction coefficient
rho_C = 1 - (eps-/eps+)^2, the likelihood/drift envelope Upsilon_A(y) =
sup_{x in A} g(x, y) QV(x)/V(x), the denominator control functionals
Psi_D(y) = lambda_D(g(., y) 1_D) and Phi_{nu,D}(y0, y1) =
nu[g(., y0) Q g(., y1) 1_D], and the two bound assemblers (the sharp
subset-maximum form and its coarser geometric form).

The index ranges of a record's sums live in ``_RecordTerms`` alone: both
bounds, ``_conditions`` (which holds the one K-frequency rule) and the
r-sequences of ``experiments`` read the record ``_record_terms`` returns.

The reference measure lambda_C is always normalized Lebesgue on C
(normalized counting measure on finite state sets).  All bound terms are
computed and compared in log space: for small n the bound is typically
astronomically loose and would overflow in linear arithmetic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize
from scipy.special import logsumexp

from .gridfilter import resolve_grid, transition_kernel
from .grids import GridSpec

UPSILON_QUAD_M = 4096  # Upsilon quadrature cells over the domain
PSI_QUAD_M = 2048  # Psi quadrature cells over an interval D
_RECORD_BLOCK = 256  # observations per envelope block in _record_series


class NotCertifiableError(RuntimeError):
    """The candidate set is not local-Doeblin at the probing resolution."""


class H2UnverifiedError(RuntimeError):
    """No LD-set within the search budget satisfies the eta envelope."""


class HypothesisWarning(UserWarning):
    """A hypothesis of the forgetting guarantee is violated on these inputs."""


# ---------------------------------------------------------------------------
# LD sets


@dataclass(frozen=True)
class LDSet:
    """A certified local-Doeblin set with its sandwich constants.

    For continuous models the set is an interval and lambda is normalized
    Lebesgue on it; for finite models it is a state subset and lambda is
    the normalized counting measure.
    """

    eps_minus: float
    eps_plus: float
    interval: tuple[float, float] | None = None
    states: tuple[int, ...] | None = None

    def __post_init__(self):
        if not 0 < self.eps_minus <= self.eps_plus:
            raise ValueError("LD constants must satisfy 0 < eps- <= eps+")
        if (self.interval is None) == (self.states is None):
            raise ValueError("an LD-set is either an interval or a state subset")
        if self.interval is not None and not self.interval[0] < self.interval[1]:
            raise ValueError("LD interval must be nonempty")
        if self.states is not None and len(self.states) == 0:
            raise ValueError("LD state subset must be nonempty")


def certify_ld_set(model, candidate, m_probe: int = 256) -> LDSet:
    """Certify ``candidate`` as an LD-set and compute eps-, eps+.

    ``candidate`` is an (lo, hi) interval for continuous models, or an
    iterable of state indices for finite ones.  The constants are the
    extrema of |C| q(x, x') over C x C; for Gaussian kernels with an
    affine conditional mean the extrema are located analytically (nearest
    and farthest mean offset), otherwise an m_probe x m_probe lattice
    search is used.
    """
    if model.kind == "finite":
        states = tuple(sorted(int(s) for s in candidate))
        if not states:
            raise ValueError("state subset must be nonempty")
        sub = model.transition[np.ix_(states, states)]
        eps_minus = len(states) * float(sub.min())
        eps_plus = len(states) * float(sub.max())
        if eps_minus <= 0:
            raise NotCertifiableError(
                f"transition has a zero entry on {states} x {states}"
            )
        return LDSet(eps_minus=eps_minus, eps_plus=eps_plus, states=states)

    lo, hi = float(candidate[0]), float(candidate[1])
    if not lo < hi:
        raise ValueError("interval must be nonempty")
    width = hi - lo
    slope = model.mean_slope
    if slope is not None:
        # means over C form the interval [m_lo, m_hi]; the offset x' - m(x)
        # then ranges over [lo - m_hi, hi - m_lo]
        m_lo, m_hi = sorted((slope * lo, slope * hi))
        t_lo, t_hi = lo - m_hi, hi - m_lo
        t_min = 0.0 if t_lo <= 0.0 <= t_hi else min(abs(t_lo), abs(t_hi))
        t_max = max(abs(t_lo), abs(t_hi))
        sd = model.state_sd
        norm = 1.0 / (np.sqrt(2 * np.pi) * sd)
        q_max = norm * np.exp(-t_min * t_min / (2 * sd * sd))
        q_min = norm * np.exp(-t_max * t_max / (2 * sd * sd))
    else:
        x = np.linspace(lo, hi, m_probe)
        logq = model._trans_logpdf(x[:, None], x[None, :])
        q_max = float(np.exp(logq.max()))
        q_min = float(np.exp(logq.min()))
    eps_minus = width * q_min
    eps_plus = width * q_max
    if eps_minus <= 0:
        raise NotCertifiableError(
            f"kernel minimum underflows on [{lo}, {hi}]^2; the set is not LD at this resolution"
        )
    return LDSet(eps_minus=eps_minus, eps_plus=eps_plus, interval=(lo, hi))


def rho(ld: LDSet) -> float:
    """Contraction coefficient 1 - (eps-/eps+)^2 of the pair chain."""
    r = 1.0 - (ld.eps_minus / ld.eps_plus) ** 2
    return min(max(r, 0.0), 1.0 - np.finfo(float).tiny)


# ---------------------------------------------------------------------------
# Upsilon / Psi / Phi


def _log_g_qv(model, x, y):
    """log [ g(x, y) QV(x)/V(x) ], broadcast over x and y."""
    logg = model.loglik(x, y)
    log_qv = model.log_qv(x)
    return logg if log_qv is None else logg + log_qv


def _region_mask(region, x, discrete):
    """Which support points x lie in ``region``: "all" or ("complement", C),
    where C lists states on a finite state set and is (lo, hi) otherwise."""
    if region == "all":
        return np.ones(len(x), dtype=bool)
    kind, members = region
    if kind != "complement":
        raise ValueError(f"unknown region {region!r}")
    if discrete:
        return ~np.isin(x, members)
    lo, hi = members
    return (x < lo) | (x > hi)


def _upsilon_grid(model, region, ys):
    """The quadrature grid, the support points in ``region`` and
    log g(x, y) QV(x)/V(x) on them; shared by upsilon and log_upsilon_batch."""
    quad = resolve_grid(model, None, UPSILON_QUAD_M)
    x = model.support(quad)
    x = x[_region_mask(region, x, quad is None)]
    return quad, x, _log_g_qv(model, x[:, None], ys[None, :])


def upsilon(model, region, y) -> float:
    """Supremum over the region of g(x, y) QV(x)/V(x).

    ``region`` is "all" or ("complement", C).  The supremum is located on
    the support points (exact on finite state sets) and, on continuous
    models, polished by a bounded 1-d maximization (the QV/V factor has a
    closed form on all Gaussian kernels, so the objective is exact).
    """
    quad, xs, vals = _upsilon_grid(model, region, np.array([y]))
    best = vals.max(initial=-np.inf)
    if quad is not None and len(xs):
        i = int(np.argmax(vals[:, 0]))
        a, b = _polish_bracket(xs[i], quad.delta, region, model.domain)
        res = optimize.minimize_scalar(
            lambda t: -_log_g_qv(model, np.array([t]), y)[0],
            bounds=(a, b), method="bounded",
            options={"xatol": 1e-12},
        )
        best = max(best, -res.fun)
    return float(np.exp(best))


def _polish_bracket(x0, delta, region, domain):
    lo, hi = domain
    a, b = max(lo, x0 - 2 * delta), min(hi, x0 + 2 * delta)
    if region != "all":
        _, (c_lo, c_hi) = region
        # stay inside the complement component containing x0
        if x0 <= c_lo:
            b = min(b, c_lo)
        else:
            a = max(a, c_hi)
    return a, b


def log_upsilon_batch(model, region, ys) -> np.ndarray:
    """Grid-based log Upsilon_region(y) for an array of observations."""
    _, _, vals = _upsilon_grid(model, region, np.asarray(ys))
    return vals.max(axis=0, initial=-np.inf)


def find_ld_set_for_eta(model, eta, K, y_probe) -> LDSet:
    """Smallest symmetric interval C with Upsilon_{C^c} <= eta Upsilon_X on the probes.

    Doubles the radius until the envelope holds for every probe, then
    bisects down, and certifies the result.  Raises H2UnverifiedError when
    the radius passes the domain's half-width.
    """
    if not 0 < eta <= 1:
        raise ValueError("eta must lie in (0, 1]")
    y_probe = np.atleast_1d(y_probe)
    y_probe = y_probe[indicator_K(K, y_probe) > 0]
    if not len(y_probe):
        raise ValueError("need at least one probe observation in K")
    if model.kind == "finite":
        raise TypeError("interval search applies to continuous models only")
    max_radius = model.domain[1]
    ups_all = {y: upsilon(model, "all", y) for y in y_probe}

    def ok(radius):
        return all(
            upsilon(model, ("complement", (-radius, radius)), y) <= eta * ups_all[y]
            for y in y_probe
        )

    r = max(model.state_sd / 4.0, max_radius / 1024.0)
    while not ok(r):
        r *= 2.0
        if r > max_radius:
            raise H2UnverifiedError(
                f"no interval of radius <= {max_radius} satisfies the eta={eta} envelope"
            )
    r_lo, r_hi = r / 2.0, r
    for _ in range(40):
        mid = 0.5 * (r_lo + r_hi)
        if ok(mid):
            r_hi = mid
        else:
            r_lo = mid
    return certify_ld_set(model, (-r_hi, r_hi))


def log_psi_batch(model, D: LDSet, ys) -> np.ndarray:
    """log lambda_D(g(., y) 1_D), the likelihood averaged over D, for an array
    of observations (PSI_QUAD_M midpoints on an interval D)."""
    x = np.asarray(D.states) if D.interval is None else GridSpec(*D.interval, PSI_QUAD_M).centers
    logg = model.loglik(x[:, None], np.asarray(ys)[None, :])
    return logsumexp(logg, axis=0) - np.log(len(x))


def _record_series(model, obs, D: LDSet, C: LDSet | None = None):
    """log Upsilon_X(y_i), log Upsilon_{C^c}(y_i) (None without a C) and
    log Psi_D(y_i) for i = 0..n.

    The record is taken in blocks of _RECORD_BLOCK observations, so memory
    does not grow with n.  Both envelopes of a block are maxima of one grid
    evaluation of log g QV/V.  Every output entry reads its own column only,
    so the blocking does not change it, with one exception that the blocks
    avoid: NumPy sums a one-column matrix pairwise, not row by row, which
    moves the last bit of Psi, so a lone last column joins the block before.
    """
    obs = np.asarray(obs)
    model._check_obs(obs)  # names a bad observation by its index in the record
    quad = resolve_grid(model, None, UPSILON_QUAD_M)
    x = model.support(quad)
    mask = None if C is None else _region_mask(("complement", C.interval or C.states),
                                               x, quad is None)
    log_ups_x, log_psi = np.empty(len(obs)), np.empty(len(obs))
    log_ups_cc = None if C is None else np.empty(len(obs))
    edges = list(range(0, len(obs), _RECORD_BLOCK))
    if len(edges) > 1 and len(obs) % _RECORD_BLOCK == 1:
        edges.pop()
    for start, stop in zip(edges, edges[1:] + [len(obs)]):
        cols = slice(start, stop)
        vals = _log_g_qv(model, x[:, None], obs[None, cols])
        log_ups_x[cols] = vals.max(axis=0, initial=-np.inf)
        if mask is not None:
            log_ups_cc[cols] = np.max(vals, axis=0, where=mask[:, None], initial=-np.inf)
        del vals
        log_psi[cols] = log_psi_batch(model, D, obs[cols])
    return log_ups_x, log_ups_cc, log_psi


def phi(model, nu, D: LDSet, y0, y1, grid: GridSpec | None = None,
        kernel: np.ndarray | None = None) -> float:
    """nu[g(., y0) Q g(., y1) 1_D] by double quadrature (exact when finite).

    Returns 0 with a HypothesisWarning when nu Q 1_D = 0, which violates
    the positivity hypothesis of the pathwise bound.
    """
    grid = resolve_grid(model, grid)
    if kernel is None:
        kernel = transition_kernel(model, grid)
    x = model.support(grid)
    w = np.exp(model.log_init(nu, grid))
    mask = ~_region_mask(("complement", D.interval or D.states), x, grid is None)
    g0 = np.exp(model.loglik(x, y0))
    g1 = np.where(mask, np.exp(model.loglik(x, y1)), 0.0)
    reach = w @ kernel[:, mask].sum(axis=1)
    value = float((w * g0) @ (kernel @ g1))
    if reach <= 0:
        warnings.warn("nu Q 1_D = 0: the positivity hypothesis fails for this initial law",
                      HypothesisWarning)
        return 0.0
    return value


def a_n(n: int, beta: float) -> int:
    """Size floor(n (1 - beta) / 2) of the excursion index set."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if not 0 < beta < 1:
        raise ValueError("beta must lie in (0, 1)")
    return int(np.floor(n * (1.0 - beta) / 2.0))


# ---------------------------------------------------------------------------
# Bound assembly


@dataclass(frozen=True)
class BoundConfig:
    beta: float
    gamma: float
    eta: float
    D: LDSet
    K: tuple[float, float] | None = None  # None = all observations
    M0: float = 1.0
    M1: float = 1.0
    M2: float = 1.0

    def __post_init__(self):
        if not 0 < self.beta < 1 or not 0 < self.gamma < 1:
            raise ValueError("beta and gamma must lie in (0, 1)")
        if self.beta >= self.gamma:
            raise ValueError("the geometric bound needs beta < gamma")
        if not 0 < self.eta < 1:
            raise ValueError("eta must lie in (0, 1)")
        if any(m <= 0 for m in (self.M0, self.M1, self.M2)):
            raise ValueError("M thresholds must be positive")


def indicator_K(K, ys) -> np.ndarray:
    ys = np.asarray(ys, dtype=float)
    if K is None:
        return np.ones(len(ys))
    return ((ys >= K[0]) & (ys <= K[1])).astype(float)


@dataclass
class BoundReport:
    """Per-step decomposition of the pathwise bound."""

    n: np.ndarray
    log_term_geo: np.ndarray
    log_term_ratio: np.ndarray
    total_clipped: np.ndarray
    applies: np.ndarray
    a_n: np.ndarray
    rho: float
    inputs: dict = field(default_factory=dict)
    conditions: ConditionReport | None = None  # filled by geometric_bound

    @property
    def log_total(self) -> np.ndarray:
        return np.logaddexp(self.log_term_geo, self.log_term_ratio)


@dataclass(frozen=True)
class _RecordTerms:
    """What the bounds, their conditions and the r-sequences read of a record
    y_0..y_n; the arrays have one entry per i or per n."""

    log_ups_x: np.ndarray  # log Upsilon_X(y_i)
    log_ups_cc: np.ndarray | None  # log Upsilon_{C^c}(y_i); None without a C
    s_ups: np.ndarray  # S_Ups[n] = sum_{i=0..n} log Upsilon_X(y_i)
    s_psi: np.ndarray  # S_Psi[n] = sum_{i=2..n} log Psi_D(y_i); 0 for n < 2
    log_phi: tuple[float, float] | None  # log Phi_{nu,D}(y_0, y_1), then for nu'
    log_nuv: tuple[float, float] | None  # log nu V, then log nu' V


def _record_terms(model, nu, nu_prime, obs, D: LDSet, C: LDSet | None, grid) -> _RecordTerms:
    """The _RecordTerms of ``obs``.  Without initial laws (nu None, as
    check_conditions and the r-sequences call it) log_phi and log_nuv are None."""
    obs = np.asarray(obs)
    if nu is not None:
        if len(obs) < 2:
            raise ValueError("the bound needs at least two observations")
        grid = resolve_grid(model, grid)
    log_ups_x, log_ups_cc, log_psi = _record_series(model, obs, D, C)
    s_psi = np.zeros(len(obs))
    s_psi[2:] = np.cumsum(log_psi[2:])
    log_phi = log_nuv = None
    if nu is not None:
        kernel = transition_kernel(model, grid)
        log_v = model.log_v(model.support(grid))
        with np.errstate(divide="ignore"):
            log_phi = tuple(float(np.log(phi(model, law, D, obs[0], obs[1], grid, kernel)))
                            for law in (nu, nu_prime))
        log_nuv = tuple(float(logsumexp(model.log_init(law, grid) + log_v))
                        for law in (nu, nu_prime))
    return _RecordTerms(log_ups_x, log_ups_cc, np.cumsum(log_ups_x), s_psi, log_phi, log_nuv)


def _assemble(terms: _RecordTerms, beta, C, D, log_num, applies, inputs):
    """Geometric term + ratio term, clipped at 1.  ``log_num`` holds the log
    numerator of the ratio term at each n; the bound is stated for n >= 1."""
    rho_c = rho(C)
    ns = np.arange(len(terms.s_ups))
    log_geo = np.where(ns > 0, beta * ns * np.log(rho_c) if rho_c > 0 else -np.inf, 0.0)
    log_den = (2.0 * (ns - 1) * np.log(D.eps_minus) + terms.log_phi[0] + terms.log_phi[1]
               + 2.0 * terms.s_psi)
    log_ratio = log_num - log_den + terms.log_nuv[0] + terms.log_nuv[1]
    log_ratio[0] = np.inf
    log_tot = np.logaddexp(log_geo, log_ratio)
    total = np.where(log_tot >= 0.0, 1.0, np.exp(np.minimum(log_tot, 0.0)))
    total[0] = 1.0
    ans = np.array([a_n(int(n), beta) for n in ns])
    return BoundReport(n=ns, log_term_geo=log_geo, log_term_ratio=log_ratio,
                       total_clipped=total, applies=applies, a_n=ans, rho=rho_c,
                       inputs=inputs)


def sharp_bound(model, nu, nu_prime, obs, beta, C: LDSet, D: LDSet,
                grid: GridSpec | None = None) -> BoundReport:
    """Sharp pathwise bound with the exact maximum over excursion subsets.

    The maximum of prod_{i in I} Upsilon_{C^c}(y_i) prod_{i not in I}
    Upsilon_X(y_i) over |I| = a_n factorizes: sort the per-index log ratios
    and keep the a_n largest.
    """
    if not 0 < beta < 1:
        raise ValueError("beta must lie in (0, 1)")
    terms = _record_terms(model, nu, nu_prime, obs, D, C, grid)
    gaps = terms.log_ups_cc - terms.log_ups_x
    log_num = 2.0 * terms.s_ups
    for n in range(1, len(gaps)):
        log_num[n] += np.sum(np.sort(gaps[:n + 1])[::-1][:a_n(n, beta)])
    applies = np.arange(len(gaps)) > 0
    return _assemble(terms, beta, C, D, log_num, applies, {"beta": beta, "C": C, "D": D})


def geometric_bound(model, nu, nu_prime, obs, cfg: BoundConfig, C: LDSet,
                    grid: GridSpec | None = None) -> BoundReport:
    """Geometric form of the bound under the K-frequency hypothesis.

    ``C`` must satisfy the eta envelope Upsilon_{C^c} <= eta Upsilon_X on K
    (as returned by find_ld_set_for_eta).  Steps n where the K-frequency rule
    of check_conditions fails, #{0 <= i <= n : y_i in K} < (1 + gamma)(n + 1)/2,
    are flagged as not applicable.  The report's ``conditions`` are those of
    check_conditions, read from the record the bound evaluated.
    """
    obs = np.asarray(obs)
    terms = _record_terms(model, nu, nu_prime, obs, cfg.D, C, grid)
    conditions, (k_ok, _, _) = _conditions(obs, terms, cfg)
    ns = np.arange(len(obs))
    log_num = (cfg.gamma - cfg.beta) * ns / 2.0 * np.log(cfg.eta) + 2.0 * terms.s_ups
    inputs = {"beta": cfg.beta, "gamma": cfg.gamma, "eta": cfg.eta, "K": cfg.K,
              "C": C, "D": cfg.D}
    report = _assemble(terms, cfg.beta, C, cfg.D, log_num, k_ok & (ns > 0), inputs)
    report.conditions = conditions
    return report


# ---------------------------------------------------------------------------
# Condition diagnostics


@dataclass
class ConditionReport:
    """Running Cesaro averages behind the pathwise bound's conditions."""

    n: np.ndarray
    avg_k_frequency: np.ndarray
    avg_log_upsilon: np.ndarray
    avg_log_psi: np.ndarray
    k_frequency_ok: bool
    upsilon_ok: bool
    psi_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.k_frequency_ok and self.upsilon_ok and self.psi_ok


def _conditions(obs, terms: _RecordTerms, cfg: BoundConfig):
    """The ConditionReport of a record, and where each of its three
    conditions holds at every n.  The K-frequency condition
    #{0 <= i <= n : y_i in K} / (n + 1) >= (1 + gamma)/2 is the one
    K-frequency rule: geometric_bound's ``applies`` is it, and the r3 event
    its complement."""
    ns = np.arange(len(obs))
    denom = np.maximum(ns, 1)
    avg_k = np.cumsum(indicator_K(cfg.K, obs)) / (ns + 1.0)
    avg_ups = terms.s_ups / denom
    avg_psi = terms.s_psi / denom
    oks = (avg_k >= (1.0 + cfg.gamma) / 2.0, avg_ups < cfg.M1, avg_psi > -cfg.M2)
    report = ConditionReport(ns, avg_k, avg_ups, avg_psi, *(bool(ok[-1]) for ok in oks))
    return report, oks


def check_conditions(obs, model, cfg: BoundConfig) -> ConditionReport:
    """Cesaro averages behind the bound's conditions on the record y_0..y_n.

    At every n: the K-frequency #{i <= n : y_i in K}/(n + 1), the envelope
    average (1/n) sum_{i=0..n} log Upsilon_X(y_i) and the denominator
    average (1/n) sum_{i=2..n} log Psi_D(y_i) (divided by 1 at n = 0).  The
    conditions >= (1 + gamma)/2, < M1 and > -M2 are judged at the last n.
    """
    obs = np.asarray(obs)
    return _conditions(obs, _record_terms(model, None, None, obs, cfg.D, None, None), cfg)[0]
