"""Local-Doeblin machinery and assembly of the pathwise forgetting bound.

Everything the explicit bound needs lives here: certification of
local-Doeblin (LD) sets and their constants, the contraction coefficient
rho_C = 1 - (eps-/eps+)^2, the likelihood/drift envelope Upsilon_A(y) =
sup_{x in A} g(x, y) QV(x)/V(x), the denominator control functionals
Psi_D(y) = lambda_D(g(., y) 1_D) and Phi_{nu,D}(y0, y1) =
nu[g(., y0) Q g(., y1) 1_D], and the two bound assemblers (the sharp
subset-maximum form and its coarser geometric form).

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

UPSILON_QUAD_M = 4096  # default Upsilon quadrature cells over the domain


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

    @property
    def lambda_norm(self) -> float:
        if self.interval is not None:
            return 1.0 / (self.interval[1] - self.interval[0])
        return 1.0 / len(self.states)


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


def _upsilon_grid(model, region, ys, quad):
    """The resolved quadrature grid, the support points in ``region`` and
    log g(x, y) QV(x)/V(x) on them; shared by upsilon and log_upsilon_batch."""
    quad = resolve_grid(model, quad, UPSILON_QUAD_M)
    x = model.support(quad)
    x = x[_region_mask(region, x, quad is None)]
    return quad, x, _log_g_qv(model, x[:, None], ys[None, :])


def upsilon(model, region, y, quad: GridSpec | None = None, refine: bool = True) -> float:
    """Supremum over the region of g(x, y) QV(x)/V(x).

    ``region`` is "all" or ("complement", C).  The supremum is located on
    the support points (exact on finite state sets) and, on continuous
    models when ``refine`` is set, polished by a bounded 1-d maximization
    (the QV/V factor has a closed form on all Gaussian kernels, so the
    objective is exact).
    """
    quad, xs, vals = _upsilon_grid(model, region, np.array([y]), quad)
    best = vals.max(initial=-np.inf)
    if refine and quad is not None and len(xs):
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


def log_upsilon_batch(model, region, ys, quad: GridSpec | None = None) -> np.ndarray:
    """Grid-based log Upsilon_region(y) for an array of observations."""
    _, _, vals = _upsilon_grid(model, region, np.asarray(ys), quad)
    return vals.max(axis=0, initial=-np.inf)


def find_ld_set_for_eta(model, eta, K, y_probe, quad: GridSpec | None = None,
                        m_probe: int = 256, max_radius: float | None = None) -> LDSet:
    """Smallest symmetric interval C with Upsilon_{C^c} <= eta Upsilon_X on the probes.

    Doubles the radius until the envelope holds for every probe, then
    bisects down, and certifies the result.  Raises H2UnverifiedError when
    the search exhausts ``max_radius``.
    """
    if not 0 < eta <= 1:
        raise ValueError("eta must lie in (0, 1]")
    y_probe = [y for y in np.atleast_1d(y_probe) if _in_K(K, y)]
    if not y_probe:
        raise ValueError("need at least one probe observation in K")
    if model.kind == "finite":
        raise TypeError("interval search applies to continuous models only")
    if max_radius is None:
        max_radius = model.domain[1]
    ups_all = {y: upsilon(model, "all", y, quad) for y in y_probe}

    def ok(radius):
        return all(
            upsilon(model, ("complement", (-radius, radius)), y, quad) <= eta * ups_all[y]
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
    return certify_ld_set(model, (-r_hi, r_hi), m_probe=m_probe)


def psi(model, D: LDSet, y, quad_m: int = 2048) -> float:
    """lambda_D(g(., y) 1_D): the likelihood averaged over D."""
    return float(np.exp(log_psi_batch(model, D, np.atleast_1d(y), quad_m=quad_m)[0]))


def log_psi_batch(model, D: LDSet, ys, quad_m: int = 2048) -> np.ndarray:
    x = np.asarray(D.states) if D.interval is None else GridSpec(*D.interval, quad_m).centers
    logg = model.loglik(x[:, None], np.asarray(ys)[None, :])
    return logsumexp(logg, axis=0) - np.log(len(x))


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
    if D.interval is None:
        mask = np.isin(x, D.states)
    else:
        mask = (x >= D.interval[0]) & (x <= D.interval[1])
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


def _in_K(K, y):
    if K is None:
        return True
    return K[0] <= y <= K[1]


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

    @property
    def log_total(self) -> np.ndarray:
        return np.logaddexp(self.log_term_geo, self.log_term_ratio)

    def write_csv(self, path):
        from .reports import write_bound_csv

        write_bound_csv(self, path)


def _trajectory_terms(model, nu, nu_prime, obs, C: LDSet, D: LDSet,
                      grid, quad_m):
    """Per-observation log terms shared by both bound assemblers."""
    obs = np.asarray(obs)
    grid = resolve_grid(model, grid)
    kernel = transition_kernel(model, grid)
    logV = model.log_v(model.support(grid))
    log_nuV = float(logsumexp(model.log_init(nu, grid) + logV))
    log_nuV2 = float(logsumexp(model.log_init(nu_prime, grid) + logV))
    region_c = ("complement", C.interval or C.states)
    log_ups_x = log_upsilon_batch(model, "all", obs)
    log_ups_cc = log_upsilon_batch(model, region_c, obs)
    log_psi = log_psi_batch(model, D, obs, quad_m=quad_m)
    with np.errstate(divide="ignore"):
        log_phi_nu = np.log(phi(model, nu, D, obs[0], obs[1], grid, kernel))
        log_phi_nu2 = np.log(phi(model, nu_prime, D, obs[0], obs[1], grid, kernel))
    return log_ups_x, log_ups_cc, log_psi, log_phi_nu, log_phi_nu2, log_nuV, log_nuV2


def _log_denominator(n, log_psi, log_phi_nu, log_phi_nu2, eps_minus_D):
    return (2.0 * (n - 1) * np.log(eps_minus_D) + log_phi_nu + log_phi_nu2
            + 2.0 * np.sum(log_psi[2:n + 1]))


def _assemble(model, nu, nu_prime, obs, beta, C, D, grid, quad_m,
              ratio_numerator, applies, inputs):
    """Common skeleton: geometric term + ratio term, clipped at 1."""
    obs = np.asarray(obs)
    if len(obs) < 2:
        raise ValueError("the bound needs at least two observations")
    terms = _trajectory_terms(model, nu, nu_prime, obs, C, D, grid, quad_m)
    log_ups_x, log_ups_cc, log_psi, log_phi_nu, log_phi_nu2, log_nuV, log_nuV2 = terms
    rho_c = rho(C)
    ns = np.arange(len(obs))
    log_geo = np.where(ns > 0, beta * ns * np.log(rho_c) if rho_c > 0 else -np.inf, 0.0)
    log_ratio = np.full(len(obs), np.nan)
    ans = np.array([a_n(int(n), beta) for n in ns])
    for n in ns[1:]:
        num = ratio_numerator(int(n), log_ups_x, log_ups_cc, ans[n])
        den = _log_denominator(int(n), log_psi, log_phi_nu, log_phi_nu2, D.eps_minus)
        log_ratio[n] = num - den + log_nuV + log_nuV2
    log_ratio[0] = np.inf  # bound stated for n >= 1
    log_tot = np.logaddexp(log_geo, log_ratio)
    total = np.where(log_tot >= 0.0, 1.0, np.exp(np.minimum(log_tot, 0.0)))
    total[0] = 1.0
    return BoundReport(n=ns, log_term_geo=log_geo, log_term_ratio=log_ratio,
                       total_clipped=total, applies=applies, a_n=ans, rho=rho_c,
                       inputs=inputs)


def sharp_bound(model, nu, nu_prime, obs, beta, C: LDSet, D: LDSet,
                  grid: GridSpec | None = None, quad_m: int = 2048) -> BoundReport:
    """Sharp pathwise bound with the exact maximum over excursion subsets.

    The maximum of prod_{i in I} Upsilon_{C^c}(y_i) prod_{i not in I}
    Upsilon_X(y_i) over |I| = a_n factorizes: sort the per-index log ratios
    and keep the a_n largest.
    """
    if not 0 < beta < 1:
        raise ValueError("beta must lie in (0, 1)")

    def numerator(n, log_ups_x, log_ups_cc, an):
        base = np.sum(log_ups_x[:n + 1])
        diffs = np.sort(log_ups_cc[:n + 1] - log_ups_x[:n + 1])[::-1]
        return 2.0 * base + np.sum(diffs[:an])

    applies = np.ones(len(obs), dtype=bool)
    applies[0] = False
    inputs = {"beta": beta, "C": C, "D": D}
    return _assemble(model, nu, nu_prime, obs, beta, C, D, grid, quad_m,
                     numerator, applies, inputs)


def geometric_bound(model, nu, nu_prime, obs, cfg: BoundConfig, C: LDSet,
                    grid: GridSpec | None = None, quad_m: int = 2048) -> BoundReport:
    """Geometric form of the bound under the K-frequency hypothesis.

    ``C`` must satisfy the eta envelope Upsilon_{C^c} <= eta Upsilon_X on K
    (as returned by find_ld_set_for_eta).  Steps where the observed
    K-frequency drops below (1 + gamma)/2 are flagged as not applicable.
    """
    obs = np.asarray(obs)

    def numerator(n, log_ups_x, log_ups_cc, an):
        return ((cfg.gamma - cfg.beta) * n / 2.0 * np.log(cfg.eta)
                + 2.0 * np.sum(log_ups_x[:n + 1]))

    counts = np.cumsum(indicator_K(cfg.K, obs))
    ns = np.arange(len(obs))
    applies = counts >= (1.0 + cfg.gamma) * ns / 2.0
    applies[0] = False
    inputs = {"beta": cfg.beta, "gamma": cfg.gamma, "eta": cfg.eta, "K": cfg.K,
              "C": C, "D": cfg.D}
    return _assemble(model, nu, nu_prime, obs, cfg.beta, C, cfg.D, grid, quad_m,
                     numerator, applies, inputs)


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


def check_conditions(obs, model, cfg: BoundConfig, quad_m: int = 2048) -> ConditionReport:
    obs = np.asarray(obs)
    ns = np.arange(len(obs))
    denom = np.maximum(ns, 1)
    avg_k = np.cumsum(indicator_K(cfg.K, obs)) / (ns + 1.0)
    log_ups = log_upsilon_batch(model, "all", obs)
    avg_ups = np.cumsum(log_ups) / denom
    log_psi = log_psi_batch(model, cfg.D, obs, quad_m=quad_m)
    cum_psi = np.concatenate([[0.0, 0.0], np.cumsum(log_psi[2:])])
    avg_psi = cum_psi / denom
    return ConditionReport(
        n=ns,
        avg_k_frequency=avg_k,
        avg_log_upsilon=avg_ups,
        avg_log_psi=avg_psi,
        k_frequency_ok=bool(avg_k[-1] >= (1.0 + cfg.gamma) / 2.0),
        upsilon_ok=bool(avg_ups[-1] < cfg.M1),
        psi_ok=bool(avg_psi[-1] > -cfg.M2),
    )
