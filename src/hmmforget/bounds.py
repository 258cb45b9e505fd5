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
r-sequences of ``experiments`` read the record ``_record_terms`` returns;
it, ``geometric_bound`` and ``_conditions`` also take a batch, one record per row.
A record's envelopes are evaluated once per distinct observation: Upsilon
(``_log_upsilon``) as the grid maximum from a window around the channel's
peak where V == 1 and log g(., y) peaks, and from the closed form
``_log_sup`` everywhere else; Psi as the mean of g over PSI_QUAD_M
midpoints of D, one observation per row, so that no value depends on its
batch.  On a Gaussian location channel (``model.obs_slope``) that mean is
taken in closed form, O(1) per observation: the Gaussian integral over D
plus the midpoint rule's Euler-Maclaurin error series
(``_log_psi_location``), equal to the quadrature to rounding.  ``upsilon``
and the LD-set search ``find_ld_set_for_eta`` take Upsilon from
``_log_sup`` alone: exact where V == 1 and on a finite state set, an upper
bound cell by cell where V != 1.

The reference measure lambda_C is always normalized Lebesgue on C
(normalized counting measure on finite state sets).  All bound terms are
computed and compared in log space: for small n the bound is typically
astronomically loose and would overflow in linear arithmetic.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.hermite_e import hermeval
from scipy.special import log_ndtr

from .gridfilter import resolve_grid, transition_kernel
from .grids import GridSpec, logsumexp, norm_logpdf

UPSILON_QUAD_M = 4096  # Upsilon quadrature cells over the domain
PSI_QUAD_M = 2048  # Psi quadrature cells over an interval D
_RECORD_BLOCK = 256  # observations per block of Psi's quadrature rows
# support offsets around an observation's mode that hold the grid maximum of
# log g on any index range (see _log_upsilon)
_MODE_HALF = 3
_MODE_WINDOW = np.arange(-_MODE_HALF, _MODE_HALF + 1)
_SUP_SLACK = 1e-13  # outward rounding of a closed form: log Upsilon (_log_sup), eps-/eps+
_SUP_BLOCK = 2**16  # (observation, interval) pairs per block of _log_sup
# c_p = B_2p(1/2)/(2p)!, p = 1..5: the midpoint rule's Euler-Maclaurin coefficients
_MIDPOINT_EM = np.array([-1 / 24, 7 / 5760, -31 / 967680, 127 / 154828800, -73 / 3503554560])
_EM_LIMIT = 0.25  # largest kappa T at which Psi takes the series (see _log_psi_location)


class NotCertifiableError(RuntimeError):
    """The candidate set is not local-Doeblin in floating point."""


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
        if self.states is not None and len(set(self.states)) < len(self.states):
            raise ValueError(f"LD state subset {self.states} repeats a state")


def certify_ld_set(model, candidate) -> LDSet:
    """Certify ``candidate`` as an LD-set and compute eps-, eps+.

    ``candidate`` is an (lo, hi) interval for continuous models, or an
    iterable of distinct states of the model for finite ones (a state
    outside 0..m-1 raises the model's DomainError).  The constants are the
    extrema of |C| q(x, x') over C x C.  On the Gaussian kernels q depends
    on the offset x' - m(x) alone, and the means over C form the interval
    ``model.mean_range(lo, hi)``, so the extrema sit at the nearest and the
    farthest offset.  Either way eps- is rounded down and eps+ up by the
    relative _SUP_SLACK, past the rounding of their arithmetic.
    """
    if model.kind == "finite":
        states = tuple(sorted(model._check_state(np.asarray(candidate)).tolist()))
        if not states:
            raise ValueError("state subset must be nonempty")
        if len(set(states)) < len(states):
            raise ValueError(f"state subset {states} repeats a state")
        sub = model.transition[np.ix_(states, states)]
        eps_minus = len(states) * float(sub.min())
        eps_plus = len(states) * float(sub.max())
        if eps_minus <= 0:
            raise NotCertifiableError(
                f"transition has a zero entry on {states} x {states}"
            )
        where = {"states": states}
    else:
        if np.shape(candidate) != (2,):
            raise ValueError(f"a {model.kind} LD-set is an interval (lo, hi), got {candidate!r}")
        lo, hi = float(candidate[0]), float(candidate[1])
        if not lo < hi:
            raise ValueError("interval must be nonempty")
        width = hi - lo
        # the offset x' - m(x) ranges over [lo - m_hi, hi - m_lo]
        m_lo, m_hi = (float(m) for m in model.mean_range(lo, hi))
        t_lo, t_hi = lo - m_hi, hi - m_lo
        t_min = 0.0 if t_lo <= 0.0 <= t_hi else min(abs(t_lo), abs(t_hi))
        t_max = max(abs(t_lo), abs(t_hi))
        sd = model.state_sd
        norm = 1.0 / (np.sqrt(2 * np.pi) * sd)
        q_max = norm * np.exp(-t_min * t_min / (2 * sd * sd))
        q_min = norm * np.exp(-t_max * t_max / (2 * sd * sd))
        eps_minus = width * q_min
        eps_plus = width * q_max
        if eps_minus <= 0:
            raise NotCertifiableError(
                f"kernel minimum underflows on [{lo}, {hi}]^2; the set is not LD in floating point"
            )
        where = {"interval": (lo, hi)}
    return LDSet(eps_minus * (1.0 - _SUP_SLACK), eps_plus * (1.0 + _SUP_SLACK), **where)


def rho(ld: LDSet) -> float:
    """Contraction coefficient 1 - (eps-/eps+)^2 of the pair chain."""
    return 1.0 - (ld.eps_minus / ld.eps_plus) ** 2


# ---------------------------------------------------------------------------
# Upsilon / Psi / Phi


def _log_g_qv(model, x, y):
    """log [ g(x, y) QV(x)/V(x) ], broadcast over x and y."""
    logg = model.loglik(x, y)
    log_qv = model.log_qv(x)
    return logg if log_qv is None else logg + log_qv


def _blocks(n, size=_RECORD_BLOCK):
    """Slices of ``size`` columns that cover n columns."""
    return [slice(a, a + size) for a in range(0, n, size)]


def _log_upsilon(model, regions, ys):
    """For each region of ``regions`` (rows) and each y of ``ys`` (columns),
    log Upsilon_region(y): the grid maximum over the UPSILON_QUAD_M cell
    centres in the region where V == 1 and log g(., y) peaks, and the closed
    form _log_sup at every other observation (no peak, a drift V != 1 or a
    finite state set).

    Where V == 1 and log g(., y) peaks at p (``model.obs_peak``), the
    maximum on each index range of a region is at the point or two next to p
    clamped into the range, and the window _MODE_WINDOW there, kept inside
    the range, gives it bit for bit.  On a location channel log g is a
    non-increasing function of the computed |z|, z = (y - location(x))/beta,
    and z is monotone along the sorted grid, as every floating-point
    operation on the way is.  On SV log g is strictly concave, with curvature
    1/2 at p and |d/dx log g| growing away from p, so adjacent grid values
    differ by far more than their rounding, except at the two nodes that
    bracket the clamped peak.  The callers check ``ys``.
    """
    ys = np.asarray(ys)
    x = model.support(resolve_grid(model, None, UPSILON_QUAD_M))
    peaks = model.obs_peak(ys)
    window = ~np.isnan(peaks) & (model.log_qv(x[:1]) is None)  # a peak and V == 1
    best = np.full((len(regions), len(ys)), -np.inf)
    for r, region in enumerate(regions):
        best[r, ~window] = _log_sup(model, region, ys[~window])
    near = np.flatnonzero(window)
    if not len(near):
        return best
    k = np.searchsorted(x, peaks[near])
    for r, region in enumerate(regions):
        for a, b in _components(region, model.domain):
            # the index range of the grid points strictly inside (a, b)
            lo, hi = np.searchsorted(x, a, "right"), np.searchsorted(x, b, "left") - 1
            if lo <= hi:
                centre = np.clip(k, lo + _MODE_HALF, hi - _MODE_HALF)
                idx = np.clip(centre[:, None] + _MODE_WINDOW, lo, hi)  # (observations, window)
                vals = model.loglik(x[idx], ys[near, None]).max(axis=1)
                best[r, near] = np.maximum(best[r, near], vals)
    return best


def _components(region, domain):
    """The intervals (a, b), a < b, whose union is the continuous ``region``,
    "all" or ("complement", C), within ``domain``; none when C covers it."""
    lo, hi = domain
    if region == "all":
        return [(lo, hi)]
    kind, (c_lo, c_hi) = region
    if kind != "complement":
        raise ValueError(f"unknown region {region!r}")
    return [(a, b) for a, b in ((lo, min(c_lo, hi)), (max(c_hi, lo), hi)) if a < b]


def _log_sup(model, region, ys) -> np.ndarray:
    """log Upsilon_region(y) for each y of ``ys``.

    Continuous models: an upper bound over the region within the truncation
    domain, exact where V == 1.  log g(., y) is concave or monotone in x on
    every model, so its sup over an interval is at the channel's peak
    (``model.obs_peak``) clamped into it or at one of its ends.  Where V == 1
    the cells are cut at the ends of the region's intervals; with a drift
    V != 1 also at the UPSILON_QUAD_M cell edges of the domain, and each cell
    adds its ``model.log_qv_sup``, above log QV/V there by at most c (1 +
    |phi| + |kappa|) times the cell width.  A cell outside the region adds
    -inf.  So log g is taken once at each cut, which adjacent cells share,
    and once at the peak clamped into the first cell that ends at or past it
    (else the last): clamped into any other cell, the peak is one of its
    ends.  The maximum is rounded up by _SUP_SLACK (1 + |log Upsilon|), past
    the last-bit error of one evaluation of log g (at a flat peak a nearby
    point can read an ulp higher, as on SV).  The observations go in blocks
    of about _SUP_BLOCK (observation, cut) pairs.

    Finite state sets: the maximum over the region's states, exact.  The
    callers check ``ys``.
    """
    ys = np.asarray(ys)
    if model.kind == "finite":
        if region != "all" and region[0] != "complement":
            raise ValueError(f"unknown region {region!r}")
        x = model.support(None)
        inside = ~np.isin(x, [] if region == "all" else region[1])
        return _log_g_qv(model, x[:, None], ys[None, :])[inside].max(axis=0, initial=-np.inf)
    a, b = np.array(_components(region, model.domain)).reshape(-1, 2).T
    if not len(a):  # C covers the domain
        return np.full(len(ys), -np.inf)
    cuts = np.union1d(a, b)
    if model.log_qv_sup(a, b) is not None:  # V != 1
        cuts = np.union1d(cuts, np.linspace(*model.domain, UPSILON_QUAD_M + 1))
    lo, hi = cuts[:-1], cuts[1:]  # the cells
    inside = ((a[:, None] <= lo) & (hi <= b[:, None])).any(axis=0)
    log_qv = np.full(len(lo), -np.inf)
    sup = model.log_qv_sup(lo[inside], hi[inside])  # None where V == 1
    log_qv[inside] = 0.0 if sup is None else sup
    v = np.empty(len(ys))
    for rows in _blocks(len(ys), _SUP_BLOCK // len(cuts)):
        y = ys[rows]
        g = model.loglik(cuts, y[:, None])
        v[rows] = (np.maximum(g[:, :-1], g[:, 1:]) + log_qv).max(axis=1)
        peak = model.obs_peak(y)  # NaN where log g has no peak, which fmax passes by
        j = np.minimum(np.searchsorted(hi, peak), len(hi) - 1)
        v[rows] = np.fmax(v[rows], model.loglik(np.clip(peak, lo[j], hi[j]), y) + log_qv[j])
    # rounded up by _SUP_SLACK (1 + |v|), as a product so that -inf stays -inf
    return np.where(v < 0, v * (1.0 - _SUP_SLACK), v * (1.0 + _SUP_SLACK)) + _SUP_SLACK


def upsilon(model, region, y) -> float:
    """Sup over the region, "all" or ("complement", C), of g(x, y) QV(x)/V(x):
    exact where V == 1 or on a finite state set, else an upper bound (_log_sup)."""
    ys = np.array([y])
    model._check_obs(ys)  # names a bad observation as observation 0
    return float(np.exp(_log_sup(model, region, ys)[0]))


def log_upsilon_batch(model, region, ys) -> np.ndarray:
    """log Upsilon_region(y) for an array of observations, as a record takes
    it (_log_upsilon): the window's grid maximum where V == 1 and log g(., y)
    peaks, else the closed form _log_sup."""
    ys = np.asarray(ys)
    model._check_obs(ys)  # names a bad observation by its index in ys
    return _log_upsilon(model, [region], ys)[0]


def find_ld_set_for_eta(model, eta, K, y_probe) -> LDSet:
    """Smallest symmetric interval C with Upsilon_{C^c} <= eta Upsilon_X on the probes in K.

    Doubles the radius until the envelope holds for every probe, then
    bisects down, and certifies the result.  Upsilon is that of ``upsilon``
    (exact where V == 1), taken for the distinct probes in one call per radius.
    Raises H2UnverifiedError when the radius passes the domain's half-width,
    as on tobit with 0 in K (at y = 0, Upsilon_{C^c} = Upsilon_X).
    """
    if not 0 < eta <= 1:
        raise ValueError("eta must lie in (0, 1]")
    if model.kind == "finite":
        raise ValueError("a finite model needs an explicit C: the LD-set search is on intervals")
    y_probe = np.atleast_1d(y_probe)
    model._check_obs(y_probe)  # before K, which a NaN probe would silently miss
    y_probe = np.unique(y_probe[indicator_K(K, y_probe) > 0])
    if not len(y_probe):
        raise ValueError("need at least one probe observation in K")
    max_radius = model.domain[1]
    ups_all = np.exp(_log_sup(model, "all", y_probe))

    def ok(radius):
        ups_cc = np.exp(_log_sup(model, ("complement", (-radius, radius)), y_probe))
        return bool(np.all(ups_cc <= eta * ups_all))

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
    of observations: the mean of g over the PSI_QUAD_M midpoints of an
    interval D, or over the states of a finite D.

    On a Gaussian location channel (``model.obs_slope``) a row whose series
    converges (_log_psi_location) takes the mean in closed form, O(1); every
    other row is a log-sum-exp over the midpoints, in blocks of _RECORD_BLOCK
    rows, whose sum NumPy takes pairwise over the row alone.  Either way a
    value does not depend on the batch it is evaluated in.
    """
    ys = np.asarray(ys)
    model._check_obs(ys)  # names a bad observation by its index in ys
    out = np.empty(len(ys))
    rest = np.ones(len(ys), dtype=bool)
    if model.obs_slope:  # a location channel with h != 0
        rest = _log_psi_location(model, D.interval, ys, out)
    x = np.asarray(D.states) if D.interval is None else GridSpec(*D.interval, PSI_QUAD_M).centers
    rest = np.flatnonzero(rest)
    for block in _blocks(len(rest)):
        rows = rest[block]
        out[rows] = logsumexp(model.loglik(x[None, :], ys[rows, None]), axis=1) - np.log(len(x))
    return out


def _log_psi_location(model, interval, ys, out):
    """Fill ``out`` with log Psi_D(y) where g(x, y) = phi(t(x))/beta, t(x) =
    h (x - p)/beta, h = ``model.obs_slope`` and p = ``model.obs_peak(y)``, and
    return where it did not.

    By Euler-Maclaurin the mean of g over the M = PSI_QUAD_M midpoints of
    D = [a, b] is, with t_lo < t_hi the values of t at a and b and kappa =
    |h| (b - a)/(M beta),
        [Phi(t_hi) - Phi(t_lo) + sum_p c_p kappa^2p (He_{2p-1} phi)(t_lo)
         - (He_{2p-1} phi)(t_hi)] / (|h| (b - a)),
    c_p = B_2p(1/2)/(2p)! (_MIDPOINT_EM, p = 1..5) and He the probabilists'
    Hermite polynomials.  Relative to the Phi difference I, term p is about
    2 (kappa T/2 pi)^2p with T = max(|t_lo|, |t_hi|), so a row takes the
    series only where kappa T <= _EM_LIMIT; there the first term left out is
    about 1e-17.  log I comes from log_ndtr on the side away from the mass
    (mirrored when t_lo > 0), so it keeps its digits in either tail, and the
    series enters as log1p(correction/I).  Rows with no peak (NaN) are left.
    The Phi difference loses digits as D narrows in t: where |h| (b - a)/beta
    is 3.3e-3, log Psi was within 6.4e-14 (relative) of the quadrature's,
    against 1e-15 where it is 4 or more.
    """
    a, b = interval
    h, beta = model.obs_slope, model.beta
    ends = [[a], [b]] if h > 0 else [[b], [a]]  # t is monotone in x, in rounding too
    t = h * (np.array(ends) - model.obs_peak(ys)) / beta  # rows t_lo, t_hi
    kappa = abs(h) * (b - a) / (PSI_QUAD_M * beta)
    near = kappa * np.abs(t).max(axis=0) <= _EM_LIMIT  # False at a NaN peak
    t = t[:, near]
    # I = Phi(u_hi) (1 - Phi(u_lo)/Phi(u_hi)) with (u_lo, u_hi) = (t_lo, t_hi),
    # or (-t_hi, -t_lo) when t_lo > 0, so that u_lo <= 0
    log_u = log_ndtr(np.where(t[0] > 0, -t[::-1], t))
    d = log_u[0] - log_u[1]  # < 0
    log_i = log_u[1] + np.where(d > -np.log(2.0), np.log(-np.expm1(d)), np.log1p(-np.exp(d)))
    coef = np.zeros(2 * len(_MIDPOINT_EM))  # of He_k, k = 0..9: c_p kappa^2p at k = 2p - 1
    coef[1::2] = _MIDPOINT_EM * kappa ** np.arange(2, len(coef) + 1, 2)
    series = hermeval(t, coef) * np.exp(norm_logpdf(t, 0.0, 1.0) - log_i)  # times phi(t)/I
    out[near] = log_i + np.log1p(series[0] - series[1]) - np.log(abs(h) * (b - a))
    return ~near


def _record_series(model, obs, D: LDSet, C: LDSet | None = None):
    """log Upsilon_X(y), log Upsilon_{C^c}(y) (None without a C) and
    log Psi_D(y) for each observation y of ``obs``, in its shape: a record
    y_0..y_n or a batch of them, one per row.

    Each entry depends on its own observation alone, so all three are
    evaluated once per distinct observation of the batch and read back by
    index; the dense evaluations go in blocks, so memory does not grow with n.
    """
    obs = np.asarray(obs)
    model._check_obs(obs)  # names a bad observation by its index in the record
    u, inv = np.unique(obs, return_inverse=True)
    inv = inv.reshape(obs.shape)
    regions = ["all"] if C is None else ["all", ("complement", C.interval or C.states)]
    log_ups = _log_upsilon(model, regions, u)
    log_psi = log_psi_batch(model, D, u)
    return log_ups[0][inv], None if C is None else log_ups[1][inv], log_psi[inv]


def _phi_laws(model, laws, D: LDSet, grid, kernel, y0, y1):
    """Phi_{nu,D}(y0, y1) for each nu of ``laws``, as an array (laws,) + y0's
    shape: y0 and y1 are scalars or 1-D arrays of records' first two
    observations.  The weights of each law, its reach nu Q 1_D and D's mask
    are built once; g(., y0) and g(., y1) 1_D of every record are taken as
    one array each, then per record one GEMV ``kernel @ g1``, shared by the
    laws, and a dot per law.  A law whose reach is 0 violates the positivity
    hypothesis of the pathwise bound: it warns a HypothesisWarning and reads 0."""
    x = model.support(grid)
    mask = (np.isin(x, D.states) if D.interval is None
            else (x >= D.interval[0]) & (x <= D.interval[1]))
    in_d = kernel[:, mask].sum(axis=1)

    def lik(y):  # g(., y) for each y, one per row; a scalar keeps the models' scalar path
        return np.exp(model.loglik(x, y if np.ndim(y) == 0 else y[:, None])).reshape(-1, len(x))

    g0 = lik(y0)
    g1 = np.where(mask, lik(y1), 0.0)
    wg0 = []
    for i, nu in enumerate(laws):
        w = np.exp(model.log_init(nu, grid))
        if w @ in_d <= 0:
            warnings.warn("nu Q 1_D = 0: the positivity hypothesis fails for this initial law",
                          HypothesisWarning)
        else:
            wg0.append((i, w * g0))
    out = np.zeros((len(laws), len(g0)))
    for r, g in enumerate(g1):
        kg1 = kernel @ g  # not one GEMM of all records: it rounds differently
        for i, wg in wg0:
            out[i, r] = wg[r] @ kg1
    return out.reshape((len(laws),) + np.shape(y0))


def phi(model, nu, D: LDSet, y0, y1, grid: GridSpec | None = None) -> float:
    """nu[g(., y0) Q g(., y1) 1_D] by double quadrature (exact when finite).

    Returns 0 with a HypothesisWarning when nu Q 1_D = 0, which violates
    the positivity hypothesis of the pathwise bound.
    """
    grid = resolve_grid(model, grid)
    return float(_phi_laws(model, [nu], D, grid, transition_kernel(model, grid), y0, y1)[0])


def a_n(n, beta: float):
    """Size floor(n (1 - beta) / 2) of the excursion index set: an int for
    an int n, an int array for an array of them."""
    if np.any(np.asarray(n) < 0):
        raise ValueError("n must be >= 0")
    if not 0 < beta < 1:
        raise ValueError("beta must lie in (0, 1)")
    a = np.floor(np.asarray(n) * (1.0 - beta) / 2.0).astype(int)
    return int(a) if a.ndim == 0 else a


def _top_sums(gaps, counts) -> np.ndarray:
    """sums[n] = the sum of the counts[n] largest of gaps[0..n], for counts
    non-decreasing with counts[n] <= n + 1; -inf where fewer than counts[n]
    of them are above -inf.  The counts[n] largest so far sit in a min-heap
    and the others in a max-heap (negated), so each n costs O(log n)."""
    top, rest = [], []
    total = 0.0  # the sum over top
    sums = np.empty(len(gaps))
    for n, (g, k) in enumerate(zip(np.asarray(gaps).tolist(), np.asarray(counts).tolist())):
        if top and g > top[0]:
            total += g - top[0]
            heapq.heappush(rest, -heapq.heapreplace(top, g))
        elif g != -np.inf:  # a -inf gap stays out of both heaps
            heapq.heappush(rest, -g)
        while len(top) < k and rest:
            g = -heapq.heappop(rest)
            total += g
            heapq.heappush(top, g)
        sums[n] = total if len(top) == k else -np.inf
    return sums


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
        if any(not m > 0 for m in (self.M0, self.M1, self.M2)):  # NaN too
            raise ValueError(f"M thresholds must be positive, got {self.M0, self.M1, self.M2}")
        if self.K is not None and not self.K[0] <= self.K[1]:
            raise ValueError(f"K must be an interval (lo, hi) with lo <= hi, got {self.K}")


def indicator_K(K, ys) -> np.ndarray:
    ys = np.asarray(ys, dtype=float)
    if K is None:
        return np.ones(ys.shape)
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
    y_0..y_n or of a batch of them, one per row; the arrays have one entry
    per i or per n (a row per record in a batch)."""

    log_ups_x: np.ndarray  # log Upsilon_X(y_i)
    log_ups_cc: np.ndarray | None  # log Upsilon_{C^c}(y_i); None without a C
    s_ups: np.ndarray  # S_Ups[n] = sum_{i=0..n} log Upsilon_X(y_i)
    s_psi: np.ndarray  # S_Psi[n] = sum_{i=2..n} log Psi_D(y_i); 0 for n < 2
    log_phi: np.ndarray | None  # log Phi_{nu,D}(y_0, y_1), then for nu'; a column per record
    log_nuv: tuple[float, float] | None  # log nu V, then log nu' V


def _record_terms(model, nu, nu_prime, obs, D: LDSet, C: LDSet | None, grid,
                  kernel=None) -> _RecordTerms:
    """The _RecordTerms of ``obs``, a record or a batch of records, one per
    row: a batch's envelopes are evaluated once per distinct observation of
    the batch, and its prefix sums run along each row.  Without initial laws
    (nu None, as check_conditions calls it) log_phi and log_nuv are None.
    ``kernel`` is the transition matrix on ``grid``, built here when None."""
    obs = np.asarray(obs)
    if nu is not None:
        if obs.shape[-1] < 2:
            raise ValueError("the bound needs at least two observations")
        grid = resolve_grid(model, grid)
    log_ups_x, log_ups_cc, log_psi = _record_series(model, obs, D, C)
    s_psi = np.zeros(obs.shape)
    s_psi[..., 2:] = np.cumsum(log_psi[..., 2:], axis=-1)
    log_phi = log_nuv = None
    if nu is not None:
        kernel = transition_kernel(model, grid) if kernel is None else kernel
        log_v = model.log_v(model.support(grid))
        # y_0 and y_1: scalars for one record, which keep the models' scalar path
        phis = _phi_laws(model, (nu, nu_prime), D, grid, kernel, obs.T[0], obs.T[1])
        with np.errstate(divide="ignore"):  # a Phi of 0 reads -inf
            log_phi = np.log(phis)
        log_nuv = tuple(float(logsumexp(model.log_init(law, grid) + log_v))
                        for law in (nu, nu_prime))
    return _RecordTerms(log_ups_x, log_ups_cc, np.cumsum(log_ups_x, axis=-1), s_psi, log_phi,
                        log_nuv)


def _assemble(terms: _RecordTerms, beta, C, D, log_num, applies, inputs):
    """Geometric term + ratio term, clipped at 1.  ``log_num`` holds the log
    numerator of the ratio term at each n; the bound is stated for n >= 1."""
    rho_c = rho(C)
    ns = np.arange(terms.s_ups.shape[-1])
    log_geo = np.where(ns > 0, beta * ns * np.log(rho_c) if rho_c > 0 else -np.inf, 0.0)
    log_phi = terms.log_phi[..., None]  # a column per record, against its steps
    log_den = (2.0 * (ns - 1) * np.log(D.eps_minus) + log_phi[0] + log_phi[1]
               + 2.0 * terms.s_psi)
    log_ratio = log_num - log_den + terms.log_nuv[0] + terms.log_nuv[1]
    log_ratio[..., 0] = np.inf
    log_tot = np.logaddexp(log_geo, log_ratio)
    total = np.where(log_tot >= 0.0, 1.0, np.exp(np.minimum(log_tot, 0.0)))
    total[..., 0] = 1.0
    return BoundReport(n=ns, log_term_geo=log_geo, log_term_ratio=log_ratio,
                       total_clipped=total, applies=applies, a_n=a_n(ns, beta), rho=rho_c,
                       inputs=inputs)


def sharp_bound(model, nu, nu_prime, obs, beta, C: LDSet, D: LDSet,
                grid: GridSpec | None = None) -> BoundReport:
    """Sharp pathwise bound with the exact maximum over excursion subsets.

    The maximum of prod_{i in I} Upsilon_{C^c}(y_i) prod_{i not in I}
    Upsilon_X(y_i) over |I| = a_n factorizes: keep the a_n largest per-index
    log ratios, whose sum runs over n in O(n log n) (_top_sums).
    """
    ns = np.arange(np.shape(obs)[-1])
    counts = a_n(ns, beta)  # checks beta before the envelopes are evaluated
    terms = _record_terms(model, nu, nu_prime, obs, D, C, grid)
    log_num = 2.0 * terms.s_ups + _top_sums(terms.log_ups_cc - terms.log_ups_x, counts)
    applies = ns > 0
    return _assemble(terms, beta, C, D, log_num, applies, {"beta": beta, "C": C, "D": D})


def geometric_bound(model, nu, nu_prime, obs, cfg: BoundConfig, C: LDSet,
                    grid: GridSpec | None = None, kernel=None) -> BoundReport:
    """Geometric form of the bound under the K-frequency hypothesis, on a
    record y_0..y_n or a batch of records, one per row.

    ``C`` must satisfy the eta envelope Upsilon_{C^c} <= eta Upsilon_X on K
    (as returned by find_ld_set_for_eta).  Steps n where the K-frequency rule
    of check_conditions fails, #{0 <= i <= n : y_i in K} < (1 + gamma)(n + 1)/2,
    are flagged as not applicable.  The report's ``conditions`` are those of
    check_conditions, read from the records the bound evaluated.  A batch
    gives a row per record, bit for bit that record's own call's.  ``kernel``
    is the transition matrix on ``grid``, built here when None, so that an
    experiment's filter and bound share one.
    """
    obs = np.asarray(obs)
    terms = _record_terms(model, nu, nu_prime, obs, cfg.D, C, grid, kernel)
    conditions, (k_ok, _, _) = _conditions(obs, terms, cfg)
    ns = np.arange(obs.shape[-1])
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
    """Running Cesaro averages behind the pathwise bound's conditions (a row per record)."""

    n: np.ndarray
    avg_k_frequency: np.ndarray
    avg_log_upsilon: np.ndarray
    avg_log_psi: np.ndarray
    k_frequency_ok: bool | np.ndarray
    upsilon_ok: bool | np.ndarray
    psi_ok: bool | np.ndarray

    @property
    def all_ok(self) -> bool | np.ndarray:
        return self.k_frequency_ok & self.upsilon_ok & self.psi_ok


def _conditions(obs, terms: _RecordTerms, cfg: BoundConfig):
    """The ConditionReport of a record, or of a batch of records, one per
    row (as ``_record_terms`` takes it), and where each of its three
    conditions holds at every n, in ``obs``' shape.  The K-frequency
    condition #{0 <= i <= n : y_i in K} / (n + 1) >= (1 + gamma)/2 is the one
    K-frequency rule: geometric_bound's ``applies`` is it, and the r3 event
    its complement."""
    ns = np.arange(obs.shape[-1])
    denom = np.maximum(ns, 1)
    avg_k = np.cumsum(indicator_K(cfg.K, obs), axis=-1) / (ns + 1.0)
    avg_ups = terms.s_ups / denom
    avg_psi = terms.s_psi / denom
    oks = (avg_k >= (1.0 + cfg.gamma) / 2.0, avg_ups < cfg.M1, avg_psi > -cfg.M2)
    return ConditionReport(ns, avg_k, avg_ups, avg_psi, *(ok[..., -1] for ok in oks)), oks


def check_conditions(obs, model, cfg: BoundConfig) -> ConditionReport:
    """Cesaro averages behind the bound's conditions on the record y_0..y_n.

    At every n: the K-frequency #{i <= n : y_i in K}/(n + 1), the envelope
    average (1/n) sum_{i=0..n} log Upsilon_X(y_i) and the denominator
    average (1/n) sum_{i=2..n} log Psi_D(y_i) (divided by 1 at n = 0).  The
    conditions >= (1 + gamma)/2, < M1 and > -M2 are judged at the last n.
    """
    obs = np.asarray(obs)
    return _conditions(obs, _record_terms(model, None, None, obs, cfg.D, None, None), cfg)[0]
