"""Model zoo: finite-state HMM and four continuous-state models.

Every model exposes the same surface: a transition density q(x, x') with
respect to the state dominating measure, a strictly positive likelihood
g(x, y) with respect to the observation dominating measure, a drift
function V >= 1, exact samplers, and the ratio QV/V used by the bound
machinery.  The filter and the bounds use only the surface of
``StateSpaceModel``, listed in the README: ``kind``, ``support(grid)``,
``kernel(grid)``, ``log_init(nu, grid)``, ``log_v(x)``, ``log_qv(x)``
(None when V == 1), ``loglik(x, y)`` (log g broadcast over x and y, with y
checked against the observation domain and x unchecked, so quadrature may
leave the filter's domain), ``obs_peak(y)`` (the state where log g(., y)
peaks, NaN where it is monotone) and ``obs_slope`` (h of a Gaussian
location channel g(x, y) = phi(h (x - obs_peak(y))/beta)/beta, else None);
continuous models add ``domain`` and two closed-form sups over an interval
[lo, hi], ``mean_range(lo, hi)`` (the least and greatest conditional state
mean) and ``log_qv_sup(lo, hi)`` (an upper bound on log QV/V, None when
V == 1).  A subclass supplies the others plus ``_obs_logpdf``,
``_check_state``, ``_check_obs`` and the two samplers; the base derives
``loglik``, the domain-checked ``log_likelihood`` and ``sample_step``.

The linear-Gaussian, nonlinear and tobit (at y > 0) models observe the
state through one Gaussian location channel y = h x + b + beta e, with
h = ``obs_slope`` and b = ``obs_offset``.  ``GaussianStateModel`` writes
it once: its log density, its peak (y - b)/h (NaN at h = 0) and its
channel ``observe(x, e)``, the observation of states x under standard
normal noise e, which the scalar sampler and the record pass (every record
of an experiment at once) both call.  Those models only set h and b; tobit
adds the censoring, and stochastic volatility overrides the three with its
own channel.

Dominating measures: Lebesgue for all continuous transitions; Lebesgue for
the observations of the linear-Gaussian, nonlinear and stochastic
volatility models; delta_0 + Lebesgue for the censored (tobit)
observations, so g(x, 0) is a Gaussian tail probability while g(x, y > 0)
is a density.  Both feed the filter identically.

All densities are closed form: the Gaussian ones go through
``grids.norm_logpdf`` (SciPy's ``norm.logpdf`` arithmetic, without its
wrapper), and the tobit censoring branch log Phi(-x/beta) is evaluated on
the states alone, O(grid) rather than O(grid x observations), and
broadcast over the record.  The domain checks name the first offending
entry and its value; continuous models reject NaN and infinite
observations.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr

from .grids import InitialDistribution, norm_logpdf
from .rng import normal_pairs, uniform_pairs

DOMAIN_SD_MULTIPLE = 8.0


class DomainError(ValueError):
    """Input outside the declared state or observation domain."""


@dataclass(frozen=True)
class DriftFunction:
    """Drift function V: either V == 1 or V(x) = exp(c|x|) with c > 0."""

    form: str = "one"
    c: float = 0.0

    def __post_init__(self):
        if self.form not in ("one", "exp_abs"):
            raise ValueError(f"unknown drift form {self.form!r}")
        if self.form == "exp_abs" and self.c <= 0:
            raise ValueError("exp_abs drift needs c > 0")

    @classmethod
    def one(cls):
        return cls("one")

    @classmethod
    def exp_abs(cls, c):
        return cls("exp_abs", c=float(c))

    def log(self, x):
        x = np.asarray(x, dtype=float)
        if self.form == "one":
            return np.zeros_like(x)
        return self.c * np.abs(x)


@dataclass
class Trajectory:
    """A simulated path of the generating model."""

    obs: np.ndarray
    hidden: np.ndarray

    def __post_init__(self):
        self.obs = np.asarray(self.obs)
        self.hidden = np.asarray(self.hidden)
        if len(self.hidden) != len(self.obs):
            raise ValueError("hidden and observed paths must have equal length")


def _folded_exp_moment(mean, sd, c):
    """E[exp(c |Z|)] for Z ~ N(mean, sd^2), in closed form."""
    mean = np.asarray(mean, dtype=float)
    half = c * c * sd * sd / 2.0
    pos = np.exp(c * mean + half) * ndtr(mean / sd + c * sd)
    neg = np.exp(-c * mean + half) * ndtr(-mean / sd + c * sd)
    return pos + neg


class StateSpaceModel:
    """Members shared by all models, written against the surface above."""

    obs_slope = None

    def obs_peak(self, y):
        """For each y, the state where log g(., y) peaks; NaN where it is
        monotone or constant in x (every y by default).  On every continuous
        model log g(., y) is concave or monotone in x, so its sup over an
        interval is at the peak clamped into it or at one of its ends.  A
        location channel peaks where its location equals y."""
        return np.full(np.shape(y), np.nan)

    def loglik(self, x, y):
        return self._obs_logpdf(x, self._check_obs(y))

    def log_likelihood(self, x, y):
        return self._obs_logpdf(self._check_state(x), self._check_obs(y))

    def sample_step(self, x, rng):
        x_next = self.sample_transition(x, rng)
        return x_next, self.sample_observation(x_next, rng)


class GaussianStateModel(StateSpaceModel):
    """Base for models whose hidden chain is a Gaussian AR(1)-like chain.

    The next state is N(phi x, sigma^2) unless a subclass overrides
    ``state_mean``.  The observation is y = h x + b + beta e with h =
    ``obs_slope`` (set by the subclass) and b = ``obs_offset`` (0 unless
    set); a subclass with another channel overrides ``obs_peak``,
    ``_obs_logpdf`` and ``observe``.  The default truncation
    domain is DOMAIN_SD_MULTIPLE stationary s.d.s of the AR(1) chain with
    slope phi.
    """

    kind = "abstract"
    obs_offset = 0.0
    mean_turns = ()  # the states where state_mean turns

    def __init__(self, phi, sigma, beta, drift=None, domain_halfwidth=None):
        if not abs(phi) < 1:
            raise ValueError("autoregression needs |phi| < 1")
        if sigma <= 0:
            raise ValueError("state noise s.d. must be positive")
        if beta <= 0:
            raise ValueError("observation noise s.d. must be positive")
        self.phi = float(phi)
        self.state_sd = float(sigma)
        self.beta = float(beta)
        self.drift = drift if drift is not None else DriftFunction.one()
        if domain_halfwidth is None:
            domain_halfwidth = DOMAIN_SD_MULTIPLE * sigma / np.sqrt(1 - phi * phi)
        self.domain = (-float(domain_halfwidth), float(domain_halfwidth))

    # -- transition ---------------------------------------------------------

    def state_mean(self, x):
        # a Python float stays one: simulate's state loop calls this per step
        return self.phi * x

    def mean_range(self, lo, hi):
        """The least and greatest ``state_mean`` over [lo, hi], elementwise:
        among its values at the ends and at the ``mean_turns`` in [lo, hi]."""
        x = np.broadcast_arrays(lo, hi, *(np.clip(t, lo, hi) for t in self.mean_turns))
        means = self.state_mean(np.stack(x))
        return means.min(axis=0), means.max(axis=0)

    def support(self, grid):
        return grid.centers

    def kernel(self, grid):
        x = grid.centers
        return np.exp(self._trans_logpdf(x[:, None], x[None, :])) * grid.delta

    def log_init(self, nu, grid):
        return nu.log_weights_on(grid)

    def _trans_logpdf(self, x, x_next):
        x = np.asarray(x, dtype=float)
        x_next = np.asarray(x_next, dtype=float)
        return norm_logpdf(x_next, self.state_mean(x), self.state_sd)

    def _check_state(self, x):
        x = np.asarray(x, dtype=float)
        lo, hi = self.domain
        bad = ~((x >= lo) & (x <= hi))  # NaN fails both tests
        if bad.any():
            state = _first_offender(bad, x, "state")
            raise DomainError(f"{state} is outside the truncation domain [{lo}, {hi}]")
        return x

    # -- observation --------------------------------------------------------

    def _check_obs(self, y):
        y = np.asarray(y, dtype=float)
        bad = ~np.isfinite(y)
        if bad.any():
            obs = _first_offender(bad, y, "observation")
            raise DomainError(f"{self.kind} {obs} is not finite")
        return y

    def _obs_location(self, x):
        return self.obs_slope * x + self.obs_offset  # the sampler's scalar x stays a scalar

    def obs_peak(self, y):
        if not self.obs_slope:
            return super().obs_peak(y)
        return (np.asarray(y, dtype=float) - self.obs_offset) / self.obs_slope

    def _obs_logpdf(self, x, y):
        return norm_logpdf(y, self._obs_location(np.asarray(x, dtype=float)), self.beta)

    # -- sampling -----------------------------------------------------------

    def sample_transition(self, x, rng):
        return self.state_mean(x) + self.state_sd * rng.standard_normal()

    def observe(self, x, e):
        """The observation of the state(s) x under standard normal noise e,
        elementwise."""
        return self._obs_location(x) + self.beta * e

    def sample_observation(self, x, rng):
        return self.observe(x, rng.standard_normal())

    # -- drift --------------------------------------------------------------

    def log_v(self, x):
        return self.drift.log(x)

    def log_qv(self, x):
        return None if self.drift.form == "one" else np.log(self.qv_ratio_exact(x))

    def log_qv_sup(self, lo, hi):
        """An upper bound on log QV/V over [lo, hi], elementwise; None when
        V == 1.  QV(x) = E exp(c |m + sigma Z|), m = ``state_mean(x)``, grows
        with |m|, so it is at most its value at the largest |m| of
        ``mean_range``; and 1/V(x) = exp(-c |x|) at the least |x|."""
        if self.drift.form == "one":
            return None
        c = self.drift.c
        qv = _folded_exp_moment(np.abs(self.mean_range(lo, hi)).max(axis=0), self.state_sd, c)
        return np.log(qv) - c * np.abs(np.clip(0.0, lo, hi))

    def qv_ratio_exact(self, x):
        """QV(x)/V(x) in closed form (Gaussian folded exponential moment)."""
        x = np.asarray(x, dtype=float)
        if self.drift.form == "one":
            return np.ones_like(x)
        c = self.drift.c
        qv = _folded_exp_moment(self.state_mean(x), self.state_sd, c)
        return qv * np.exp(-c * np.abs(x))


class LGSSM(GaussianStateModel):
    """Linear Gaussian state-space model: x' = phi x + sigma z, y = h0 x + beta e."""

    kind = "lgssm"

    def __init__(self, phi, sigma, beta, h0=1.0, drift=None, domain_halfwidth=None):
        super().__init__(phi, sigma, beta, drift, domain_halfwidth)
        self.obs_slope = float(h0)


class TobitModel(GaussianStateModel):
    """Dynamic tobit: AR(1) state, observation max(x + beta e, 0).

    Observation dominating measure is delta_0 + Lebesgue: the likelihood at
    y = 0 is the censoring probability P(x + beta e <= 0), at y > 0 the
    density of the location channel with h = 1, b = 0.
    """

    kind = "tobit"
    obs_slope = 1.0  # at y > 0; y = 0 has no peak

    def _check_obs(self, y):
        y = super()._check_obs(y)
        bad = y < 0
        if bad.any():
            raise DomainError(f"tobit {_first_offender(bad, y, 'observation')} is negative")
        return y

    def obs_peak(self, y):
        # at y = 0, log Phi(-x/beta) falls in x
        y = np.asarray(y, dtype=float)
        return np.where(y > 0, super().obs_peak(y), np.nan)

    def _obs_logpdf(self, x, y):
        # the censoring branch depends on x alone: O(grid), broadcast by where
        x = np.asarray(x, dtype=float)
        return np.where(y == 0, log_ndtr(-x / self.beta), super()._obs_logpdf(x, y))

    def observe(self, x, e):
        return np.maximum(super().observe(x, e), 0.0)


class NLSSM(GaussianStateModel):
    """1-d nonlinear Gaussian model x' = x + b(x) + sigma0 z, y = a x + b_off + beta e.

    Catalog of drifts b: ``linear_shrink`` gives b(x) = -delta x (contracts for
    delta in (0, 2)); ``tanh`` gives b(x) = -delta x + kappa tanh(x) (bounded
    perturbation of the shrink; kappa must be 0 under ``linear_shrink``).
    Both keep |x + b(x)| - |x| -> -infinity.  The observation is the location
    channel with h = ``obs_a`` and offset ``obs_b`` (the identity by default).
    """

    kind = "nlssm"

    def __init__(self, drift_form, delta, sigma0, beta, kappa=0.0, obs_a=1.0, obs_b=0.0,
                 drift=None, domain_halfwidth=None):
        if drift_form not in ("linear_shrink", "tanh"):
            raise ValueError(f"unknown state drift form {drift_form!r}")
        if not 0 < delta < 2:
            raise ValueError("linear shrink needs delta in (0, 2)")
        if drift_form == "linear_shrink" and kappa != 0:
            raise ValueError(f"'kappa' = {kappa!r} needs drift_form 'tanh'; "
                             "'linear_shrink' has no tanh term")
        super().__init__(1 - delta, sigma0, beta, drift, domain_halfwidth)
        self.drift_form = drift_form
        self.delta = float(delta)
        self.kappa = float(kappa)
        if self.phi * kappa < 0 and abs(self.phi) <= abs(kappa):
            # phi + kappa sech^2(x) vanishes where cosh^2(x) = -kappa/phi >= 1
            turn = float(np.arccosh(np.sqrt(-kappa / self.phi)))
            self.mean_turns = (-turn, turn)
        self.obs_slope = float(obs_a)
        self.obs_offset = float(obs_b)

    def state_mean(self, x):
        mean = self.phi * x
        if self.drift_form == "tanh":
            mean = mean + self.kappa * np.tanh(x)
        return mean


class StochVolModel(GaussianStateModel):
    """Canonical stochastic volatility model: y = beta exp(x/2) e."""

    kind = "stochvol"

    def _obs_logpdf(self, x, y):
        x, y = np.broadcast_arrays(x, y)
        b2 = self.beta * self.beta
        return -0.5 * np.log(2 * np.pi * b2) - y * y * np.exp(-x) / (2 * b2) - x / 2

    def obs_peak(self, y):
        # d/dx log g = y^2 e^{-x} / (2 beta^2) - 1/2 vanishes at log(y^2/beta^2);
        # at y = 0 log g = const - x/2 falls in x
        y = np.abs(np.asarray(y, dtype=float))
        with np.errstate(divide="ignore"):
            return np.where(y > 0, 2.0 * (np.log(y) - np.log(self.beta)), np.nan)

    def observe(self, x, e):
        return self.beta * np.exp(x / 2) * e


class FiniteStateModel(StateSpaceModel):
    """Finite-state HMM over states {0..m-1} and symbols {0..K-1}.

    The transition matrix is exactly row-stochastic; emission probabilities
    are strictly positive on the declared observation alphabet.
    """

    kind = "finite"

    def __init__(self, transition, emission, drift_values=None):
        P = np.asarray(transition, dtype=float)
        E = np.asarray(emission, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] < 2:
            raise ValueError("transition must be a square matrix with m >= 2")
        _check_finite_rows(P, "transition")
        if np.any(P < 0) or np.any(np.abs(P.sum(axis=1) - 1.0) > 1e-12):
            raise ValueError("transition rows must be nonnegative and sum to 1 within 1e-12")
        if E.ndim != 2 or E.shape[0] != P.shape[0]:
            raise ValueError("emission must have one row per state")
        _check_finite_rows(E, "emission")
        if np.any(E <= 0):
            raise ValueError("emission probabilities must be strictly positive")
        self.transition = P
        self.emission = E
        self.m = P.shape[0]
        self.n_symbols = E.shape[1]
        if drift_values is None:
            drift_values = np.ones(self.m)
        self.drift_values = np.asarray(drift_values, dtype=float)
        if np.any(self.drift_values < 1):
            raise ValueError("drift values must be >= 1")

    def _check_state(self, x):
        return _check_index(x, self.m, "state")

    def _check_obs(self, y):
        return _check_index(y, self.n_symbols, "symbol")

    def support(self, grid):
        return np.arange(self.m)

    def kernel(self, grid):
        return self.transition

    def log_init(self, nu, grid):
        with np.errstate(divide="ignore"):
            return np.log(nu.weights_finite(self.m))

    def _obs_logpdf(self, x, y):
        return np.log(self.emission[x, y])

    def sample_transition(self, x, rng):
        return int(rng.choice(self.m, p=self.transition[self._check_state(x)]))

    def sample_observation(self, x, rng):
        return int(rng.choice(self.n_symbols, p=self.emission[self._check_state(x)]))

    def log_v(self, x):
        return np.log(self.drift_values[x])

    def log_qv(self, x):
        if np.all(self.drift_values == 1.0):
            return None
        return np.log(self.transition[x] @ self.drift_values / self.drift_values[x])


def _check_finite_rows(M, what):
    """Raise a ValueError naming the first row of the matrix ``M`` that holds
    NaN or an infinity, which every later check of its entries would pass."""
    bad = ~np.isfinite(M).all(axis=1)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise ValueError(f"{what} row {i} {M[i].tolist()} is not finite")


def _first_offender(bad, v, what):
    """'<what> i (v_i)' for the first flagged entry of ``v`` in flat order
    (the record index of a row or column record); no index when ``v`` is a
    scalar."""
    if v.ndim == 0:
        return f"{what} {v}"
    i = int(np.flatnonzero(bad)[0])
    return f"{what} {i} ({v.flat[i]})"


def _check_index(v, size, what):
    """``v`` as integer indices, if every entry is one of 0..size-1.  The range
    is tested before the cast to int, which NaN and ±inf fail."""
    if np.ndim(v) == 0:  # samplers and the filter pass scalars: keep them cheap
        i = int(v) if 0 <= v < size else None
        ok = i is not None and i == v
    else:
        v = np.asarray(v)
        in_range = (v >= 0) & (v < size)
        i = np.where(in_range, v, 0).astype(int)
        bad = ~in_range | (i != v)
        ok, v = not bad.any(), v[bad]  # name only the bad entries
    if not ok:
        raise DomainError(f"{what} {v} outside {{0..{size - 1}}}")
    return i


def _choice_cdf(rows):
    """Each row's cdf as ``Generator.choice(p=row)`` searches it.  A row that
    ``choice`` refuses raises its ValueError; one that sums to 1 well within
    its tolerance, √eps, passes unasked."""
    for row in rows[~(np.abs(rows.sum(axis=1) - 1.0) <= 1e-9) | np.any(rows < 0, axis=1)]:
        np.random.Generator(np.random.Philox(0)).choice(len(row), p=row, size=0)  # checks p
    cdf = rows.cumsum(axis=1)
    return cdf / cdf[:, -1:]


def simulate(model, n, init: InitialDistribution, seed, replication=0):
    """Simulate a length-(n+1) path (x, y) of the generating model: the
    one-replication case of ``_simulate_records``."""
    obs, hidden = _simulate_records(model, n, init, seed, [replication])
    return Trajectory(obs=obs[0], hidden=hidden[0])


def _simulate_records(model, n, init: InitialDistribution, seed, replications):
    """The (len(replications), n + 1) arrays ``obs`` and ``hidden`` of one
    path per replication, row r that of ``simulate(model, n, init, seed, r)``.

    A path is bit-reproducible from (seed, r): step k draws what
    ``substream(seed, r, k)`` draws, and no row depends on the others.  A
    continuous model's steps k >= 1 take their two normals, the
    transition's and the observation's, from one pass over every record
    (``rng.normal_pairs``); each record's state recursion then runs as one
    scalar loop in ``state_mean``'s arithmetic, and the observation channel
    (``observe``) is applied to all records at once.  A finite model's steps
    take their two uniforms from one pass (``rng.uniform_pairs``) and search
    them in each row's cdf as ``choice`` does: each path in one scalar loop,
    then the symbols state by state over every record.  A row ``choice``
    refuses raises its ValueError before step 1, visited or not.  Step 0 of
    each record draws from its own generator, record by record.  A model of
    any other class raises a TypeError naming it.
    """
    n = operator.index(n)
    if n < 0:
        raise ValueError("horizon must be >= 0")
    if not isinstance(model, (FiniteStateModel, GaussianStateModel)):
        raise TypeError(f"simulate cannot draw records of a {type(model).__name__}")
    paths = [(r,) for r in replications]
    if isinstance(model, FiniteStateModel):
        P, E = (_choice_cdf(rows) for rows in (model.transition, model.emission))
        firsts, uniforms = uniform_pairs(seed, paths, n=n + 1)
        starts = []
        for _, rng in zip(paths, firsts):
            x = init.sample(rng)
            starts.append((x, model.sample_observation(x, rng)))
        # bisect_right on a row's floats is searchsorted(cdf, u, "right")
        cdfs, hidden = P.tolist(), []
        for (x, _), us in zip(starts, uniforms[:, :, 0].tolist()):
            i, path = model._check_state(x), [x]
            for u in us:
                i = bisect.bisect_right(cdfs[i], u)
                path.append(i)
            hidden.append(np.asarray(path))
        hidden = np.stack(hidden)
        obs = np.empty(hidden.shape, dtype=int)
        obs[:, 0] = [y for _, y in starts]
        for state, cdf in enumerate(E):
            at = hidden[:, 1:] == state
            obs[:, 1:][at] = cdf.searchsorted(uniforms[:, :, 1][at], "right")
        return obs, hidden
    firsts, pairs = normal_pairs(seed, paths, n=n + 1)
    hidden, first_noise = [], []
    mean, sd = model.state_mean, model.state_sd
    for _, rng, zs in zip(paths, firsts, pairs[:, :, 0].tolist()):
        x = init.sample(rng)
        first_noise.append(rng.standard_normal())
        path = [x]
        for z in zs:
            x = mean(x) + sd * z
            path.append(x)
        hidden.append(np.asarray(path))
    hidden = np.stack(hidden)
    noise = np.column_stack([first_noise, pairs[:, :, 1]])
    return model.observe(hidden, noise), hidden
