"""Model zoo: finite-state HMM and four continuous-state models.

Every model exposes the same surface: a transition density q(x, x') with
respect to the state dominating measure, a strictly positive likelihood
g(x, y) with respect to the observation dominating measure, a drift
function V >= 1, exact samplers, and the ratio QV/V used by the bound
machinery.  The filter and the bounds use only the surface of
``StateSpaceModel``, listed in the README: ``kind``, ``mean_slope``,
``domain`` (continuous models), ``support(grid)``, ``kernel(grid)``,
``log_init(nu, grid)``, ``log_v(x)``, ``log_qv(x)`` (None when V == 1) and
``loglik(x, y)`` (log g broadcast over x and y, with y checked against the
observation domain and x unchecked, so quadrature may leave the filter's
domain).  A subclass supplies the others plus ``_obs_logpdf``,
``_check_state``, ``_check_obs`` and the two samplers; the base derives
``loglik``, the domain-checked ``log_likelihood`` and ``sample_step``.

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

from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr

from .grids import InitialDistribution, norm_logpdf
from .rng import substream

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
    """A simulated path (or observation-only record) of the generating model."""

    obs: np.ndarray
    hidden: np.ndarray | None = None

    def __post_init__(self):
        self.obs = np.asarray(self.obs)
        if self.hidden is not None:
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

    mean_slope = None

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
    ``state_mean``, and beta scales the observation noise.  The default
    truncation domain is DOMAIN_SD_MULTIPLE stationary s.d.s of the AR(1)
    chain with slope phi.  Subclasses define the observation channel.
    """

    kind = "abstract"

    def __init__(self, phi, sigma, beta, drift=None, domain_halfwidth=None):
        if not abs(phi) < 1:
            raise ValueError("autoregression needs |phi| < 1")
        if sigma <= 0:
            raise ValueError("state noise s.d. must be positive")
        if beta <= 0:
            raise ValueError("observation noise s.d. must be positive")
        self.phi = self.mean_slope = float(phi)
        self.state_sd = float(sigma)
        self.beta = float(beta)
        self.drift = drift if drift is not None else DriftFunction.one()
        if domain_halfwidth is None:
            domain_halfwidth = DOMAIN_SD_MULTIPLE * sigma / np.sqrt(1 - phi * phi)
        self.domain = (-float(domain_halfwidth), float(domain_halfwidth))

    # -- transition ---------------------------------------------------------

    def state_mean(self, x):
        return self.phi * np.asarray(x, dtype=float)

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

    def _obs_logpdf(self, x, y):
        raise NotImplementedError

    # -- sampling -----------------------------------------------------------

    def sample_transition(self, x, rng):
        return self.state_mean(x) + self.state_sd * rng.standard_normal()

    def sample_observation(self, x, rng):
        raise NotImplementedError

    # -- drift --------------------------------------------------------------

    def log_v(self, x):
        return self.drift.log(x)

    def log_qv(self, x):
        return None if self.drift.form == "one" else np.log(self.qv_ratio_exact(x))

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
        self.h0 = float(h0)

    def _obs_logpdf(self, x, y):
        return norm_logpdf(y, self.h0 * x, self.beta)

    def sample_observation(self, x, rng):
        return self.h0 * x + self.beta * rng.standard_normal()


class TobitModel(GaussianStateModel):
    """Dynamic tobit: AR(1) state, observation max(x + beta e, 0).

    Observation dominating measure is delta_0 + Lebesgue: the likelihood at
    y = 0 is the censoring probability P(x + beta e <= 0), at y > 0 a
    Gaussian density.
    """

    kind = "tobit"

    def _check_obs(self, y):
        y = super()._check_obs(y)
        bad = y < 0
        if bad.any():
            raise DomainError(f"tobit {_first_offender(bad, y, 'observation')} is negative")
        return y

    def _obs_logpdf(self, x, y):
        # the censoring branch depends on x alone: O(grid), broadcast by where
        x = np.asarray(x, dtype=float)
        return np.where(y == 0, log_ndtr(-x / self.beta), norm_logpdf(y, x, self.beta))

    def sample_observation(self, x, rng):
        return max(x + self.beta * rng.standard_normal(), 0.0)


class NLSSM(GaussianStateModel):
    """1-d nonlinear Gaussian model x' = x + b(x) + sigma0 z, y = h(x) + beta e.

    Catalog of drifts b: ``linear_shrink`` gives b(x) = -delta x (contracts for
    delta in (0, 2)); ``tanh`` gives b(x) = -delta x + kappa tanh(x) (bounded
    perturbation of the shrink).  Observation maps: identity or affine
    h(x) = a x + b_off.  Both catalogs keep |x + b(x)| - |x| -> -infinity.
    """

    kind = "nlssm"

    def __init__(self, drift_form, delta, sigma0, beta, kappa=0.0,
                 obs_form="identity", obs_a=1.0, obs_b=0.0,
                 drift=None, domain_halfwidth=None):
        if drift_form not in ("linear_shrink", "tanh"):
            raise ValueError(f"unknown state drift form {drift_form!r}")
        if not 0 < delta < 2:
            raise ValueError("linear shrink needs delta in (0, 2)")
        if obs_form not in ("identity", "affine"):
            raise ValueError(f"unknown observation map {obs_form!r}")
        super().__init__(1 - delta, sigma0, beta, drift, domain_halfwidth)
        self.drift_form = drift_form
        self.delta = float(delta)
        if drift_form == "tanh":
            self.mean_slope = None  # the mean is not affine in x
        self.kappa = float(kappa)
        self.obs_form = obs_form
        self.obs_a = float(obs_a)
        self.obs_b = float(obs_b)

    def state_mean(self, x):
        x = np.asarray(x, dtype=float)
        mean = self.phi * x
        if self.drift_form == "tanh":
            mean = mean + self.kappa * np.tanh(x)
        return mean

    def obs_map(self, x):
        x = np.asarray(x, dtype=float)
        if self.obs_form == "identity":
            return x
        return self.obs_a * x + self.obs_b

    def _obs_logpdf(self, x, y):
        return norm_logpdf(y, self.obs_map(x), self.beta)

    def sample_observation(self, x, rng):
        return float(self.obs_map(x)) + self.beta * rng.standard_normal()


class StochVolModel(GaussianStateModel):
    """Canonical stochastic volatility model: y = beta exp(x/2) e."""

    kind = "stochvol"

    def _obs_logpdf(self, x, y):
        x, y = np.broadcast_arrays(x, y)
        b2 = self.beta * self.beta
        return -0.5 * np.log(2 * np.pi * b2) - y * y * np.exp(-x) / (2 * b2) - x / 2

    def sample_observation(self, x, rng):
        return self.beta * np.exp(x / 2) * rng.standard_normal()


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
        if np.any(P < 0) or np.any(np.abs(P.sum(axis=1) - 1.0) > 1e-12):
            raise ValueError("transition rows must be nonnegative and sum to 1 within 1e-12")
        if E.ndim != 2 or E.shape[0] != P.shape[0]:
            raise ValueError("emission must have one row per state")
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


def simulate(model, n, init: InitialDistribution, seed, replication=0):
    """Simulate a length-(n+1) path (x, y) of the generating model.

    The path is bit-reproducible from (seed, replication): step k draws from
    the stream keyed (seed, replication, k).
    """
    if n < 0:
        raise ValueError("horizon must be >= 0")
    rng0 = substream(seed, replication, 0)
    x = init.sample(rng0)
    hidden = [x]
    obs = [model.sample_observation(x, rng0)]
    for k in range(1, n + 1):
        rng = substream(seed, replication, k)
        x, y = model.sample_step(x, rng)
        hidden.append(x)
        obs.append(y)
    return Trajectory(obs=np.asarray(obs), hidden=np.asarray(hidden))
