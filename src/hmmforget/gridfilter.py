"""Deterministic grid implementation of the filtering recursion.

The filtering distribution is represented by normalized log-weights on a
fixed midpoint grid (continuous models) or on the finite state set, with
the accumulated log normalizing constant tracked alongside.  On finite
state spaces the recursion is the exact forward algorithm.

All weight arithmetic is done in the log domain with log-sum-exp, since
likelihoods (the stochastic volatility one in particular) underflow for
large |x|.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import logsumexp

from .grids import GridSpec, InitialDistribution


class DegenerateFilterError(RuntimeError):
    """All filter weights underflowed to zero."""


@dataclass(frozen=True)
class FilterState:
    """Normalized log-weights of the filter plus the running log-normalizer."""

    grid: GridSpec | None  # None on finite state sets
    logw: np.ndarray
    logZ: float

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.logw)

    def mean(self) -> float:
        return float(self.weights @ self._support())

    def variance(self) -> float:
        x = self._support()
        w = self.weights
        mu = w @ x
        return float(w @ (x - mu) ** 2)

    def _support(self) -> np.ndarray:
        return self.grid.centers if self.grid is not None else np.arange(len(self.logw), dtype=float)


def resolve_grid(model, grid: GridSpec | None, m: int | None = None) -> GridSpec | None:
    """None on a finite state set; else ``grid``, or when it is None m cells
    over the truncation domain (with m None too, a grid is required)."""
    if model.kind == "finite":
        return None
    if grid is None:
        if m is None:
            raise ValueError("continuous models need an evaluation grid")
        grid = GridSpec(*model.domain, m)
    return grid


def transition_kernel(model, grid: GridSpec | None) -> np.ndarray:
    """Kernel matrix K[j, k] = Q(x_j, dx_k) on the grid (exact when finite)."""
    return model.kernel(grid)


def _log_likelihood_vector(model, grid, y):
    return model.log_likelihood(model.support(grid), y)


def _normalize(logu, logZ_prev, context):
    z = logsumexp(logu)
    if not np.isfinite(z):
        raise DegenerateFilterError(f"filter weights underflowed to zero ({context})")
    return logu - z, logZ_prev + float(z)


def init_filter(model, grid: GridSpec | None, init: InitialDistribution, y0) -> FilterState:
    """Filter at time 0: weights proportional to nu(cell) g(x_cell, y0)."""
    grid = resolve_grid(model, grid)
    logu = model.log_init(init, grid) + _log_likelihood_vector(model, grid, y0)
    logw, logZ = _normalize(logu, 0.0, "initialization")
    return FilterState(grid=grid, logw=logw, logZ=logZ)


def filter_step(state: FilterState, model, y, kernel: np.ndarray | None = None) -> FilterState:
    """One predict/update step of the recursion.

    ``kernel`` may be passed to reuse a precomputed transition matrix; it
    must match ``transition_kernel(model, state.grid)``.
    """
    if kernel is None:
        kernel = transition_kernel(model, state.grid)
    shift = np.max(state.logw)
    pred = np.exp(state.logw - shift) @ kernel
    with np.errstate(divide="ignore"):
        logpred = np.log(pred) + shift
    logu = logpred + _log_likelihood_vector(model, state.grid, y)
    logw, logZ = _normalize(logu, state.logZ, f"observation {y!r}")
    return replace(state, logw=logw, logZ=logZ)


def tv_distance(a: FilterState, b: FilterState) -> float:
    """Total variation distance sup_A |a(A) - b(A)| = half the L1 distance."""
    if (a.grid != b.grid) or (len(a.logw) != len(b.logw)):
        raise ValueError("filter states live on different grids")
    return 0.5 * float(np.abs(a.weights - b.weights).sum())


def run_two_filters(model, grid, nu, nu_prime, obs):
    """Run the filter from nu and nu_prime on a common observation record.

    Returns a list of (n, tv, logZ_nu, logZ_nu_prime) tuples, one per step.
    """
    obs = np.asarray(obs)
    if len(obs) == 0:
        raise ValueError("need at least one observation")
    a = init_filter(model, grid, nu, obs[0])
    b = init_filter(model, grid, nu_prime, obs[0])
    kernel = transition_kernel(model, a.grid)
    out = [(0, tv_distance(a, b), a.logZ, b.logZ)]
    for n in range(1, len(obs)):
        a = filter_step(a, model, obs[n], kernel)
        b = filter_step(b, model, obs[n], kernel)
        out.append((n, tv_distance(a, b), a.logZ, b.logZ))
    return out
