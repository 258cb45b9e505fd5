"""Deterministic grid implementation of the filtering recursion.

The filtering distribution is represented by normalized log-weights on a
fixed midpoint grid (continuous models) or on the finite state set, with
the accumulated log normalizing constant tracked alongside.  On finite
state spaces the recursion is the exact forward algorithm.

All weight arithmetic is done in the log domain with log-sum-exp, since
likelihoods (the stochastic volatility one in particular) underflow for
large |x|.

``run_two_filters`` carries the filters from nu and nu' as the two rows of
one (2, m) array and evaluates the record's likelihood once, as an
(n + 1, m) matrix.  Its step is the one ``filter_step`` takes on one row, so
its output equals an ``init_filter`` + ``filter_step`` loop bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grids import GridSpec, InitialDistribution, logsumexp


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


def _normalize(logu, logZ_prev, y=None):
    """Normalize the rows of ``logu`` and add their log-sum-exp to ``logZ_prev``."""
    z = logsumexp(logu, axis=1)
    if not np.isfinite(z).all():  # z is finite exactly when the row maximum is
        where = "initialization" if y is None else f"observation {y}"
        raise DegenerateFilterError(f"filter weights underflowed to zero ({where})")
    return logu - z[:, None], logZ_prev + z


def _step(logw, logZ, kernel, loglik, y):
    """Predict and update the rows of ``logw`` with observation ``y``: one
    matrix-vector product per row, as one product of all rows rounds differently."""
    shift = np.max(logw, axis=1, keepdims=True)
    pred = np.stack([row @ kernel for row in np.exp(logw - shift)])
    with np.errstate(divide="ignore"):
        logu = np.log(pred) + shift + loglik
    return _normalize(logu, logZ, y)


def _tv(logw):
    """Total variation distance between the laws with the two rows of log-weights."""
    return 0.5 * float(np.abs(np.subtract(*np.exp(logw))).sum())


def init_filter(model, grid: GridSpec | None, init: InitialDistribution, y0) -> FilterState:
    """Filter at time 0: weights proportional to nu(cell) g(x_cell, y0)."""
    grid = resolve_grid(model, grid)
    logu = model.log_init(init, grid) + model.log_likelihood(model.support(grid), y0)
    logw, logZ = _normalize(logu[None], 0.0)
    return FilterState(grid=grid, logw=logw[0], logZ=float(logZ[0]))


def filter_step(state: FilterState, model, y, kernel: np.ndarray | None = None) -> FilterState:
    """One predict/update step of the recursion.

    ``kernel`` may be passed to reuse a precomputed transition matrix; it
    must match ``transition_kernel(model, state.grid)``.
    """
    kernel = transition_kernel(model, state.grid) if kernel is None else kernel
    loglik = model.log_likelihood(model.support(state.grid), y)
    logw, logZ = _step(state.logw[None], state.logZ, kernel, loglik, y)
    return replace(state, logw=logw[0], logZ=float(logZ[0]))


def tv_distance(a: FilterState, b: FilterState) -> float:
    """Total variation distance sup_A |a(A) - b(A)| = half the L1 distance."""
    if (a.grid != b.grid) or (len(a.logw) != len(b.logw)):
        raise ValueError("filter states live on different grids")
    return _tv(np.stack([a.logw, b.logw]))


def run_two_filters(model, grid, nu, nu_prime, obs, kernel=None):
    """Run the filter from nu and nu_prime on a common observation record.

    Returns a list of (n, tv, logZ_nu, logZ_nu_prime) tuples, one per step.
    ``kernel`` is as in ``filter_step``.
    """
    obs = np.asarray(obs)
    if len(obs) == 0:
        raise ValueError("need at least one observation")
    grid = resolve_grid(model, grid)
    loglik = model.log_likelihood(model.support(grid)[None, :], obs[:, None])
    kernel = transition_kernel(model, grid) if kernel is None else kernel
    logu = np.stack([model.log_init(nu, grid), model.log_init(nu_prime, grid)])
    logw, logZ = _normalize(logu + loglik[0], 0.0)
    out = [(0, _tv(logw), *logZ.tolist())]
    for n in range(1, len(obs)):
        logw, logZ = _step(logw, logZ, kernel, loglik[n], obs[n])
        out.append((n, _tv(logw), *logZ.tolist()))
    return out
