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

The step's contract is its arithmetic, to the last bit: the forgetting
rates are fitted on TV values near 1e-14, where the last bit counts.
- The prediction is one matrix-vector product (GEMV) per row.  One
  product of both rows (a GEMM) rounds differently: it moved tobit's
  median forgetting rate by 1.7e-5.
- The normalizer is ``grids.logsumexp``'s arithmetic.
- A step allocates nothing: it writes into arrays allocated once per
  ``run_two_filters`` call, never shared between calls, and NumPy's error
  state is set once per record.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grids import GridSpec, InitialDistribution, logsumexp_into


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


class _Rows:
    """The recursion on ``r`` rows of log-weights over ``m`` states, in
    arrays allocated once and written in place at every step.

    NumPy's error state must ignore divide and invalid while its methods run:
    a weight that underflows has log -inf.
    """

    def __init__(self, r, m):
        self.logw = np.empty((r, m))  # normalized log-weights
        self.u = np.empty((r, m))     # unnormalized ones
        self.w = np.empty((r, m))     # weights, and scratch of the normalizer
        self.top = np.empty((r, m), bool)
        self.shift, self.z, self.amax, self.c = np.empty((4, r, 1))
        self.lse = self.z[:, 0]       # the rows' log-sum-exp
        self.pairs = list(zip(self.w, self.u))  # the rows of w and u

    def normalize(self, logZ_prev, logZ, y=None, n=None):
        """logw = the rows of u normalized; logZ = logZ_prev + their log-sum-exp."""
        logsumexp_into(self.u, 1, self.z, self.amax, self.c, self.w, self.top)
        if not np.isfinite(self.z).all():  # z is finite exactly when the row maximum is
            what = "initialization" if y is None else f"observation {y}"
            at = "" if n is None else f" at step {n}"
            raise DegenerateFilterError(f"filter weights underflowed to zero{at} ({what})")
        np.subtract(self.u, self.z, out=self.logw)
        np.add(logZ_prev, self.lse, out=logZ)

    def step(self, kernel, loglik, logZ_prev, logZ, y, n=None):
        """Predict the rows of logw through ``kernel``, update them with the
        log-likelihood ``loglik`` of observation ``y`` and normalize."""
        np.maximum.reduce(self.logw, axis=1, keepdims=True, out=self.shift)
        np.subtract(self.logw, self.shift, out=self.w)
        np.exp(self.w, out=self.w)
        for w, u in self.pairs:  # not one GEMM of all rows: it rounds differently
            np.matmul(w, kernel, out=u)
        np.log(self.u, out=self.u)
        np.add(self.u, self.shift, out=self.u)
        np.add(self.u, loglik, out=self.u)
        self.normalize(logZ_prev, logZ, y, n)

    def tv(self):
        """Total variation distance between the laws of the two rows."""
        d = self.u[0]  # u is free between steps
        np.exp(self.logw, out=self.w)
        np.subtract(self.w[0], self.w[1], out=d)
        return 0.5 * float(np.abs(d, out=d).sum())


def init_filter(model, grid: GridSpec | None, init: InitialDistribution, y0) -> FilterState:
    """Filter at time 0: weights proportional to nu(cell) g(x_cell, y0)."""
    grid = resolve_grid(model, grid)
    loglik = model.log_likelihood(model.support(grid), y0)
    rows = _Rows(1, len(loglik))
    np.add(model.log_init(init, grid), loglik, out=rows.u[0])
    logZ = np.empty(1)
    with np.errstate(divide="ignore", invalid="ignore"):
        rows.normalize(0.0, logZ)
    return FilterState(grid=grid, logw=rows.logw[0], logZ=float(logZ[0]))


def filter_step(state: FilterState, model, y, kernel: np.ndarray | None = None) -> FilterState:
    """One predict/update step of the recursion.

    ``kernel`` may be passed to reuse a precomputed transition matrix; it
    must match ``transition_kernel(model, state.grid)``.
    """
    kernel = transition_kernel(model, state.grid) if kernel is None else kernel
    loglik = model.log_likelihood(model.support(state.grid), y)
    rows = _Rows(1, len(state.logw))
    rows.logw[0] = state.logw
    logZ = np.empty(1)
    with np.errstate(divide="ignore", invalid="ignore"):
        rows.step(kernel, loglik, state.logZ, logZ, y)
    return replace(state, logw=rows.logw[0], logZ=float(logZ[0]))


def tv_distance(a: FilterState, b: FilterState) -> float:
    """Total variation distance sup_A |a(A) - b(A)| = half the L1 distance."""
    if (a.grid != b.grid) or (len(a.logw) != len(b.logw)):
        raise ValueError("filter states live on different grids")
    rows = _Rows(2, len(a.logw))
    rows.logw[:] = a.logw, b.logw
    return rows.tv()


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
    rows = _Rows(2, loglik.shape[1])
    rows.u[:] = model.log_init(nu, grid), model.log_init(nu_prime, grid)
    np.add(rows.u, loglik[0], out=rows.u)
    tv, logZ = np.empty(len(obs)), np.empty((len(obs), 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        rows.normalize(0.0, logZ[0], n=0)
        tv[0] = rows.tv()
        for n in range(1, len(obs)):
            rows.step(kernel, loglik[n], logZ[n - 1], logZ[n], obs[n], n)
            tv[n] = rows.tv()
    return [(n, *row) for n, row in enumerate(zip(tv.tolist(), *logZ.T.tolist()))]
