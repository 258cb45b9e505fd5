"""Deterministic grid implementation of the filtering recursion.

The filtering distribution is represented by normalized log-weights on a
fixed midpoint grid (continuous models) or on the finite state set, with
the accumulated log normalizing constant tracked alongside.  On finite
state spaces the recursion is the exact forward algorithm.

All weight arithmetic is done in the log domain with log-sum-exp, since
likelihoods (the stochastic volatility one in particular) underflow for
large |x|.

``_run_records`` runs the filters from nu and nu' on every record of a
batch in lock-step: the 2R rows of one array, the two of record r at rows
2r and 2r + 1, so that each elementwise and reduction call of a step
serves every record.  It evaluates the likelihood in blocks of about
min(n + 1, 256) / R steps, so a pass holds at most 256 steps of one
record's likelihood at any time, whatever the horizon.  ``run_two_filters``
and ``hmmforget filter`` are its one-record case and ``run_forgetting``
(``experiments``) runs it on blocks of replications.  Its step is the one
``filter_step`` takes on one row, so its output equals an ``init_filter`` +
``filter_step`` loop bit for bit, whatever the batch.

The step's contract is its arithmetic, to the last bit: the forgetting
rates are fitted on TV values near 1e-14, where the last bit counts.
- The prediction is one matrix-vector product (GEMV) per row: one
  ``np.matmul`` of the rows as a stack of (1, m) matrices, which NumPy
  takes as a GEMV per row.  One product of several rows (a GEMM) rounds
  differently: it moved tobit's median forgetting rate by 1.7e-5.
- The normalizer is ``grids.logsumexp``'s arithmetic.  The next step's
  shift, max(logw), is taken as amax - z from it: rounding is monotone,
  so that is the same float.
- A step allocates nothing: it writes into arrays allocated once per
  pass, never shared between passes, and NumPy's error state is set once
  per pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .grids import GridSpec, InitialDistribution, logsumexp_into


class DegenerateFilterError(RuntimeError):
    """All filter weights underflowed to zero."""


@dataclass(frozen=True)
class FilterState:
    """Normalized log-weights, running log-normalizer and the grid's kernel."""

    grid: GridSpec | None  # None on finite state sets
    logw: np.ndarray
    logZ: float
    kernel: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.logw)


def resolve_grid(model, grid: GridSpec | None, m: int | None = None) -> GridSpec | None:
    """None on a finite state set, which takes no grid; else ``grid``, or
    when it is None m cells over the truncation domain (with m None too, a
    grid is required)."""
    if model.kind == "finite":
        if grid is not None:
            raise ValueError("a finite model has no evaluation grid")
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
    arrays allocated once and written in place at every step.  The rows
    fall in consecutive groups of ``group``, which share a likelihood row
    (the two filters of one record).

    NumPy's error state must ignore divide and invalid while its methods run:
    a weight that underflows has log -inf.
    """

    def __init__(self, r, m, group=1):
        self.logw = np.empty((r, m))  # normalized log-weights
        self.u = np.empty((r, m))     # unnormalized ones
        self.w = np.empty((r, m))     # weights, and scratch of the normalizer
        self.top = np.empty((r, m), bool)
        self.shift, self.z, self.amax, self.c = np.empty((4, r, 1))  # shift: max of logw
        self.lse = self.z[:, 0]       # the rows' log-sum-exp
        self.groups = self.u.reshape(-1, group, m)
        self.stacks = self.w[:, None], self.u[:, None]  # each row a (1, m) matrix
        self.halves = self.w[0::2], self.w[1::2]  # the laws the TV compares
        self.d = self.u[:r // 2]      # their difference; u is free between steps

    def normalized(self, logZ_prev, logZ):
        """logw = the rows of u normalized, shift = their maxima and logZ =
        logZ_prev + their log-sum-exp; False, with logw and logZ left
        unwritten, when a row underflowed to zero (its ``lse`` is not finite)."""
        logsumexp_into(self.u, 1, self.z, self.amax, self.c, self.w, self.top)
        if not math.isfinite(np.add.reduce(self.lse)):  # z is finite exactly when amax is
            return False
        np.subtract(self.u, self.z, out=self.logw)
        np.subtract(self.amax, self.z, out=self.shift)  # = max(u - z): rounding is monotone
        np.add(logZ_prev, self.lse, out=logZ)
        return True

    def step(self, kernel, loglik, logZ_prev, logZ):
        """Predict the rows of logw through ``kernel``, add the log-likelihood
        ``loglik`` (one row per group, broadcast against ``groups``) and
        normalize; False as ``normalized``."""
        np.subtract(self.logw, self.shift, out=self.w)
        np.exp(self.w, out=self.w)
        np.matmul(self.stacks[0], kernel, out=self.stacks[1])  # a GEMV per row, not a GEMM
        np.log(self.u, out=self.u)
        np.add(self.u, self.shift, out=self.u)
        np.add(self.groups, loglik, out=self.groups)
        return self.normalized(logZ_prev, logZ)

    def tv(self, out):
        """The total variation distance between the laws of rows 2i and
        2i + 1, into out[i]."""
        np.exp(self.logw, out=self.w)
        np.subtract(*self.halves, out=self.d)
        np.abs(self.d, out=self.d)
        np.add.reduce(self.d, axis=1, out=out)
        np.multiply(out, 0.5, out=out)


def _underflow(y=None, n=None, rep=None):
    what = "initialization" if y is None else f"observation {y}"
    of = "" if rep is None else f" in replication {rep}"
    at = "" if n is None else f" at step {n}"
    return DegenerateFilterError(f"filter weights underflowed to zero{of}{at} ({what})")


def init_filter(model, grid: GridSpec | None, init: InitialDistribution, y0) -> FilterState:
    """Filter at time 0: weights proportional to nu(cell) g(x_cell, y0)."""
    grid = resolve_grid(model, grid)
    loglik = model.log_likelihood(model.support(grid), y0)
    rows = _Rows(1, len(loglik))
    np.add(model.log_init(init, grid), loglik, out=rows.u[0])
    logZ = np.empty(1)
    with np.errstate(divide="ignore", invalid="ignore"):
        if not rows.normalized(0.0, logZ):
            raise _underflow()
    return FilterState(grid, rows.logw[0], float(logZ[0]), transition_kernel(model, grid))


def filter_step(state: FilterState, model, y) -> FilterState:
    """One predict/update step of the recursion, through ``state.kernel``
    (built here, and carried on, for a state without one)."""
    kernel = transition_kernel(model, state.grid) if state.kernel is None else state.kernel
    loglik = model.log_likelihood(model.support(state.grid), y)
    rows = _Rows(1, len(state.logw))
    rows.logw[0] = state.logw
    np.maximum.reduce(rows.logw, axis=1, keepdims=True, out=rows.shift)
    logZ = np.empty(1)
    with np.errstate(divide="ignore", invalid="ignore"):
        if not rows.step(kernel, loglik, state.logZ, logZ):
            raise _underflow(y)
    return replace(state, logw=rows.logw[0], logZ=float(logZ[0]), kernel=kernel)


def tv_distance(a: FilterState, b: FilterState) -> float:
    """Total variation distance sup_A |a(A) - b(A)| = half the L1 distance."""
    if (a.grid != b.grid) or (len(a.logw) != len(b.logw)):
        raise ValueError("filter states live on different grids")
    return float(0.5 * np.abs(a.weights - b.weights).sum())


def _run_records(model, grid, nu, nu_prime, obs, kernel, reps=None):
    """The filters from nu and nu_prime on each record of ``obs`` (R, n + 1),
    one per row, in lock-step: the TV (R, n + 1) and the log-normalizers
    (R, n + 1, 2), nu's then nu_prime's.

    The likelihood is evaluated in blocks of max(1, min(n + 1, 256) // R)
    steps.  Records of no observation are refused.  A record whose weights
    underflow raises a DegenerateFilterError naming its step and observation,
    and its replication ``reps[r]`` where ``reps`` is given; a lower record
    that underflows at a later step is the one raised, as a loop over the
    records would raise it.
    """
    R, steps = obs.shape
    if steps == 0:
        raise ValueError("need at least one observation")
    if R > 1:  # name a bad observation by its step in its record, not in a block
        for row in obs:
            model._check_obs(row)
    x = model.support(grid)
    rows = _Rows(2 * R, len(x), 2)
    ys = obs.T[:, :, None, None]  # (step, record, filter, state)
    block = max(1, min(steps, 256) // R)
    tv, logZ = np.empty((steps, R)), np.empty((steps, 2 * R))
    with np.errstate(divide="ignore", invalid="ignore"):
        for n in range(steps):
            k = n % block
            if k == 0:
                loglik = None  # drop the last block before the next is evaluated
                loglik = model.log_likelihood(x, ys[n:n + block])
            if n == 0:
                rows.groups[:] = model.log_init(nu, grid), model.log_init(nu_prime, grid)
                np.add(rows.groups, loglik[0], out=rows.groups)
                ok = rows.normalized(0.0, logZ[0])
            else:
                ok = rows.step(kernel, loglik[k], logZ[n - 1], logZ[n])
            if not ok:
                r = int(np.flatnonzero(~np.isfinite(rows.lse))[0]) // 2
                if r:  # raises if a lower record underflows later
                    _run_records(model, grid, nu, nu_prime, obs[:r], kernel,
                                 None if reps is None else reps[:r])
                raise _underflow(obs[r, n] if n else None, n, None if reps is None else reps[r])
            rows.tv(tv[n])
    return tv.T, logZ.reshape(steps, R, 2).transpose(1, 0, 2)


def run_two_filters(model, grid, nu, nu_prime, obs):
    """Run the filter from nu and nu_prime on a common observation record.

    Returns a list of (n, tv, logZ_nu, logZ_nu_prime) tuples, one per step.
    """
    grid = resolve_grid(model, grid)
    tv, logZ = _run_records(model, grid, nu, nu_prime, np.asarray(obs)[None],
                            transition_kernel(model, grid))
    return [(n, *row) for n, row in enumerate(zip(tv[0].tolist(), *logZ[0].T.tolist()))]
