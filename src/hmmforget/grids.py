"""Evaluation grids and initial distributions.

The midpoint grid is the common substrate for the filter recursion and for
all quadrature in the bound machinery.  An ``InitialDistribution`` can be
projected onto a grid (for filtering) or sampled from (for simulation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_NORM_LOG_C = np.log(np.sqrt(2 * np.pi))


def logsumexp(u, axis=None):
    """log sum exp(u) over ``axis`` (every entry when None).

    The operations and their order are those of SciPy 1.17's
    ``special.logsumexp``, so the two agree bit for bit, ties and -inf
    entries included: with c entries equal to the maximum a and s the sum of
    exp(u - a) over the rest, the result is log1p(s / c) + log c + a, which
    is -inf when every entry is -inf.
    """
    u = np.asarray(u, dtype=float)
    kept = tuple(1 if axis is None or k == axis % u.ndim else n for k, n in enumerate(u.shape))
    z, amax, c = (np.empty(kept) for _ in range(3))
    with np.errstate(invalid="ignore", divide="ignore"):
        logsumexp_into(u, axis, z, amax, c, np.empty_like(u), np.empty(u.shape, bool))
    z = np.squeeze(z, axis=axis)
    return z[()] if z.ndim == 0 else z


def logsumexp_into(u, axis, z, amax, c, e, top):
    """``logsumexp(u, axis)`` with the reduced axis kept, written into ``z``.

    Allocates nothing: ``amax`` and ``c`` are scratch of z's shape, ``e`` (float)
    and ``top`` (bool) scratch of u's.  NumPy's error state must ignore
    invalid and divide, for rows whose every entry is -inf.
    """
    np.maximum.reduce(u, axis=axis, keepdims=True, out=amax)
    np.equal(u, amax, out=top)
    np.subtract(u, amax, out=e)
    np.exp(e, out=e)
    np.copyto(e, 0.0, where=top)
    np.add.reduce(top, axis=axis, keepdims=True, out=c)  # the count of maxima, exact
    np.add.reduce(e, axis=axis, keepdims=True, out=z)
    np.divide(z, c, out=z)
    np.log1p(z, out=z)
    np.add(z, np.log(c, out=c), out=z)
    np.add(z, amax, out=z)


def norm_logpdf(x, loc, scale):
    """log N(x; loc, scale^2), broadcast over x and loc, for a scale > 0.

    The operations and their order are those of SciPy 1.17's
    ``stats.norm.logpdf``, so the two agree bit for bit.
    """
    # an array even for scalar inputs, so that z**2 is NumPy's square as in SciPy
    z = np.asarray((np.asarray(x, dtype=float) - loc) / scale)
    return -z**2 / 2.0 - _NORM_LOG_C - np.log(scale)


@dataclass(frozen=True)
class GridSpec:
    """Midpoint quadrature grid on [lo, hi] with m cells."""

    lo: float
    hi: float
    m: int

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"grid bounds must satisfy lo < hi, got [{self.lo}, {self.hi}]")
        if self.m < 16:
            raise ValueError(f"grid must have at least 16 cells, got m={self.m}")

    @property
    def delta(self) -> float:
        return (self.hi - self.lo) / self.m

    @property
    def centers(self) -> np.ndarray:
        return self.lo + (np.arange(self.m) + 0.5) * self.delta


@dataclass(frozen=True)
class InitialDistribution:
    """Initial law of the hidden state.

    ``form`` is one of ``gaussian``, ``uniform``, ``point_mass`` and
    ``finite`` (probability vector over a finite state set).
    """

    form: str
    mean: float = 0.0
    sd: float = 1.0
    a: float = 0.0
    b: float = 1.0
    x: float = 0.0
    values: np.ndarray | None = field(default=None)

    @classmethod
    def gaussian(cls, mean, sd):
        if sd <= 0:
            raise ValueError("gaussian initial distribution needs sd > 0")
        return cls("gaussian", mean=float(mean), sd=float(sd))

    @classmethod
    def uniform(cls, a, b):
        if not a < b:
            raise ValueError("uniform initial distribution needs a < b")
        return cls("uniform", a=float(a), b=float(b))

    @classmethod
    def point_mass(cls, x):
        # an integer stays one, so that it samples as a finite state
        return cls("point_mass", x=x if isinstance(x, (int, np.integer)) else float(x))

    @classmethod
    def finite(cls, p):
        p = np.asarray(p, dtype=float)
        if np.any(p < 0) or p.sum() <= 0:
            raise ValueError("finite initial vector must be nonnegative and normalizable")
        return cls("finite", values=p / p.sum())

    def log_weights_on(self, grid: GridSpec) -> np.ndarray:
        """Normalized log cell-probabilities of this law on ``grid``."""
        x = grid.centers
        if self.form == "gaussian":
            logw = norm_logpdf(x, self.mean, self.sd)
        elif self.form == "uniform":
            logw = np.where((x >= self.a) & (x <= self.b), 0.0, -np.inf)
        elif self.form == "point_mass":
            logw = np.full(grid.m, -np.inf)
            if grid.lo <= self.x <= grid.hi:
                k = int(np.floor((self.x - grid.lo) / grid.delta))
                logw[min(k, grid.m - 1)] = 0.0
        elif self.form == "finite":
            raise ValueError("finite initial vector cannot be projected on a continuous grid")
        else:  # pragma: no cover
            raise ValueError(f"unknown initial distribution form {self.form!r}")
        z = logsumexp(logw)
        if not np.isfinite(z):
            raise ValueError("initial distribution has no mass on the grid")
        return logw - z

    def weights_finite(self, m: int) -> np.ndarray:
        if self.form == "finite":
            if len(self.values) != m:
                raise ValueError("finite initial vector length does not match the state set")
            return self.values
        if self.form == "point_mass":
            if not (float(self.x).is_integer() and 0 <= self.x < m):
                raise ValueError(f"point mass at {self.x} is not a state of {{0..{m - 1}}}")
            p = np.zeros(m)
            p[int(self.x)] = 1.0
            return p
        raise ValueError(f"{self.form!r} initial distribution is not defined on a finite state set")

    def sample(self, rng: np.random.Generator) -> float:
        if self.form == "gaussian":
            return self.mean + self.sd * rng.standard_normal()
        if self.form == "uniform":
            return self.a + (self.b - self.a) * rng.random()
        if self.form == "point_mass":
            return self.x
        if self.form == "finite":
            return int(rng.choice(len(self.values), p=self.values))
        raise ValueError(f"cannot sample from {self.form!r} without a grid")
