"""Evaluation grids and initial distributions.

The midpoint grid is the common substrate for the filter recursion and for
all quadrature in the bound machinery.  An ``InitialDistribution`` can be
projected onto a grid (for filtering) or sampled from (for simulation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import stats
from scipy.special import logsumexp


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
            logw = stats.norm.logpdf(x, loc=self.mean, scale=self.sd)
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
