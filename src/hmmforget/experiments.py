"""Repeated forgetting experiments and observation-driven diagnostics.

An experiment simulates observation records from a generating model
(which may differ from the filtering model — misspecification is just a
different generator), runs the filter twice from two initial laws on each
record, and summarizes how fast their total variation distance decays.

Rate fits are least-squares slopes of log tv(n) over the second half of
the horizon; steps where tv has underflowed below ``TV_FLOOR`` carry no
rate information and are skipped.

Everything is reproducible from (seed, replication): one record pass
(``models._simulate_records``) draws every replication's record, and
replication r still only ever touches the streams keyed (seed, r, .);
reductions across replications happen in a fixed order regardless of the
thread count.  ``run_forgetting`` splits the replications into ``threads``
contiguous blocks and filters each block's records in one lock-step pass
(``gridfilter._run_records``), whose rows equal those of one record at a
time bit for bit, so the outputs do not depend on how the blocks fall.
The threads split the filter only.  The bound and the r-sequences
(``ExperimentResult.bound``, ``.r_seq``) come from one ``_record_terms``
pass over all records, C searched on their observations if not given: the
envelopes once per distinct observation, each law's Phi factors once.  The
bound is written as ``hmmforget bound`` does (``reports.write_bound_csv``),
with ``rep`` first;
its ``tv_curves.csv`` is likewise ``hmmforget filter``'s ``filter_trace.csv``
of each replication, with ``rep`` first (``reports.write_trace_csv``).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass

import numpy as np

from . import reports
from .bounds import (BoundConfig, BoundReport, LDSet, _conditions, _geometric, _record_terms,
                     find_ld_set_for_eta)
from .gridfilter import _run_records, resolve_grid, transition_kernel
from .grids import GridSpec, InitialDistribution
from .models import _simulate_records

DEFAULT_GRID_M = 400
TV_FLOOR = 1e-14


@dataclass
class ExperimentConfig:
    """Filtering model, generating model, initial laws and run lengths."""

    model: object
    star_model: object
    nu: InitialDistribution
    nu_prime: InitialDistribution
    nu_star: InitialDistribution
    n: int
    replications: int
    seed: int
    grid: GridSpec | None = None
    bound_cfg: BoundConfig | None = None
    ld_set: LDSet | None = None  # contraction set C of the bound; None: searched on the records
    threads: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("horizon must be >= 1")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if self.threads < 1:
            raise ValueError("thread count must be >= 1")
        if self.ld_set is not None and self.bound_cfg is None:
            raise ValueError("an ld_set needs a bound_cfg")


def fit_rate(tv) -> float:
    """Slope of log tv(n) against n over the window [n/2, n].

    Floored steps (tv <= TV_FLOOR) are excluded; if the window retains
    fewer than two informative points the fit falls back to the full range,
    and a record with no informative points at all (identical filters)
    gets the sentinel -inf.
    """
    tv = np.asarray(tv, dtype=float)
    n = len(tv) - 1
    window = np.arange(max(n // 2, 1), n + 1)
    usable = window[tv[window] > TV_FLOOR]
    if len(usable) < 2:
        everything = np.arange(1, n + 1)
        usable = everything[tv[everything] > TV_FLOOR]
    if len(usable) < 2:
        return -np.inf
    slope = np.polyfit(usable, np.log(tv[usable]), 1)[0]
    return float(slope)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    tv: np.ndarray                  # (replications, n + 1)
    logZ_nu: np.ndarray
    logZ_nu_prime: np.ndarray
    rates: np.ndarray               # (replications,)
    bound: BoundReport | None = None  # a row per replication, conditions included
    r_seq: RSequenceResult | None = None  # from the bound's record terms

    @property
    def median_rate(self) -> float:
        return float(np.median(self.rates))

    @property
    def rate_iqr(self) -> tuple[float, float]:
        """The quartiles of the rates.  A quartile between two -inf
        sentinels is -inf, where linear interpolation reads NaN."""
        with np.errstate(invalid="ignore"):
            q = np.percentile(self.rates, [25, 75])
        q[np.isnan(q)] = -np.inf  # the rates hold no NaN
        return float(q[0]), float(q[1])


def _records(cfg: ExperimentConfig) -> np.ndarray:
    """The observations of every replication's record, one per row."""
    return _simulate_records(cfg.star_model, cfg.n, cfg.nu_star, cfg.seed,
                             range(cfg.replications))[0]


def _map_ordered(fn, items, threads):
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def run_forgetting(cfg: ExperimentConfig) -> ExperimentResult:
    """Simulate, filter twice per record, and fit per-replication rates.

    The replications are split into ``threads`` contiguous blocks, each
    filtered in one lock-step pass.  A degenerate record raises the
    DegenerateFilterError of the lowest replication that degenerates.  One
    ``_record_terms`` pass over every record gives the bound and ``r_seq``.
    """
    grid = resolve_grid(cfg.model, cfg.grid, DEFAULT_GRID_M)
    kernel = transition_kernel(cfg.model, grid)
    obs = _records(cfg)
    b, C = cfg.bound_cfg, cfg.ld_set
    if b is not None and C is None:  # before the filter, whose work a failed search would waste
        C = find_ld_set_for_eta(cfg.model, b.eta, b.K, obs)
    reps = range(cfg.replications)
    t = min(cfg.threads, len(reps))
    blocks = [reps[len(reps) * i // t:len(reps) * (i + 1) // t] for i in range(t)]

    def filtered(block):
        return _run_records(cfg.model, grid, cfg.nu, cfg.nu_prime, obs[block.start:block.stop],
                            kernel, block)

    passes = _map_ordered(filtered, blocks, cfg.threads)
    tv = np.concatenate([p[0] for p in passes])
    logZ = np.concatenate([p[1] for p in passes])
    out = ExperimentResult(config=cfg, tv=tv, logZ_nu=logZ[:, :, 0],
                           logZ_nu_prime=logZ[:, :, 1],
                           rates=np.array([fit_rate(row) for row in tv]))
    if b is not None:
        terms = _record_terms(cfg.model, cfg.nu, cfg.nu_prime, obs, b.D, C, grid, kernel)
        out.bound, out.r_seq = _geometric(obs, terms, b, C), _r_sequences(obs, terms, b)
    return out


# ---------------------------------------------------------------------------
# Empirical tail frequencies of the bound's observation-driven events


@dataclass
class RSequenceResult:
    """Empirical frequencies, over replications, of the four rare events
    controlling the observation-driven bound at each horizon."""

    ns: np.ndarray
    r0_nu: np.ndarray        # Phi_{nu,D}(y_0, y_1) <= exp(-M0 n)
    r0_nu_prime: np.ndarray
    r1: np.ndarray           # sum_{i=0..n} log Upsilon_X(y_i) >= M1 n
    r2: np.ndarray           # sum_{i=2..n} log Psi_D(y_i) <= -M2 n
    r3: np.ndarray           # #{0 <= i <= n : y_i in K} / (n + 1) < (1 + gamma)/2


def dyadic_horizons(n_max: int) -> np.ndarray:
    ns = []
    n = 4
    while n <= n_max:
        ns.append(n)
        n *= 2
    if not ns or ns[-1] != n_max:
        ns.append(n_max)
    return np.array(ns)


def estimate_r_sequences(cfg: ExperimentConfig) -> RSequenceResult:
    """Monte Carlo estimates of the four event frequencies on a dyadic grid:
    ``run_forgetting``'s ``r_seq`` without the filter."""
    if cfg.bound_cfg is None:
        raise ValueError("r-sequence estimation needs a bound configuration")
    grid = resolve_grid(cfg.model, cfg.grid, DEFAULT_GRID_M)
    obs = _records(cfg)
    terms = _record_terms(cfg.model, cfg.nu, cfg.nu_prime, obs, cfg.bound_cfg.D, None, grid)
    return _r_sequences(obs, terms, cfg.bound_cfg)


def _r_sequences(obs, terms, b: BoundConfig) -> RSequenceResult:
    """The event frequencies over the records ``obs`` (rows), from their _record_terms."""
    ns = dyadic_horizons(obs.shape[-1] - 1)
    k_ok, ups_ok, psi_ok = _conditions(obs, terms, b)[1]
    lphi, lphi2 = terms.log_phi[:, :, None]
    events = np.stack([lphi <= -b.M0 * ns, lphi2 <= -b.M0 * ns,
                       ~ups_ok[:, ns], ~psi_ok[:, ns], ~k_ok[:, ns]], axis=1)
    freq = np.mean(events.astype(float), axis=0)
    return RSequenceResult(
        ns=ns, r0_nu=freq[0], r0_nu_prime=freq[1], r1=freq[2], r2=freq[3], r3=freq[4])


# ---------------------------------------------------------------------------
# Report emission


def emit_report(result: ExperimentResult, out_dir: str) -> None:
    """Write the deterministic CSV/text outputs of an experiment."""
    reports.ensure_dir(out_dir)
    reps = len(result.tv)
    reports.write_trace_csv(result.tv, result.logZ_nu, result.logZ_nu_prime,
                            os.path.join(out_dir, "tv_curves.csv"))
    reports.write_csv(os.path.join(out_dir, "rates.csv"), ["rep", "rate"],
                      [(rep, result.rates[rep]) for rep in range(reps)])
    if result.bound is not None:
        reports.write_bound_csv(result.bound, os.path.join(out_dir, "bound.csv"))
        reports.write_bound_summary(result.bound, os.path.join(out_dir, "bound_summary.json"))
        c = result.bound.conditions
        rows = zip(range(reps), c.avg_k_frequency[:, -1], c.avg_log_upsilon[:, -1],
                   c.avg_log_psi[:, -1], c.all_ok)
        reports.write_csv(os.path.join(out_dir, "conditions.csv"),
                          ["rep", "avg_k_frequency", "avg_log_upsilon",
                           "avg_log_psi", "all_ok"], rows)
    if result.r_seq is not None:
        rows = zip(*astuple(result.r_seq))  # n, r0_nu, r0_nu_prime, r1, r2, r3
        reports.write_csv(os.path.join(out_dir, "r_seq.csv"),
                          ["n", "r0_nu", "r0_nuprime", "r1", "r2", "r3"], rows)
    q1, q3 = result.rate_iqr
    cfg = result.config
    lines = [
        f"model: {cfg.model.kind}",
        f"generator: {cfg.star_model.kind}",
        f"horizon: {cfg.n}",
        f"replications: {cfg.replications}",
        f"seed: {cfg.seed}",
        f"median_rate: {reports.fmt(result.median_rate)}",
        f"rate_iqr: [{reports.fmt(q1)}, {reports.fmt(q3)}]",
    ]
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
