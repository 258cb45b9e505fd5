import csv
import enum

import numpy as np
import pytest
from scipy import stats
from scipy.special import logsumexp as scipy_logsumexp

from hmmforget import (LGSSM, DriftFunction, GridSpec, InitialDistribution, StochVolModel,
                       TobitModel, certify_ld_set, grids, simulate, transition_kernel)
from hmmforget.bounds import _log_sup, _record_series
from hmmforget.gridfilter import _run_records
from hmmforget.grids import logsumexp, norm_logpdf
from hmmforget.reports import fmt, write_csv
from hmmforget.verify import _qv_numeric


def test_grid_spec_validation_and_geometry():
    g = GridSpec(-2.0, 2.0, 16)
    assert g.delta == pytest.approx(0.25)
    assert len(g.centers) == 16
    assert g.centers[0] == pytest.approx(-2.0 + 0.125)
    with pytest.raises(ValueError):
        GridSpec(1.0, -1.0, 100)
    with pytest.raises(ValueError):
        GridSpec(-1.0, 1.0, 8)


def test_initial_distribution_weights_normalize():
    g = GridSpec(-8.0, 8.0, 400)
    for init in (InitialDistribution.gaussian(0.5, 1.0),
                 InitialDistribution.uniform(-1.0, 2.0),
                 InitialDistribution.point_mass(0.3)):
        w = np.exp(init.log_weights_on(g))
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        # all mass outside the grid
        InitialDistribution.uniform(100.0, 101.0).log_weights_on(g)


def test_point_mass_lands_in_its_cell():
    g = GridSpec(0.0, 1.0, 20)
    w = np.exp(InitialDistribution.point_mass(0.37).log_weights_on(g))
    assert w[7] == pytest.approx(1.0)  # 0.37 lies in cell [0.35, 0.40)


@pytest.mark.parametrize("x", [-1, 1.7, 5])
def test_point_mass_off_the_state_set_rejected(x):
    with pytest.raises(ValueError):
        InitialDistribution.point_mass(x).weights_finite(3)


def test_point_mass_off_the_grid_rejected():
    g = GridSpec(-10.0, 10.0, 400)
    with pytest.raises(ValueError):
        InitialDistribution.point_mass(100.0).log_weights_on(g)
    w = np.exp(InitialDistribution.point_mass(10.0).log_weights_on(g))
    assert w[-1] == 1.0  # the upper edge belongs to the last cell


def test_finite_vector_round_trip():
    init = InitialDistribution.finite([2.0, 1.0, 1.0])
    assert np.allclose(init.weights_finite(3), [0.5, 0.25, 0.25])
    with pytest.raises(ValueError):
        init.weights_finite(4)
    with pytest.raises(ValueError):
        InitialDistribution.gaussian(0, 1).weights_finite(3)


def test_sampling_matches_form():
    rng = np.random.default_rng(0)
    assert InitialDistribution.point_mass(1.5).sample(rng) == 1.5
    u = InitialDistribution.uniform(2.0, 3.0).sample(rng)
    assert 2.0 <= u <= 3.0
    k = InitialDistribution.finite([0.0, 1.0]).sample(rng)
    assert k == 1


def test_csv_float_format_round_trips():
    x = 0.1 + 0.2
    assert float(fmt(x)) == x
    assert fmt(True) == "true" and fmt(np.False_) == "false"


def test_empty_rows_give_header_only_csv(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, ["a", "b"], [])
    assert path.read_text() == "a,b\n"


def write_csv_cell_by_cell(path, header, rows):
    """write_csv as every row was written before row templates: fmt on each
    cell, then the csv module."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


class Level(enum.IntEnum):
    LOW = 1


def test_csv_rows_equal_the_cell_by_cell_formatter(tmp_path):
    floats = [0.0, -0.0, 0.1 + 0.2, -1.5e300, 1e-300, 5e-324, -5e-324, np.inf, -np.inf,
              np.nan, 1.0, 123456789.0, 2.0**60, 1 / 3]
    ints = [0, -1, 7, 2**70, np.int64(-5), np.int32(3), np.uint64(2**64 - 1), np.int8(-128)]
    with np.errstate(over="ignore"):  # -1.5e300 is -inf in float32
        rows = [(i, f, np.float64(f), np.float32(f)) for i, f in zip(ints * 2, floats)]
    rows += [(3, True, np.False_, 1.5), (np.True_, "a,b", 'say "hi"', "plain"),
             ("x\ny", -0.0, 2, Level.LOW), (1, 2), (), [4, 0.25, np.int64(9)],
             (1, 2.0), (1.0, 2), (np.float64(-0.0), np.int64(0))]
    got, want = tmp_path / "rows.csv", tmp_path / "cells.csv"
    write_csv(got, ["a", "b,c", "d"], iter(rows))
    write_csv_cell_by_cell(want, ["a", "b,c", "d"], rows)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("x_shape,loc_shape", [
    ((4096, 1), (1, 500)), ((1, 400), (200, 1)), ((1,), (1,)), ((), ()),
], ids=["envelope", "kernel", "one", "scalar"])
def test_norm_logpdf_equals_scipy_bit_for_bit(x_shape, loc_shape):
    # SciPy 1.17's formula, operation for operation: the default-seed
    # fingerprints of the benchmark hold only if not one bit moves
    rng = np.random.default_rng(11)
    x = rng.normal(0.0, 6.0, size=x_shape)
    loc = rng.normal(0.0, 3.0, size=loc_shape)
    for scale in (1.0, 0.3, 2.7):
        ours = norm_logpdf(x, loc, scale)
        ref = stats.norm.logpdf(x, loc=loc, scale=scale)
        assert type(ours) is type(ref)
        assert np.shape(ours) == np.shape(ref)
        assert np.array_equal(ours, ref)


def test_gaussian_initial_weights_equal_scipy_bit_for_bit():
    g = GridSpec(-8.0, 8.0, 400)
    nu = InitialDistribution.gaussian(0.4, 1.3)
    logw = stats.norm.logpdf(g.centers, loc=0.4, scale=1.3)
    assert np.array_equal(nu.log_weights_on(g), logw - scipy_logsumexp(logw))


def adversarial_rows(shape, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(-5.0, 2.0, size=shape).round(1)  # rounded: many ties
    a[rng.random(shape) < 0.2] = -np.inf
    return a


@pytest.mark.parametrize("shape, axis", [((7,), None), ((7,), 0), ((1,), None),
                                         ((2048, 256), 0), ((2048, 256), 1),
                                         ((2048, 1), 0), ((2, 400), 1), ((5, 3), 0)])
def test_logsumexp_equals_scipy_bit_for_bit(shape, axis):
    a = adversarial_rows(shape, 3)
    if a.ndim == 2:
        a[0] = -np.inf    # a row and a column of -inf only
        a[:, 0] = -np.inf
        a[-1] = a[-1, -1]  # a row of ties
    ours, theirs = logsumexp(a, axis=axis), scipy_logsumexp(a, axis=axis)
    assert np.array_equal(ours, theirs)
    assert np.shape(ours) == np.shape(theirs) and type(ours) is type(theirs)


@pytest.mark.parametrize("row", [[np.inf, 1.0], [np.inf, np.inf], [np.inf, -np.inf],
                                 [np.nan, 1.0], [-np.inf, 3.0], [1e308, 1e308]])
def test_logsumexp_equals_scipy_on_non_finite_and_huge_entries(row):
    ours, theirs = logsumexp(np.array(row)), scipy_logsumexp(np.array(row))
    assert np.array_equal(ours, theirs, equal_nan=True)


def test_logsumexp_of_no_mass_is_minus_inf_and_an_error_on_the_grid():
    assert logsumexp(np.full(4, -np.inf)) == -np.inf
    assert np.array_equal(logsumexp(np.full((3, 2), -np.inf), axis=0), [-np.inf, -np.inf])
    g = GridSpec(-1.0, 1.0, 64)
    with pytest.raises(ValueError, match="no mass on the grid"):
        InitialDistribution.uniform(5.0, 6.0).log_weights_on(g)


@pytest.mark.parametrize("cells", [1, 2**30])
def test_no_dense_pass_depends_on_the_block_budget(cells, monkeypatch):
    # each row of a dense pass is evaluated on its own, so one row a block,
    # or the whole pass in one block, gives the default budget's bits: the
    # filter on one and on three records, Psi's quadrature rows (SV, and
    # tobit's censored zeros), Upsilon's closed form with a drift V != 1 and
    # the drift test's QV
    tobit, sv = TobitModel(0.5, 1.0, 1.0), StochVolModel(0.9, 0.3, 1.0)
    drift = LGSSM(0.9, 1.0, 1.0, drift=DriftFunction.exp_abs(0.5))
    nus = InitialDistribution.gaussian(-4, 1), InitialDistribution.gaussian(4, 1)
    grid = GridSpec(*tobit.domain, 64)
    obs = np.stack([simulate(tobit, 40, nus[0], seed=1, replication=r).obs for r in range(3)])
    sv_obs = simulate(sv, 40, nus[0], seed=1).obs
    sv_obs[::7] = 0.0
    assert np.any(obs == 0.0)
    C, D = certify_ld_set(tobit, (-3.0, 3.0)), certify_ld_set(tobit, (-2.0, 2.0))
    sv_C, sv_D = certify_ld_set(sv, (-1.5, 1.5)), certify_ld_set(sv, (-1.0, 1.0))

    def passes():
        kernel = transition_kernel(tobit, grid)
        return [*_run_records(tobit, grid, *nus, obs[:1], kernel),
                *_run_records(tobit, grid, *nus, obs, kernel),
                *_record_series(tobit, obs, D, C), *_record_series(sv, sv_obs, sv_D, sv_C),
                _log_sup(drift, ["all", ("complement", (-3.0, 3.0))], obs[0, :12]),
                _qv_numeric(drift, lambda x: np.exp(0.5 * np.abs(x)), np.linspace(-9, 9, 37))]

    want = passes()
    monkeypatch.setattr(grids, "_BLOCK_CELLS", cells)
    for a, b in zip(want, passes(), strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
