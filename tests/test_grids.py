import numpy as np
import pytest
from scipy import stats
from scipy.special import logsumexp as scipy_logsumexp

from hmmforget import GridSpec, InitialDistribution
from hmmforget.grids import logsumexp, norm_logpdf
from hmmforget.reports import fmt, write_csv


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
