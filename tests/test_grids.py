import numpy as np
import pytest

from hmmforget import GridSpec, InitialDistribution
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
