import numpy as np
import pytest

from ckdv.errors import ConfigError
from ckdv.model import (
    FieldSet,
    Grid,
    NonlinearTerm,
    SystemSpec,
    effective_dispersion,
    make_hirota_satsuma,
    make_hs_first_kdv,
    make_perturbed_hs,
)


def test_hirota_satsuma_coefficients():
    hs = make_hirota_satsuma()
    assert hs.n_modes == 2
    assert hs.dispersions == (-0.25, 0.5)
    assert hs.linear_speeds == (0.0, 0.0)
    assert len(hs.nonlinear_terms) == 3
    by_triple = {(t.n, t.k, t.m): t.coef for t in hs.nonlinear_terms}
    assert by_triple == {(1, 1, 1): -1.5, (1, 2, 2): 3.0, (2, 1, 2): 1.5}


def test_perturbed_hs_replaces_first_dispersion():
    spec = make_perturbed_hs(-0.2)
    assert spec.dispersions == (-0.2, 0.5)
    hs = make_hirota_satsuma()
    assert spec.linear_speeds == hs.linear_speeds
    assert spec.nonlinear_terms == hs.nonlinear_terms


def test_perturbed_hs_identity_point():
    assert make_perturbed_hs(-0.25) == make_hirota_satsuma()


def test_perturbed_hs_differs_only_in_d1():
    spec = make_perturbed_hs(-0.3)
    hs = make_hirota_satsuma()
    assert spec.dispersions[0] == -0.3
    assert spec.dispersions[1] == hs.dispersions[1]
    assert spec.linear_speeds == hs.linear_speeds
    assert spec.nonlinear_terms == hs.nonlinear_terms


def test_effective_dispersion_hs_is_plain_dispersion():
    # c = 0 for Hirota-Satsuma, so the h^2 correction vanishes
    e = effective_dispersion(make_hirota_satsuma(), 0.1)
    assert np.array_equal(e, [-0.25, 0.5])


def test_effective_dispersion_advection_correction():
    spec = SystemSpec(1, (1.0,), (0.0,), ())
    e = effective_dispersion(spec, 0.1)
    assert e[0] == pytest.approx(-1.0 * 0.01 / 6.0, rel=1e-14)


def test_effective_dispersion_small_h_limit():
    spec = SystemSpec(2, (3.0, -2.0), (0.7, -0.4), ())
    e = effective_dispersion(spec, 1e-8)
    assert np.allclose(e, spec.dispersions, atol=1e-15)


def test_effective_dispersion_linear_in_d():
    spec = SystemSpec(2, (0.0, 0.0), (0.3, -0.6), ())
    doubled = SystemSpec(2, (0.0, 0.0), (0.6, -1.2), ())
    assert np.array_equal(2.0 * effective_dispersion(spec, 0.2), effective_dispersion(doubled, 0.2))


def test_effective_dispersion_h_squared_slope():
    # (e - d) / h^2 must equal -c/6 independent of h
    spec = SystemSpec(1, (2.4,), (0.1,), ())
    k1 = (effective_dispersion(spec, 0.2)[0] - 0.1) / 0.2**2
    k2 = (effective_dispersion(spec, 0.05)[0] - 0.1) / 0.05**2
    assert k1 == pytest.approx(-2.4 / 6.0, rel=1e-12)
    assert k2 == pytest.approx(k1, rel=1e-12)


def test_effective_dispersion_rejects_bad_h():
    with pytest.raises(ValueError):
        effective_dispersion(make_hirota_satsuma(), 0.0)


def test_validate_spec_accepts_factories():
    # a SystemSpec checks itself when built, so the factories' specs are well formed
    for spec in (make_hirota_satsuma(), make_perturbed_hs(-0.2), make_hs_first_kdv()):
        rebuilt = SystemSpec(spec.n_modes, spec.linear_speeds, spec.dispersions, spec.nonlinear_terms)
        assert rebuilt == spec


def test_validate_spec_index_out_of_range():
    # index 0 would otherwise wrap to mode N in the 0-based kernel
    for term in (NonlinearTerm(3, 1, 1, 1.0), NonlinearTerm(0, 1, 1, 1.0)):
        with pytest.raises(ConfigError, match="index out of range") as info:
            SystemSpec(2, (0.0, 0.0), (1.0, 1.0), (term,))
        assert info.value.field == "nonlinear_terms"


@pytest.mark.parametrize(
    "n_modes, term",
    [
        (True, None),
        (2.0, None),
        (2, NonlinearTerm(1.5, 1, 1, 1.0)),
        (2, NonlinearTerm(1, True, 1, 1.0)),
        (2, NonlinearTerm(1, 1, 2.0, 1.0)),
    ],
)
def test_spec_rejects_non_integer_counts_and_indices(n_modes, term):
    # a float index would reach the kernel's list indexing as a raw TypeError
    terms = () if term is None else (term,)
    with pytest.raises(ConfigError, match="integer") as info:
        SystemSpec(n_modes, (0.0, 0.0), (1.0, 1.0), terms)
    assert info.value.field == ("n_modes" if term is None else "nonlinear_terms")


def test_spec_accepts_numpy_integer_indices():
    spec = SystemSpec(np.int64(2), (0.0, 0.0), (1.0, 1.0), (NonlinearTerm(np.int64(1), 2, 2, 1.0),))
    assert spec.n_modes == 2


def test_validate_spec_duplicate_triple():
    with pytest.raises(ConfigError, match="duplicate term"):
        SystemSpec(
            2,
            (0.0, 0.0),
            (1.0, 1.0),
            (NonlinearTerm(1, 2, 2, 1.0), NonlinearTerm(1, 2, 2, 0.5)),
        )


def test_validate_spec_length_mismatch():
    with pytest.raises(ConfigError, match="expected 2 linear speeds"):
        SystemSpec(2, (0.0,), (1.0, 1.0), ())


def test_grid_invariants():
    with pytest.raises(ValueError):
        Grid(0.0, -0.1, 10, 0.01)
    with pytest.raises(ValueError):
        Grid(0.0, 0.1, 10, 0.0)
    with pytest.raises(ValueError):
        Grid(0.0, 0.1, 4, 0.01)


@pytest.mark.parametrize("h", [1e103, 5e102, 1e-110, 2.0**-341 * 0.999])
def test_grid_rejects_an_h_whose_stencil_divisor_is_not_a_normal_float(h):
    with pytest.raises(ConfigError, match=r"stencil divisor 2h\^3") as info:
        Grid(0.0, h, 8, 1e-3)
    assert info.value.field == "h"
    assert Grid(0.0, 2.0**-341, 8, 1e-3).h == 2.0**-341  # 2h^3 = 2**-1022, the least normal


@pytest.mark.parametrize("m_points", [7.5, 8.0, True, "8"])
def test_grid_rejects_a_non_integer_point_count(m_points):
    with pytest.raises(ConfigError, match="m_points must be an integer") as info:
        Grid(-2.0, 0.5, m_points, 1e-3)
    assert info.value.field == "m_points"


def test_grid_accepts_numpy_integer_point_counts():
    assert Grid(-2.0, 0.5, np.int64(8), 1e-3) == Grid(-2.0, 0.5, 8, 1e-3)


def test_grid_nodes():
    grid = Grid(-1.0, 0.5, 6, 0.1)
    assert np.array_equal(grid.nodes(), [-1.0, -0.5, 0.0, 0.5, 1.0, 1.5])


def test_fieldset_is_readonly_copy():
    src = np.zeros((2, 8))
    state = FieldSet(src, 0.0)
    src[0, 0] = 5.0
    assert state.values[0, 0] == 0.0
    with pytest.raises(ValueError):
        state.values[0, 0] = 1.0


def test_fieldset_finite_flag():
    state = FieldSet(np.ones((1, 8)), 0.0)
    assert np.isfinite(state.values).all()
    bad = FieldSet(np.array([[1.0, np.nan, 0, 0, 0, 0, 0, 0]]), 0.0)
    assert not np.isfinite(bad.values).all()


def test_fieldset_requires_2d():
    with pytest.raises(ValueError):
        FieldSet(np.zeros(8), 0.0)


@pytest.mark.parametrize(
    "x_min, x_max, h, m_points",
    [(-20.0, 20.0, 0.05, 800), (-20.0, 20.0, 0.1, 400), (-32.0, 32.0, 0.1, 640),
     (-150.0, 60.0, 0.1, 2100), (-17.5, 22.5, 0.125, 320)],
)
def test_grid_spanning_counts_whole_steps(x_min, x_max, h, m_points):
    grid = Grid.spanning(x_min, x_max, h, 1e-3)
    assert grid == Grid(x_min, h, m_points, 1e-3)


@pytest.mark.parametrize(
    "x_min, x_max, h, field",
    [(-20.0, 20.0, 0.03, "h"), (-0.001, 0.001, 0.05, "h"), (-20.0, 20.0, 30.0, "h"),
     (-20.0, 20.0, 5e-324, "h"), (-20.0, -30.0, 0.05, "x_max"), (0.0, 1.0, -0.1, "h"),
     (-1e308, 1e308, 0.05, "x_max")],
)
def test_grid_spanning_rejects_spans_that_are_not_whole_steps(x_min, x_max, h, field):
    with pytest.raises(ConfigError) as info:
        Grid.spanning(x_min, x_max, h, 1e-3)
    assert info.value.field == field
