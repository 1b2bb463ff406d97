import numpy as np
import pytest

from ckdv.analytic import (
    SolitonParams,
    StretchedSoliton,
    TrianglePulse,
    hs_soliton,
    sample_initial,
    soliton_evaluator,
)
from ckdv.errors import ConfigError
from ckdv.model import Grid
from ckdv.runner import RunConfig, build_initial_condition
from residual import verify_residual


def test_soliton_origin_values_d0():
    th1, th2 = hs_soliton(0.0, 0.0, SolitonParams(1.0, 0.0))
    assert th1 == pytest.approx(2.0, abs=1e-12)
    assert th2 == pytest.approx(np.sqrt(2.0), abs=1e-6)


def test_soliton_origin_values_d_half():
    th1, th2 = hs_soliton(0.0, 0.0, SolitonParams(1.0, 0.5))
    assert th1 == pytest.approx(0.666667, abs=1e-6)
    assert th2 == pytest.approx(1.054093, abs=1e-6)


def test_soliton_even_in_x_for_d0():
    x = np.linspace(0.1, 8.0, 40)
    p = SolitonParams(1.0, 0.0)
    left1, left2 = hs_soliton(-x, 0.0, p)
    right1, right2 = hs_soliton(x, 0.0, p)
    assert np.allclose(left1, right1, rtol=1e-14)
    assert np.allclose(left2, right2, rtol=1e-14)


def test_soliton_reduces_to_sech_squared_at_d0():
    x = np.linspace(-10, 10, 101)
    th1, th2 = hs_soliton(x, 0.3, SolitonParams(1.2, 0.0))
    lam2 = 0.5 * 1.2**3 * 0.3 - 1.2 * x
    assert np.allclose(th1, 2 * 1.2**2 / np.cosh(lam2) ** 2, rtol=1e-13)
    assert np.allclose(th2, np.sqrt(2) * 1.2**2 / np.cosh(lam2), rtol=1e-13)


def test_soliton_far_field_is_finite_and_tiny():
    th1, th2 = hs_soliton(5000.0, 0.0, SolitonParams(1.0, 0.5))
    assert np.isfinite(th1) and np.isfinite(th2)
    assert abs(th1) < 1e-300 and abs(th2) < 1e-300


def test_crest_travels_at_half_m_squared():
    # lam2 = 0 along x = m^2 t / 2, where theta_1 equals 2 m^2 exactly
    for m in (0.5, 1.0, 1.5):
        p = SolitonParams(m, 0.0)
        for t in (0.0, 0.7, 3.0, 12.5):
            th1, _ = hs_soliton(m * m * t / 2.0, t, p)
            assert th1 == pytest.approx(2 * m * m, rel=1e-12)


def test_amplitude_proportional_to_m_squared():
    x = np.linspace(-20, 20, 4001)
    for m in (0.5, 1.0, 1.5):
        th1, _ = hs_soliton(x, 0.0, SolitonParams(m, 0.0))
        assert np.max(th1) == pytest.approx(2 * m * m, rel=1e-6)


def test_theta2_amplitude_decreases_with_d():
    x = np.linspace(-20, 20, 4001)
    _, th2_d0 = hs_soliton(x, 0.0, SolitonParams(1.0, 0.0))
    _, th2_d5 = hs_soliton(x, 0.0, SolitonParams(1.0, 0.5))
    assert np.max(th2_d5) < np.max(th2_d0)


def test_params_reject_pole_regime():
    with pytest.raises(ValueError):
        SolitonParams(1.0, 1.0)
    with pytest.raises(ValueError):
        SolitonParams(1.0, -1.3)
    with pytest.raises(ValueError):
        SolitonParams(0.0, 0.0)
    # m^2 underflows to 0 or m^3 overflows: the amplitude or speed is no float
    for m in (1e-200, -1e-200, 1e103, -1e103):
        with pytest.raises(ConfigError) as info:
            SolitonParams(m, 0.0)
        assert info.value.field == "m"
    SolitonParams(1e-161, 0.0)
    SolitonParams(-1e102, 0.0)


def test_residual_single_point():
    r1, r2 = verify_residual(SolitonParams(1.0, 0.0), 0.3, 0.2, delta=1e-3)
    assert abs(r1) <= 1e-5
    assert abs(r2) <= 1e-5


def test_residual_on_sample_grid():
    x = np.linspace(-4.0, 4.0, 20)
    r1, r2 = verify_residual(SolitonParams(0.5, 0.3), x, 0.4, delta=1e-3)
    assert np.max(np.abs(r1)) <= 1e-5
    assert np.max(np.abs(r2)) <= 1e-5


def test_residual_far_tail_is_negligible():
    # wider delta keeps the 1/delta^3 stencil roundoff below the bound
    for x in (15.0, -15.0):
        r1, r2 = verify_residual(SolitonParams(1.0, 0.0), x, 0.0, delta=1e-2)
        assert abs(r1) <= 1e-12
        assert abs(r2) <= 1e-12


def test_sample_soliton_peak_on_grid():
    grid = Grid(-20.0, 0.05, 800, 1e-4)
    state = sample_initial(SolitonParams(1.0, 0.0), grid)
    assert state.time == 0.0
    assert state.n_modes == 2
    i_max = int(np.argmax(state.values[0]))
    assert grid.nodes()[i_max] == pytest.approx(0.0, abs=grid.h / 2)
    assert state.values[0, i_max] == pytest.approx(2.0, abs=1e-12)


def test_sample_stretched_soliton_scales():
    grid = Grid(-40.0, 0.05, 1600, 1e-4)
    ic = StretchedSoliton(SolitonParams(1.0, 0.0), width_scale=10.0, amp_scale=2.0)
    state = sample_initial(ic, grid)
    x = grid.nodes()
    assert np.max(state.values[0]) == pytest.approx(4.0, abs=1e-12)
    # half-maximum of sech^2 sits at arccosh(sqrt(2)), stretched by 10
    half_max_x = 10.0 * np.arccosh(np.sqrt(2.0))
    above = x[state.values[0] > 2.0]
    assert above.min() == pytest.approx(-half_max_x, abs=grid.h)
    assert above.max() == pytest.approx(half_max_x, abs=grid.h)


def test_sample_triangle_pulse():
    grid = Grid(-10.0, 0.25, 80, 1e-4)
    ic = TrianglePulse(1.0, 2.0, 0.0)
    state = sample_initial(ic, grid)
    x = grid.nodes()
    expected = np.maximum(0.0, 1.0 - np.abs(x) / 2.0)
    assert np.array_equal(state.values[0], expected)
    assert np.array_equal(state.values[1], expected)
    assert np.all(state.values[0][np.abs(x) >= 2.0] == 0.0)


def test_initial_condition_validation():
    with pytest.raises(ValueError):
        build_initial_condition(RunConfig(ic_kind="no_such_kind"))
    with pytest.raises(ValueError):
        StretchedSoliton(SolitonParams(1.0, 0.0), width_scale=0.0, amp_scale=1.0)
    with pytest.raises(ValueError):
        TrianglePulse(0.0, 1.0)
    with pytest.raises(ValueError):
        TrianglePulse(1.0, -2.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize(
    "build, field",
    [
        (lambda v: SolitonParams(v, 0.0), "m"),
        (lambda v: SolitonParams(1.0, v), "d"),
        (lambda v: TrianglePulse(v, 2.0), "amplitude"),
        (lambda v: TrianglePulse(1.0, v), "half_width"),
        (lambda v: TrianglePulse(1.0, 2.0, v), "center"),
    ],
    ids=["m", "d", "amplitude", "half_width", "center"],
)
def test_initial_data_rejects_non_finite_parameters(build, field, value):
    with pytest.raises(ConfigError) as info:
        build(value)
    assert info.value.field == field


def test_soliton_evaluator_matches_direct_call():
    grid = Grid(-20.0, 0.1, 400, 1e-4)
    p = SolitonParams(0.8, 0.2)
    evaluate = soliton_evaluator(p, grid.nodes())
    direct = np.stack(hs_soliton(grid.nodes(), 0.37, p))
    assert np.array_equal(evaluate(0.37), direct)
