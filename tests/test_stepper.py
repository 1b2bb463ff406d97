import math

import numpy as np
import pytest

from ckdv.analytic import SolitonParams, sample_initial, soliton_evaluator
from ckdv.diagnostics import l2_norm, mode_mass
from ckdv.errors import BlowUpError, ConfigError
from ckdv.model import (
    FieldSet,
    Grid,
    NonlinearTerm,
    SystemSpec,
    make_hirota_satsuma,
    make_hs_first_kdv,
)
from ckdv.runner import RunConfig, validate_config
from ckdv.stepper import StepPlan, advance, advise_tau
from test_kernel import single_mode_step

HS = make_hirota_satsuma()
SOLITON = SolitonParams(1.0, 0.0)


def steps_for(spec, h, t_end, safety=0.25):
    plan, n = advise_tau(spec, h, t_end, "dispersive_cfl", safety).fit_to_end()
    return n, plan.tau


# ---------------------------------------------------------------- steps
# one full step, half step included, taken through advance


def test_half_step_constant_state():
    grid = Grid(0.0, 0.1, 32, 1e-3)
    state = FieldSet(np.full((2, 32), 1.3), 0.5)
    out = advance(state, HS, grid, 1)
    assert np.array_equal(out.values, state.values)
    assert out.time == pytest.approx(0.5 + 1e-3, rel=1e-15)


def test_half_step_zero_state():
    grid = Grid(0.0, 0.1, 32, 1e-3)
    out = advance(FieldSet(np.zeros((2, 32)), 0.0), HS, grid, 1)
    assert np.array_equal(out.values, np.zeros((2, 32)))


def test_full_step_constant_and_zero():
    grid = Grid(0.0, 0.1, 32, 1e-3)
    const = FieldSet(np.full((2, 32), -0.7), 0.0)
    out = advance(const, HS, grid, 1)
    assert np.array_equal(out.values, const.values)
    zero = FieldSet(np.zeros((2, 32)), 0.0)
    out = advance(zero, HS, grid, 1)
    assert np.array_equal(out.values, zero.values)
    assert out.time == pytest.approx(1e-3)


def test_full_step_matches_oracle():
    # local error O(tau^2 + tau h^2) at tau=1e-4, h=0.05
    grid = Grid(-20.0, 0.05, 800, 1e-4)
    state = sample_initial(SOLITON, grid)
    evaluate = soliton_evaluator(SOLITON, grid.nodes())
    out = advance(state, HS, grid, 1)
    assert out.time == pytest.approx(1e-4)
    assert np.max(np.abs(out.values - evaluate(out.time))) <= 4e-6


def test_half_step_flags_nonfinite_output():
    grid = Grid(0.0, 0.1, 32, 1e-3)
    bad = np.zeros((2, 32))
    bad[0, 3] = 1e308
    bad[0, 5] = -1e308
    with np.errstate(all="ignore"), pytest.raises(BlowUpError) as info:
        advance(FieldSet(bad, 0.0), HS, grid, 1)
    assert info.value.step == 1


# ---------------------------------------------------------------- advance


def test_advance_rejects_zero_steps():
    grid = Grid(0.0, 0.2, 16, 1e-3)
    with pytest.raises(ValueError, match="n_steps must be >= 1"):
        advance(FieldSet(np.zeros((2, 16)), 0.0), HS, grid, 0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_advance_rejects_a_non_finite_start(value):
    # an input fault, not a blow-up at step 1
    grid = Grid(0.0, 0.2, 16, 1e-3)
    start = np.zeros((2, 16))
    start[1, 7] = value
    with pytest.raises(ValueError, match="starting state is not finite"):
        advance(FieldSet(start, 0.0), HS, grid, 1)


def test_advance_zero_state_many_steps():
    grid = Grid(0.0, 0.2, 16, 1e-3)
    out = advance(FieldSet(np.zeros((2, 16)), 0.0), HS, grid, 1000)
    assert np.array_equal(out.values, np.zeros((2, 16)))
    assert out.time == pytest.approx(1.0)


def test_advance_soliton_crest_transport():
    # crest of the m=1 soliton must sit within one spacing of x = t/2
    h = 0.1
    n, tau = steps_for(HS, h, 1.0)
    grid = Grid(-20.0, h, 400, tau)
    state = sample_initial(SOLITON, grid)
    final = advance(state, HS, grid, n)
    crest = grid.nodes()[int(np.argmax(final.values[0]))]
    assert abs(crest - 0.5) <= h + 1e-12


def test_advance_blow_up_at_inflated_tau():
    h = 0.05
    plan = advise_tau(HS, h, 1.0, "dispersive_cfl", 0.25)
    grid = Grid(-20.0, h, 800, plan.tau * 100.0)
    state = sample_initial(SOLITON, grid)
    with pytest.raises(BlowUpError) as info:
        advance(state, HS, grid, 1000)
    assert info.value.step is not None and info.value.step <= 1000


def test_advance_stable_at_cfl_tau():
    h = 0.1
    n, tau = steps_for(HS, h, 1.0)
    grid = Grid(-20.0, h, 400, tau)
    final = advance(sample_initial(SOLITON, grid), HS, grid, n)
    assert np.isfinite(final.values).all()
    assert np.max(np.abs(final.values)) < 10.0


def test_advance_observer_sees_every_layer():
    grid = Grid(0.0, 0.2, 16, 1e-3)
    seen = []
    advance(
        FieldSet(np.zeros((2, 16)), 0.0), HS, grid, 7,
        observer=lambda j, t, v: seen.append((j, FieldSet(v, t).time)),
    )
    assert [j for j, _ in seen] == list(range(1, 8))
    assert seen[-1][1] == pytest.approx(7e-3)


# ------------------------------------------------------- scheme invariants


def test_mass_telescopes_for_k_equals_m_modes():
    # HS mode 1 couples only through k=m products: its discrete mass is
    # exact per step; mode 2 is not protected
    rng = np.random.default_rng(7)
    grid = Grid(0.0, 0.1, 64, 1e-4)
    values = rng.normal(scale=0.5, size=(2, 64))
    state = FieldSet(values, 0.0)
    full = advance(state, HS, grid, 1)
    scale = np.sum(np.abs(values[0])) * grid.h
    tol = 100 * np.finfo(float).eps * max(1.0, scale)
    m0 = mode_mass(state, grid.h)
    assert abs(mode_mass(full, grid.h)[0] - m0[0]) <= tol


def test_shift_equivariance_is_exact():
    n_steps = 40
    h = 0.1
    grid = Grid(-20.0, h, 400, 1e-4)
    state = sample_initial(SOLITON, grid)
    shifted = FieldSet(np.roll(state.values, 123, axis=1), 0.0)
    out = advance(state, HS, grid, n_steps)
    out_shifted = advance(shifted, HS, grid, n_steps)
    assert np.array_equal(np.roll(out.values, 123, axis=1), out_shifted.values)


def test_single_mode_reduction_is_bitwise():
    rng = np.random.default_rng(0)
    f = np.cumsum(rng.standard_normal(64))
    f -= f.mean()
    grid = Grid(0.0, 0.3, 64, 1e-4)
    c, g, d = 0.7, -1.5, -0.25
    spec = SystemSpec(1, (c,), (d,), (NonlinearTerm(1, 1, 1, g),))
    state = FieldSet(f[None, :], 0.0)
    general = advance(state, spec, grid, 1)
    reference = single_mode_step(f, c, g, d, grid)
    assert np.array_equal(general.values[0], reference)


def test_l2_drift_shrinks_under_refinement():
    # left-moving exact soliton of the isolated first equation
    kdv1 = make_hs_first_kdv()
    drifts = []
    for h in (0.2, 0.1, 0.05):
        n, tau = steps_for(kdv1, h, 1.0)
        grid = Grid(-20.0, h, round(40 / h), tau)
        u0 = 2.0 / np.cosh(grid.nodes()) ** 2
        state = FieldSet(u0[None, :], 0.0)
        final = advance(state, kdv1, grid, n)
        n0 = l2_norm(state.values[0], h)
        n1 = l2_norm(final.values[0], h)
        drifts.append(abs(n1 - n0) / n0)
    assert drifts[1] <= drifts[0] * 1.05
    assert drifts[2] <= drifts[1] * 1.05


@pytest.mark.parametrize("h", [0.05, 0.025])
def test_dispersive_cfl_step_grows_the_fastest_mode_by_the_midpoint_factor(h):
    # pure dispersion, e = 0.5: at k*h = 2*pi/3 the D3 symbol peaks at
    # (3*sqrt(3)/2) / h^3, and the two-stage midpoint step amplifies a mode
    # with R eigenvalue i*omega by |G| = sqrt(1 + (tau*omega)^4 / 4) > 1, so
    # the default rule is not a stability bound under refinement
    spec = SystemSpec(1, (0.0,), (0.5,), ())
    cfl_tau = advise_tau(spec, h, 1.0).tau
    plan, n = advise_tau(spec, h, 200 * cfl_tau).fit_to_end()
    assert n == 200
    grid = Grid(0.0, h, 300, plan.tau)
    u0 = np.cos(2 * np.pi * np.arange(300) / 3)
    final = advance(FieldSet(u0[None, :], 0.0), spec, grid, n)
    growth = (l2_norm(final.values[0], h) / l2_norm(u0, h)) ** (1 / n)
    omega = 0.5 * (3 * math.sqrt(3) / 2) / h**3
    assert growth == pytest.approx(math.sqrt(1 + (plan.tau * omega) ** 4 / 4), rel=1e-9)


@pytest.mark.parametrize(
    "system", [{}, {"system": "perturbed_hs", "d1": -0.2}], ids=["hs_soliton", "fig5"]
)
def test_scheme_is_second_order_in_tau_at_fixed_h(system):
    # self-convergence at h = 0.1: successive final states at tau0 / 2^k
    # differ by O(tau^2), far above rounding (the first difference is ~2e-8)
    finals = []
    for k in range(4):
        config = RunConfig(h=0.1, t_end=0.5, tau_rule="manual", tau=1.6e-4 / 2**k, **system)
        run = validate_config(config)
        finals.append(advance(run.state0, run.spec, run.grid, run.n_steps).values)
    diffs = [np.abs(a - b).max() for a, b in zip(finals, finals[1:])]
    orders = [math.log2(a / b) for a, b in zip(diffs, diffs[1:])]
    assert all(1.9 <= order <= 2.1 for order in orders), orders


# ---------------------------------------------------------------- advisor


def test_advise_tau_paper_strict_arithmetic():
    plan = advise_tau(HS, 0.2, 1.0, "paper_strict", safety=1.0)
    assert plan.tau == pytest.approx(0.2**6 / (9 * 0.5**2 * 1.0), rel=1e-12)
    assert plan.tau == pytest.approx(2.844e-5, rel=1e-3)
    assert plan.rule == "paper_strict"


def test_advise_tau_dispersive_cfl_arithmetic():
    plan = advise_tau(HS, 0.1, 1.0, "dispersive_cfl", safety=0.25)
    assert plan.tau == pytest.approx(0.25 * 0.1**3 / (3 * 0.5), rel=1e-12)
    assert plan.tau == pytest.approx(1.667e-4, rel=1e-3)


def test_advise_tau_linear_in_safety():
    one = advise_tau(HS, 0.2, 1.0, "paper_strict", safety=1.0)
    two = advise_tau(HS, 0.2, 1.0, "paper_strict", safety=2.0)
    assert two.tau == 2.0 * one.tau


def test_advise_tau_manual_passthrough():
    plan = advise_tau(HS, 0.1, 1.0, "manual", tau=0.017)
    assert plan.tau == 0.017
    with pytest.raises(ValueError):
        advise_tau(HS, 0.1, 1.0, "manual")


def test_advise_tau_rejects_pure_advection():
    spec = SystemSpec(1, (1.0,), (1.0 * 0.1**2 / 6.0,), ())  # e vanishes at h=0.1
    with pytest.raises(ValueError):
        advise_tau(spec, 0.1, 1.0, "dispersive_cfl")


def test_advise_tau_rejects_bad_inputs():
    with pytest.raises(ValueError):
        advise_tau(HS, -0.1, 1.0)
    with pytest.raises(ValueError):
        advise_tau(HS, 0.1, 0.0)
    with pytest.raises(ValueError):
        advise_tau(HS, 0.1, 1.0, "no_such_rule")


def test_step_plan_invariants():
    with pytest.raises(ValueError):
        StepPlan(tau=0.0, rule="manual", safety=1.0, t_end=1.0)
    with pytest.raises(ValueError):
        StepPlan(tau=0.1, rule="manual", safety=-1.0, t_end=1.0)


def test_fit_to_end_counts_a_ratio_just_above_an_integer_as_that_integer():
    # 0.07 / 0.01 rounds to 7.000000000000001: seven steps of 0.01, not eight
    plan, n_steps = StepPlan(tau=0.01, rule="manual", safety=0.25, t_end=0.07).fit_to_end()
    assert n_steps == 7 and plan.tau == 0.07 / 7


@pytest.mark.parametrize("rule", ["paper_strict", "dispersive_cfl", "manual"])
def test_advise_tau_rejects_given_non_positive_tau_under_every_rule(rule):
    with pytest.raises(ConfigError) as info:
        advise_tau(HS, 0.1, 1.0, rule, tau=-2.0)
    assert info.value.field == "tau"


@pytest.mark.parametrize(
    "h, t_end, safety, rule, field",
    [(1e200, 1.0, 0.25, "dispersive_cfl", "h"), (1e200, 1.0, 0.25, "paper_strict", "h"),
     (1e-120, 1.0, 0.25, "dispersive_cfl", "h"), (math.inf, 1.0, 0.25, "dispersive_cfl", "h"),
     (0.1, math.nan, 0.25, "dispersive_cfl", "t_end"), (0.1, 1.0, math.nan, "paper_strict", "safety"),
     (0.1, 1.0, 0.0, "dispersive_cfl", "safety"), (0.1, 1.0, 0.25, "sometimes", "rule")],
)
def test_advise_tau_faults_name_the_parameter(h, t_end, safety, rule, field):
    with pytest.raises(ConfigError) as info:
        advise_tau(HS, h, t_end, rule, safety)
    assert info.value.field == field


def test_fit_to_end_rejects_an_unbounded_step_count():
    with pytest.raises(ConfigError) as info:
        StepPlan(tau=5e-324, rule="manual", safety=1.0, t_end=1.0).fit_to_end()
    assert info.value.field == "tau"


def test_fit_to_end_counts_steps_exactly_up_to_2_53():
    # past 2**53 the float t_end / tau is spaced wider than one step
    assert StepPlan(tau=1.0, rule="manual", safety=1.0, t_end=2.0**53).fit_to_end()[1] == 2**53
    with pytest.raises(ConfigError) as info:
        StepPlan(tau=1.0, rule="manual", safety=1.0, t_end=2.0**53 + 2.0).fit_to_end()
    assert info.value.field == "tau"
