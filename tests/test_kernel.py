"""Bitwise checks of the stepping kernel against direct transcriptions of the scheme."""

import numpy as np
import pytest

from ckdv.analytic import InitialCondition, SolitonParams, sample_initial
from ckdv.errors import BlowUpError
from ckdv.model import (
    FieldSet,
    Grid,
    NonlinearTerm,
    SystemSpec,
    effective_dispersion,
    make_hirota_satsuma,
)
from ckdv.stepper import BLOWUP_FACTOR, advance

# three modes, nonzero linear speeds, three terms in mode 1's equation and
# cross-couplings in both directions. Mode 1 has c < 0 and e < 0 and starts
# negative, and its terms all give -0.0 where every mode is zero, so there
# the sign of each zero it produces depends on the order of the arithmetic.
SPEC3 = SystemSpec(
    3,
    (-0.3, -0.7, 1.1),
    (-0.25, 0.5, 0.2),
    (
        NonlinearTerm(1, 1, 1, 1.5),
        NonlinearTerm(1, 2, 2, 3.0),
        NonlinearTerm(1, 3, 2, -0.4),
        NonlinearTerm(2, 1, 2, 1.5),
        NonlinearTerm(3, 3, 3, -0.9),
        NonlinearTerm(3, 2, 1, 0.25),
    ),
)
GRID3 = Grid(-30.0, 0.1, 600, 1e-4)


def triangles() -> np.ndarray:
    # compact pulses: exact zeros away from the supports, and -0.0 where the
    # amplitude is negative, so signed zeros flow through every stencil
    x = GRID3.nodes()
    pulses = ((0.0, 2.0, -1.0), (2.5, 1.5, -0.5), (-3.0, 3.0, 0.7))
    return np.stack([a * np.maximum(0.0, 1.0 - np.abs(x - c) / w) for c, w, a in pulses])


def roll_rhs(u: np.ndarray, spec: SystemSpec, h: float) -> np.ndarray:
    up1 = np.roll(u, -1, axis=1)
    dn1 = np.roll(u, 1, axis=1)
    d1 = (up1 - dn1) / (2.0 * h)
    d3 = (np.roll(u, -2, axis=1) - 2.0 * up1 + 2.0 * dn1 - np.roll(u, 2, axis=1)) / (2.0 * h**3)
    acc = np.zeros_like(u)
    for t in spec.nonlinear_terms:
        acc[t.n - 1] += t.coef * (u[t.k - 1] * d1[t.m - 1])
    speeds = np.array(spec.linear_speeds)[:, None]
    return speeds * d1 + acc + effective_dispersion(spec, h)[:, None] * d3


def roll_advance(u: np.ndarray, spec: SystemSpec, grid: Grid, n_steps: int):
    """The scheme and its blow-up test written out with np.roll: every
    completed layer, and the step that blew up (or None)."""
    initial_max = np.max(np.abs(u))
    limit = BLOWUP_FACTOR * initial_max if initial_max > 0 else np.inf

    def blew_up(layer):
        amax = np.max(np.abs(layer))
        return not (amax <= limit) or not np.isfinite(amax)

    layers = []
    for j in range(1, n_steps + 1):
        half = u - (0.5 * grid.tau) * roll_rhs(u, spec, grid.h)
        if blew_up(half):
            return layers, j
        u = u - grid.tau * roll_rhs(half, spec, grid.h)
        if blew_up(u):
            return layers, j
        layers.append(u)
    return layers, None


def single_mode_step(field: np.ndarray, c: float, g: float, d: float, grid: Grid) -> np.ndarray:
    """Reference one-step update for a single KdV equation.

    Direct transcription of the scheme for one mode with one self-coupling
    term, kept textually independent of the general path so the two can be
    cross-checked; for an N=1 system both must agree bitwise.
    """
    spec1 = SystemSpec(1, (c,), (d,), (NonlinearTerm(1, 1, 1, g),))
    e = float(effective_dispersion(spec1, grid.h)[0])
    h = grid.h
    tau = grid.tau
    f = np.asarray(field, dtype=float)

    d1 = (np.roll(f, -1) - np.roll(f, 1)) / (2.0 * h)
    d3 = (np.roll(f, -2) - 2.0 * np.roll(f, -1) + 2.0 * np.roll(f, 1) - np.roll(f, 2)) / (
        2.0 * h**3
    )
    acc = np.zeros(f.size)
    acc = acc + g * (f * d1)
    half = f - (0.5 * tau) * (c * d1 + acc + e * d3)

    d1h = (np.roll(half, -1) - np.roll(half, 1)) / (2.0 * h)
    d3h = (
        np.roll(half, -2) - 2.0 * np.roll(half, -1) + 2.0 * np.roll(half, 1) - np.roll(half, 2)
    ) / (2.0 * h**3)
    acch = np.zeros(f.size)
    acch = acch + g * (half * d1h)
    return f - tau * (c * d1h + acch + e * d3h)


def test_fixture_has_signed_zeros():
    u = triangles()
    assert np.any((u == 0.0) & np.signbit(u))
    assert np.any((u == 0.0) & ~np.signbit(u))


def test_three_mode_advance_matches_roll_transcription_bitwise():
    u0 = triangles()
    seen = []
    final = advance(FieldSet(u0, 0.0), SPEC3, GRID3, 50, lambda j, s: seen.append(s.values))
    expected, blow_up = roll_advance(u0, SPEC3, GRID3, 50)
    assert blow_up is None
    assert len(seen) == len(expected) == 50
    for got, want in zip(seen, expected):
        assert got.tobytes() == want.tobytes()
    assert final.values.tobytes() == expected[-1].tobytes()


@pytest.mark.parametrize("factor", [30.0, 100.0])
def test_three_mode_blow_up_step_matches_roll_transcription(factor):
    grid = Grid(GRID3.x_min, GRID3.h, GRID3.m_points, GRID3.tau * factor)
    u0 = triangles()
    _, expected = roll_advance(u0, SPEC3, grid, 500)
    assert expected is not None
    with np.errstate(all="ignore"), pytest.raises(BlowUpError) as info:
        advance(FieldSet(u0, 0.0), SPEC3, grid, 500)
    assert info.value.step == expected


def test_single_mode_advance_equals_repeated_single_mode_step():
    rng = np.random.default_rng(3)
    f = np.cumsum(rng.standard_normal(64))
    f -= f.mean()
    grid = Grid(0.0, 0.3, 64, 1e-4)
    c, g, d = 0.7, -1.5, -0.25
    spec = SystemSpec(1, (c,), (d,), (NonlinearTerm(1, 1, 1, g),))
    final = advance(FieldSet(f[None, :], 0.0), spec, grid, 12)
    for _ in range(12):
        f = single_mode_step(f, c, g, d, grid)
    assert final.values[0].tobytes() == f.tobytes()


def test_observer_layers_are_independent_snapshots():
    kept = []
    advance(
        FieldSet(triangles(), 0.0),
        SPEC3,
        GRID3,
        20,
        lambda j, s: kept.append((s, s.values.copy())),
    )
    for state, copy in kept:
        assert not state.values.flags.writeable
        assert state.values.tobytes() == copy.tobytes()
    for (a, _), (b, _) in zip(kept, kept[1:]):
        assert not np.shares_memory(a.values, b.values)
        assert not np.array_equal(a.values, b.values)


def test_advance_rejects_state_not_on_grid():
    with pytest.raises(ValueError):
        advance(FieldSet(np.zeros((3, 100)), 0.0), SPEC3, GRID3, 1)


def test_single_steps_share_the_max_norm_blow_up_rule():
    # at tau = 1e7 the half layer stays finite but grows ~1.9e6x: the
    # max-norm limit, not finiteness, is what rejects it in step 1
    grid = Grid(-20.0, 0.1, 400, 1e7)
    hs = make_hirota_satsuma()
    state = sample_initial(InitialCondition("hs_soliton", soliton=SolitonParams(1.0, 0.0)), grid)
    half = state.values - (0.5 * grid.tau) * roll_rhs(state.values, hs, grid.h)
    assert np.isfinite(half).all()
    assert np.max(np.abs(half)) > BLOWUP_FACTOR * state.max_norm()
    with pytest.raises(BlowUpError) as info:
        advance(state, hs, grid, 1)
    assert info.value.step == 1
    assert info.value.time == pytest.approx(grid.tau)
