"""Bitwise checks of the stepping kernel against direct transcriptions of the scheme."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckdv.analytic import SolitonParams, sample_initial
from ckdv.errors import BlowUpError
from ckdv.model import (
    FieldSet,
    Grid,
    NonlinearTerm,
    SystemSpec,
    effective_dispersion,
    make_hirota_satsuma,
)
from ckdv.stepper import BLOWUP_FACTOR, _Kernel, _Layer, advance

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


def assert_advance_matches_roll(u0, spec: SystemSpec, grid: Grid, n_steps: int):
    """Every completed layer, the final state and the blow-up step (or None)
    of ``advance`` equal those of ``roll_advance`` bit for bit."""
    seen = []
    expected, blow_up = roll_advance(u0, spec, grid, n_steps)
    with np.errstate(all="ignore"):
        try:
            final = advance(
                FieldSet(u0, 0.0), spec, grid, n_steps,
                lambda j, t, v: seen.append(FieldSet(v, t).values),
            )
        except BlowUpError as exc:
            assert exc.step == blow_up
        else:
            assert blow_up is None
            assert final.values.tobytes() == expected[-1].tobytes()
    assert len(seen) == len(expected)
    for got, want in zip(seen, expected):
        assert got.tobytes() == want.tobytes()
    return blow_up


def test_three_mode_advance_matches_roll_transcription_bitwise():
    assert assert_advance_matches_roll(triangles(), SPEC3, GRID3, 50) is None


def test_hirota_satsuma_advance_matches_roll_transcription_bitwise():
    # c = 0 on both modes: the kernel leaves out the advection terms that
    # roll_rhs still adds as 0*D1
    hs = make_hirota_satsuma()
    assert hs.linear_speeds == (0.0, 0.0)
    assert assert_advance_matches_roll(triangles()[:2], hs, GRID3, 50) is None


def test_empty_and_trimmed_term_rounds_keep_advance_equal_to_the_roll_transcription():
    # terms per row 3, 0, 2: mode 2 has none and c = 0, so its slots in
    # rounds 0 and 1 stay empty, and round 2 covers mode 1's row alone
    spec = SystemSpec(
        3,
        (-0.3, 0.0, 1.1),
        (-0.25, 0.5, 0.2),
        (
            NonlinearTerm(1, 1, 1, 1.5),
            NonlinearTerm(3, 2, 1, 0.25),
            NonlinearTerm(1, 3, 2, -0.4),
        ),
    )
    assert assert_advance_matches_roll(triangles(), spec, GRID3, 50) is None


def test_one_mode_advection_alone_matches_the_roll_transcription():
    spec = SystemSpec(1, (0.7,), (0.0,), ())
    assert assert_advance_matches_roll(triangles()[:1], spec, GRID3, 50) is None


def test_a_hirota_satsuma_stage_is_15_ufunc_calls():
    # D1 and D3 in 6, u_k * D1_m into 3 slots, e and the coefficients in 1,
    # the two rounds of sums in 2, then acc + e*D3, * dt and base - dt*R
    kern = _Kernel(make_hirota_satsuma(), GRID3, np.ones((2, GRID3.m_points)))
    cur, half = kern.layers
    assert len(kern.program(cur, cur, np.array(0.5), half)) == 15


# D1 and D3 share one buffer of 2N padded rows; D3's first node sits n*(m+4)
# floats after D1's, so these shapes put it at every residue 0, 2, 4, 5, 6 and 7
# mod 8 floats, on the 64-byte line and off it
@pytest.mark.parametrize("m_points", [9, 10, 11, 12])
@pytest.mark.parametrize("n_modes", [1, 2, 3])
def test_advance_matches_roll_transcription_at_every_row_offset(n_modes, m_points):
    n = n_modes
    terms = tuple(t for t in SPEC3.nonlinear_terms if max(t.n, t.k, t.m) <= n)
    spec = SystemSpec(n, SPEC3.linear_speeds[:n], SPEC3.dispersions[:n], terms)
    grid = Grid(-0.25 * m_points, 0.5, m_points, 2e-3)
    x = grid.nodes()
    pulses = ((0.0, 1.5, -1.0), (1.0, 1.0, -0.5), (-1.0, 2.0, 0.7))[:n]
    u0 = np.stack([a * np.maximum(0.0, 1.0 - np.abs(x - c) / w) for c, w, a in pulses])
    assert assert_advance_matches_roll(u0, spec, grid, 40) is None


# coefficients with exact zeros of both signs, which the kernel leaves out
COEFS = st.sampled_from([0.0, -0.0, 0.3, -0.7, 1.1, 1.5, -0.4, 3.0])
RANDOM_GRID = Grid(-10.0, 0.25, 80, 1e-3)


@st.composite
def random_systems(draw):
    """A system of 1 to 3 modes and its triangle-pulse start state."""
    n = draw(st.integers(1, 3))
    triples = [(i, k, m) for i in range(1, n + 1) for k in range(1, n + 1) for m in range(1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(triples), unique=True, max_size=len(triples)))
    terms = tuple(NonlinearTerm(i, k, m, draw(COEFS)) for i, k, m in chosen)
    speeds = draw(st.lists(COEFS, min_size=n, max_size=n))
    disps = draw(st.lists(st.sampled_from([0.0, -0.25, 0.5, 0.2]), min_size=n, max_size=n))
    # compact pulses, as in triangles(): exact zeros and, below a negative
    # amplitude, -0.0 away from each support
    x = RANDOM_GRID.nodes()
    amplitudes = st.sampled_from([-1.0, -0.5, 0.7, 1.0])
    pulses = st.lists(
        st.tuples(st.floats(-6.0, 6.0), st.floats(0.5, 4.0), amplitudes), min_size=n, max_size=n
    )
    rows = [a * np.maximum(0.0, 1.0 - np.abs(x - c) / w) for c, w, a in draw(pulses)]
    return SystemSpec(n, tuple(speeds), tuple(disps), terms), np.stack(rows)


@settings(deadline=None, max_examples=60)
@given(system=random_systems(), tau=st.sampled_from([1e-3, 2e-2, 5e-2]))
def test_dropped_zero_terms_keep_advance_equal_to_the_roll_transcription(system, tau):
    # roll_rhs adds c*D1 and every coupling, zero coefficients included; the
    # larger steps blow some systems up within the 12 steps
    spec, u0 = system
    grid = Grid(RANDOM_GRID.x_min, RANDOM_GRID.h, RANDOM_GRID.m_points, tau)
    assert_advance_matches_roll(u0, spec, grid, 12)


@pytest.mark.parametrize("factor", [30.0, 100.0])
def test_three_mode_blow_up_step_matches_roll_transcription(factor):
    grid = Grid(GRID3.x_min, GRID3.h, GRID3.m_points, GRID3.tau * factor)
    u0 = triangles()
    _, expected = roll_advance(u0, SPEC3, grid, 500)
    assert expected is not None
    with np.errstate(all="ignore"), pytest.raises(BlowUpError) as info:
        advance(FieldSet(u0, 0.0), SPEC3, grid, 500)
    assert info.value.step == expected


def test_half_layer_check_catches_a_linear_blow_up_a_step_before_the_full_layer():
    # one linear mode of period 3h at tau * omega = 0.7: per step the half
    # layer grows by sqrt(1 + 0.7^2 / 4) and the full one by sqrt(1 + 0.7^4 / 4),
    # so the half layer crosses the limit first
    spec = SystemSpec(1, (0.0,), (0.5,), ())
    h = 0.1
    omega = 0.5 * (3 * math.sqrt(3) / 2) / h**3
    grid = Grid(0.0, h, 30, 0.7 / omega)
    u0 = np.cos(2 * np.pi * np.arange(30) / 3)[None, :]
    layers, expected = roll_advance(u0, spec, grid, 1000)
    assert expected is not None
    with pytest.raises(BlowUpError) as info:
        advance(FieldSet(u0, 0.0), spec, grid, 1000)
    assert info.value.step == expected
    # the completed layer of that step is still inside the limit: only the
    # intermediate layer's check stops the run there
    u = layers[-1]
    full = u - grid.tau * roll_rhs(u - (0.5 * grid.tau) * roll_rhs(u, spec, h), spec, h)
    assert np.max(np.abs(full)) <= BLOWUP_FACTOR * np.max(np.abs(u0))


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

    def observer(j, t, values):
        with pytest.raises(ValueError):
            values[0, 0] = 1.0  # the view is read-only: an observer cannot corrupt the run
        s = FieldSet(values, t)
        kept.append((s, s.values.copy()))

    final = advance(FieldSet(triangles(), 0.0), SPEC3, GRID3, 20, observer)
    assert final.values.tobytes() == kept[-1][1].tobytes()
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
    state = sample_initial(SolitonParams(1.0, 0.0), grid)
    half = state.values - (0.5 * grid.tau) * roll_rhs(state.values, hs, grid.h)
    assert np.isfinite(half).all()
    assert np.max(np.abs(half)) > BLOWUP_FACTOR * np.max(np.abs(state.values))
    with pytest.raises(BlowUpError) as info:
        advance(state, hs, grid, 1)
    assert info.value.step == 1
    assert info.value.time == pytest.approx(grid.tau)


def test_an_overflow_is_reported_by_the_blow_up_check_alone():
    # u_k * D1_m overflows in the first stage; the check sees the inf it
    # leaves in that stage's layer, so a numpy warning would add nothing
    values = np.tile([1e200, 1e200, -1e200, -1e200], (2, 8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUpError) as info:
            advance(FieldSet(values, 0.0), make_hirota_satsuma(), Grid(0.0, 0.5, 32, 1e-3), 1)
    assert info.value.step == 1


def test_wrap_matches_two_slice_copies_bitwise():
    layer = _Layer(3, 7)
    rng = np.random.default_rng(5)
    layer.flat[:] = rng.standard_normal(layer.flat.size)
    layer.flat[::5] = -0.0
    padded = layer.flat.copy().reshape(3, 11)
    np.copyto(padded[:, :2], padded[:, 7:9])
    np.copyto(padded[:, -2:], padded[:, 2:4])
    layer.wrap()
    assert layer.flat.tobytes() == padded.tobytes()


# start max-norms: zero (infinite limit), tiny (limit^2 underflows, to zero
# at 1e-168), unit, and near and past the top of the range, where limit^2
# overflows
START_SCALES = [0.0, 1e-168, 1e-160, 1e-157, 1.0, 1e140, 1e148, 1e200]
CHECK_GRID = Grid(0.0, 0.5, 8, 1e-3)


def layers_around(limit: float):
    """(2, 8) layers within a fraction of ``limit``, with up to three entries
    replaced by edge values: non-finite, one ulp either side of the limit
    and of the screen's edge limit/2, up to a factor 2 above the limit, far
    above and far below."""
    edges = [limit, limit / 2.0, 1.5 * limit, 1e3 * limit, 1e-3 * limit, 5e-324, 1e300, 0.0]
    edges += [np.nextafter(v, math.inf) for v in edges] + [np.nextafter(v, 0.0) for v in edges]
    edges = [v for v in edges if math.isfinite(v)] + [math.nan, math.inf]
    above = st.integers(1, 52).map(lambda k: limit * (1.0 + 2.0**-k))
    signed = st.tuples(st.sampled_from(edges) | above, st.booleans()).map(
        lambda p: -p[0] if p[1] else p[0]
    )
    span = limit if math.isfinite(limit) else 1.0
    within = st.sampled_from([0.0, 1e-3, 0.1, 1.0]).flatmap(
        lambda f: st.lists(st.floats(-f * span, f * span), min_size=16, max_size=16)
    )
    return st.tuples(
        within,
        st.lists(st.tuples(st.integers(0, 15), signed), max_size=3),
    )


def check_kernel(scale: float):
    """A Hirota-Satsuma kernel on ``CHECK_GRID`` from a start of max-norm ``scale``, and its limit."""
    start = np.full((2, 8), scale)
    start[1, 3] = -scale
    initial_max = float(np.max(np.abs(start)))
    return _Kernel(make_hirota_satsuma(), CHECK_GRID, start), (
        BLOWUP_FACTOR * initial_max if initial_max > 0 else math.inf
    )


def fill_drawn(layer: _Layer, data, limit: float) -> bool:
    """Fill ``layer`` with a draw of ``layers_around(limit)``; whether it breaks the max-norm rule."""
    values, edits = data.draw(layers_around(limit))
    for idx, value in edits:
        values[idx] = value
    layer.values[...] = np.reshape(values, (2, 8))
    layer.wrap()
    amax = float(np.max(np.abs(layer.values)))
    return not amax <= limit or not math.isfinite(amax)


def raises_blow_up(check, *args) -> bool:
    try:
        with np.errstate(all="raise"):  # no warning either, even where the sum overflows
            check(*args)
    except BlowUpError:
        return True
    return False


@settings(deadline=None, max_examples=400)
@given(scale=st.sampled_from(START_SCALES), data=st.data())
def test_screened_check_raises_exactly_where_the_max_norm_rule_does(scale, data):
    kern, limit = check_kernel(scale)
    layer = kern.layers[1]
    expected = fill_drawn(layer, data, limit)
    assert raises_blow_up(kern.check, layer, 1, 0.0) == expected


@settings(deadline=None, max_examples=400)
@given(scale=st.sampled_from(START_SCALES), data=st.data())
def test_step_check_raises_exactly_where_either_layer_breaks_the_max_norm_rule(scale, data):
    # one screen reads both layers; the intermediate one is drawn first
    kern, limit = check_kernel(scale)
    cur, half = kern.layers
    expected = [fill_drawn(half, data, limit), fill_drawn(cur, data, limit)]
    assert raises_blow_up(kern.check_step, 1, 0.0) == any(expected)


@pytest.mark.parametrize("scale", [s for s in START_SCALES if s > 0])
def test_check_draws_the_line_at_the_limit_itself(scale):
    start = np.full((2, 8), scale)
    kern = _Kernel(make_hirota_satsuma(), CHECK_GRID, start)
    limit = BLOWUP_FACTOR * scale
    layer = kern.layers[1]
    layer.values[...] = 0.0
    layer.values[1, 5] = -limit
    layer.wrap()
    kern.check(layer, 1, 0.0)
    layer.values[1, 5] = -np.nextafter(limit, math.inf)
    layer.wrap()
    with pytest.raises(BlowUpError):
        kern.check(layer, 1, 0.0)


def test_blow_up_limit_is_a_million_times_the_start_max_norm():
    # the factor as a literal: every other limit here moves with BLOWUP_FACTOR
    kern = _Kernel(make_hirota_satsuma(), CHECK_GRID, np.full((2, 8), 0.5))
    layer = kern.layers[1]
    layer.values[...] = 2e5 * 0.5
    layer.wrap()
    kern.check(layer, 1, 0.0)
    layer.values[...] = 2e6 * 0.5
    layer.wrap()
    with pytest.raises(BlowUpError):
        kern.check(layer, 1, 0.0)


# the fig3 (2 x 800) and fig4b (2 x 2,100) kernel shapes, each built after a
# dummy allocation of a few sizes that shifts where malloc places what follows
@pytest.mark.parametrize("dummy_floats", [1, 3, 130, 1001])
@pytest.mark.parametrize("grid", [Grid(-20.0, 0.05, 800, 1e-5), Grid(-150.0, 0.1, 2100, 1e-4)])
def test_every_kernel_buffer_starts_its_first_node_on_a_64_byte_boundary(grid, dummy_floats):
    dummy = np.ones(dummy_floats)  # alive until the test returns
    kern = _Kernel(make_hirota_satsuma(), grid, np.ones((2, grid.m_points)))
    firsts = [layer.values for layer in kern.layers]  # one allocation, padded between
    firsts += [kern.d1, kern.d3, kern.mult, kern.acc, kern.zero, kern.twice[2:], kern.magnitude[2:]]
    firsts += [slots for _, slots in kern.rounds]  # each round's first slot row
    assert [first.ctypes.data % 64 for first in firsts] == [0] * len(firsts)
