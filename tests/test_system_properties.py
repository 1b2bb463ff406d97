"""Property tests for hand-built N-mode systems: a SystemSpec either builds
or raises ConfigError, and on every spec that builds the scheme is exactly
shift equivariant and conserves the mass of each mode whose terms all
have k = m to roundoff."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ckdv.diagnostics import mode_mass
from ckdv.errors import BlowUpError, ConfigError
from ckdv.model import FieldSet, Grid, NonlinearTerm, SystemSpec, effective_dispersion
from ckdv.stepper import advance, half_step

EPS = np.finfo(float).eps
FINITE = st.floats(-2.0, 2.0)
ANY = FINITE | st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def systems(draw, faults=True):
    """``(n_modes, speeds, dispersions, terms)``: with ``faults``, any of them
    may break a rule; without, only data that satisfies every rule."""
    if not faults:
        n = draw(st.integers(1, 3))
        index = st.integers(1, n)
        coefs = st.lists(FINITE, min_size=n, max_size=n)
        terms = st.lists(
            st.tuples(index, index, index, FINITE), max_size=4, unique_by=lambda t: t[:3]
        )
        return n, draw(coefs), draw(coefs), draw(terms)
    n = draw(st.integers(-1, 3))
    index = st.integers(1, max(n, 1)) | st.integers(-1, 4)
    coefs = (st.just(max(n, 0)) | st.integers(0, 4)).flatmap(
        lambda size: st.lists(ANY, min_size=size, max_size=size)
    )
    terms = st.lists(st.tuples(index, index, index, ANY), max_size=4)
    return n, draw(coefs), draw(coefs), draw(terms)


def build(parts) -> SystemSpec:
    n, speeds, disps, terms = parts
    return SystemSpec(n, tuple(speeds), tuple(disps), tuple(NonlinearTerm(*t) for t in terms))


def well_formed(n, speeds, disps, terms) -> bool:
    triples = [t[:3] for t in terms]
    return (
        n >= 1
        and len(speeds) == n
        and len(disps) == n
        and all(math.isfinite(v) for v in [*speeds, *disps, *(t[3] for t in terms)])
        and all(1 <= i <= n for triple in triples for i in triple)
        and len(set(triples)) == len(triples)
    )


@settings(deadline=None, max_examples=300)
@given(parts=systems())
def test_spec_builds_or_raises_config_error(parts):
    try:
        build(parts)
    except ConfigError:
        assert not well_formed(*parts)
    else:
        assert well_formed(*parts)


def grids_and_states(spec_parts):
    return st.tuples(
        spec_parts,
        st.integers(8, 64),
        st.sampled_from([0.25, 0.5, 1.0]),
        st.sampled_from([1e-4, 1e-3, 1e-2]),
        st.integers(0, 2**32 - 1),
    )


def setup(case):
    parts, m_points, h, tau, seed = case
    spec = build(parts)
    grid = Grid(-0.5 * m_points * h, h, m_points, tau)
    values = np.random.default_rng(seed).standard_normal((spec.n_modes, m_points))
    return spec, grid, FieldSet(values, 0.0)


def run(state, spec, grid, n_steps):
    """Every completed layer, and the blow-up step (``None`` if none)."""
    layers = [state]
    try:
        advance(state, spec, grid, n_steps, lambda j, layer: layers.append(layer))
    except BlowUpError as exc:
        return layers, exc.step
    return layers, None


@settings(deadline=None, max_examples=100)
@given(case=grids_and_states(systems(faults=False)), n_steps=st.integers(1, 6), data=st.data())
def test_advance_commutes_with_cyclic_shift_bitwise(case, n_steps, data):
    spec, grid, state = setup(case)
    shift = data.draw(st.integers(0, grid.m_points - 1))
    shifted = FieldSet(np.roll(state.values, shift, axis=1), 0.0)
    layers, blown = run(state, spec, grid, n_steps)
    shifted_layers, shifted_blown = run(shifted, spec, grid, n_steps)
    assert shifted_blown == blown
    for layer, shifted_layer in zip(layers, shifted_layers, strict=True):
        assert np.roll(layer.values, shift, axis=1).tobytes() == shifted_layer.values.tobytes()


def _mass_tolerance(cur, half, nxt, spec, grid, n):
    """Roundoff bound on one step's change of mode ``n``'s mass: a few eps
    times M times the summed size of every rounded quantity in the step."""
    h, tau = grid.h, grid.tau
    a = np.abs(half.values)
    pair = (np.roll(a, -1, axis=1) + np.roll(a, 1, axis=1)) / (2.0 * h)
    quad = (np.roll(a, -2, axis=1) + 2.0 * np.roll(a, -1, axis=1)
            + 2.0 * np.roll(a, 1, axis=1) + np.roll(a, 2, axis=1)) / (2.0 * h**3)
    e = effective_dispersion(spec, h)[n]
    size = abs(spec.linear_speeds[n]) * pair[n] + abs(e) * quad[n]
    for t in spec.nonlinear_terms:
        if t.n == n + 1:
            size = size + abs(t.coef) * a[t.k - 1] * pair[t.m - 1]
    total = np.abs(cur.values[n]) + np.abs(nxt.values[n]) + tau * size
    return 8.0 * grid.m_points * EPS * h * float(np.sum(total))


@settings(deadline=None, max_examples=100)
@given(case=grids_and_states(systems(faults=False)), n_steps=st.integers(1, 6))
def test_mode_mass_with_only_k_equal_m_terms_is_conserved(case, n_steps):
    spec, grid, state = setup(case)
    layers, _ = run(state, spec, grid, n_steps)
    conserved = [
        n for n in range(spec.n_modes)
        if all(t.k == t.m for t in spec.nonlinear_terms if t.n == n + 1)
    ]
    for cur, nxt in zip(layers, layers[1:]):
        try:
            half = half_step(cur, spec, grid)
        except BlowUpError:  # its limit is set by cur, not by the run's start
            continue
        change = mode_mass(nxt, grid.h) - mode_mass(cur, grid.h)
        for n in conserved:
            assert abs(change[n]) <= _mass_tolerance(cur, half, nxt, spec, grid, n)
