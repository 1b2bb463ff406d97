import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckdv.analytic import (
    SolitonParams,
    sample_initial,
    soliton_evaluator,
)
from ckdv.diagnostics import (
    ConvergenceReport,
    DiagnosticTrace,
    count_peaks,
    hs_invariant,
    l2_norm,
    level_h,
    mode_mass,
    percent_error,
)
from ckdv.model import FieldSet, Grid, make_hirota_satsuma
from ckdv.stepper import advance, advise_tau

HS = make_hirota_satsuma()
SOLITON = SolitonParams(1.0, 0.0)


# ------------------------------------------------------------------ norms


def test_l2_norm_ones():
    assert l2_norm(np.ones(10), 0.1) == pytest.approx(1.0, rel=1e-14)


def test_l2_norm_zero():
    assert l2_norm(np.zeros(25), 0.3) == 0.0


def test_l2_norm_soliton_mode1():
    # integral of (2 sech^2)^2 is 16/3
    x = np.arange(-20, 20, 0.01)
    th1 = 2.0 / np.cosh(x) ** 2
    assert l2_norm(th1, 0.01) == pytest.approx(math.sqrt(16.0 / 3.0), abs=1e-6)


def test_l2_norm_scales_linearly():
    rng = np.random.default_rng(3)
    f = rng.normal(size=200)
    for alpha in (-2.5, 0.125, 7.0):
        assert l2_norm(alpha * f, 0.2) == pytest.approx(abs(alpha) * l2_norm(f, 0.2), rel=1e-14)


# -------------------------------------------------------------- invariant


def test_hs_invariant_soliton_value():
    grid = Grid(-20.0, 0.05, 800, 1e-4)
    state = sample_initial(SOLITON, grid)
    assert hs_invariant(state, grid.h) == pytest.approx(-4.0 / 3.0, abs=1e-6)


def test_hs_invariant_zero_state():
    assert hs_invariant(FieldSet(np.zeros((2, 16)), 0.0), 0.1) == 0.0


def test_hs_invariant_arithmetic():
    values = np.zeros((2, 10))
    values[0] = 1.0
    assert hs_invariant(FieldSet(values, 0.0), 0.1) == pytest.approx(0.5, rel=1e-14)


def test_hs_invariant_needs_two_modes():
    with pytest.raises(ValueError):
        hs_invariant(FieldSet(np.zeros((1, 16)), 0.0), 0.1)


def test_hs_invariant_drift_shrinks_under_refinement():
    drifts = []
    for h in (0.2, 0.1, 0.05):
        plan, n = advise_tau(HS, h, 1.0, "dispersive_cfl", 0.25).fit_to_end()
        grid = Grid(-20.0, h, round(40 / h), plan.tau)
        state = sample_initial(SOLITON, grid)
        final = advance(state, HS, grid, n)
        q0 = hs_invariant(state, h)
        drifts.append(abs(hs_invariant(final, h) - q0) / abs(q0))
    assert drifts[-1] <= 0.01
    assert drifts[1] <= drifts[0] * 1.05
    assert drifts[2] <= drifts[1] * 1.05


# ---------------------------------------------------------- percent error


def test_percent_error_exact_match():
    grid = Grid(-20.0, 0.1, 400, 1e-4)
    state = sample_initial(SOLITON, grid)
    evaluate = soliton_evaluator(SOLITON, grid.nodes())
    assert np.array_equal(percent_error(state, evaluate, 2.0), np.zeros(2))


def test_percent_error_uniform_deviation():
    grid = Grid(-20.0, 0.1, 400, 1e-4)
    state = sample_initial(SOLITON, grid)
    evaluate = soliton_evaluator(SOLITON, grid.nodes())
    off = FieldSet(state.values + 0.02, 0.0)
    err = percent_error(off, evaluate, 2.0)
    assert err == pytest.approx([1.0, 1.0], rel=1e-12)


def test_percent_error_shift_invariance():
    grid = Grid(-20.0, 0.1, 400, 1e-4)
    state = sample_initial(SOLITON, grid)
    rng = np.random.default_rng(11)
    noisy = FieldSet(state.values + 1e-3 * rng.normal(size=state.values.shape), 0.0)
    evaluate = soliton_evaluator(SOLITON, grid.nodes())
    shift = 57
    noisy_shifted = FieldSet(np.roll(noisy.values, shift, axis=1), 0.0)
    evaluate_shifted = soliton_evaluator(SOLITON, np.roll(grid.nodes(), shift))
    a = percent_error(noisy, evaluate, 2.0)
    b = percent_error(noisy_shifted, evaluate_shifted, 2.0)
    assert np.array_equal(a, b)


def test_percent_error_rejects_bad_amplitude():
    grid = Grid(-20.0, 0.1, 400, 1e-4)
    state = sample_initial(SOLITON, grid)
    for amplitude in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="amplitude must be"):
            percent_error(state, soliton_evaluator(SOLITON, grid.nodes()), amplitude)


# ------------------------------------------------------------- peak count


def test_count_peaks_single_soliton():
    x = np.arange(-20, 20, 0.05)
    assert count_peaks(2.0 / np.cosh(x) ** 2, 0.5) == 1


def test_count_peaks_zero_field():
    assert count_peaks(np.zeros(100), 0.5) == 0


def test_count_peaks_two_crests_and_threshold():
    x = np.arange(-20, 20, 0.05)
    f = 2.0 / np.cosh(x + 8) ** 2 + 0.8 / np.cosh(x - 8) ** 2
    assert count_peaks(f, 0.2) == 2
    assert count_peaks(f, 1.0) == 1


def test_count_peaks_plateau_counts_once():
    f = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 2.0, 0.0, 0.0])
    assert count_peaks(f, 0.5) == 2


def test_count_peaks_constant_field():
    assert count_peaks(np.full(30, 3.0), 0.5) == 0


def test_count_peaks_wraps_periodically():
    # crest centred on the seam
    f = np.array([5.0, 1.0, 0.0, 0.0, 0.0, 1.0])
    assert count_peaks(f, 0.5) == 1


@pytest.mark.parametrize(
    "values, threshold, count",
    [
        pytest.param([2, 2, 2, 1, 2, 2], 0.5, 1, id="plateau-across-the-seam"),
        pytest.param([3, 0, 0, 0, 3, 3], 0.5, 1, id="seam-plateau-then-valley"),
        pytest.param([1, 1, 0, 0], 0.5, 1, id="two-runs"),
        pytest.param([], 0.5, 0, id="empty"),
        pytest.param([5], 0.5, 0, id="one-node"),
        pytest.param([5, 5], 0.5, 0, id="one-run"),
        pytest.param([5, 0], 0.5, 1, id="two-nodes"),
        pytest.param([0, 5, 0, 7, 7, 0], 5.0, 1, id="crest-at-the-threshold"),
        pytest.param([math.nan, 5, 0, 0], 0.5, 1, id="nan-before-a-crest"),
        pytest.param([0, 5, math.nan, 0], 0.5, 0, id="nan-after-a-crest"),
        pytest.param([0, 5, 0], math.nan, 1, id="nan-threshold"),
    ],
)
def test_count_peaks_literal_cases(values, threshold, count):
    assert count_peaks(values, threshold) == count


def walk_peaks(values, threshold):
    """Peaks by an index walk over the periodic lattice: the reference for ``count_peaks``."""
    f = np.asarray(values, dtype=float)
    m = f.size
    count = 0
    for i in range(m):
        if f[i] <= threshold or f[i] <= f[(i - 1) % m]:
            continue
        j = i  # ascended into a run starting at i; walk to its right edge
        while f[(j + 1) % m] == f[i]:
            j += 1
        if f[(j + 1) % m] < f[i]:
            count += 1
    return count


@settings(deadline=None, max_examples=300)
@given(
    st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0, math.nan, math.inf]), max_size=12),
    st.sampled_from([-1.0, 0.5, 1.0, 1.5, math.nan, -math.inf]),
)
def test_count_peaks_equals_the_index_walk(values, threshold):
    assert count_peaks(values, threshold) == walk_peaks(values, threshold)


# ------------------------------------------------------------ trace class


def test_trace_records_consistent_lengths():
    grid = Grid(-20.0, 0.1, 400, 1e-4)
    state = sample_initial(SOLITON, grid)
    evaluate = soliton_evaluator(SOLITON, grid.nodes())
    trace = DiagnosticTrace()
    trace.record(state, grid.h, evaluate, 2.0)
    trace.record(FieldSet(state.values, 0.1), grid.h, evaluate, 2.0)
    assert list(trace.columns) == [
        "t", "l2_1", "l2_2", "mass_1", "mass_2", "Q", "max_pct_err_1", "max_pct_err_2"
    ]
    assert all(len(series) == 2 for series in trace.columns.values())
    assert trace.columns["mass_1"][0] == pytest.approx(float(mode_mass(state, grid.h)[0]))


def test_trace_records_three_modes_without_q():
    values = np.arange(30.0).reshape(3, 10)
    trace = DiagnosticTrace()
    trace.record(FieldSet(values, 0.5), 0.1)
    assert list(trace.columns) == ["t", "l2_1", "l2_2", "l2_3", "mass_1", "mass_2", "mass_3"]
    assert trace.columns["t"] == [0.5]
    for k in range(3):
        # whole numbers: every sum is exact, so the closed forms hold bit for bit
        assert trace.columns[f"l2_{k + 1}"] == [math.sqrt(math.fsum(values[k] ** 2) * 0.1)]
        assert trace.columns[f"mass_{k + 1}"] == [float(np.sum(values[k]) * 0.1)]


@settings(deadline=None, max_examples=100)
@given(
    n=st.integers(1, 3),
    length=st.integers(16, 5000),
    seed=st.integers(0, 2**32 - 1),
    h=st.sampled_from([0.05, 0.1, 0.3]),
)
def test_trace_sums_all_rows_as_each_row_alone_bitwise(n, length, seed, h):
    # record reduces every mode in one call; pairwise summation must give
    # each row the bits it gets when summed alone
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, length)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
    values[:, rng.integers(0, length, length // 4)] = -0.0
    trace = DiagnosticTrace()
    trace.record(FieldSet(values, 0.0), h)
    for k in range(n):
        assert trace.columns[f"l2_{k + 1}"] == [l2_norm(values[k], h)]
        assert trace.columns[f"mass_{k + 1}"] == [float(np.sum(values[k]) * h)]


# ------------------------------------------------------------ convergence


def test_observed_orders_halving():
    orders = ConvergenceReport(0.4, (0.4, 0.1, 0.025), (0.4, 0.1, 0.025)).observed_orders
    assert orders == pytest.approx([2.0, 2.0], rel=1e-12)


@settings(max_examples=400, deadline=None)
@given(st.floats(min_value=0.0, allow_infinity=False), st.integers(0, 1200))
def test_level_h_is_h_over_2_to_the_k_correctly_rounded_past_the_float_range(h, k):
    # h / 2**k raises OverflowError from k = 1024; below that it is this rounding
    assert level_h(h, k) == float(Fraction(h) / 2**k)


def test_convergence_study_linearized_sinusoid():
    # with all couplings removed the modes evolve independently and
    # sin(kx + d k^3 t) is exact; the refinement loop of convergence_study,
    # written out with this oracle, meets the same second-order window
    lin = dataclasses.replace(HS, nonlinear_terms=())
    k = 2 * np.pi * 3 / 40.0
    d1v, d2v = lin.dispersions

    def exact(x, t):
        return np.stack([np.sin(k * x + d1v * k**3 * t), np.sin(k * x + d2v * k**3 * t)])

    errors, l2_errors = [], []
    for h in (0.2, 0.1, 0.05):
        plan, n_steps = advise_tau(lin, h, 0.5, "dispersive_cfl", 0.25).fit_to_end()
        grid = Grid.spanning(-20.0, 20.0, h, plan.tau)
        x = grid.nodes()
        final = advance(FieldSet(exact(x, 0.0), 0.0), lin, grid, n_steps)
        diff = np.abs(exact(x, final.time) - final.values)
        errors.append(float(diff.max()))
        l2_errors.append(float(np.sqrt(np.sum(diff * diff) * h)))
    report = ConvergenceReport(0.2, tuple(errors), tuple(l2_errors))
    assert all(1.7 <= order <= 2.3 for order in report.observed_orders)
    assert all(e > 0 for e in report.errors)
    assert all(e > 0 for e in report.l2_errors)
    assert report.h_values == (0.2, 0.1, 0.05)
