"""Acceptance gate: each numbered criterion runs at its stated tolerance
and prints one [PASS]/[FAIL] line (visible with ``pytest -s``).

The expensive soliton run (m=1, d=0, domain [-20, 20], h=0.05, dispersive
CFL step with safety 0.25, t_end=1) is executed once and shared by
criteria 1, 3, 4, 5 and 6.
"""

import contextlib
import dataclasses
import math

import numpy as np
import pytest

from ckdv.analytic import SolitonParams, sample_initial
from ckdv.diagnostics import count_peaks
from ckdv.errors import BlowUpError
from ckdv.model import Grid, make_hirota_satsuma
from ckdv.runner import RunConfig, convergence_study, get_preset, run_experiment
from ckdv.stepper import advance, advise_tau
from residual import verify_residual

HS = make_hirota_satsuma()


def _gate(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _read_snapshot(path):
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    return data[:, 0], data[:, 1:].T


def _run_soliton_config(tmp_dir, m=1.0):
    config = RunConfig(
        m=m,
        t_end=1.0,
        snapshot_every=0.1,
        output_dir=str(tmp_dir),
    )
    return run_experiment(config)


@pytest.fixture(scope="module")
def soliton_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("criterion1")
    return _run_soliton_config(out)


@pytest.fixture(scope="module")
def preset_runs(tmp_path_factory):
    reports = {}
    for name in ("fig4b", "fig5", "fig6"):
        out = tmp_path_factory.mktemp(name)
        config = dataclasses.replace(get_preset(name).config, output_dir=str(out))
        # fig4b's stretched data reach 2.5e-05 of the peak at its domain edges
        edge = pytest.warns(UserWarning, match="edge contamination") if name == "fig4b" else contextlib.nullcontext()
        with edge:
            reports[name] = run_experiment(config)
    return reports


def test_criterion_1_soliton_accuracy(soliton_run):
    worst = max(soliton_run.trace.columns["max_pct_err_1"])
    _gate(
        "criterion 1 (soliton accuracy)",
        soliton_run.outcome == "completed" and worst <= 2.0,
        f"mode-1 max percent error {worst:.4f}% (bound 2%)",
    )


def test_criterion_2_convergence_order():
    report = convergence_study(0.5, 0.2, 3)
    orders = ", ".join(f"{o:.3f}" for o in report.observed_orders)
    ok = all(1.7 <= o <= 2.3 for o in report.observed_orders)
    _gate("criterion 2 (convergence order)", ok, f"observed orders [{orders}] (window [1.7, 2.3])")


def test_criterion_3_exact_mode1_mass(soliton_run):
    mass1 = np.asarray(soliton_run.trace.columns["mass_1"])
    drift1 = np.max(np.abs(mass1 - mass1[0])) / abs(mass1[0])
    mass2 = np.asarray(soliton_run.trace.columns["mass_2"])
    drift2 = np.max(np.abs(mass2 - mass2[0])) / abs(mass2[0])
    _gate(
        "criterion 3 (exact mode-1 mass)",
        drift1 <= 1e-10,
        f"mode-1 relative drift {drift1:.3e} (bound 1e-10); mode-2 drift {drift2:.3e} recorded",
    )


def test_criterion_4_hs_invariant(soliton_run):
    q = np.asarray(soliton_run.trace.columns["Q"])
    q_exact = -4.0 / 3.0
    initial_dev = abs(q[0] - q_exact) / abs(q_exact)
    drift = abs(q[-1] - q[0]) / abs(q[0])
    _gate(
        "criterion 4 (HS invariant)",
        initial_dev <= 1e-3 and drift <= 0.01,
        f"Q(0) off analytic by {initial_dev:.2e} (bound 1e-3); drift {drift:.2e} (bound 1e-2)",
    )


def test_criterion_5_conditional_stability(soliton_run):
    completed = soliton_run.outcome == "completed"
    h = 0.05
    plan = advise_tau(HS, h, 1.0, "dispersive_cfl", 0.25)
    grid = Grid(-20.0, h, 800, plan.tau * 100.0)
    state = sample_initial(SolitonParams(1.0, 0.0), grid)
    step = None
    try:
        advance(state, HS, grid, 1000)
    except BlowUpError as exc:
        step = exc.step
    _gate(
        "criterion 5 (conditional stability)",
        completed and step is not None and step <= 1000,
        f"stable run completed={completed}; 100x tau blew up at step {step} (within 1000)",
    )


def test_criterion_6_crest_transport(soliton_run):
    final_path = soliton_run.snapshots[-1]
    x, values = _read_snapshot(final_path)
    crest = x[int(np.argmax(values[0]))]
    _gate(
        "criterion 6 (crest transport)",
        abs(crest - 0.5) <= 0.05 + 1e-12,
        f"crest at x={crest:.4f} (target 0.5 within h=0.05)",
    )


def test_criterion_7_multi_soliton_decay(preset_runs):
    report = preset_runs["fig4b"]
    final_path = report.snapshots[-1]
    _, values = _read_snapshot(final_path)
    th1 = values[0]
    peaks = count_peaks(th1, 0.1 * float(np.max(th1)))
    _gate(
        "criterion 7 (multi-soliton decay)",
        report.outcome == "completed" and peaks >= 2,
        f"mode-1 peak count at t_end: {peaks} (required >= 2; exact count recorded, not asserted)",
    )


def test_criterion_8_robustness_presets(preset_runs):
    details = []
    ok = True
    for name in ("fig5", "fig6"):
        report = preset_runs[name]
        first = report.snapshots[0]
        last = report.snapshots[-1]
        initial_max = float(np.max(np.abs(_read_snapshot(first)[1])))
        final_max = float(np.max(np.abs(_read_snapshot(last)[1])))
        bounded = report.outcome == "completed" and final_max <= 10.0 * initial_max
        ok = ok and bounded
        details.append(f"{name}: outcome={report.outcome}, max-norm ratio {final_max / initial_max:.3f}")
    # the perturbed run keeps a single soliton-like crest at small time
    x, values = _read_snapshot(preset_runs["fig5"].snapshots[1])
    th1 = values[0]
    crest = x[int(np.argmax(th1))]
    soliton_like = (
        count_peaks(th1, 0.5 * float(np.max(th1))) == 1
        and abs(crest) <= 0.5
        and abs(float(np.max(th1)) - 2.0) <= 0.2
    )
    ok = ok and soliton_like
    details.append(f"fig5 early crest at x={crest:+.3f}, single-peaked={soliton_like}")
    _gate("criterion 8 (robustness presets)", ok, "; ".join(details) + " (bound 10x)")


def test_criterion_9_pde_residual():
    worst = 0.0
    for m, d in ((1.0, 0.0), (0.5, 0.3)):
        x = np.linspace(-4.0, 4.0, 20)
        r1, r2 = verify_residual(SolitonParams(m, d), x, 0.25, delta=1e-3)
        worst = max(worst, float(np.max(np.abs(r1))), float(np.max(np.abs(r2))))
    _gate(
        "criterion 9 (PDE-oracle residual)",
        worst <= 1e-5,
        f"max residual over 20-point samples {worst:.2e} (bound 1e-5)",
    )


def test_secondary_larger_amplitude_accuracy(tmp_path_factory):
    # same check as criterion 1 at initial amplitude 2 m^2 = 3.4
    out = tmp_path_factory.mktemp("a34")
    report = _run_soliton_config(out, m=math.sqrt(1.7))
    worst = max(report.trace.columns["max_pct_err_1"])
    _gate(
        "secondary (A=3.4 accuracy)",
        report.outcome == "completed" and worst <= 6.0,
        f"mode-1 max percent error {worst:.4f}% (bound 6%)",
    )
