"""Byte-level checks of the snapshot, trace and report CSV writers.

Every number is written as ``%.17g``. The golden files pin the spellings
of the awkward values (``-0``, ``nan``, ``inf``, the smallest subnormal);
the property compares the writers with a ``csv.writer`` transcription,
also for snapshots of more than a thousand rows.
Two short runs, one completed and one blown up, pin ``report.csv``.
"""

import csv
import dataclasses
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckdv.diagnostics import DiagnosticTrace
from ckdv.model import FieldSet
from ckdv.runner import (
    RunConfig,
    _snapshot_template,
    _write_snapshot,
    _write_trace,
    run_experiment,
)

SPECIAL = [-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 0.1, 1 / 3, 1e22]


def x_column(x, n_modes):
    # the snapshot template with the node column written in, as
    # run_experiment builds it once per run
    return _snapshot_template(np.array(x, dtype=float), n_modes)


def write_snapshot(tmp_path, x, values):
    path = tmp_path / "snap.csv"
    _write_snapshot(path, x_column(x, len(values)), FieldSet(np.array(values, dtype=float), 0.0))
    return path.read_bytes()


def write_trace(tmp_path, trace):
    path = tmp_path / "trace.csv"
    _write_trace(path, trace)
    return path.read_bytes()


def transcribe(header, rows):
    """The reference writer: csv.writer with every value as format(v, '.17g')."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format(float(v), ".17g") for v in row])
    return buf.getvalue().encode()


def test_snapshot_golden_bytes_one_mode(tmp_path):
    x = [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]
    assert write_snapshot(tmp_path, x, [SPECIAL]) == (
        b"x,theta_1\n"
        b"-2,-0\n"
        b"-1.5,0\n"
        b"-1,nan\n"
        b"-0.5,inf\n"
        b"0,-inf\n"
        b"0.5,4.9406564584124654e-324\n"
        b"1,0.10000000000000001\n"
        b"1.5,0.33333333333333331\n"
        b"2,1e+22\n"
    )


def test_snapshot_golden_bytes_three_modes(tmp_path):
    rows = [SPECIAL, SPECIAL[3:] + SPECIAL[:3], SPECIAL[::-1]]
    assert write_snapshot(tmp_path, SPECIAL, rows) == (
        b"x,theta_1,theta_2,theta_3\n"
        b"-0,-0,inf,1e+22\n"
        b"0,0,-inf,0.33333333333333331\n"
        b"nan,nan,4.9406564584124654e-324,0.10000000000000001\n"
        b"inf,inf,0.10000000000000001,4.9406564584124654e-324\n"
        b"-inf,-inf,0.33333333333333331,-inf\n"
        b"4.9406564584124654e-324,4.9406564584124654e-324,1e+22,inf\n"
        b"0.10000000000000001,0.10000000000000001,-0,nan\n"
        b"0.33333333333333331,0.33333333333333331,0,0\n"
        b"1e+22,1e+22,nan,-0\n"
    )


def test_trace_golden_bytes_two_modes_with_q_and_errors(tmp_path):
    trace = DiagnosticTrace(
        columns={
            "t": [0.0, 0.1, 1e22],
            "l2_1": [1 / 3, -0.0, float("inf")],
            "l2_2": [0.1, 5e-324, 0.0],
            "mass_1": [-0.0, 0.0, float("nan")],
            "mass_2": [1e22, 1 / 3, 0.1],
            "Q": [float("-inf"), 0.1, -0.0],
            "max_pct_err_1": [0.0, float("nan"), 5e-324],
            "max_pct_err_2": [1 / 3, 1e22, float("inf")],
        }
    )
    assert write_trace(tmp_path, trace) == (
        b"t,l2_1,l2_2,mass_1,mass_2,Q,max_pct_err_1,max_pct_err_2\n"
        b"0,0.33333333333333331,0.10000000000000001,-0,1e+22,-inf,0,0.33333333333333331\n"
        b"0.10000000000000001,-0,4.9406564584124654e-324,0,0.33333333333333331,"
        b"0.10000000000000001,nan,1e+22\n"
        b"1e+22,inf,0,nan,0.10000000000000001,-0,4.9406564584124654e-324,inf\n"
    )


def test_trace_golden_bytes_one_mode_without_q_or_errors(tmp_path):
    trace = DiagnosticTrace(
        columns={"t": [0.0, 1 / 3], "l2_1": [float("nan"), 5e-324], "mass_1": [-0.0, float("-inf")]}
    )
    assert write_trace(tmp_path, trace) == (
        b"t,l2_1,mass_1\n"
        b"0,nan,-0\n"
        b"0.33333333333333331,4.9406564584124654e-324,-inf\n"
    )


floats = st.floats(allow_nan=True, allow_infinity=True, width=64)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_snapshot_bytes_match_csv_transcription(tmp_path_factory, data):
    n_modes = data.draw(st.integers(1, 3))
    m_points = data.draw(st.integers(1, 8))
    x = data.draw(st.lists(floats, min_size=m_points, max_size=m_points))
    values = [
        data.draw(st.lists(floats, min_size=m_points, max_size=m_points)) for _ in range(n_modes)
    ]
    header = ["x"] + [f"theta_{n + 1}" for n in range(n_modes)]
    expected = transcribe(header, zip(x, *values))
    assert write_snapshot(tmp_path_factory.mktemp("snap"), x, values) == expected


@pytest.mark.parametrize("n_modes", [1, 2, 3])
# the sizes around the edges of 1,024-row blocks, where a writer that split
# the text into blocks would cut it
@pytest.mark.parametrize("m_points", [1023, 1024, 1025, 2049])
def test_snapshot_bytes_across_block_edges_match_csv_transcription(tmp_path, n_modes, m_points):
    # SPECIAL cycled, each scaled by its row number so that no two rows match
    x = [0.1 * i - 60.0 for i in range(m_points)]
    values = [
        [SPECIAL[(i + 4 * n) % len(SPECIAL)] * (i + 1) for i in range(m_points)]
        for n in range(n_modes)
    ]
    header = ["x"] + [f"theta_{n + 1}" for n in range(n_modes)]
    assert write_snapshot(tmp_path, x, values) == transcribe(header, zip(x, *values))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_trace_bytes_match_csv_transcription(tmp_path_factory, data):
    n_modes = data.draw(st.integers(1, 3))
    n_records = data.draw(st.integers(1, 5))

    def series():
        return data.draw(st.lists(floats, min_size=n_records, max_size=n_records))

    header = ["t"] + [f"l2_{k + 1}" for k in range(n_modes)] + [f"mass_{k + 1}" for k in range(n_modes)]
    if n_modes == 2 and data.draw(st.booleans()):
        header.append("Q")
    if data.draw(st.booleans()):
        header += [f"max_pct_err_{k + 1}" for k in range(n_modes)]
    columns = [series() for _ in header]
    trace = DiagnosticTrace(columns=dict(zip(header, columns)))
    expected = transcribe(header, zip(*columns))
    assert write_trace(tmp_path_factory.mktemp("trace"), trace) == expected


@pytest.mark.parametrize(
    "config, blow_up_step, expected",
    [
        (
            RunConfig(h=0.5, t_end=0.01, snapshot_every=0.005),
            None,
            b"kind,key,value\n"
            b"plan,rule,dispersive_cfl\n"
            b"plan,safety,0.25\n"
            b"plan,tau,0.01\n"
            b"plan,t_end,0.01\n"
            b"plan,n_steps,1\n"
            b"grid,x_min,-20\n"
            b"grid,h,0.5\n"
            b"grid,m_points,80\n"
            b"run,outcome,completed\n"
            b"snapshot,0,snap_0000_t0.000000.csv\n"
            b"snapshot,1,snap_0001_t0.010000.csv\n",
        ),
        (
            RunConfig(h=0.1, t_end=1.0, snapshot_every=0.5, tau_rule="manual", tau=0.05),
            5,
            b"kind,key,value\n"
            b"plan,rule,manual\n"
            b"plan,safety,0.25\n"
            b"plan,tau,0.050000000000000003\n"
            b"plan,t_end,1\n"
            b"plan,n_steps,20\n"
            b"grid,x_min,-20\n"
            b"grid,h,0.10000000000000001\n"
            b"grid,m_points,400\n"
            b"run,outcome,blew_up\n"
            b"run,blow_up_step,5\n"
            b"snapshot,0,snap_0000_t0.000000.csv\n",
        ),
    ],
    ids=["completed", "blew_up"],
)
def test_report_golden_bytes(tmp_path, config, blow_up_step, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_experiment(dataclasses.replace(config, output_dir=str(tmp_path)))
    assert report.blow_up_step == blow_up_step
    assert report.outcome == ("completed" if blow_up_step is None else "blew_up")
    assert (tmp_path / "report.csv").read_bytes() == expected
