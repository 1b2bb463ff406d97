import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import ckdv
import ckdv.analytic
import ckdv.cli
import ckdv.runner
from ckdv.cli import main
from ckdv.errors import BlowUpError
from ckdv.runner import _FLOAT_KEYS

# custom system files written next to each faulty config as {tmp}/<name>
SYSTEM_FILES = {
    "nan_c.sys": "n_modes = 2\nc = nan, 0\nd = -0.25, 0.5\n",
    "inf_term.sys": "n_modes = 2\nc = 0, 0\nd = -0.25, 0.5\nterm = 1, 1, 1, inf\n",
    "c1.sys": "n_modes = 1\nc = 1\nd = -0.25\n",
}
MANUAL = "tau_rule = manual\ntau = 1e-4\n"
TRIANGLE = "h = {h}\nx_min = -{x}\nx_max = {x}\nic_kind = triangle_pulse\nhalf_width = {w}\n"
# the nodes nearest the soliton's centre x = 0 sit at -h/2 and h/2
NODES_STRADDLE_0 = "h = 0.1\nx_min = -20.05\nx_max = 19.95\n"


def test_presets_listing(capsys):
    assert main(["presets"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "fig1     [oracle] soliton profiles for m in {0.5, 1, 1.5} at d=0 (oracle plots only)",
        "fig2     [oracle] soliton profiles for d in {0, 0.5} at m=1 (oracle plots only)",
        "fig3     [simulation, percent-error trace] soliton accuracy run m=1 d=0 to t=1 "
        "with percent-error trace",
        "fig4a    [simulation] multi-soliton decay of the isolated first equation "
        "(N=1 reduction), stretched initial data (10x width, 2x amplitude)",
        "fig4b    [simulation] multi-soliton decay of the full two-mode system, "
        "stretched initial data (soliton count estimated by peak detection)",
        "fig5     [simulation] slightly nonintegrable system (d1=-0.2) fed the integrable soliton",
        "fig6     [simulation] non-smooth (triangle pulse) initial data on the two-mode system",
    ]


@pytest.mark.parametrize(
    "config, plan",
    [
        (
            "tau_rule = paper_strict\nh = 0.2\nt_end = 1\nsafety = 1\n",
            ("paper_strict", "2.84438e-05", 35157, 200),
        ),
        ("h = 0.1\nt_end = 1\n", ("dispersive_cfl", "0.000166667", 6000, 400)),
        # the N=1 system has half the Hirota-Satsuma system's largest dispersion
        ("system = hs_kdv1\nh = 0.1\nt_end = 3\n", ("dispersive_cfl", "0.000333333", 9000, 400)),
    ],
    ids=["paper_strict", "dispersive_cfl", "hs_kdv1"],
)
def test_advise_prints_the_plan_the_config_runs_with(tmp_path, capsys, config, plan):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    assert main(["advise", "--config", str(cfg)]) == 0
    rule, tau, n_steps, m_points = plan
    assert capsys.readouterr().out.splitlines() == [
        f"rule = {rule}", f"tau = {tau}", f"steps to t_end = {n_steps}", f"m_points = {m_points}"
    ]


def test_run_config_exit_codes(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "h = 0.1\nt_end = 0.02\nsnapshot_every = 0.01\n"
        f"output_dir = {tmp_path / 'out'}\n"
    )
    assert main(["run", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "completed" in out

    bad = tmp_path / "bad.cfg"
    bad.write_text("h = -1\n")
    assert main(["run", "--config", str(bad)]) == 1
    assert "h must be positive" in capsys.readouterr().err


def test_run_tiny_snapshot_interval_exits_promptly(tmp_path):
    # a snapshot schedule kept as a running float sum never passes t_end here
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "h = 0.5\nt_end = 0.001\nsnapshot_every = 1e-300\n"
        f"output_dir = {tmp_path / 'out'}\n"
    )
    # a child process, so a hang fails the test at the timeout
    env = dict(os.environ, PYTHONPATH=str(Path(ckdv.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "ckdv.cli", "run", "--config", str(cfg)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert "2 snapshots" in result.stdout


def test_warning_prints_as_one_line(tmp_path):
    # a child process, so pytest does not record the warning in place of printing it
    cfg = tmp_path / "edge.cfg"
    cfg.write_text("m = 0.5\nh = 0.1\nt_end = 0.01\n")
    env = dict(os.environ, PYTHONPATH=str(Path(ckdv.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "ckdv.cli", "advise", "--config", str(cfg)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == (
        "warning: the initial data at the domain edges reach 9.1e-09, 9.5e-05 of each mode's "
        "peak (above 1e-06); edge contamination possible\n"
    )


def test_an_overflowing_start_state_exits_2_without_numpy_warnings(tmp_path):
    # a child process, as above. The start state's squares overflow in the
    # diagnostics of snapshot 0 and its first stage in the stepper; the
    # trace records inf and nan, and the blow-up check alone reports it
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(
        "ic_kind = triangle_pulse\namplitude = 1e200\nh = 0.1\nt_end = 0.01\n"
        f"output_dir = {tmp_path / 'out'}\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(ckdv.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "ckdv.cli", "run", "--config", str(cfg)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert result.returncode == 2, result.stderr
    assert [line for line in result.stderr.splitlines() if line.startswith("warning:")] == []
    assert (tmp_path / "out" / "trace.csv").read_text().splitlines()[1] == (
        "0,inf,inf,1.9999999999999999e+200,1.9999999999999999e+200,nan"
    )


def test_run_blow_up_exit_code(tmp_path, capsys):
    cfg = tmp_path / "blow.cfg"
    cfg.write_text(
        "h = 0.1\nt_end = 1.0\ntau_rule = manual\ntau = 0.05\nsnapshot_every = 0.05\n"
        f"output_dir = {tmp_path / 'out'}\n"
    )
    assert main(["run", "--config", str(cfg)]) == 2
    out = capsys.readouterr().out
    assert "blew_up" in out


def test_converge_blow_up_exits_2(monkeypatch, capsys):
    def blow_up(*args):
        raise BlowUpError("blow-up at step 122252 (t ~ 0.318365)", step=122252, time=0.318365)

    monkeypatch.setattr(ckdv.cli, "convergence_study", blow_up)
    assert main(["converge", "--levels", "4"]) == 2
    assert capsys.readouterr().err == "error: blow-up at step 122252 (t ~ 0.318365)\n"


def test_module_entry_point_exits_with_main_status():
    # python -m ckdv.cli runs main() under __main__; its status is the process's
    env = dict(os.environ, PYTHONPATH=str(Path(ckdv.__file__).resolve().parents[1]))

    def cli(*argv):
        cmd = [sys.executable, "-m", "ckdv.cli", *argv]
        return subprocess.run(cmd, capture_output=True, text=True, timeout=60, env=env)

    listing = cli("presets")
    assert listing.returncode == 0, listing.stderr
    assert len(listing.stdout.splitlines()) == 7
    usage = cli("converge", "--levels", "abc")
    assert usage.returncode == 1
    assert usage.stderr.startswith("usage: ckdv")


def test_converge_sets_up_every_level_before_stepping(monkeypatch, capsys):
    # level 8's step count is the fault; stepping level 0 first would take 750,000,000 steps
    def advance(*args):
        raise AssertionError("a level was stepped before every level was set up")

    monkeypatch.setattr(ckdv.runner, "advance", advance)
    assert main(["converge", "--levels", "9", "--t-end", "1e6"]) == 1
    assert "exceeds 2**53 steps" in capsys.readouterr().err


def test_converge_with_a_faulty_coarsest_level_samples_no_finer_level(monkeypatch, capsys):
    sampled = []

    def sample_initial(ic, grid):
        sampled.append(grid.m_points)
        return ckdv.analytic.sample_initial(ic, grid)

    monkeypatch.setattr(ckdv.runner, "sample_initial", sample_initial)
    assert main(["converge", "--h0", "2", "--levels", "4"]) == 1
    assert "initial profile width 1 is below h = 2" in capsys.readouterr().err
    assert sampled == []


def test_converge_with_a_node_count_fault_on_the_finest_level_alone_exits_1(monkeypatch, capsys):
    # only level 17 has too many nodes; its step count, like every other level's, is fine
    def advance(*args):
        raise AssertionError("a level was stepped before the finest level was set up")

    monkeypatch.setattr(ckdv.runner, "advance", advance)
    assert main(["converge", "--levels", "18", "--t-end", "1e-9"]) == 1
    assert "m_points = 26214400 exceeds 2**24" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["converge", "--levels", "abc"], ["run"]], ids=["abc", "run"])
def test_usage_errors_exit_1_with_argparse_usage(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: ckdv {argv[0]}") and f"ckdv {argv[0]}: error: " in err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: ckdv")


def test_preset_command_oracle(tmp_path, capsys):
    assert main(["preset", "fig1", "--out", str(tmp_path / "fig1")]) == 0
    out = capsys.readouterr().out
    assert "oracle_m0.5_d0.csv" in out


def test_preset_command_simulation(tmp_path, capsys):
    out_dir = tmp_path / "fig4a"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["preset", "fig4a", "--out", str(out_dir)]) == 0
    assert capsys.readouterr().out == (
        "outcome: completed\n"
        "tau = 0.000333333 (dispersive_cfl, safety 0.25)\n"
        f"7 snapshots in {out_dir}\n"
    )
    names = {path.name for path in out_dir.iterdir()}
    snaps = {path.name for path in out_dir.glob("snap_*.csv")}
    assert len(snaps) == 7
    assert names - snaps == {"trace.csv", "report.csv"}
    # the stretched data reach 2.5e-05 of the peak at the edges of [-150, 60]
    assert [w.category for w in caught] == [UserWarning]


def test_preset_command_unknown(capsys):
    assert main(["preset", "fig99"]) == 1
    assert "unknown preset" in capsys.readouterr().err


def test_converge_command(capsys):
    assert main(["converge", "--levels", "3", "--h0", "0.4", "--t-end", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "order" in out
    assert len(out.strip().splitlines()) == 4


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", _FLOAT_KEYS)
def test_run_config_rejects_non_finite_numbers(tmp_path, capsys, key, value):
    fields = {"h": "0.1", "t_end": "0.01", "output_dir": str(tmp_path / "out")}
    fields[key] = value
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))
    assert main(["run", "--config", str(cfg)]) == 1
    assert f"{key} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["run"], "h = -1\n", "h must be positive"),
        (["run"], "h = inf\n", "h must be finite"),
        (["run"], "safety = nan\n", "safety must be finite"),
        (["run"], "tau_rule = sometimes\n", "unknown rule 'sometimes'"),
        (["run"], "system = unknown\n", "unknown system 'unknown'"),
        (["run"], "snapshot_every = 1\n", "snapshot_every must not exceed t_end"),
        (["converge", "--levels", "2"], None, "n_levels must be >= 3"),
        (["converge", "--h0=-1"], None, "h must be positive"),
        (["converge", "--t-end", "nan"], None, "t_end must be finite"),
        (["converge", "--h0", "0.3"], None, "not a multiple of h"),
        (["run"], "h = 30\n", "not a multiple of h"),
        (["run"], "h = 1e200\n", "h = 1e+200"),
        (["run"], "x_min = -0.001\nx_max = 0.001\n", "not a multiple of h"),
        (["run"], "h = 0.03\n", "not a multiple of h"),
        (["run"], "system = custom:{tmp}/nan_c.sys\n", "nan_c.sys: linear speeds must be finite"),
        (["run"], MANUAL + "system = custom:{tmp}/nan_c.sys\n", "nan_c.sys: linear speeds"),
        (["run"], "system = custom:{tmp}/inf_term.sys\n", "inf_term.sys: term (1,1,1) coef"),
        (["run"], MANUAL + "system = custom:{tmp}/inf_term.sys\n", "inf_term.sys: term (1,1,1)"),
        (["run"], "m = 1e-200\n", "m = 1e-200"),
        (["run"], "m = 1e103\n", "m = 1e+103"),
        (["run"], "ic_kind = stretched_soliton\nm = 1e-200\n", "m = 1e-200"),
        (["run"], "ic_kind = stretched_soliton\nm = 1e103\n", "m = 1e+103"),
        (["run"], "tau_rule = manual\ntau = 1e-300\n", "exceeds 2**53 steps"),
        (["run"], "h = 1e-9\ntau_rule = manual\ntau = 0.1\n", "exceeds 2**24"),
        (["run"], NODES_STRADDLE_0 + "m = 1e4\n", "initial profile width 0.0001 is below h"),
        (["run"], NODES_STRADDLE_0 + "m = 1e2\n", "initial profile width 0.01 is below h"),
        (["converge", "--h0", "2"], None, "initial profile width 1 is below h = 2"),
        (["run"], "x_min = 1000\nx_max = 1040\n", "the domain misses it"),
        (["run"], "ic_kind = triangle_pulse\ncenter = 1000\n", "the domain misses it"),
        (["converge", "--t-end", "1e-300"], None, "t_end = 1e-300 is too short"),
        (["converge", "--levels", "1100"], None, "h must be positive, got 0.0"),
        (["run"], "system = custom:{tmp}/nul\0.sys\n", "cannot read custom system file"),
        # 2h^3 overflows in h**3, overflows in 2*h^3, and underflows to 0
        (["run"], MANUAL + TRIANGLE.format(h="1e103", x="1e105", w="1e104"), "h = 1e+103 makes"),
        (["run"], MANUAL + TRIANGLE.format(h="5e102", x="5e104", w="1e104"), "h = 5e+102 makes"),
        (["run"], MANUAL + TRIANGLE.format(h="1e-110", x="1e-107", w="1e-108"), "h = 1e-110 makes"),
        # c*h*h overflows in the grid correction of e_max
        (
            ["run"],
            "system = custom:{tmp}/c1.sys\nh = 1e200\nx_min = -1e201\nx_max = 1e201\n",
            "h = 1e+200 gives no finite positive dispersive_cfl tau",
        ),
        # two finite bounds whose span overflows
        (["run"], "x_min = -1e308\nx_max = 1e308\n", "x_max = 1e+308 overflows"),
        (["run"], "snapshot_every = -1\n", "snapshot_every must be positive, got -1.0"),
    ],
)
# a warning would print as a second stderr line: here it raises instead
@pytest.mark.filterwarnings("error")
def test_config_faults_exit_1_naming_the_field(tmp_path, capsys, argv, config, message):
    if config is not None:
        for name, text in SYSTEM_FILES.items():
            (tmp_path / name).write_text(text)
        cfg = tmp_path / "run.cfg"
        config = config.format(tmp=tmp_path)
        cfg.write_text(config + f"t_end = 0.01\noutput_dir = {tmp_path / 'out'}\n")
        # advise sets up as run does, short of creating output_dir and the
        # artifacts, so it rejects these configs with the same message
        assert main(["advise", "--config", str(cfg)]) == 1
        advise_err = capsys.readouterr().err
        argv = argv + ["--config", str(cfg)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    if config is not None:
        assert advise_err == err


def test_run_output_dir_that_is_a_file_is_a_config_fault(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"h = 0.1\nt_end = 0.01\noutput_dir = {taken}\n")
    # advise creates nothing, so an output_dir fault passes it and shows only in run
    assert main(["advise", "--config", str(cfg)]) == 0
    assert capsys.readouterr().err == ""
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot create output_dir {taken}: File exists\n"
    assert main(["preset", "fig1", "--out", str(taken / "fig1")]) == 1
    assert "cannot create output_dir" in capsys.readouterr().err


def test_run_output_dir_with_a_nul_byte_is_a_config_fault(tmp_path, capsys):
    out = f"{tmp_path}/o\0ut"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"h = 0.1\nt_end = 0.01\noutput_dir = {out}\n")
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot create output_dir {out}: embedded null byte\n"


def test_an_artifact_that_cannot_be_written_is_a_config_fault(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "trace.csv").mkdir(parents=True)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"h = 0.1\nt_end = 0.01\noutput_dir = {out}\n")
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot write {out / 'trace.csv'}: Is a directory\n"


@pytest.mark.parametrize("name", ["trace.csv", "report.csv"])
def test_an_artifact_that_cannot_be_written_fails_the_run_before_it_steps(
    tmp_path, capsys, monkeypatch, name
):
    def must_not_step(*_args, **_kwargs):
        raise AssertionError("the run stepped")

    monkeypatch.setattr(ckdv.runner, "advance", must_not_step)
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"h = 0.1\nt_end = 0.01\noutput_dir = {out}\n")
    assert main(["run", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: cannot write {out / name}: Is a directory\n"
