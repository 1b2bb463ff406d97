import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ckdv.runner
from ckdv.errors import BlowUpError, ConfigError
from ckdv.model import make_hirota_satsuma, make_hs_first_kdv, make_perturbed_hs
from ckdv.runner import (
    RunConfig,
    _snapshot_steps,
    build_system,
    convergence_study,
    get_preset,
    list_presets,
    load_config,
    run_experiment,
    run_preset,
    validate_config,
    write_config,
)


def quick_config(tmp_path, **overrides):
    base = dict(
        h=0.1,
        t_end=0.05,
        snapshot_every=0.025,
        output_dir=str(tmp_path / "out"),
    )
    base.update(overrides)
    return RunConfig(**base)


# ------------------------------------------------------------ config files


def test_load_minimal_config_fills_defaults(tmp_path):
    path = tmp_path / "minimal.cfg"
    path.write_text("output_dir = " + str(tmp_path / "out") + "\n")
    config = validate_config(load_config(path)).config
    assert config.system == "hirota_satsuma"
    assert config.tau_rule == "dispersive_cfl"
    assert config.safety == 0.25
    assert config.h == 0.05
    assert config.t_end == 1.0
    assert config.snapshot_every == pytest.approx(0.1)
    assert config.ic_kind == "hs_soliton"
    assert config.m == 1.0 and config.d == 0.0


def test_load_config_comments_and_spacing(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text(
        "# full-line comment\n"
        "\n"
        "h = 0.2   # trailing comment\n"
        "  t_end=0.5\n"
        "output_dir = " + str(tmp_path / "out") + "\n"
    )
    config = load_config(path)
    assert config.h == 0.2
    assert config.t_end == 0.5


def test_load_config_negative_h_names_field(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("h = -1\n")
    with pytest.raises(ConfigError) as info:
        validate_config(load_config(path))
    assert info.value.field == "h"
    assert "h" in str(info.value)


def test_load_config_parse_fault_carries_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("h = 0.1\nwhat is this\n")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value).startswith(f"{path} line 2: ")


def test_load_config_unknown_and_duplicate_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("hh = 0.1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)
    path.write_text("h = 0.1\nh = 0.2\n")
    with pytest.raises(ConfigError, match="duplicate key"):
        load_config(path)


def test_load_config_non_numeric_value(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("h = fast\n")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert info.value.field == "h"
    path.write_text("h =\n")
    with pytest.raises(ConfigError, match="line 1: empty value for 'h'") as info:
        load_config(path)
    assert info.value.field == "h"


def test_load_config_perturbed_system(tmp_path):
    path = tmp_path / "p.cfg"
    path.write_text("system = perturbed_hs\nd1 = -0.2\n")
    config = load_config(path)
    assert build_system(config) == make_perturbed_hs(-0.2)


def test_config_round_trip(tmp_path):
    config = validate_config(
        RunConfig(
            system="perturbed_hs",
            d1=-0.21,
            x_min=-17.5,
            x_max=22.5,
            h=0.125,
            tau_rule="manual",
            tau=3.2e-4,
            safety=0.4,
            t_end=0.75,
            snapshot_every=0.15,
            ic_kind="stretched_soliton",
            m=1.25,
            d=0.3,
            width_scale=2.0,
            amp_scale=1.5,
            output_dir=str(tmp_path / "out"),
        )
    ).config
    reloaded = load_config(write_config(config, tmp_path / "rt.cfg"))
    assert reloaded == config


@pytest.mark.parametrize("output_dir", ["runs#1", " padded ", "", "a\nh = 0.1", "runs_1"])
def test_write_config_writes_only_strings_that_load_back_equal(tmp_path, output_dir):
    config = RunConfig(h=0.1, t_end=0.05, output_dir=output_dir)
    path = tmp_path / "rt.cfg"
    if output_dir != "runs_1":
        with pytest.raises(ConfigError) as info:
            write_config(config, path)
        assert info.value.field == "output_dir" and not path.exists()
        return
    assert load_config(write_config(config, path)) == validate_config(config).config


def test_write_config_to_a_directory_is_a_config_fault(tmp_path):
    target = tmp_path / "x.cfg"
    target.mkdir()
    with pytest.raises(ConfigError) as info:
        write_config(RunConfig(h=0.1, t_end=0.05), target)
    assert str(info.value) == f"cannot write {target}: Is a directory"


def test_write_config_to_a_path_with_a_nul_byte_is_a_config_fault(tmp_path):
    target = tmp_path / "a\0b.cfg"
    with pytest.raises(ConfigError) as info:
        write_config(RunConfig(h=0.1, t_end=0.05), target)
    assert str(info.value) == f"cannot write {target}: embedded null byte"


def test_validate_config_faults_name_fields(tmp_path):
    three = tmp_path / "three.cfg"
    three.write_text("n_modes = 3\nc = 0, 0, 0\nd = 1, 1, 1\n")
    for kwargs, field in [
        (dict(t_end=-1.0), "t_end"),
        (dict(x_max=-30.0), "x_max"),
        (dict(safety=0.0), "safety"),
        (dict(tau_rule="sometimes"), "tau_rule"),
        (dict(tau_rule="manual"), "tau"),
        (dict(tau=-2.0), "tau"),
        (dict(snapshot_every=2.0, t_end=1.0), "snapshot_every"),
        (dict(ic_kind="plane_wave"), "ic_kind"),
        (dict(m=0.0), "m"),
        (dict(d=1.5), "d"),
        (dict(ic_kind="stretched_soliton", width_scale=-1.0), "width_scale"),
        (dict(ic_kind="stretched_soliton", amp_scale=1e308), "ic_kind"),
        (dict(ic_kind="triangle_pulse", amplitude=0.0), "amplitude"),
        (dict(ic_kind="triangle_pulse", half_width=0.0), "half_width"),
        (dict(system="unknown_system"), "system"),
        (dict(system=f"custom:{three}"), "ic_kind"),
    ]:
        with pytest.raises(ConfigError) as info:
            validate_config(RunConfig(**kwargs))
        assert info.value.field == field, f"{kwargs} should fault on {field}"


def test_an_overflowing_initial_sample_is_a_config_fault_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="the initial data overflows") as info:
            validate_config(RunConfig(ic_kind="stretched_soliton", amp_scale=1e308))
    assert info.value.field == "ic_kind"


def test_validate_config_warns_on_narrow_domain():
    with pytest.warns(UserWarning, match="edge contamination"):
        validate_config(RunConfig(ic_kind="stretched_soliton", width_scale=10.0))
    # at m = 0.5 mode 2 decays like sech: 9.3e-5 of its peak at the edges of [-20, 20]
    with pytest.warns(UserWarning, match=r"reach 8\.7e-09, 9\.3e-05 .*edge contamination"):
        validate_config(RunConfig(m=0.5))


def _edge_config(tmp_path):
    # m = 0.5 on [-20, 20]: mode 2 reaches 9.3e-5 of its peak at the edges
    return RunConfig(m=0.5, h=0.1, t_end=0.01, output_dir=str(tmp_path / "out"))


@pytest.mark.parametrize(
    "call",
    [
        lambda tmp_path: validate_config(_edge_config(tmp_path)),
        lambda tmp_path: run_experiment(_edge_config(tmp_path)),
        lambda tmp_path: write_config(_edge_config(tmp_path), tmp_path / "edge.cfg"),
        lambda tmp_path: run_preset("fig1", tmp_path / "fig1"),
    ],
    ids=["validate_config", "run_experiment", "write_config", "run_preset"],
)
def test_edge_warning_points_at_the_callers_line(tmp_path, call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call(tmp_path)
    # the line of the lambda that called the entry point
    assert [(w.filename, w.lineno) for w in caught] == [(__file__, call.__code__.co_firstlineno)]


def test_validate_config_is_silent_where_the_initial_data_vanish_at_the_edges():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        validate_config(get_preset("fig3").config)


def test_custom_system_file(tmp_path):
    sysfile = tmp_path / "system.cfg"
    sysfile.write_text(
        "n_modes = 2\n"
        "c = 0, 0\n"
        "d = -0.25, 0.5\n"
        "term = 1, 1, 1, -1.5\n"
        "term = 1, 2, 2, 3\n"
        "term = 2, 1, 2, 1.5\n"
    )
    config = RunConfig(system=f"custom:{sysfile}")
    assert build_system(config) == make_hirota_satsuma()


def test_custom_system_path_may_follow_spaces_after_the_prefix(tmp_path):
    sysfile = tmp_path / "kdv.sys"
    sysfile.write_text("n_modes = 1\nc = 0\nd = -0.25\nterm = 1, 1, 1, -1.5\n")
    config = RunConfig(system=f"custom:  {sysfile}", h=0.1, t_end=0.05)
    assert validate_config(config).spec == make_hs_first_kdv()
    assert load_config(write_config(config, tmp_path / "rt.cfg")) == validate_config(config).config


def test_custom_system_file_faults(tmp_path):
    config = RunConfig(system=f"custom:{tmp_path / 'missing.cfg'}")
    with pytest.raises(ConfigError) as info:
        build_system(config)
    assert info.value.field == "system"

    sysfile = tmp_path / "bad.cfg"
    sysfile.write_text("n_modes = 1\nc = 0\nd = 1\nterm = 2, 1, 1, 1.0\n")
    with pytest.raises(ConfigError, match="index out of range"):
        build_system(RunConfig(system=f"custom:{sysfile}"))


SYSTEM_HEAD = "n_modes = 2\nc = 0, 0\nd = -0.25, 0.5\n"


@pytest.mark.parametrize(
    "text, line, message",
    [
        (SYSTEM_HEAD + "term = 1, 1, 1\n", 4, "term needs 4 comma-separated entries"),
        (SYSTEM_HEAD + "speed = 1\n", 4, "unknown key 'speed'"),
        (SYSTEM_HEAD.replace("2", "two", 1), 1, "invalid literal for int()"),
        ("n_modes = 2\nc = 0, 0\n", None, "custom system needs n_modes, c and d"),
        (SYSTEM_HEAD.replace("0, 0", "0, zero"), 2, "could not convert string to float"),
    ],
    ids=["short_term", "unknown_key", "n_modes_not_int", "no_d", "c_not_float"],
)
def test_custom_system_file_line_faults(tmp_path, text, line, message):
    sysfile = tmp_path / "bad.sys"
    sysfile.write_text(text)
    with pytest.raises(ConfigError) as info:
        build_system(RunConfig(system=f"custom:{sysfile}"))
    assert str(info.value).startswith(f"{sysfile} line {line}: " if line else f"{sysfile}: ")
    assert message in str(info.value)
    assert info.value.field == "system"


# ------------------------------------------------------------- experiments


def test_run_experiment_artifacts(tmp_path):
    report = run_experiment(quick_config(tmp_path))
    assert report.outcome == "completed"
    assert report.blow_up_step is None
    # snapshots: t=0, 0.025, 0.05, strictly increasing
    times = report.trace.columns["t"]
    assert times[0] == 0.0
    assert all(b > a for a, b in zip(times, times[1:]))
    assert len(times) == len(report.snapshots) == 3
    for path in report.snapshots:
        assert path.exists()
        header = path.read_text().splitlines()[0]
        assert header == "x,theta_1,theta_2"
    assert report.snapshots[0].name == "snap_0000_t0.000000.csv"
    assert (report.output_dir / "trace.csv").exists()
    assert (report.output_dir / "report.csv").exists()


def test_run_experiment_trace_columns_with_oracle(tmp_path):
    report = run_experiment(quick_config(tmp_path))
    header = (report.output_dir / "trace.csv").read_text().splitlines()[0]
    assert header == "t,l2_1,l2_2,mass_1,mass_2,Q,max_pct_err_1,max_pct_err_2"


def test_run_experiment_trace_columns_without_oracle(tmp_path):
    report = run_experiment(quick_config(tmp_path, system="perturbed_hs"))
    header = (report.output_dir / "trace.csv").read_text().splitlines()[0]
    assert header == "t,l2_1,l2_2,mass_1,mass_2,Q"
    assert list(report.trace.columns) == header.split(",")


def test_run_experiment_single_mode_trace(tmp_path):
    report = run_experiment(
        quick_config(tmp_path, system="hs_kdv1", ic_kind="stretched_soliton", width_scale=2.0)
    )
    header = (report.output_dir / "trace.csv").read_text().splitlines()[0]
    assert header == "t,l2_1,mass_1"
    snap_header = report.snapshots[0].read_text().splitlines()[0]
    assert snap_header == "x,theta_1"


def test_run_experiment_17_digit_serialization(tmp_path):
    report = run_experiment(quick_config(tmp_path))
    path = report.snapshots[-1]
    rows = path.read_text().splitlines()
    x0, th1, _ = rows[1].split(",")
    assert float(x0) == -20.0
    # stored with enough digits to round-trip the binary value
    state_value = float(th1)
    reparsed = float(format(state_value, ".17g"))
    assert reparsed == state_value


def test_run_experiment_deterministic_output(tmp_path):
    r1 = run_experiment(quick_config(tmp_path, output_dir=str(tmp_path / "a")))
    r2 = run_experiment(quick_config(tmp_path, output_dir=str(tmp_path / "b")))
    for p1, p2 in zip(r1.snapshots, r2.snapshots):
        assert p1.read_bytes() == p2.read_bytes()
    assert (r1.output_dir / "trace.csv").read_bytes() == (r2.output_dir / "trace.csv").read_bytes()


def test_run_experiment_blow_up_preserves_partial_outputs(tmp_path):
    config = quick_config(
        tmp_path,
        tau_rule="manual",
        tau=0.05,
        t_end=1.0,
        snapshot_every=0.05,
        output_dir=str(tmp_path / "blow"),
    )
    report = run_experiment(config)
    assert report.outcome == "blew_up"
    assert report.blow_up_step is not None
    assert len(report.snapshots) >= 1
    for path in report.snapshots:
        assert path.exists()
    report_text = (report.output_dir / "report.csv").read_text()
    assert "blew_up" in report_text
    assert f"blow_up_step,{report.blow_up_step}" in report_text


def test_convergence_study_blow_up_names_its_level(monkeypatch):
    # level 1 (h = 0.1) blows up; level 0 steps for real and level 2 never steps
    real_advance, stepped = ckdv.runner.advance, []

    def advance(state, spec, grid, n_steps):
        stepped.append(grid.h)
        if len(stepped) == 2:
            raise BlowUpError("blow-up at step 7 (t ~ 0.0035)", step=7, time=0.0035)
        return real_advance(state, spec, grid, n_steps)

    monkeypatch.setattr(ckdv.runner, "advance", advance)
    with pytest.raises(BlowUpError) as caught:
        convergence_study(t_end=0.1, h_coarsest=0.2, n_levels=3)
    assert str(caught.value) == "h = 0.1: blow-up at step 7 (t ~ 0.0035)"
    assert (caught.value.step, caught.value.time) == (7, 0.0035)
    assert stepped == [0.2, 0.1]


def test_run_experiment_resolves_tau_to_divide_t_end(tmp_path):
    report = run_experiment(quick_config(tmp_path))
    n_steps = round(0.05 / report.plan.tau)
    assert n_steps * report.plan.tau == pytest.approx(0.05, rel=1e-12)
    # never above the advised stability step
    advised = 0.25 * 0.1**3 / (3 * 0.5)
    assert report.plan.tau <= advised * (1 + 1e-12)


def test_run_experiment_rejects_mode_mismatch(tmp_path):
    sysfile = tmp_path / "three.cfg"
    sysfile.write_text("n_modes = 3\nc = 0, 0, 0\nd = 1, 1, 1\n")
    config = quick_config(tmp_path, system=f"custom:{sysfile}")
    with pytest.raises(ConfigError, match="modes"):
        run_experiment(config)


def test_validate_config_rejects_what_run_experiment_rejects(tmp_path):
    three = tmp_path / "three.cfg"
    three.write_text("n_modes = 3\nc = 0, 0, 0\nd = 1, 1, 1\n")
    for kwargs, field in [
        (dict(x_min=1000.0, x_max=1040.0), "x_min"),  # the soliton misses the domain
        (dict(ic_kind="triangle_pulse", center=1000.0), "x_min"),
        (dict(m=1e4), "h"),  # a profile narrower than h
        (dict(system=f"custom:{three}"), "ic_kind"),
    ]:
        config = quick_config(tmp_path, **kwargs)
        with pytest.raises(ConfigError) as validated:
            validate_config(config)
        with pytest.raises(ConfigError) as ran:
            run_experiment(config)
        assert validated.value.field == ran.value.field == field, kwargs
    assert not (tmp_path / "out").exists()


def accumulated_schedule(interval, tau, n_steps):
    """The snapshot rule as a running float sum of the interval: step j takes a
    snapshot once j*tau is within 1e-9 of an interval of the next target, and
    the last step always does. The sum stalls once the interval falls below
    its last bit, so this only serves intervals not far below tau."""
    eps = 1e-9 * interval
    next_snap = interval
    steps = []
    for j in range(1, n_steps + 1):
        t = j * tau
        if t + eps >= next_snap or j == n_steps:
            steps.append(j)
            while next_snap <= t + eps:
                next_snap += interval
    return steps


def test_snapshot_steps_match_accumulated_schedule_on_presets():
    for preset in list_presets():
        if preset.config is None:
            continue
        run = validate_config(preset.config)
        steps = list(_snapshot_steps(run.config.snapshot_every / run.grid.tau, run.n_steps))
        assert steps == accumulated_schedule(run.config.snapshot_every, run.grid.tau, run.n_steps)


@settings(max_examples=200, deadline=None)
@given(
    t_end=st.floats(1e-3, 10.0),
    n_steps=st.integers(1, 400),
    n_snapshots=st.one_of(st.integers(1, 60), st.floats(0.05, 60.0)),
)
@example(t_end=1.0, n_steps=35, n_snapshots=5)  # interval / tau = 7.000000000000001
def test_snapshot_steps_match_accumulated_schedule(t_end, n_steps, n_snapshots):
    tau = t_end / n_steps
    interval = t_end / n_snapshots
    steps = list(_snapshot_steps(interval / tau, n_steps))
    assert steps == accumulated_schedule(interval, tau, n_steps)


def test_snapshot_steps_cost_one_step_each_for_tiny_intervals():
    assert list(_snapshot_steps(1e-297, 4)) == [1, 2, 3, 4]
    huge = _snapshot_steps(5e-324, 10**300)
    assert [next(huge) for _ in range(3)] == [1, 2, 3]
    assert list(_snapshot_steps(1e300, 5)) == [5]


# ----------------------------------------------------------------- presets


def test_list_presets_inventory():
    names = [p.name for p in list_presets()]
    assert names == ["fig1", "fig2", "fig3", "fig4a", "fig4b", "fig5", "fig6"]


def test_preset_fig3_has_oracle():
    assert get_preset("fig3").oracle is True


def test_preset_fig4a_is_oracle_free_reduction():
    preset = get_preset("fig4a")
    assert preset.oracle is False
    assert preset.config.system == "hs_kdv1"


def test_preset_fig4a_runs_fig4b_data_on_the_n1_reduction():
    fig4b = get_preset("fig4b").config
    assert fig4b.system == "hirota_satsuma"
    assert get_preset("fig4a").config == dataclasses.replace(fig4b, system="hs_kdv1")


def test_preset_fig6_uses_triangle_pulse():
    assert get_preset("fig6").config.ic_kind == "triangle_pulse"


def test_oracle_presets_write_profiles(tmp_path):
    paths = run_preset("fig1", tmp_path / "fig1")
    assert [p.name for p in paths] == [
        "oracle_m0.5_d0.csv",
        "oracle_m1_d0.csv",
        "oracle_m1.5_d0.csv",
    ]
    data = np.genfromtxt(paths[1], delimiter=",", skip_header=1)
    x, th1 = data[:, 0], data[:, 1]
    assert th1.max() == pytest.approx(2.0, abs=1e-12)
    assert x[np.argmax(th1)] == pytest.approx(0.0, abs=0.05)
    paths2 = run_preset("fig2", tmp_path / "fig2")
    assert [p.name for p in paths2] == ["oracle_m1_d0.csv", "oracle_m1_d0.5.csv"]


@pytest.mark.parametrize(
    "name, profile, config",
    [
        ("fig1", "oracle_m1.5_d0.csv", RunConfig(m=1.5)),
        ("fig2", "oracle_m1_d0.5.csv", RunConfig(d=0.5)),
    ],
    ids=["fig1", "fig2"],
)
def test_oracle_profile_is_its_configs_start_snapshot(tmp_path, name, profile, config):
    run_preset(name, tmp_path / name)
    run_experiment(dataclasses.replace(config, t_end=1e-4, output_dir=str(tmp_path / "run")))
    start = tmp_path / "run" / "snap_0000_t0.000000.csv"
    assert (tmp_path / name / profile).read_bytes() == start.read_bytes()


def test_presets_write_into_ckdv_out_by_default(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert Path("ckdv_out/fig1/oracle_m1_d0.csv") in run_preset("fig1")
    assert Path("ckdv_out/fig1/oracle_m1_d0.csv").is_file()
    report = run_preset("fig4a")
    assert report.output_dir == Path("ckdv_out/fig4a")
    assert Path("ckdv_out/fig4a/report.csv").is_file()
    times = report.trace.columns["t"]
    assert len(times) == len(report.snapshots)
    for t, path in zip(times, report.snapshots):
        assert path.parent == report.output_dir and path.name.endswith(f"_t{t:.6f}.csv")


def test_unknown_preset():
    with pytest.raises(ConfigError):
        run_preset("fig99")


# ------------------------------------------------------- one build per run


def test_validate_config_faults_from_constructors_name_config_keys():
    for kwargs, field in [
        (dict(ic_kind="stretched_soliton", amp_scale=0.0), "amp_scale"),
        (dict(tau_rule="paper_strict", tau=-1.0), "tau"),
        (dict(x_min=-0.1, x_max=0.1), "h"),
        (dict(h=0.03), "h"),
        # 4e10 nodes: rejected before any array is allocated
        (dict(h=1e-9, tau_rule="manual", tau=0.1), "h"),
    ]:
        with pytest.raises(ConfigError) as info:
            validate_config(RunConfig(**kwargs))
        assert info.value.field == field, f"{kwargs} should fault on {field}"


def test_validate_config_ignores_scales_that_the_initial_data_does_not_read():
    # like m and d for a triangle: keys the chosen kind never reads go unchecked
    validate_config(RunConfig(ic_kind="triangle_pulse", amp_scale=0.0))
    validate_config(RunConfig(ic_kind="hs_soliton", width_scale=-1.0))


def test_config_and_system_files_share_the_line_reader(tmp_path):
    sysfile = tmp_path / "system.cfg"
    sysfile.write_text("n_modes = 1\nc 0\n")
    with pytest.raises(ConfigError) as info:
        build_system(RunConfig(system=f"custom:{sysfile}"))
    assert info.value.field == "system"
    assert str(info.value).startswith(f"{sysfile} line 2: ")
    # an unreadable file's fault ends with the reason, as a write fault does
    missing = tmp_path / "missing.cfg"
    with pytest.raises(ConfigError) as info:
        load_config(missing)
    assert str(info.value) == f"cannot read config file {missing}: No such file or directory"
    with pytest.raises(ConfigError) as info:
        build_system(RunConfig(system=f"custom:{missing}"))
    assert info.value.field == "system"
    assert str(info.value) == f"cannot read custom system file {missing}: No such file or directory"
    # a repeated key is a fault in both files; only a system's term repeats
    sysfile.write_text("n_modes = 1\nc = 0\nd = -0.25\nd = 0.5\n")
    with pytest.raises(ConfigError, match=r"system\.cfg line 4: duplicate key 'd'") as info:
        build_system(RunConfig(system=f"custom:{sysfile}"))
    assert info.value.field == "system"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("h = 0.1\nh = 0.2\n")
    with pytest.raises(ConfigError, match="line 2: duplicate key 'h'") as info:
        load_config(cfg)
    assert info.value.field == "h"


def test_config_and_system_files_may_start_with_a_utf8_byte_order_mark(tmp_path):
    bom = b"\xef\xbb\xbf"
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(bom + b"h = 0.1\nt_end = 0.01\n")
    assert load_config(cfg).h == 0.1
    sysfile = tmp_path / "system.cfg"
    sysfile.write_bytes(bom + b"n_modes = 1\nc = 0\nd = -0.25\nterm = 1, 1, 1, -1.5\n")
    spec = build_system(RunConfig(system=f"custom:{sysfile}"))
    assert (spec.n_modes, spec.linear_speeds, spec.dispersions) == (1, (0.0,), (-0.25,))
    # what write_config writes has no mark
    write_config(load_config(cfg), tmp_path / "out.cfg")
    assert not (tmp_path / "out.cfg").read_bytes().startswith(bom)


@pytest.mark.parametrize("via_cli", [False, True], ids=["run_experiment", "main"])
def test_run_experiment_builds_each_object_once(tmp_path, monkeypatch, via_cli):
    from ckdv import runner
    from ckdv.cli import main

    sysfile = tmp_path / "system.cfg"
    sysfile.write_text("n_modes = 1\nc = 0\nd = -0.25\nterm = 1, 1, 1, -1.5\n")
    # initial data at 2.2e-4 of its peak on the domain edges: the run warns, once
    config = quick_config(
        tmp_path, system=f"custom:{sysfile}", ic_kind="stretched_soliton", x_min=-5.0, x_max=5.0
    )
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in vars(config).items() if v is not None))
    names = (
        "validate_config",
        "_parse_system_file",
        "advise_tau",
        "build_initial_condition",
        "sample_initial",
    )
    calls = dict.fromkeys(names, 0)

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(runner, name, counted(name, getattr(runner, name)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if via_cli:
            assert main(["run", "--config", str(cfg)]) == 0
        else:
            assert run_experiment(config).outcome == "completed"
    assert calls == dict.fromkeys(names, 1)
    assert [w.category for w in caught] == [UserWarning]
