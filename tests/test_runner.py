import numpy as np
import pytest

from ckdv.errors import ConfigError
from ckdv.model import make_hirota_satsuma, make_perturbed_hs
from ckdv.runner import (
    RunConfig,
    build_system,
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
    config = load_config(path)
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
        load_config(path)
    assert info.value.field == "h"
    assert "h" in str(info.value)


def test_load_config_parse_fault_carries_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("h = 0.1\nwhat is this\n")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert info.value.line == 2
    assert "line 2" in str(info.value)


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
    )
    reloaded = load_config(write_config(config, tmp_path / "rt.cfg"))
    assert reloaded == config


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
        (dict(width_scale=-1.0), "width_scale"),
        (dict(ic_kind="triangle_pulse", amplitude=0.0), "amplitude"),
        (dict(ic_kind="triangle_pulse", half_width=0.0), "half_width"),
        (dict(system="unknown_system"), "system"),
        (dict(system=f"custom:{three}"), "ic_kind"),
    ]:
        with pytest.raises(ConfigError) as info:
            validate_config(RunConfig(**kwargs))
        assert info.value.field == field, f"{kwargs} should fault on {field}"


def test_validate_config_warns_on_narrow_domain():
    with pytest.warns(UserWarning, match="edge contamination"):
        validate_config(RunConfig(ic_kind="stretched_soliton", width_scale=10.0))


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


def test_custom_system_file_faults(tmp_path):
    config = RunConfig(system=f"custom:{tmp_path / 'missing.cfg'}")
    with pytest.raises(ConfigError) as info:
        build_system(config)
    assert info.value.field == "system"

    sysfile = tmp_path / "bad.cfg"
    sysfile.write_text("n_modes = 1\nc = 0\nd = 1\nterm = 2, 1, 1, 1.0\n")
    with pytest.raises(ConfigError, match="index out of range"):
        build_system(RunConfig(system=f"custom:{sysfile}"))


# ------------------------------------------------------------- experiments


def test_run_experiment_artifacts(tmp_path):
    report = run_experiment(quick_config(tmp_path))
    assert report.outcome == "completed"
    assert report.blow_up_step is None
    # snapshots: t=0, 0.025, 0.05, strictly increasing
    times = [t for t, _ in report.snapshots]
    assert times[0] == 0.0
    assert all(b > a for a, b in zip(times, times[1:]))
    assert len(times) == 3
    for _, path in report.snapshots:
        assert path.exists()
        header = path.read_text().splitlines()[0]
        assert header == "x,theta_1,theta_2"
    assert report.snapshots[0][1].name == "snap_0000_t0.000000.csv"
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
    assert report.trace.max_percent_error == []


def test_run_experiment_single_mode_trace(tmp_path):
    report = run_experiment(
        quick_config(tmp_path, system="hs_kdv1", ic_kind="stretched_soliton", width_scale=2.0)
    )
    header = (report.output_dir / "trace.csv").read_text().splitlines()[0]
    assert header == "t,l2_1,mass_1"
    snap_header = report.snapshots[0][1].read_text().splitlines()[0]
    assert snap_header == "x,theta_1"


def test_run_experiment_17_digit_serialization(tmp_path):
    report = run_experiment(quick_config(tmp_path))
    _, path = report.snapshots[-1]
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
    for (_, p1), (_, p2) in zip(r1.snapshots, r2.snapshots):
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
    for _, path in report.snapshots:
        assert path.exists()
    report_text = (report.output_dir / "report.csv").read_text()
    assert "blew_up" in report_text
    assert f"blow_up_step,{report.blow_up_step}" in report_text


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


def test_unknown_preset():
    with pytest.raises(ConfigError):
        run_preset("fig99")


# ------------------------------------------------------- one build per run


def test_validate_config_faults_from_constructors_name_config_keys():
    for kwargs, field in [
        (dict(ic_kind="triangle_pulse", amp_scale=0.0), "amp_scale"),
        (dict(tau_rule="paper_strict", tau=-1.0), "tau"),
        (dict(x_min=-0.1, x_max=0.1), "h"),
        (dict(h=0.03), "h"),
    ]:
        with pytest.raises(ConfigError) as info:
            validate_config(RunConfig(**kwargs))
        assert info.value.field == field, f"{kwargs} should fault on {field}"


def test_config_and_system_files_share_the_line_reader(tmp_path):
    sysfile = tmp_path / "system.cfg"
    sysfile.write_text("n_modes = 1\nc 0\n")
    with pytest.raises(ConfigError) as info:
        build_system(RunConfig(system=f"custom:{sysfile}"))
    assert (info.value.field, info.value.line) == ("system", 2)
    with pytest.raises(ConfigError) as info:
        load_config(tmp_path / "missing.cfg")
    assert "cannot read config file" in str(info.value)


def test_run_experiment_builds_each_object_once(tmp_path, monkeypatch):
    from ckdv import runner

    sysfile = tmp_path / "system.cfg"
    sysfile.write_text("n_modes = 1\nc = 0\nd = -0.25\nterm = 1, 1, 1, -1.5\n")
    config = quick_config(tmp_path, system=f"custom:{sysfile}", ic_kind="stretched_soliton")
    names = ("_parse_system_file", "advise_tau", "build_initial_condition", "sample_initial")
    calls = dict.fromkeys(names, 0)

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(runner, name, counted(name, getattr(runner, name)))
    assert run_experiment(config).outcome == "completed"
    assert calls == dict.fromkeys(names, 1)
