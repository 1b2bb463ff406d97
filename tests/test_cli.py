import pytest

from ckdv.cli import main
from ckdv.runner import _FLOAT_KEYS

# custom system files written next to each faulty config as {tmp}/<name>
SYSTEM_FILES = {
    "nan_c.sys": "n_modes = 2\nc = nan, 0\nd = -0.25, 0.5\n",
    "inf_term.sys": "n_modes = 2\nc = 0, 0\nd = -0.25, 0.5\nterm = 1, 1, 1, inf\n",
}
MANUAL = "tau_rule = manual\ntau = 1e-4\n"


def test_presets_listing(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in ("fig1", "fig3", "fig4a", "fig6"):
        assert name in out
    assert "oracle" in out


def test_advise_paper_rule(capsys):
    assert main(["advise", "--h", "0.2", "--t-end", "1", "--rule", "paper", "--safety", "1"]) == 0
    out = capsys.readouterr().out
    assert "paper_strict" in out
    assert "2.84444e-05" in out


def test_advise_cfl_rule(capsys):
    assert main(["advise", "--h", "0.1", "--t-end", "1"]) == 0
    out = capsys.readouterr().out
    assert "dispersive_cfl" in out
    assert "0.000166667" in out


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


def test_run_blow_up_exit_code(tmp_path, capsys):
    cfg = tmp_path / "blow.cfg"
    cfg.write_text(
        "h = 0.1\nt_end = 1.0\ntau_rule = manual\ntau = 0.05\nsnapshot_every = 0.05\n"
        f"output_dir = {tmp_path / 'out'}\n"
    )
    assert main(["run", "--config", str(cfg)]) == 2
    out = capsys.readouterr().out
    assert "blew_up" in out


def test_preset_command_oracle(tmp_path, capsys):
    assert main(["preset", "fig1", "--out", str(tmp_path / "fig1")]) == 0
    out = capsys.readouterr().out
    assert "oracle_m0.5_d0.csv" in out


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
        (["advise", "--h=-1", "--t-end", "1"], None, "h must be positive"),
        (["advise", "--h", "inf", "--t-end", "1"], None, "h must be finite"),
        (["advise", "--h", "1e200", "--t-end", "1"], None, "h = 1e+200"),
        (["advise", "--h", "0.1", "--t-end", "nan"], None, "t_end must be finite"),
        (["advise", "--h", "0.1", "--t-end", "inf"], None, "t_end must be finite"),
        (["advise", "--h", "0.1", "--t-end", "1", "--safety", "nan"], None, "safety must be finite"),
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
    ],
)
def test_config_faults_exit_1_naming_the_field(tmp_path, capsys, argv, config, message):
    if config is not None:
        for name, text in SYSTEM_FILES.items():
            (tmp_path / name).write_text(text)
        cfg = tmp_path / "run.cfg"
        config = config.format(tmp=tmp_path)
        cfg.write_text(config + f"t_end = 0.01\noutput_dir = {tmp_path / 'out'}\n")
        argv = argv + ["--config", str(cfg)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_run_output_dir_that_is_a_file_is_a_config_fault(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"h = 0.1\nt_end = 0.01\noutput_dir = {taken}\n")
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot create output_dir {taken}: File exists\n"
    assert main(["preset", "fig1", "--out", str(taken / "fig1")]) == 1
    assert "cannot create output_dir" in capsys.readouterr().err
