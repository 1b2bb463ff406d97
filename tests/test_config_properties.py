"""Property tests at the config boundary: every input is accepted or
rejected with a ConfigError, ``ckdv advise`` exits 0 or 1, and ``ckdv run``
exits 0, 1 or 2 whatever its initial data. ``ckdv run`` and ``ckdv advise``
exit 1 on exactly the configs ``validate_config`` rejects, and
``ckdv advise`` exits 0 on the rest. ``write_config`` writes a config that
sets up as the one it was given, whatever the type of its numbers."""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ckdv.cli import main
from ckdv.errors import ConfigError
from ckdv.runner import _FLOAT_KEYS, RunConfig, load_config, validate_config, write_config

EDGE_FLOATS = st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), 0.0, -0.0, -1.0, 5e-324, 1e-300, 1e300, 0.03]
)
ANY_FLOAT = st.floats() | EDGE_FLOATS


@pytest.fixture(scope="module")
def custom_systems(tmp_path_factory):
    root = tmp_path_factory.mktemp("systems")
    good = root / "good.cfg"
    good.write_text("n_modes = 2\nc = 0, 0\nd = -0.25, 0.5\nterm = 2, 1, 2, 1.5\n")
    bad = root / "bad.cfg"
    bad.write_text("n_modes = 1\nc = 0\nd = 0\nterm = 2, 1, 1, 1.0\n")
    return [f"custom:{good}", f"custom:{bad}", f"custom:{root / 'missing.cfg'}"]


@settings(deadline=None, max_examples=300)
@given(
    floats=st.dictionaries(st.sampled_from(_FLOAT_KEYS), ANY_FLOAT),
    tau_rule=st.sampled_from(["dispersive_cfl", "paper_strict", "manual", "sometimes", ""]),
    ic_kind=st.sampled_from(["hs_soliton", "stretched_soliton", "triangle_pulse", "plane_wave"]),
    system=st.sampled_from(["hirota_satsuma", "perturbed_hs", "hs_kdv1", "unknown", 0, 1, 2]),
)
def test_validate_config_returns_or_raises_config_error(
    custom_systems, floats, tau_rule, ic_kind, system
):
    if isinstance(system, int):
        system = custom_systems[system]
    config = RunConfig(system=system, tau_rule=tau_rule, ic_kind=ic_kind, **floats)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            resolved = validate_config(config).config
        except ConfigError:
            return
    assert resolved.snapshot_every is not None


@settings(deadline=None, max_examples=200)
@given(
    h=ANY_FLOAT,
    t_end=ANY_FLOAT,
    safety=ANY_FLOAT,
    rule=st.sampled_from(["paper_strict", "dispersive_cfl"]),
)
def test_advise_exits_0_or_1(h, t_end, safety, rule):
    with tempfile.TemporaryDirectory() as root:
        cfg = Path(root) / "run.cfg"
        cfg.write_text(f"h = {h!r}\nt_end = {t_end!r}\nsafety = {safety!r}\ntau_rule = {rule}\n")
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("ignore")
            assert main(["advise", "--config", str(cfg)]) in (0, 1)


@settings(deadline=None, max_examples=200)
@given(
    floats=st.dictionaries(
        st.sampled_from(["m", "d", "width_scale", "amp_scale", "amplitude", "half_width", "center"]),
        ANY_FLOAT,
    ),
    ic_kind=st.sampled_from(["hs_soliton", "stretched_soliton", "triangle_pulse"]),
    half_step_offset=st.booleans(),
)
# a narrow soliton centred between two nodes samples to zero at every node
@example(floats={"m": 1e5}, ic_kind="hs_soliton", half_step_offset=True)
def test_run_exits_0_1_or_2_on_any_initial_data(floats, ic_kind, half_step_offset):
    with tempfile.TemporaryDirectory() as root:
        lines = [f"ic_kind = {ic_kind}", "h = 0.1", "t_end = 0.001", f"output_dir = {root}/out"]
        if half_step_offset:  # the nodes straddle the profile's centre
            lines += ["x_min = -20.05", "x_max = 19.95"]
        lines += [f"{key} = {value!r}" for key, value in floats.items()]
        cfg = Path(root) / "run.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings(), np.errstate(all="ignore"), \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("ignore")
            assert main(["run", "--config", str(cfg)]) in (0, 1, 2)


# in-range values that fit together (every span below is a whole number of
# each h), so that a useful share of drawn configs resolve to a short run
SMALL = {
    "d1": [-0.2, 0.3],
    "x_min": [-20.0, -10.0, -5.0],
    "x_max": [20.0, 10.0, 5.0],
    "h": [0.1, 0.2, 0.25, 0.5],
    "tau": [1e-4, 0.01],
    "safety": [0.25, 0.5],
    "t_end": [0.001, 0.01, 0.1],
    "snapshot_every": [0.0005, 0.005],
    "m": [0.5, 1.0, -1.5],
    "d": [0.0, 0.5],
    "width_scale": [1.0, 2.0],
    "amp_scale": [0.5, 2.0],
    "amplitude": [1.0, -2.0],
    "half_width": [1.0, 2.0],
    "center": [0.0, 3.0],
}
# a config that resolves to more work than this is not run
MAX_NODE_STEPS = 50_000
MAX_SNAPSHOTS = 40
STRINGS = {
    "system": ["hirota_satsuma", "perturbed_hs", "hs_kdv1", "unknown", 0, 1, 2],
    "tau_rule": ["dispersive_cfl", "paper_strict", "manual", "sometimes"],
    "ic_kind": ["hs_soliton", "stretched_soliton", "triangle_pulse", "plane_wave"],
}


@settings(deadline=None, max_examples=200)
@given(
    small=st.fixed_dictionaries({}, optional={k: st.sampled_from(v) for k, v in SMALL.items()}),
    wild=st.dictionaries(st.sampled_from(_FLOAT_KEYS), ANY_FLOAT, max_size=2),
    strings=st.fixed_dictionaries(
        {}, optional={k: st.sampled_from(v) for k, v in STRINGS.items()}
    ),
)
# 60x the dispersive CFL step: blows up at step 8, exit 2
@example(small={"h": 0.1, "t_end": 0.1, "tau": 0.01}, wild={}, strings={"tau_rule": "manual"})
# a triangle the domain misses: exit 1
@example(small={"center": 1000.0}, wild={}, strings={"ic_kind": "triangle_pulse"})
# finite numbers whose sampled peak, 2 * amp_scale, overflows: exit 1, not a blow-up
@example(small={"h": 0.5, "t_end": 0.001}, wild={"amp_scale": 1e308}, strings={"ic_kind": "stretched_soliton"})
def test_run_exits_1_exactly_when_validate_config_rejects(custom_systems, small, wild, strings):
    if isinstance(strings.get("system"), int):
        strings["system"] = custom_systems[strings["system"]]
    with tempfile.TemporaryDirectory() as root, warnings.catch_warnings(), \
            np.errstate(all="ignore"), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("ignore")
        fields = {**small, **wild, **strings, "output_dir": f"{root}/out"}
        cfg = Path(root) / "run.cfg"
        cfg.write_text("".join(
            f"{key} = {value!r}\n" if isinstance(value, float) else f"{key} = {value}\n"
            for key, value in fields.items()
        ))
        argv = ["run", "--config", str(cfg)]
        try:
            run = validate_config(load_config(cfg))
        except ConfigError:
            assert main(["advise", "--config", str(cfg)]) == 1
            assert main(argv) == 1
            return
        assert main(["advise", "--config", str(cfg)]) == 0
        over_budget = run.n_steps * run.grid.m_points > MAX_NODE_STEPS
        if not over_budget and run.config.t_end <= MAX_SNAPSHOTS * run.config.snapshot_every:
            assert main(argv) in (0, 2)


def _numbers(values):
    """One of ``values`` as a float, an int, an np.float64 or an np.float32."""
    kinds = st.sampled_from([float, int, np.float64, np.float32])
    return st.builds(lambda kind, value: kind(value), kinds, st.sampled_from(values))


@settings(deadline=None, max_examples=100)
@given(h=_numbers([0.05, 0.1, 0.125, 0.5, 2.0]), t_end=_numbers([0.01, 0.1, 0.5, 3.0]))
# float32(0.1) spans [-20, 20) in whole steps only in float32 arithmetic
@example(h=np.float32(0.1), t_end=0.05)
# float32(0.1) is not the 0.1 its str reads
@example(h=0.1, t_end=np.float32(0.1))
def test_write_config_round_trips_every_number_type(h, t_end):
    with tempfile.TemporaryDirectory() as root, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        config = RunConfig(h=h, t_end=t_end, output_dir=f"{root}/out")
        path = Path(root) / "rt.cfg"
        try:
            expected = validate_config(config).config
        except ConfigError:
            with pytest.raises(ConfigError):
                write_config(config, path)
            return
        reloaded = validate_config(load_config(write_config(config, path))).config
        # repr, not ==: numpy 2 compares np.float32(0.1) == 0.1 in float32, and finds them equal
        assert repr(reloaded) == repr(expected)
