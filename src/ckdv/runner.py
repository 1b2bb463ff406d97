"""Experiment driver: config files, presets, and CSV persistence.

A run is described by a line-oriented ``key = value`` config (see
``CONFIG_KEYS``), executed by :func:`run_experiment`, and leaves behind a
directory of snapshot CSVs, a diagnostics trace CSV, and a ``report.csv``
manifest. Identical configs produce bit-identical CSV output.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analytic import (
    IC_KINDS,
    IC_SOLITON,
    IC_STRETCHED,
    IC_TRIANGLE,
    InitialCondition,
    SolitonParams,
    TrianglePulse,
    sample_initial,
    soliton_evaluator,
)
from .diagnostics import DiagnosticTrace
from .errors import BlowUpError, ConfigError
from .model import (
    FieldSet,
    Grid,
    NonlinearTerm,
    SystemSpec,
    make_hirota_satsuma,
    make_hs_first_kdv,
    make_perturbed_hs,
    validate_spec,
)
from .stepper import RULE_MANUAL, RULES, StepPlan, advance, advise_tau

SYSTEM_HS = "hirota_satsuma"
SYSTEM_PERTURBED = "perturbed_hs"
SYSTEM_KDV1 = "hs_kdv1"  # isolated first Hirota-Satsuma equation, N=1
CUSTOM_PREFIX = "custom:"

_FLOAT_KEYS = (
    "d1", "x_min", "x_max", "h", "tau", "safety", "t_end", "snapshot_every",
    "m", "d", "width_scale", "amp_scale", "amplitude", "half_width", "center",
)
_STR_KEYS = ("system", "tau_rule", "ic_kind", "output_dir")
CONFIG_KEYS = _FLOAT_KEYS + _STR_KEYS


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one simulation.

    ``snapshot_every`` left as ``None`` resolves to ``t_end / 10``;
    ``tau`` is only consulted when ``tau_rule`` is ``manual``. ``d1`` is
    only consulted when ``system`` is ``perturbed_hs``.
    """

    system: str = SYSTEM_HS
    d1: float = -0.2
    x_min: float = -20.0
    x_max: float = 20.0
    h: float = 0.05
    tau: float | None = None
    tau_rule: str = "dispersive_cfl"
    safety: float = 0.25
    t_end: float = 1.0
    snapshot_every: float | None = None
    ic_kind: str = IC_SOLITON
    m: float = 1.0
    d: float = 0.0
    width_scale: float = 1.0
    amp_scale: float = 1.0
    amplitude: float = 1.0
    half_width: float = 2.0
    center: float = 0.0
    output_dir: str = "ckdv_out"


@dataclass
class RunReport:
    """Outcome of one run: snapshot files on disk plus the diagnostics trace."""

    snapshots: list[tuple[float, Path]]
    trace: DiagnosticTrace
    outcome: str  # "completed" | "blew_up"
    blow_up_step: int | None
    plan: StepPlan
    output_dir: Path


def _parse_system_file(path: Path) -> SystemSpec:
    """Read a custom system definition: n_modes, c, d, and repeatable term keys."""
    if not path.exists():
        raise ConfigError(f"custom system file not found: {path}", field="system")
    n_modes = None
    speeds: list[float] | None = None
    disps: list[float] | None = None
    terms: list[NonlinearTerm] = []
    for lineno, rawline in enumerate(path.read_text().splitlines(), 1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'", field="system", line=lineno)
        key = key.strip()
        value = value.strip()
        try:
            if key == "n_modes":
                n_modes = int(value)
            elif key == "c":
                speeds = [float(v) for v in value.split(",")]
            elif key == "d":
                disps = [float(v) for v in value.split(",")]
            elif key == "term":
                parts = [v.strip() for v in value.split(",")]
                if len(parts) != 4:
                    raise ValueError("term needs 4 comma-separated entries: n, k, m, coef")
                terms.append(
                    NonlinearTerm(int(parts[0]), int(parts[1]), int(parts[2]), float(parts[3]))
                )
            else:
                raise ValueError(f"unknown key '{key}'")
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}", field="system", line=lineno) from exc
    if n_modes is None or speeds is None or disps is None:
        raise ConfigError(f"{path}: custom system needs n_modes, c and d", field="system")
    spec = SystemSpec(n_modes, tuple(speeds), tuple(disps), tuple(terms))
    fault = validate_spec(spec)
    if fault is not None:
        raise ConfigError(f"{path}: {fault}", field="system")
    return spec


def build_system(config: RunConfig) -> SystemSpec:
    """Construct the SystemSpec selected by ``config.system``."""
    if config.system == SYSTEM_HS:
        return make_hirota_satsuma()
    if config.system == SYSTEM_PERTURBED:
        return make_perturbed_hs(config.d1)
    if config.system == SYSTEM_KDV1:
        return make_hs_first_kdv()
    if config.system.startswith(CUSTOM_PREFIX):
        return _parse_system_file(Path(config.system[len(CUSTOM_PREFIX):]))
    raise ConfigError(
        f"unknown system '{config.system}' (expected {SYSTEM_HS}, {SYSTEM_PERTURBED}, "
        f"{SYSTEM_KDV1} or {CUSTOM_PREFIX}<path>)",
        field="system",
    )


def build_initial_condition(config: RunConfig) -> InitialCondition:
    if config.ic_kind == IC_TRIANGLE:
        return InitialCondition(
            IC_TRIANGLE,
            pulse=TrianglePulse(config.amplitude, config.half_width, config.center),
        )
    return InitialCondition(
        config.ic_kind,
        soliton=SolitonParams(config.m, config.d),
        width_scale=config.width_scale,
        amp_scale=config.amp_scale,
    )


def _profile_width(config: RunConfig) -> float:
    # nominal spatial scale of the initial data (soliton argument scale or
    # triangle half-width), used only by the domain-width guard
    if config.ic_kind == IC_TRIANGLE:
        return config.half_width
    scale = config.width_scale if config.ic_kind == IC_STRETCHED else 1.0
    return scale / abs(config.m)


def validate_config(config: RunConfig) -> RunConfig:
    """Check field invariants and fill the remaining defaults.

    Returns a fully resolved copy; raises :class:`ConfigError` naming the
    offending field. The domain-width guard only warns.
    """
    for key in _FLOAT_KEYS:
        value = getattr(config, key)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}", field=key)
    if config.h <= 0:
        raise ConfigError(f"h must be positive, got {config.h}", field="h")
    if config.t_end <= 0:
        raise ConfigError(f"t_end must be positive, got {config.t_end}", field="t_end")
    if config.x_max <= config.x_min:
        raise ConfigError("x_max must exceed x_min", field="x_max")
    if config.safety <= 0:
        raise ConfigError(f"safety must be positive, got {config.safety}", field="safety")
    if config.tau_rule not in RULES:
        raise ConfigError(f"tau_rule must be one of {RULES}", field="tau_rule")
    if config.tau_rule == RULE_MANUAL and config.tau is None:
        raise ConfigError("manual tau_rule requires tau", field="tau")
    if config.tau is not None and config.tau <= 0:
        raise ConfigError(f"tau must be positive, got {config.tau}", field="tau")
    if config.ic_kind not in IC_KINDS:
        raise ConfigError(f"ic_kind must be one of {IC_KINDS}", field="ic_kind")
    if config.ic_kind in (IC_SOLITON, IC_STRETCHED):
        if config.m == 0:
            raise ConfigError("soliton parameter m must be nonzero", field="m")
        if abs(config.d) >= 1:
            raise ConfigError("|d| must be < 1 (pole regime)", field="d")
    if config.width_scale <= 0:
        raise ConfigError("width_scale must be positive", field="width_scale")
    if config.amp_scale <= 0:
        raise ConfigError("amp_scale must be positive", field="amp_scale")
    if config.ic_kind == IC_TRIANGLE:
        if config.amplitude == 0:
            raise ConfigError("triangle amplitude must be nonzero", field="amplitude")
        if config.half_width <= 0:
            raise ConfigError("triangle half_width must be positive", field="half_width")

    snapshot_every = config.snapshot_every
    if snapshot_every is None:
        snapshot_every = config.t_end / 10.0
    if snapshot_every <= 0:
        raise ConfigError("snapshot_every must be positive", field="snapshot_every")
    if snapshot_every > config.t_end:
        raise ConfigError("snapshot_every must not exceed t_end", field="snapshot_every")

    build_system(config)  # validates the system selection, including custom files

    width = _profile_width(config)
    if config.x_max - config.x_min < 20.0 * width:
        warnings.warn(
            f"domain width {config.x_max - config.x_min:g} is below 20x the initial "
            f"profile width {width:g}; edge contamination possible",
            stacklevel=2,
        )
    return dataclasses.replace(config, snapshot_every=snapshot_every)


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a ``key = value`` config file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    raw: dict[str, str] = {}
    lines_of: dict[str, int] = {}
    for lineno, rawline in enumerate(path.read_text().splitlines(), 1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value'", line=lineno)
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'", field=key, line=lineno)
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'", field=key, line=lineno)
        if not value:
            raise ConfigError(f"line {lineno}: empty value for '{key}'", field=key, line=lineno)
        raw[key] = value
        lines_of[key] = lineno

    kwargs: dict[str, object] = {}
    for key, value in raw.items():
        if key in _FLOAT_KEYS:
            try:
                kwargs[key] = float(value)
            except ValueError:
                raise ConfigError(
                    f"line {lines_of[key]}: key '{key}' needs a number, got '{value}'",
                    field=key,
                    line=lines_of[key],
                ) from None
        else:
            kwargs[key] = value
    return validate_config(RunConfig(**kwargs))


def write_config(config: RunConfig, path: str | Path) -> Path:
    """Write a config file that loads back equal to ``validate_config(config)``."""
    config = validate_config(config)
    path = Path(path)
    lines = []
    for key in CONFIG_KEYS:
        value = getattr(config, key)
        if value is None:
            continue
        lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
    path.write_text("\n".join(lines) + "\n")
    return path


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _write_snapshot(path: Path, x: np.ndarray, state: FieldSet) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x"] + [f"theta_{n + 1}" for n in range(state.n_modes)])
        for i in range(state.m_points):
            writer.writerow([_fmt(x[i])] + [_fmt(state.values[n, i]) for n in range(state.n_modes)])


def _write_trace(path: Path, trace: DiagnosticTrace) -> None:
    n = len(trace.l2_norms)
    header = ["t"]
    header += [f"l2_{k + 1}" for k in range(n)]
    header += [f"mass_{k + 1}" for k in range(n)]
    if trace.hs_invariant:
        header.append("Q")
    if trace.max_percent_error:
        header += [f"max_pct_err_{k + 1}" for k in range(n)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for rec in range(trace.n_records):
            row = [_fmt(trace.times[rec])]
            row += [_fmt(trace.l2_norms[k][rec]) for k in range(n)]
            row += [_fmt(trace.mass[k][rec]) for k in range(n)]
            if trace.hs_invariant:
                row.append(_fmt(trace.hs_invariant[rec]))
            if trace.max_percent_error:
                row += [_fmt(trace.max_percent_error[k][rec]) for k in range(n)]
            writer.writerow(row)


def _write_report(
    path: Path,
    plan: StepPlan,
    n_steps: int,
    grid: Grid,
    outcome: str,
    blow_up_step: int | None,
    snapshots: list[tuple[float, Path]],
) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["kind", "key", "value"])
        writer.writerow(["plan", "rule", plan.rule])
        writer.writerow(["plan", "safety", _fmt(plan.safety)])
        writer.writerow(["plan", "tau", _fmt(plan.tau)])
        writer.writerow(["plan", "t_end", _fmt(plan.t_end)])
        writer.writerow(["plan", "n_steps", str(n_steps)])
        writer.writerow(["grid", "x_min", _fmt(grid.x_min)])
        writer.writerow(["grid", "h", _fmt(grid.h)])
        writer.writerow(["grid", "m_points", str(grid.m_points)])
        writer.writerow(["run", "outcome", outcome])
        if blow_up_step is not None:
            writer.writerow(["run", "blow_up_step", str(blow_up_step)])
        for idx, (_, snap_path) in enumerate(snapshots):
            writer.writerow(["snapshot", str(idx), snap_path.name])


def run_experiment(config: RunConfig) -> RunReport:
    """Execute one configured run, writing snapshots, trace and manifest.

    The advised time step is shrunk to the nearest divisor of ``t_end`` so
    the run lands on the end time exactly. A blow-up does not raise: the
    report carries the failing step and every artifact produced up to it
    stays on disk.
    """
    config = validate_config(config)
    spec = build_system(config)
    ic = build_initial_condition(config)

    plan0 = advise_tau(spec, config.h, config.t_end, config.tau_rule, config.safety, tau=config.tau)
    plan, n_steps = plan0.fit_to_end()

    m_points = int(round((config.x_max - config.x_min) / config.h))
    grid = Grid(config.x_min, config.h, m_points, plan.tau)
    x = grid.nodes()

    state0 = sample_initial(ic, grid)
    if spec.n_modes < state0.n_modes:
        state0 = FieldSet(state0.values[: spec.n_modes], state0.time)
    elif spec.n_modes > state0.n_modes:
        raise ConfigError(
            f"initial condition provides {state0.n_modes} modes but the system has "
            f"{spec.n_modes}; build the initial FieldSet through the library API instead",
            field="ic_kind",
        )

    oracle = None
    amplitude = None
    if config.system == SYSTEM_HS and config.ic_kind == IC_SOLITON:
        oracle = soliton_evaluator(SolitonParams(config.m, config.d), x)
        amplitude = state0.max_norm()

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    trace = DiagnosticTrace()
    snapshots: list[tuple[float, Path]] = []

    def emit(state: FieldSet) -> None:
        idx = len(snapshots)
        snap_path = out_dir / f"snap_{idx:04d}_t{state.time:.6f}.csv"
        _write_snapshot(snap_path, x, state)
        snapshots.append((state.time, snap_path))
        trace.record(state, grid.h, oracle, amplitude)

    emit(state0)

    snap_interval = config.snapshot_every
    eps = 1e-9 * snap_interval
    next_snap = snap_interval

    def observer(step: int, state: FieldSet) -> None:
        nonlocal next_snap
        if state.time + eps >= next_snap or step == n_steps:
            emit(state)
            while next_snap <= state.time + eps:
                next_snap += snap_interval

    outcome = "completed"
    blow_up_step = None
    try:
        advance(state0, spec, grid, n_steps, observer)
    except BlowUpError as exc:
        outcome = "blew_up"
        blow_up_step = exc.step

    _write_trace(out_dir / "trace.csv", trace)
    _write_report(out_dir / "report.csv", plan, n_steps, grid, outcome, blow_up_step, snapshots)
    return RunReport(snapshots, trace, outcome, blow_up_step, plan, out_dir)


@dataclass(frozen=True)
class Preset:
    """A canned experiment. ``kind`` is ``simulation`` or ``oracle``; oracle
    presets only evaluate the closed-form solution (no time stepping).
    ``oracle`` flags whether percent-error columns appear in the trace."""

    name: str
    description: str
    kind: str
    oracle: bool
    config: RunConfig | None


def list_presets() -> tuple[Preset, ...]:
    """Preset experiments; parameter fills are recorded choices, see README."""
    return (
        Preset(
            "fig1",
            "soliton profiles for m in {0.5, 1, 1.5} at d=0 (oracle plots only)",
            "oracle", False, None,
        ),
        Preset(
            "fig2",
            "soliton profiles for d in {0, 0.5} at m=1 (oracle plots only)",
            "oracle", False, None,
        ),
        Preset(
            "fig3",
            "soliton accuracy run m=1 d=0 to t=1 with percent-error trace",
            "simulation", True,
            RunConfig(t_end=1.0, snapshot_every=0.1, output_dir="ckdv_out/fig3"),
        ),
        Preset(
            "fig4a",
            "multi-soliton decay of the isolated first equation (N=1 reduction), "
            "stretched initial data (10x width, 2x amplitude)",
            "simulation", False,
            RunConfig(
                system=SYSTEM_KDV1,
                ic_kind=IC_STRETCHED, width_scale=10.0, amp_scale=2.0,
                x_min=-150.0, x_max=60.0, h=0.1,
                t_end=3.0, snapshot_every=0.5,
                output_dir="ckdv_out/fig4a",
            ),
        ),
        Preset(
            "fig4b",
            "multi-soliton decay of the full two-mode system, stretched initial data "
            "(soliton count estimated by peak detection)",
            "simulation", False,
            RunConfig(
                ic_kind=IC_STRETCHED, width_scale=10.0, amp_scale=2.0,
                x_min=-150.0, x_max=60.0, h=0.1,
                t_end=3.0, snapshot_every=0.5,
                output_dir="ckdv_out/fig4b",
            ),
        ),
        Preset(
            "fig5",
            "slightly nonintegrable system (d1=-0.2) fed the integrable soliton",
            "simulation", False,
            RunConfig(
                system=SYSTEM_PERTURBED, d1=-0.2,
                t_end=0.5, snapshot_every=0.05,
                output_dir="ckdv_out/fig5",
            ),
        ),
        Preset(
            "fig6",
            "non-smooth (triangle pulse) initial data on the two-mode system",
            "simulation", False,
            RunConfig(
                ic_kind=IC_TRIANGLE, amplitude=1.0, half_width=2.0, center=0.0,
                t_end=0.5, snapshot_every=0.05,
                output_dir="ckdv_out/fig6",
            ),
        ),
    )


def get_preset(name: str) -> Preset:
    for preset in list_presets():
        if preset.name == name:
            return preset
    raise ConfigError(f"unknown preset '{name}'")


def _write_oracle_profiles(preset: Preset, out_dir: Path) -> list[Path]:
    sweeps = {
        "fig1": [(m, 0.0) for m in (0.5, 1.0, 1.5)],
        "fig2": [(1.0, d) for d in (0.0, 0.5)],
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = Grid(-20.0, 0.05, 800, 1.0)
    x = grid.nodes()
    paths = []
    for m, d in sweeps[preset.name]:
        evaluate = soliton_evaluator(SolitonParams(m, d), x)
        state = FieldSet(evaluate(0.0), 0.0)
        path = out_dir / f"oracle_m{m:g}_d{d:g}.csv"
        _write_snapshot(path, x, state)
        paths.append(path)
    return paths


def run_preset(name: str, out_dir: str | Path | None = None):
    """Run a preset; returns a RunReport, or the written paths for oracle presets."""
    preset = get_preset(name)
    if preset.kind == "oracle":
        target = Path(out_dir) if out_dir is not None else Path("ckdv_out") / name
        return _write_oracle_profiles(preset, target)
    config = preset.config
    if out_dir is not None:
        config = dataclasses.replace(config, output_dir=str(out_dir))
    return run_experiment(config)
