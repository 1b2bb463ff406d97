"""Experiment driver: config files, presets, and CSV persistence.

A run is described by a line-oriented ``key = value`` config (see
``CONFIG_KEYS``), executed by :func:`run_experiment`, and leaves behind a
directory of snapshot CSVs, a diagnostics trace CSV, and a ``report.csv``
manifest. Identical configs produce bit-identical CSV output. A config is
checked by building the system, step plan, grid and initial condition it
describes; each constructor owns its rules, and a fault names the key.
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
)
from .stepper import StepPlan, advance, advise_tau

SYSTEM_HS = "hirota_satsuma"
SYSTEM_PERTURBED = "perturbed_hs"
SYSTEM_KDV1 = "hs_kdv1"  # isolated first Hirota-Satsuma equation, N=1
CUSTOM_PREFIX = "custom:"

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


# the config keys are RunConfig's fields: numbers first, then strings
_FLOAT_KEYS = tuple(f.name for f in dataclasses.fields(RunConfig) if f.type.startswith("float"))
CONFIG_KEYS = _FLOAT_KEYS + tuple(f.name for f in dataclasses.fields(RunConfig) if f.type == "str")


@dataclass
class RunReport:
    """Outcome of one run: snapshot files on disk plus the diagnostics trace."""

    snapshots: list[tuple[float, Path]]
    trace: DiagnosticTrace
    outcome: str  # "completed" | "blew_up"
    blow_up_step: int | None
    plan: StepPlan
    output_dir: Path


def _read_key_values(path: Path, what: str, field: str | None = None):
    """Yield ``(line number, key, value)`` per ``key = value`` line; ``#`` starts a
    comment. An unreadable file or a line without ``=`` is a fault of ``field``."""
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}", field=field) from exc
    for lineno, rawline in enumerate(text.splitlines(), 1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            msg = f"{path} line {lineno}: expected 'key = value'"
            raise ConfigError(msg, field=field, line=lineno)
        yield lineno, key.strip(), value.strip()


def _parse_system_file(path: Path) -> SystemSpec:
    """Read a custom system definition: n_modes, c, d, and repeatable term keys."""
    n_modes = None
    speeds: list[float] | None = None
    disps: list[float] | None = None
    terms: list[NonlinearTerm] = []
    for lineno, key, value in _read_key_values(path, "custom system file", field="system"):
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
            raise ConfigError(f"{path} line {lineno}: {exc}", field="system", line=lineno) from exc
    if n_modes is None or speeds is None or disps is None:
        raise ConfigError(f"{path}: custom system needs n_modes, c and d", field="system")
    try:
        return SystemSpec(n_modes, tuple(speeds), tuple(disps), tuple(terms))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}", field="system") from None


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
    triangle = config.ic_kind == IC_TRIANGLE
    pulse = TrianglePulse(config.amplitude, config.half_width, config.center) if triangle else None
    return InitialCondition(
        config.ic_kind,
        soliton=None if triangle else SolitonParams(config.m, config.d),
        pulse=pulse,
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


# constructor parameter -> config key, where the two names differ
_CONFIG_KEY = {"kind": "ic_kind", "rule": "tau_rule", "m_points": "h"}

# config-file initial data fills the two Hirota-Satsuma modes (see sample_initial)
_IC_MODES = 2


def _has_oracle(config: RunConfig) -> bool:
    """Whether a run of ``config`` is traced against the closed-form soliton."""
    return config.system == SYSTEM_HS and config.ic_kind == IC_SOLITON


def _resolve(config: RunConfig):
    """``(config, spec, plan, n_steps, grid, ic)``: each object a run needs, built once.

    The constructors own their rules; their faults are only renamed to the
    config key. Checked here, as no constructor owns them: finite numbers,
    the snapshot interval (filled into ``config``), the width warning and
    a system with more modes than the initial data fills.
    """
    for key in _FLOAT_KEYS:
        value = getattr(config, key)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}", field=key)
    try:
        spec = build_system(config)
        plan, n_steps = advise_tau(
            spec, config.h, config.t_end, config.tau_rule, config.safety, tau=config.tau
        ).fit_to_end()
        grid = Grid.spanning(config.x_min, config.x_max, config.h, plan.tau)
        ic = build_initial_condition(config)
    except ConfigError as exc:
        if exc.field not in _CONFIG_KEY:
            raise
        raise ConfigError(str(exc), field=_CONFIG_KEY[exc.field]) from None

    snapshot_every = config.snapshot_every
    if snapshot_every is None:
        snapshot_every = config.t_end / 10.0
    if snapshot_every <= 0:
        raise ConfigError("snapshot_every must be positive", field="snapshot_every")
    if snapshot_every > config.t_end:
        raise ConfigError("snapshot_every must not exceed t_end", field="snapshot_every")

    width = _profile_width(config)
    if config.x_max - config.x_min < 20.0 * width:
        warnings.warn(
            f"domain width {config.x_max - config.x_min:g} is below 20x the initial "
            f"profile width {width:g}; edge contamination possible",
            stacklevel=3,
        )
    if spec.n_modes > _IC_MODES:
        raise ConfigError(
            f"initial condition provides {_IC_MODES} modes but the system has "
            f"{spec.n_modes}; build the initial FieldSet through the library API instead",
            field="ic_kind",
        )
    config = dataclasses.replace(config, snapshot_every=snapshot_every)
    return config, spec, plan, n_steps, grid, ic


def validate_config(config: RunConfig) -> RunConfig:
    """Check ``config`` by building everything a run needs from it; return it
    with ``snapshot_every`` filled in, or raise :class:`ConfigError` naming the key."""
    return _resolve(config)[0]


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a ``key = value`` config file."""
    path = Path(path)
    kwargs: dict[str, object] = {}
    for lineno, key, value in _read_key_values(path, "config file"):
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'", field=key, line=lineno)
        if key in kwargs:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'", field=key, line=lineno)
        if not value:
            raise ConfigError(f"line {lineno}: empty value for '{key}'", field=key, line=lineno)
        if key in _FLOAT_KEYS:
            try:
                value = float(value)
            except ValueError:
                msg = f"line {lineno}: key '{key}' needs a number, got '{value}'"
                raise ConfigError(msg, field=key, line=lineno) from None
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


def _make_output_dir(path: Path) -> Path:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        msg = f"cannot create output_dir {path}: {exc.strerror}"
        raise ConfigError(msg, field="output_dir") from exc
    return path


def run_experiment(config: RunConfig) -> RunReport:
    """Execute one configured run, writing snapshots, trace and manifest.

    The advised time step is shrunk to the nearest divisor of ``t_end`` so
    the run lands on the end time exactly. A blow-up does not raise: the
    report carries the failing step and every artifact produced up to it
    stays on disk.
    """
    config, spec, plan, n_steps, grid, ic = _resolve(config)
    x = grid.nodes()

    state0 = sample_initial(ic, grid)
    if spec.n_modes < state0.n_modes:
        state0 = FieldSet(state0.values[: spec.n_modes], state0.time)

    oracle = None
    amplitude = None
    if _has_oracle(config):
        oracle = soliton_evaluator(ic.soliton, x)
        amplitude = state0.max_norm()

    out_dir = _make_output_dir(Path(config.output_dir))

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
    """A canned experiment. A preset without a ``config`` only evaluates the
    closed-form solution (no time stepping)."""

    name: str
    description: str
    config: RunConfig | None

    @property
    def kind(self) -> str:
        """``oracle`` for closed-form profiles only, else ``simulation``."""
        return "oracle" if self.config is None else "simulation"

    @property
    def oracle(self) -> bool:
        """Whether percent-error columns appear in the trace."""
        return self.config is not None and _has_oracle(self.config)


def list_presets() -> tuple[Preset, ...]:
    """Preset experiments; parameter fills are recorded choices, see README."""
    return (
        Preset("fig1", "soliton profiles for m in {0.5, 1, 1.5} at d=0 (oracle plots only)", None),
        Preset("fig2", "soliton profiles for d in {0, 0.5} at m=1 (oracle plots only)", None),
        Preset(
            "fig3",
            "soliton accuracy run m=1 d=0 to t=1 with percent-error trace",
            RunConfig(t_end=1.0, snapshot_every=0.1, output_dir="ckdv_out/fig3"),
        ),
        Preset(
            "fig4a",
            "multi-soliton decay of the isolated first equation (N=1 reduction), "
            "stretched initial data (10x width, 2x amplitude)",
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
            RunConfig(
                system=SYSTEM_PERTURBED, d1=-0.2,
                t_end=0.5, snapshot_every=0.05,
                output_dir="ckdv_out/fig5",
            ),
        ),
        Preset(
            "fig6",
            "non-smooth (triangle pulse) initial data on the two-mode system",
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
    _make_output_dir(out_dir)
    grid = Grid.spanning(-20.0, 20.0, 0.05, 1.0)
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
