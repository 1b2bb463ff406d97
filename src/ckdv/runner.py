"""Experiment driver: config files, presets, refinement studies and CSV persistence.

A run is described by a line-oriented ``key = value`` config (see
``CONFIG_KEYS``), executed by :func:`run_experiment`, and leaves behind a
directory of snapshot CSVs, a diagnostics trace CSV, and a ``report.csv``
manifest. Identical configs produce bit-identical CSV output. Each run
(config file, preset, refinement level, oracle profile) is set up once,
by building the system, step plan, grid, start state and oracle its config
describes; each constructor owns its rules, and a fault names the key. A
refinement study also sets up its coarsest and finest levels beforehand.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import math
import sys
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analytic import (
    SolitonParams,
    StretchedSoliton,
    TrianglePulse,
    sample_initial,
    soliton_evaluator,
)
from .diagnostics import ConvergenceReport, DiagnosticTrace, l2_norm, level_h
from .errors import BlowUpError, ConfigError, require_positive
from .model import (
    FieldSet,
    Grid,
    NonlinearTerm,
    SystemSpec,
    make_hirota_satsuma,
    make_hs_first_kdv,
    make_perturbed_hs,
)
from .stepper import DEFAULT_SAFETY, RULE_DISPERSIVE_CFL, StepPlan, advance, advise_tau

SYSTEM_HS = "hirota_satsuma"
SYSTEM_PERTURBED = "perturbed_hs"
SYSTEM_KDV1 = "hs_kdv1"  # isolated first Hirota-Satsuma equation, N=1
CUSTOM_PREFIX = "custom:"
IC_SOLITON = "hs_soliton"
IC_STRETCHED = "stretched_soliton"
IC_TRIANGLE = "triangle_pulse"
IC_KINDS = (IC_SOLITON, IC_STRETCHED, IC_TRIANGLE)
# a mode whose start data at the periodic seam exceed this share of its peak warns
EDGE_RATIO = 1e-6

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
    tau_rule: str = RULE_DISPERSIVE_CFL
    safety: float = DEFAULT_SAFETY
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
    """One run: the :class:`Run` it stepped, snapshot files on disk, the
    diagnostics trace, and the step that blew up (``None`` if the run
    completed). Snapshot ``i`` is at ``trace.columns["t"][i]``."""

    run: Run
    snapshots: list[Path]
    trace: DiagnosticTrace
    blow_up_step: int | None

    @property
    def outcome(self) -> str:
        return "completed" if self.blow_up_step is None else "blew_up"


@contextlib.contextmanager
def _path_fault(doing: str, field: str | None):
    """Turn an OS fault in the block, or a ``ValueError`` (a NUL in a path,
    undecodable text), into a :class:`ConfigError` of ``field``: "cannot
    ``doing``: why". A ConfigError is a ValueError too, so wrap OS calls only."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot {doing}: {getattr(exc, 'strerror', exc)}", field=field) from exc


def _read_key_values(path: Path, what: str, field: str | None = None):
    """Yield ``(line number, key, value)`` per ``key = value`` line; ``#`` starts a
    comment. An unreadable file, a line without ``=`` or a repeat of a key other
    than ``term`` is a fault of ``field`` (of the repeated key if ``field`` is None)."""
    with _path_fault(f"read {what} {path}", field):
        text = path.read_text(encoding="utf-8-sig")
    seen = set()
    for lineno, rawline in enumerate(text.splitlines(), 1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            msg = f"{path} line {lineno}: expected 'key = value'"
            raise ConfigError(msg, field=field)
        if key in seen and key != "term":
            msg = f"{path} line {lineno}: duplicate key '{key}'"
            raise ConfigError(msg, field=field or key)
        seen.add(key)
        yield lineno, key, value


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
            raise ConfigError(f"{path} line {lineno}: {exc}", field="system") from exc
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
        return _parse_system_file(Path(config.system[len(CUSTOM_PREFIX):].strip()))
    raise ConfigError(
        f"unknown system '{config.system}' (expected {SYSTEM_HS}, {SYSTEM_PERTURBED}, "
        f"{SYSTEM_KDV1} or {CUSTOM_PREFIX}<path>)",
        field="system",
    )


def build_initial_condition(config: RunConfig) -> SolitonParams | StretchedSoliton | TrianglePulse:
    """The initial data ``config.ic_kind`` names, built from its keys."""
    if config.ic_kind == IC_TRIANGLE:
        ic = TrianglePulse(config.amplitude, config.half_width, config.center)
    else:
        ic = SolitonParams(config.m, config.d)
        if config.ic_kind == IC_STRETCHED:
            ic = StretchedSoliton(ic, config.width_scale, config.amp_scale)
        elif config.ic_kind != IC_SOLITON:
            msg = f"kind must be one of {IC_KINDS}, got {config.ic_kind!r}"
            raise ConfigError(msg, field="ic_kind")
    return ic


# constructor parameter -> config key, where the two names differ
_CONFIG_KEY = {"rule": "tau_rule", "m_points": "h"}


def _has_oracle(config: RunConfig) -> bool:
    """Whether a run of ``config`` is traced against the closed-form soliton."""
    return config.system == SYSTEM_HS and config.ic_kind == IC_SOLITON


@dataclass(frozen=True)
class Run:
    """A run, set up: ``config`` with ``snapshot_every`` filled in, and what
    it builds, each once. ``state0`` is the sampled initial data, one row per
    mode of ``spec``; ``oracle`` evaluates the closed-form soliton on the
    nodes, or is ``None``."""

    config: RunConfig
    spec: SystemSpec
    plan: StepPlan
    n_steps: int
    grid: Grid
    state0: FieldSet
    oracle: Callable[[float], np.ndarray] | None


def validate_config(config: RunConfig) -> Run:
    """Set up the run ``config`` describes, or raise :class:`ConfigError`
    naming the key. Numbers must be finite. The constructors own their
    rules (a fault is only renamed to its config key) and run before
    anything is sampled, so the step and node counts cost no memory to
    check. Checked after them, as no constructor owns them: the snapshot
    interval (filled into ``config``), an initial profile narrower than
    ``h``, a system with more modes than the initial data fills, initial
    data zero at every node or not finite at some node, and the edge warning.
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
    require_positive("snapshot_every", snapshot_every)
    if snapshot_every > config.t_end:
        raise ConfigError("snapshot_every must not exceed t_end", field="snapshot_every")

    if ic.width < config.h:
        msg = f"initial profile width {ic.width:g} is below h = {config.h:g}; refine h"
        raise ConfigError(msg, field="h")
    with np.errstate(over="ignore"):  # the non-finite check below owns an overflow
        state0 = sample_initial(ic, grid)
    if spec.n_modes > state0.n_modes:
        raise ConfigError(
            f"initial condition provides {state0.n_modes} modes but the system has "
            f"{spec.n_modes}; build the initial FieldSet through the library API instead",
            field="ic_kind",
        )
    if spec.n_modes < state0.n_modes:
        state0 = FieldSet(state0.values[: spec.n_modes], state0.time)
    if not state0.values.any():
        msg = "the initial data samples to zero at every node; the domain misses it"
        raise ConfigError(msg, field="x_min")
    if not np.isfinite(state0.values).all():
        raise ConfigError("the initial data overflows at some node", field="ic_kind")
    edges = np.maximum(np.abs(state0.values[:, 0]), np.abs(state0.values[:, -1])).tolist()
    peaks = np.abs(state0.values).max(axis=1).tolist()
    if any(e > EDGE_RATIO * p for e, p in zip(edges, peaks)):
        ratios = ", ".join(f"{e / p if p else 0.0:.2g}" for e, p in zip(edges, peaks))
        # point at the first caller outside the package, or at the outermost frame
        level, frame = 1, sys._getframe()
        while frame.f_back and frame.f_globals.get("__name__", "").startswith(f"{__package__}."):
            level, frame = level + 1, frame.f_back
        warnings.warn(
            f"the initial data at the domain edges reach {ratios} of each mode's peak "
            f"(above {EDGE_RATIO:g}); edge contamination possible",
            stacklevel=level,
        )
    oracle = soliton_evaluator(ic, grid.nodes()) if _has_oracle(config) else None
    config = dataclasses.replace(config, snapshot_every=snapshot_every)
    return Run(config, spec, plan, n_steps, grid, state0, oracle)


def load_config(path: str | Path) -> RunConfig:
    """Parse a ``key = value`` config file; only its syntax is checked here.
    :func:`run_experiment` and :func:`validate_config` check the values."""
    path = Path(path)
    kwargs: dict[str, object] = {}
    for lineno, key, value in _read_key_values(path, "config file"):
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'", field=key)
        if not value:
            raise ConfigError(f"line {lineno}: empty value for '{key}'", field=key)
        if key in _FLOAT_KEYS:
            try:
                value = float(value)
            except ValueError:
                msg = f"line {lineno}: key '{key}' needs a number, got '{value}'"
                raise ConfigError(msg, field=key) from None
        kwargs[key] = value
    return RunConfig(**kwargs)


def write_config(config: RunConfig, path: str | Path) -> Path:
    """Write a config file that loads back equal to ``validate_config(config).config``.
    A string no ``key = value`` line holds (empty, multi-line, padded or with a
    ``#``) is a :class:`ConfigError` naming its key."""
    config = validate_config(config).config
    path = Path(path)
    lines = []
    for key in CONFIG_KEYS:
        value = getattr(config, key)
        if value is None:
            continue
        if isinstance(value, str) and (
            value.splitlines() != [value] or value != value.strip() or "#" in value
        ):
            raise ConfigError(f"{key} = {value!r} cannot be written as one config line", field=key)
        lines.append(f"{key} = {float(value)!r}" if key in _FLOAT_KEYS else f"{key} = {value}")
    _write_csv(path, "\n".join(lines) + "\n", field=None)
    return path


def _write_csv(path: Path, text: str, field: str | None = "output_dir") -> None:
    """Write ``text`` to ``path`` in UTF-8 with one binary write. A file that
    cannot be written (a NUL in ``path`` included) is a fault of ``field``."""
    with _path_fault(f"write {path}", field), open(path, "wb") as fh:
        fh.write(text.encode())


def _snapshot_template(x: np.ndarray, n_modes: int) -> str:
    """A snapshot's text at nodes ``x``, built once per run: the header line,
    then each node's ``%.17g`` text and a ``%.17g`` for each of ``n_modes``
    values. ``%.17g`` formats a float exactly as ``format(v, ".17g")`` does,
    which round-trips every float64."""
    header = ",".join(["x"] + [f"theta_{n + 1}" for n in range(n_modes)]) + "\n"
    tail = ",%.17g" * n_modes + "\n"
    return header + "".join(["%.17g" % v + tail for v in x.tolist()])


def _write_snapshot(path: Path, template: str, state: FieldSet) -> None:
    """Write one layer: ``template`` (from :func:`_snapshot_template`) filled by one ``%``."""
    _write_csv(path, template % tuple(state.values.T.ravel().tolist()))


def _write_table(path: Path, header: list[str], row_template: str, rows) -> None:
    """Write the ``header`` line, then ``row_template % row`` for each row."""
    _write_csv(path, ",".join(header) + "\n" + "".join(row_template % row for row in rows))


def _write_trace(path: Path, trace: DiagnosticTrace) -> None:
    columns = trace.columns
    row_template = ",".join(["%.17g"] * len(columns)) + "\n"
    _write_table(path, list(columns), row_template, zip(*columns.values()))


def _write_report(path: Path, report: RunReport) -> None:
    config, plan, grid = report.run.config, report.run.plan, report.run.grid
    rows = [
        ("plan", "rule", config.tau_rule),
        ("plan", "safety", "%.17g" % config.safety),
        ("plan", "tau", "%.17g" % plan.tau),
        ("plan", "t_end", "%.17g" % plan.t_end),
        ("plan", "n_steps", report.run.n_steps),
        ("grid", "x_min", "%.17g" % grid.x_min),
        ("grid", "h", "%.17g" % grid.h),
        ("grid", "m_points", grid.m_points),
        ("run", "outcome", report.outcome),
    ]
    if report.blow_up_step is not None:
        rows.append(("run", "blow_up_step", report.blow_up_step))
    rows += [("snapshot", i, snap_path.name) for i, snap_path in enumerate(report.snapshots)]
    _write_table(path, ["kind", "key", "value"], "%s,%s,%s\n", rows)


def _snapshot_steps(per_snapshot: float, n_steps: int):
    """Yield, in order, the steps of a run that end with a snapshot.

    ``per_snapshot`` is the snapshot interval in steps. For ``k = 1, 2, ...``
    snapshot ``k`` ends the first step to reach ``k * per_snapshot``, less a
    tolerance of 1e-9 of an interval; the last step ``n_steps`` always does,
    and ends the schedule.
    """
    per_snapshot = max(per_snapshot, 1.0)  # a shorter interval also ends on every step
    tolerance = 1e-9 * per_snapshot
    for k in itertools.count(1):
        step = min(math.ceil(k * per_snapshot - tolerance), n_steps)
        yield step
        if step == n_steps:
            return


def _make_output_dir(path: Path) -> Path:
    with _path_fault(f"create output_dir {path}", "output_dir"):
        path.mkdir(parents=True, exist_ok=True)
    return path


def run_experiment(config: RunConfig) -> RunReport:
    """Execute one configured run, writing snapshots, trace and manifest.

    The start state and the oracle come from :func:`validate_config`. The advised
    time step is shrunk to the nearest divisor of ``t_end`` so the run lands
    on the end time exactly. A blow-up does not raise: the report carries
    the failing step and every artifact produced up to it stays on disk.
    ``trace.csv`` and ``report.csv`` are created before the first step and
    filled after the last, so a run that cannot write them fails before it
    steps; a run stopped by any other exception leaves them empty.
    """
    run = validate_config(config)
    template = _snapshot_template(run.grid.nodes(), run.spec.n_modes)
    amplitude = None if run.oracle is None else float(np.abs(run.state0.values).max())

    out_dir = _make_output_dir(Path(run.config.output_dir))
    report = RunReport(run, [], DiagnosticTrace(), None)
    snapshots, trace = report.snapshots, report.trace

    snap_steps = _snapshot_steps(run.config.snapshot_every / run.plan.tau, run.n_steps)
    next_snap = 0

    def observer(step: int, time: float, values: np.ndarray) -> None:
        nonlocal next_snap
        if step == next_snap:
            state = FieldSet(values, time)
            snapshots.append(out_dir / f"snap_{len(snapshots):04d}_t{time:.6f}.csv")
            _write_snapshot(snapshots[-1], template, state)
            trace.record(state, run.grid.h, run.oracle, amplitude)
            next_snap = next(snap_steps, None)

    observer(0, run.state0.time, run.state0.values)  # the start state is snapshot 0
    trace_path, report_path = out_dir / "trace.csv", out_dir / "report.csv"
    for path in (trace_path, report_path):
        _write_csv(path, "")
    try:
        advance(run.state0, run.spec, run.grid, run.n_steps, observer)
    except BlowUpError as exc:
        report.blow_up_step = exc.step

    _write_trace(trace_path, trace)
    _write_report(report_path, report)
    return report


def convergence_study(t_end: float, h_coarsest: float, n_levels: int = 3) -> ConvergenceReport:
    """Refinement study of the default soliton run at h, h/2, h/4, ...

    Level k runs ``RunConfig(h=level_h(h_coarsest, k), t_end=t_end)``: the
    m = 1, d = 0 soliton on the Hirota-Satsuma system, measured against
    its closed form. The ``dispersive_cfl`` step at the default safety keeps
    the tau error term subdominant to the h^2 one at every level.
    """
    def level(k: int) -> RunConfig:
        return RunConfig(h=level_h(h_coarsest, k), t_end=t_end)

    if n_levels < 3:
        raise ConfigError(f"n_levels must be >= 3, got {n_levels}", field="n_levels")
    # no level steps before the end levels are set up: a blow-up never hides a
    # config fault. The levels differ only in h: step and node counts and tau
    # underflow grow toward the finest level, width and tau overflow toward the
    # coarsest, and the nodes nest, so an all-zero sample shows on the coarsest
    # and a non-finite one on the finest. The coarsest goes first; its faults
    # sample no finer level.
    for k in (0, n_levels - 1):
        validate_config(level(k))
    errors, l2_errors = zip(*(_level_errors(level(k)) for k in range(n_levels)))
    if 0.0 in errors:
        msg = f"t_end = {t_end:g} is too short to show any error; no order can be measured"
        raise ConfigError(msg, field="t_end")
    return ConvergenceReport(h_coarsest, errors, l2_errors)


def _level_errors(config: RunConfig) -> tuple[float, float]:
    """Max-norm and L2 error of one refinement level against the closed form;
    its start state and oracle go when it returns."""
    run = validate_config(config)
    try:
        final = advance(run.state0, run.spec, run.grid, run.n_steps)
    except BlowUpError as exc:
        raise BlowUpError(f"h = {config.h:g}: {exc}", step=exc.step, time=exc.time) from None
    diff = np.abs(run.oracle(final.time) - final.values)
    return float(diff.max()), l2_norm(diff, config.h)


@dataclass(frozen=True)
class Preset:
    """A canned experiment. A preset without a ``config`` writes the start state
    of each of its ``profiles``, the closed-form solution (no time stepping)."""

    name: str
    description: str
    config: RunConfig | None
    profiles: tuple[RunConfig, ...] = ()

    @property
    def oracle(self) -> bool:
        """Whether percent-error columns appear in the trace."""
        return self.config is not None and _has_oracle(self.config)


def list_presets() -> tuple[Preset, ...]:
    """Preset experiments; parameter fills are recorded choices, see README."""
    decay = RunConfig(
        ic_kind=IC_STRETCHED, width_scale=10.0, amp_scale=2.0,
        x_min=-150.0, x_max=60.0, h=0.1,
        t_end=3.0, snapshot_every=0.5,
    )
    return (
        Preset(
            "fig1", "soliton profiles for m in {0.5, 1, 1.5} at d=0 (oracle plots only)", None,
            tuple(RunConfig(m=m) for m in (0.5, 1.0, 1.5)),
        ),
        Preset(
            "fig2", "soliton profiles for d in {0, 0.5} at m=1 (oracle plots only)", None,
            tuple(RunConfig(d=d) for d in (0.0, 0.5)),
        ),
        Preset(
            "fig3",
            "soliton accuracy run m=1 d=0 to t=1 with percent-error trace",
            RunConfig(t_end=1.0, snapshot_every=0.1),
        ),
        Preset(
            "fig4a",
            "multi-soliton decay of the isolated first equation (N=1 reduction), "
            "stretched initial data (10x width, 2x amplitude)",
            dataclasses.replace(decay, system=SYSTEM_KDV1),
        ),
        Preset(
            "fig4b",
            "multi-soliton decay of the full two-mode system, stretched initial data "
            "(soliton count estimated by peak detection)",
            decay,
        ),
        Preset(
            "fig5",
            "slightly nonintegrable system (d1=-0.2) fed the integrable soliton",
            RunConfig(
                system=SYSTEM_PERTURBED, d1=-0.2,
                t_end=0.5, snapshot_every=0.05,
            ),
        ),
        Preset(
            "fig6",
            "non-smooth (triangle pulse) initial data on the two-mode system",
            RunConfig(
                ic_kind=IC_TRIANGLE, amplitude=1.0, half_width=2.0, center=0.0,
                t_end=0.5, snapshot_every=0.05,
            ),
        ),
    )


def get_preset(name: str) -> Preset:
    for preset in list_presets():
        if preset.name == name:
            return preset
    raise ConfigError(f"unknown preset '{name}'")


def run_preset(name: str, out_dir: str | Path | None = None):
    """Run a preset into ``out_dir``, by default ``ckdv_out/<name>``; returns a
    RunReport, or the paths of the ``oracle_m<m>_d<d>.csv`` profiles it wrote."""
    preset = get_preset(name)
    out_dir = Path(RunConfig.output_dir) / name if out_dir is None else Path(out_dir)
    if preset.config is not None:
        return run_experiment(dataclasses.replace(preset.config, output_dir=str(out_dir)))
    _make_output_dir(out_dir)
    paths = []
    for profile in preset.profiles:
        run = validate_config(profile)
        paths.append(out_dir / f"oracle_m{profile.m:g}_d{profile.d:g}.csv")
        template = _snapshot_template(run.grid.nodes(), run.state0.n_modes)
        _write_snapshot(paths[-1], template, run.state0)
    return paths
