"""Workload inputs, expected outcomes and correctness checks.

Every run goes through ``ckdv run --config <file>`` (``ckdv.cli.main``), one
generated config file per run, so the program only ever sees those files
and, for the sweep, one generated ``custom:`` system file.

* ``soliton_fig3`` and ``decay_fig4b`` are the paper's fig3 and fig4b presets
  with fixed inputs: their checks are the paper's acceptance gates, so the
  seed does not change them.
* ``sweep_cli`` is a seeded mix of short runs. The seed draws the soliton,
  stretch and triangle parameters, the perturbed dispersion, the custom
  system's couplings and the run order. It does not draw anything that sets
  the cost of a run (grid, run length, snapshot spacing, which runs blow
  up), so the work per pass is the same for every seed. Only
  ``SWEEP_SEEDS`` input sets exist, one per recorded reference checksum:
  ``--seed n`` selects set ``n % SWEEP_SEEDS``.

The ``smoke`` size keeps each workload's shape but stops after a few dozen
steps; it exists to test the harness, not to time the program.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ckdv import runner
from ckdv.diagnostics import count_peaks
from ckdv.model import Grid, effective_dispersion
from ckdv.stepper import BLOWUP_FACTOR, advise_tau

WORKLOADS = ("soliton_fig3", "decay_fig4b", "sweep_cli")
SIZES = ("full", "smoke")

# paper gates on the fig3 run (README "Acceptance gate", criteria 1, 3, 6)
FIG3_MAX_PCT_ERR = 2.0
FIG3_MASS1_DRIFT = 1e-10
# fig4b gate (criterion 7): at least two mode-1 peaks above 10% of the maximum
FIG4B_MIN_PEAKS = 2
FIG4B_PEAK_FRACTION = 0.1

# sweep shape: 4 systems x 3 initial-condition kinds x 2 repeats
SWEEP_SYSTEMS = ("hirota_satsuma", "perturbed_hs", "hs_kdv1", "custom")
SWEEP_ICS = ("hs_soliton", "stretched_soliton", "triangle_pulse")
SWEEP_REPEATS = 2
# distinct sweep input sets, each with a checksum in reference.json
SWEEP_SEEDS = 64
# (system, ic_kind, repeat) slots that run at 100x the CFL step and blow up
SWEEP_BLOWUP_SLOTS = (
    ("hirota_satsuma", "hs_soliton", 1),
    ("hs_kdv1", "stretched_soliton", 1),
    ("custom", "triangle_pulse", 1),
)
SWEEP_H = 0.1
SWEEP_T_END = {"full": 0.05, "smoke": 0.005}  # 300 / 30 steps at the HS CFL step
SWEEP_SNAPSHOTS = {"full": 30, "smoke": 3}
SWEEP_BLOWUP_T_END = 1.0  # 60 steps at 100x the HS CFL step
SWEEP_BLOWUP_TAU_FACTOR = 100.0
SMOKE_PRESET_STEPS = 40


@dataclass
class Item:
    """One ``ckdv run --config`` invocation and what it must produce."""

    label: str
    config: Path
    out_dir: Path
    expected_rc: int
    expected_blowup: int | None
    params: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    size: str
    seed: int
    items: list[Item]


@dataclass
class Facts:
    """What one run left on disk, read back from its CSV artifacts."""

    outcome: str
    blow_up_step: int | None
    n_steps: int
    n_modes: int
    m_points: int
    snapshots: int
    bytes_written: int
    state_sha256: str
    artifacts_sha256: str
    final_x: np.ndarray
    final_values: np.ndarray
    trace: dict[str, np.ndarray]

    @property
    def steps_run(self) -> int:
        return self.blow_up_step if self.blow_up_step is not None else self.n_steps

    @property
    def updates(self) -> int:
        return self.n_modes * self.m_points * self.steps_run


def build(name: str, size: str, seed: int, work: Path) -> Workload:
    """Write the workload's input files under ``work`` and return its items."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; expected one of {SIZES}")
    (work / "inputs").mkdir(parents=True, exist_ok=True)
    if name == "sweep_cli":
        seed %= SWEEP_SEEDS
        items = _sweep_items(size, seed, work)
    else:
        seed = 0  # fixed inputs
        items = [_preset_item(name, size, work)]
    return Workload(name, size, seed, items)


def _preset_item(name: str, size: str, work: Path) -> Item:
    preset = runner.get_preset({"soliton_fig3": "fig3", "decay_fig4b": "fig4b"}[name])
    out_dir = work / "outputs" / preset.name
    config = dataclasses.replace(preset.config, output_dir=str(out_dir))
    if size == "smoke":
        plan = advise_tau(
            runner.build_system(config), config.h, config.t_end, config.tau_rule, config.safety
        )
        t_end = SMOKE_PRESET_STEPS * plan.tau
        config = dataclasses.replace(config, t_end=t_end, snapshot_every=t_end / 4)
    path = runner.write_config(config, work / "inputs" / f"{preset.name}.cfg")
    return Item(preset.name, path, out_dir, 0, None, {"preset": preset.name})


def _write_custom_system(rng: random.Random, path: Path) -> dict:
    # Hirota-Satsuma dispersion (so the CFL step matches the named systems)
    # with couplings drawn around the integrable values
    coefs = (rng.uniform(-1.8, -1.2), rng.uniform(2.4, 3.6), rng.uniform(1.2, 1.8))
    lines = [
        "n_modes = 2",
        "c = 0.0, 0.0",
        "d = -0.25, 0.5",
        f"term = 1, 1, 1, {coefs[0]!r}",
        f"term = 1, 2, 2, {coefs[1]!r}",
        f"term = 2, 1, 2, {coefs[2]!r}",
    ]
    path.write_text("\n".join(lines) + "\n")
    return {"couplings": coefs}


def _sweep_items(size: str, seed: int, work: Path) -> list[Item]:
    rng = random.Random(seed)
    custom_path = work / "inputs" / "custom_system.txt"
    custom = _write_custom_system(rng, custom_path)
    slots = [
        (system, ic, rep)
        for system in SWEEP_SYSTEMS
        for ic in SWEEP_ICS
        for rep in range(SWEEP_REPEATS)
    ]
    rng.shuffle(slots)
    items = []
    for idx, (system, ic, rep) in enumerate(slots):
        label = f"item{idx:02d}"
        out_dir = work / "outputs" / label
        params: dict = {"system": system, "ic_kind": ic}
        fields: dict = {"ic_kind": ic, "h": SWEEP_H, "output_dir": str(out_dir)}
        if system == "custom":
            fields["system"] = runner.CUSTOM_PREFIX + str(custom_path)
            params.update(custom)
        else:
            fields["system"] = system
        if system == "perturbed_hs":
            fields["d1"] = rng.uniform(-0.3, -0.2)
        if ic == "triangle_pulse":
            fields.update(
                amplitude=rng.uniform(0.5, 1.5),
                half_width=rng.uniform(1.0, 2.0),
                center=rng.uniform(-2.0, 2.0),
            )
            fields.update(x_min=-20.0, x_max=20.0)
        else:
            fields.update(m=rng.uniform(0.8, 1.25), d=rng.uniform(-0.5, 0.5))
            if ic == "stretched_soliton":
                fields.update(width_scale=rng.uniform(1.5, 2.5), amp_scale=rng.uniform(1.0, 1.5))
                fields.update(x_min=-32.0, x_max=32.0)
            else:
                fields.update(x_min=-20.0, x_max=20.0)
        blows_up = (system, ic, rep) in SWEEP_BLOWUP_SLOTS
        if blows_up:
            t_end = SWEEP_BLOWUP_T_END
            spec = runner.build_system(runner.RunConfig(system=fields["system"]))
            cfl = advise_tau(spec, SWEEP_H, t_end).tau
            fields.update(tau_rule="manual", tau=SWEEP_BLOWUP_TAU_FACTOR * cfl)
        else:
            t_end = SWEEP_T_END[size]
        fields.update(t_end=t_end, snapshot_every=t_end / SWEEP_SNAPSHOTS[size])
        params.update({k: v for k, v in fields.items() if k not in ("output_dir", "system")})
        path = runner.write_config(runner.RunConfig(**fields), work / "inputs" / f"{label}.cfg")
        expected_blowup = _reference_blowup_step(path) if blows_up else None
        items.append(
            Item(label, path, out_dir, 2 if expected_blowup else 0, expected_blowup, params)
        )
    return items


def _reference_blowup_step(config_path: Path) -> int | None:
    """Blow-up step of the configured run, stepped by this file's own copy of
    the paper's scheme (not ``ckdv.stepper``); ``None`` if it stays bounded.

    The step plan and grid follow the runner's documented rules: the step is
    shrunk to the nearest divisor of ``t_end`` and a layer has blown up once
    its max-norm leaves ``BLOWUP_FACTOR`` times the initial one.
    """
    config = runner.load_config(config_path)
    spec = runner.build_system(config)
    n_steps = max(1, math.ceil(config.t_end / config.tau - 1e-12))
    tau = config.t_end / n_steps
    grid = Grid(config.x_min, config.h, int(round((config.x_max - config.x_min) / config.h)), tau)
    u = runner.sample_initial(runner.build_initial_condition(config), grid).values[: spec.n_modes]
    h = grid.h
    c = np.asarray(spec.linear_speeds)[:, None]
    e = effective_dispersion(spec, h)[:, None]

    def rhs(v):
        up1, dn1 = np.roll(v, -1, axis=1), np.roll(v, 1, axis=1)
        d1 = (up1 - dn1) / (2.0 * h)
        d3 = (np.roll(v, -2, axis=1) - 2.0 * up1 + 2.0 * dn1 - np.roll(v, 2, axis=1)) / (2.0 * h**3)
        r = c * d1 + e * d3
        for t in spec.nonlinear_terms:
            r[t.n - 1] += t.coef * v[t.k - 1] * d1[t.m - 1]
        return r

    limit = BLOWUP_FACTOR * float(np.max(np.abs(u)))
    for step in range(1, n_steps + 1):
        half = u - 0.5 * tau * rhs(u)
        if not float(np.max(np.abs(half))) <= limit:
            return step
        u = u - tau * rhs(half)
        if not float(np.max(np.abs(u))) <= limit:
            return step
    return None


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_facts(out_dir: Path) -> Facts:
    """Read a run's report, trace and last snapshot back from disk."""
    report: dict[str, str] = {}
    snapshots: list[str] = []
    with open(out_dir / "report.csv") as fh:
        next(fh)
        for line in fh:
            kind, key, value = line.rstrip("\n").split(",", 2)
            if kind == "snapshot":
                snapshots.append(value)
            else:
                report[f"{kind}.{key}"] = value
    header, data = _read_csv(out_dir / snapshots[-1])
    final = np.ascontiguousarray(data[:, 1:].T)
    trace_header, trace_data = _read_csv(out_dir / "trace.csv")
    files = sorted(p for p in out_dir.iterdir() if p.is_file())
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.name.encode() + b"\0")
        digest.update(path.read_bytes())
    blow_up = report.get("run.blow_up_step")
    return Facts(
        outcome=report["run.outcome"],
        blow_up_step=int(blow_up) if blow_up is not None else None,
        n_steps=int(report["plan.n_steps"]),
        n_modes=len(header) - 1,
        m_points=int(report["grid.m_points"]),
        snapshots=len(snapshots),
        bytes_written=sum(p.stat().st_size for p in files),
        state_sha256=hashlib.sha256(final.tobytes()).hexdigest(),
        artifacts_sha256=digest.hexdigest(),
        final_x=data[:, 0],
        final_values=final,
        trace={name: trace_data[:, i] for i, name in enumerate(trace_header)},
    )


def relative_drift(series: np.ndarray) -> float:
    """Largest |s_k - s_0| / |s_0| over the series."""
    return float(np.max(np.abs(series - series[0])) / abs(series[0]))


def check_item(workload: Workload, item: Item, rc: int | str, facts: Facts | None) -> list[str]:
    """Every way the run missed what its workload expects; empty when correct."""
    if rc != item.expected_rc:
        return [f"exit code {rc}, expected {item.expected_rc}"]
    if facts is None:
        return ["no report.csv written"]
    faults = []
    if facts.blow_up_step != item.expected_blowup:
        faults.append(f"blow-up step {facts.blow_up_step}, expected {item.expected_blowup}")
    if workload.name == "soliton_fig3":
        faults += _check_fig3(facts)
    elif workload.name == "decay_fig4b" and workload.size == "full":
        peaks = count_peaks(facts.final_values[0], FIG4B_PEAK_FRACTION * facts.final_values[0].max())
        if peaks < FIG4B_MIN_PEAKS:
            faults.append(f"mode 1 has {peaks} peaks at t_end, expected >= {FIG4B_MIN_PEAKS}")
    if workload.name != "sweep_cli" and facts.outcome != "completed":
        faults.append(f"outcome {facts.outcome}, expected completed")
    return faults


def _check_fig3(facts: Facts) -> list[str]:
    faults = []
    worst = float(facts.trace["max_pct_err_1"].max())
    if not worst <= FIG3_MAX_PCT_ERR:
        faults.append(f"mode-1 percent error {worst:.4g}% > {FIG3_MAX_PCT_ERR}%")
    drift = relative_drift(facts.trace["mass_1"])
    if not drift <= FIG3_MASS1_DRIFT:
        faults.append(f"mode-1 mass drift {drift:.3g} > {FIG3_MASS1_DRIFT}")
    # the m=1 crest travels right at speed m^2/2
    config = runner.get_preset("fig3").config
    t_end = float(facts.trace["t"][-1])
    crest = float(facts.final_x[int(np.argmax(facts.final_values[0]))])
    target = 0.5 * config.m**2 * t_end
    if abs(crest - target) > config.h + 1e-12:
        faults.append(f"crest at x={crest:.4f}, expected {target:.4f} +- {config.h}")
    return faults


def combined_digest(digests: list[str]) -> str:
    """One SHA-256 over the per-run digests, in run order."""
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()
