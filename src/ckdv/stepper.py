"""Two-step, three-time-level explicit scheme for coupled KdV systems.

One time step advances a layer j to j+1 through an intermediate layer at
j+1/2. With D1 and D3 the centered first/third difference stencils and
e_n the grid-corrected dispersion constants,

    theta^(j+1/2) = theta^j - (tau/2) * R(theta^j)
    theta^(j+1)   = theta^j -  tau    * R(theta^(j+1/2))

where for each mode n

    R_n(u) = c_n D1(u_n) + sum_terms g * u_k * D1(u_m) + e_n D3(u_n).

``advance``, ``half_step`` and ``full_step`` share one kernel: each layer
sits in a buffer with two periodic ghost cells per side, and each stage
writes the next layer in place, in a fixed operation order that keeps runs
bit-for-bit reproducible. ``single_mode_step`` is an independent N=1
transcription of the scheme, kept as a test oracle.

The scheme is conditionally stable: tau must shrink faster than h. The
step-size advisor offers the strict sixth-power bound
tau = safety * h^6 / (9 e_max^2 t_end) and the practical dispersive limit
tau = safety * h^3 / (3 e_max); the latter is what makes desk-scale runs
tractable and is validated empirically by the stability tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import BlowUpError, ConfigError, require_positive
from .model import FieldSet, Grid, NonlinearTerm, SystemSpec, effective_dispersion

RULE_PAPER_STRICT = "paper_strict"
RULE_DISPERSIVE_CFL = "dispersive_cfl"
RULE_MANUAL = "manual"
RULES = (RULE_PAPER_STRICT, RULE_DISPERSIVE_CFL, RULE_MANUAL)

# A layer has blown up when its max-norm exceeds this factor times the
# max-norm of the state the stepping call started from (or contains
# non-finite entries).
BLOWUP_FACTOR = 1.0e6

Observer = Callable[[int, FieldSet], None]


@dataclass(frozen=True)
class StepPlan:
    """A chosen time step and the rule that produced it."""

    tau: float
    rule: str
    safety: float
    t_end: float

    def __post_init__(self):
        require_positive("safety", self.safety)
        require_positive("t_end", self.t_end)
        require_positive("tau", self.tau)

    def fit_to_end(self) -> tuple[StepPlan, int]:
        """Fewest steps reaching ``t_end``, and this plan with tau shrunk to ``t_end / n_steps``."""
        if not math.isfinite(self.t_end / self.tau):
            raise ConfigError(f"t_end / tau = {self.t_end / self.tau} is not finite", field="tau")
        n_steps = max(1, math.ceil(self.t_end / self.tau - 1e-12))
        return replace(self, tau=self.t_end / n_steps), n_steps


class _Layer:
    """One time layer of N modes in a flat buffer of N padded rows.

    Row n holds two ghost cells, the M nodes, then two more ghost cells;
    the ghosts repeat the periodic neighbours, so across the whole buffer
    the +-1 and +-2 stencil shifts are contiguous slices. At ghost and row
    seam positions those slices mix rows; results there are overwritten.
    """

    def __init__(self, n_modes: int, m_points: int):
        w = m_points + 4
        self.flat = np.empty(n_modes * w)
        padded = self.flat.reshape(n_modes, w)
        self.values = padded[:, 2:-2]
        self.rows = list(self.values)
        self.core = self.flat[2:-2]
        self.up1, self.dn1 = self.flat[3:-1], self.flat[1:-3]
        self.up2, self.dn2 = self.flat[4:], self.flat[:-4]
        self._ghosts = (
            (padded[:, :2], padded[:, m_points : m_points + 2]),
            (padded[:, -2:], padded[:, 2:4]),
        )

    def wrap(self) -> None:
        """Refresh the ghost cells from the nodes."""
        for ghost, source in self._ghosts:
            np.copyto(ghost, source)


class _Kernel:
    """The scheme's right-hand side R, applied in place on padded layers,
    and the one blow-up check.

    Holds three layers (current, intermediate, next) and every scratch
    array, so ``stage`` and ``check`` allocate nothing. The scratch arrays
    span the layers' flat ``core`` range, so each operation is one
    contiguous ufunc over all modes; per-mode speeds and dispersions repeat
    along their rows.

    The operation order is fixed, and changing it changes the output bits:
    D1 = (u+1 - u-1) / 2h, D3 = ((u+2 - 2u+1) + 2u-1 - u-2) / 2h^3, the
    terms summed in spec order onto a zeroed accumulator (the zero fixes
    the sign of zero results), then R = c*D1 + acc + e*D3.
    """

    def __init__(self, spec: SystemSpec, grid: Grid, start: np.ndarray):
        n, m = spec.n_modes, grid.m_points
        self.shape = (n, m)
        self.layers = tuple(_Layer(n, m) for _ in range(3))
        self.two_h = 2.0 * grid.h
        self.two_h3 = 2.0 * grid.h**3
        w = m + 4
        self.speeds = np.repeat(np.asarray(spec.linear_speeds, dtype=float), w)[2:-2]
        self.e = np.repeat(effective_dispersion(spec, grid.h), w)[2:-2]
        # 0-based (n, k, m, coef) term list in spec order
        self.terms = [(t.n - 1, t.k - 1, t.m - 1, float(t.coef)) for t in spec.nonlinear_terms]
        self.twice = np.empty(n * w)
        self.twice_up1, self.twice_dn1 = self.twice[3:-1], self.twice[1:-3]
        size = self.twice_up1.size
        self.d1, self.d3, self.acc = np.empty(size), np.empty(size), np.empty(size)
        # row i's nodes sit at core offsets i*w .. i*w + m - 1
        self.d1_rows = [self.d1[i * w : i * w + m] for i in range(n)]
        self.acc_rows = [self.acc[i * w : i * w + m] for i in range(n)]
        self.term = np.empty(m)
        self.magnitude = np.empty(n * w)
        # the first layer holds the starting state, whose max-norm sets the blow-up limit
        self.load(self.layers[0], start)
        initial_max = float(np.max(np.abs(start)))
        self.limit = BLOWUP_FACTOR * initial_max if initial_max > 0 else np.inf

    def load(self, layer: _Layer, values: np.ndarray) -> None:
        if values.shape != self.shape:
            raise ValueError(f"state has shape {values.shape}, the run needs {self.shape}")
        layer.values[...] = values
        layer.wrap()

    def check(self, layer: _Layer, step: int | None, time: float) -> None:
        """Raise :class:`BlowUpError` if ``layer`` is non-finite or above the limit."""
        # ghost cells repeat nodes, so the padded max-norm is the nodes';
        # a NaN max-norm fails the comparison, so this catches non-finite layers
        amax = float(np.abs(layer.flat, out=self.magnitude).max())
        if not (amax <= self.limit) or not np.isfinite(amax):
            where = "" if step is None else f" at step {step}"
            raise BlowUpError(f"blow-up{where} (t ~ {time:.6g})", step=step, time=time)

    def stage(self, base: _Layer, arg: _Layer, dt: float, out: _Layer) -> None:
        """Set ``out`` to ``base - dt * R(arg)``, ghost cells included."""
        np.multiply(arg.flat, 2.0, out=self.twice)
        d1 = np.subtract(arg.up1, arg.dn1, out=self.d1)
        d1 /= self.two_h
        d3 = np.subtract(arg.up2, self.twice_up1, out=self.d3)
        d3 += self.twice_dn1
        d3 -= arg.dn2
        d3 /= self.two_h3
        self.acc.fill(0.0)
        term = self.term
        for n, k, mm, coef in self.terms:
            np.multiply(arg.rows[k], self.d1_rows[mm], out=term)
            term *= coef
            self.acc_rows[n] += term
        # R = c*D1 + acc + e*D3, built in d1 once the terms are done with it
        rhs = np.multiply(self.speeds, d1, out=d1)
        rhs += self.acc
        rhs += np.multiply(self.e, d3, out=d3)
        rhs *= dt
        np.subtract(base.core, rhs, out=out.core)
        out.wrap()


def half_step(state: FieldSet, spec: SystemSpec, grid: Grid) -> FieldSet:
    """Advance to the intermediate layer at t + tau/2."""
    kern = _Kernel(spec, grid, state.values)
    cur, half, _ = kern.layers
    kern.stage(cur, cur, 0.5 * grid.tau, half)
    kern.check(half, None, state.time)
    return FieldSet(half.values, state.time + 0.5 * grid.tau)


def full_step(state_j: FieldSet, state_half: FieldSet, spec: SystemSpec, grid: Grid) -> FieldSet:
    """Complete the step to t + tau from layer j and the intermediate layer."""
    expected = state_j.time + 0.5 * grid.tau
    if abs(state_half.time - expected) > 1e-9 * max(1.0, abs(expected)):
        raise ValueError(
            f"intermediate layer at t={state_half.time} does not sit tau/2 after t={state_j.time}"
        )
    kern = _Kernel(spec, grid, state_j.values)
    cur, half, nxt = kern.layers
    kern.load(half, state_half.values)
    kern.stage(cur, half, grid.tau, nxt)
    kern.check(nxt, None, state_j.time)
    return FieldSet(nxt.values, state_j.time + grid.tau)


def single_mode_step(field: np.ndarray, c: float, g: float, d: float, grid: Grid) -> np.ndarray:
    """Reference one-step update for a single KdV equation.

    Direct transcription of the scheme for one mode with one self-coupling
    term, kept textually independent of the general path so the two can be
    cross-checked; for an N=1 system both must agree bitwise.
    """
    spec1 = SystemSpec(1, (c,), (d,), (NonlinearTerm(1, 1, 1, g),))
    e = float(effective_dispersion(spec1, grid.h)[0])
    h = grid.h
    tau = grid.tau
    f = np.asarray(field, dtype=float)

    d1 = (np.roll(f, -1) - np.roll(f, 1)) / (2.0 * h)
    d3 = (np.roll(f, -2) - 2.0 * np.roll(f, -1) + 2.0 * np.roll(f, 1) - np.roll(f, 2)) / (
        2.0 * h**3
    )
    acc = np.zeros(f.size)
    acc = acc + g * (f * d1)
    half = f - (0.5 * tau) * (c * d1 + acc + e * d3)

    d1h = (np.roll(half, -1) - np.roll(half, 1)) / (2.0 * h)
    d3h = (
        np.roll(half, -2) - 2.0 * np.roll(half, -1) + 2.0 * np.roll(half, 1) - np.roll(half, 2)
    ) / (2.0 * h**3)
    acch = np.zeros(f.size)
    acch = acch + g * (half * d1h)
    return f - tau * (c * d1h + acch + e * d3h)


def advance(
    state: FieldSet,
    spec: SystemSpec,
    grid: Grid,
    n_steps: int,
    observer: Observer | None = None,
) -> FieldSet:
    """Run ``n_steps`` full steps from ``state``; return the final layer.

    ``observer(step, layer)`` is called after each completed step with the
    1-based step index. Raises :class:`BlowUpError` carrying the offending
    step index when a layer goes non-finite or its max-norm exceeds 1e6
    times the initial max-norm; ``half_step`` and ``full_step`` apply the
    same check to the layer they produce.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    kern = _Kernel(spec, grid, state.values)
    cur, half, nxt = kern.layers
    tau = grid.tau
    t0 = state.time
    for j in range(1, n_steps + 1):
        t = t0 + j * tau
        kern.stage(cur, cur, 0.5 * tau, half)
        kern.check(half, j, t)
        kern.stage(cur, half, tau, nxt)
        kern.check(nxt, j, t)
        cur, nxt = nxt, cur
        if observer is not None:
            observer(j, FieldSet(cur.values, t))
    return FieldSet(cur.values, t0 + n_steps * tau)


def advise_tau(
    spec: SystemSpec,
    h: float,
    t_end: float,
    rule: str = RULE_DISPERSIVE_CFL,
    safety: float = 0.25,
    tau: float | None = None,
) -> StepPlan:
    """Pick a stable time step for the given grid spacing and run length.

    ``paper_strict`` solves the conservative bound
    ``tau * (3 e_max / h^3)^2 * t_end = safety``; ``dispersive_cfl`` is the
    practical explicit-scheme limit ``tau = safety * h^3 / (3 e_max)``
    (default safety 0.25); ``manual`` passes the caller's ``tau`` through.
    Non-manual rules reject pure-advection systems (e_max = 0). A given
    ``tau``, like the one a rule computes, must be finite and positive.
    """
    require_positive("h", h)
    require_positive("t_end", t_end)
    require_positive("safety", safety)
    if tau is not None:
        require_positive("tau", tau)
    if rule not in RULES:
        raise ConfigError(f"unknown rule {rule!r}; expected one of {RULES}", field="rule")
    if rule == RULE_MANUAL:
        if tau is None:
            raise ConfigError("manual rule requires an explicit tau", field="tau")
        return StepPlan(tau=float(tau), rule=rule, safety=safety, t_end=t_end)
    e_max = float(np.max(np.abs(effective_dispersion(spec, h))))
    if e_max == 0.0:
        raise ConfigError("e_max is zero (pure advection); use the manual rule", field="rule")
    try:
        if rule == RULE_PAPER_STRICT:
            chosen = safety * h**6 / (9.0 * e_max**2 * t_end)
        else:
            chosen = safety * h**3 / (3.0 * e_max)
    except OverflowError:  # float ** raises where * would give inf
        chosen = math.nan
    if not 0.0 < chosen < math.inf:
        raise ConfigError(f"h = {h:g} gives no finite positive {rule} tau ({chosen:g})", field="h")
    return StepPlan(tau=chosen, rule=rule, safety=safety, t_end=t_end)
