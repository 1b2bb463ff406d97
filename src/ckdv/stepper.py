"""Two-step, three-time-level explicit scheme for coupled KdV systems.

One time step advances a layer j to j+1 through an intermediate layer at
j+1/2. With D1 and D3 the centered first/third difference stencils and
e_n the grid-corrected dispersion constants,

    theta^(j+1/2) = theta^j - (tau/2) * R(theta^j)
    theta^(j+1)   = theta^j -  tau    * R(theta^(j+1/2))

where for each mode n

    R_n(u) = c_n D1(u_n) + sum_terms g * u_k * D1(u_m) + e_n D3(u_n).

``advance`` is the one way to run the scheme. Its kernel keeps two layers,
each a buffer with two periodic ghost cells per side. Once per call it
builds each stage as a program of ufunc calls on fixed buffers, with one
divide for D1 and D3 and one multiply for e*D3 and every term's
coefficient; the full stage overwrites layer j in place, in a fixed
operation order that keeps runs bit-for-bit reproducible (see
``_Kernel``). Per step it copies nothing for the observer and clears most
steps' blow-up checks by one sum of squares over both layers.

The scheme is conditionally stable: tau must shrink faster than h. The
step-size advisor offers the strict sixth-power bound
tau = safety * h^6 / (9 e_max^2 t_end) and the practical dispersive limit
tau = safety * h^3 / (3 e_max); the latter is what makes desk-scale runs
tractable. It is no stability bound: each step grows the fastest grid mode
(R eigenvalue i*omega) by sqrt(1 + (tau*omega)^4 / 4) > 1 at every tau, about
e^13 over fig3's 48,000 steps, so it holds for the presets but not under refinement.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import BlowUpError, ConfigError, require_positive
from .model import FieldSet, Grid, SystemSpec, effective_dispersion

RULE_PAPER_STRICT = "paper_strict"
RULE_DISPERSIVE_CFL = "dispersive_cfl"
RULE_MANUAL = "manual"
RULES = (RULE_PAPER_STRICT, RULE_DISPERSIVE_CFL, RULE_MANUAL)
DEFAULT_SAFETY = 0.25

# A layer has blown up when its max-norm exceeds this factor times the
# max-norm of the state the stepping call started from (or contains
# non-finite entries).
BLOWUP_FACTOR = 1.0e6

Observer = Callable[[int, float, np.ndarray], None]


@dataclass(frozen=True)
class StepPlan:
    """A chosen time step and the run length it must reach."""

    tau: float
    t_end: float

    def __post_init__(self):
        require_positive("t_end", self.t_end)
        require_positive("tau", self.tau)

    def fit_to_end(self) -> tuple[StepPlan, int]:
        """Fewest steps reaching ``t_end``, and this plan with tau shrunk to ``t_end / n_steps``."""
        ratio = self.t_end / self.tau  # past 2**53 floats are spaced wider than one step
        if not ratio <= 2**53:
            raise ConfigError(f"t_end / tau = {ratio:g} exceeds 2**53 steps", field="tau")
        n_steps = max(1, math.ceil(ratio - 1e-12))
        return replace(self, tau=self.t_end / n_steps), n_steps


def _aligned(size: int) -> np.ndarray:
    """``size`` floats of +0.0 whose ``[2]``, where a layer's first node goes,
    sits on a 64-byte boundary whatever malloc returned, so a buffer's speed
    does not depend on earlier allocations."""
    raw = np.zeros(size + 8)
    skip = (-(raw.ctypes.data + 16) % 64) // 8
    return raw[skip:skip + size]


class _Layer:
    """N modes in a flat buffer of N padded rows: a time layer or a kernel scratch buffer.

    Row n holds two ghost cells, the M nodes, then two more ghost cells;
    the ghosts repeat the periodic neighbours, so across the whole buffer
    the +-1 and +-2 stencil shifts are contiguous slices. At ghost and row
    seam positions those slices mix rows; results there are overwritten.
    A new layer is all +0.0, so what a scratch layer never writes stays +0.
    Its first node, ``flat[2]``, sits on a 64-byte boundary (``_aligned``),
    unless ``flat`` is given: then the layer is a view of it.
    """

    def __init__(self, n_modes: int, m_points: int, flat: np.ndarray | None = None):
        w = m_points + 4
        self.flat = _aligned(n_modes * w) if flat is None else flat
        padded = self.flat.reshape(n_modes, w)
        self.values = padded[:, 2:-2]
        self.view = self.values.view()  # what the observer sees
        self.view.flags.writeable = False
        self.rows = list(self.values)
        self.core = self.flat[2:-2]
        self.up1, self.dn1 = self.flat[3:-1], self.flat[1:-3]
        self.up2, self.dn2 = self.flat[4:], self.flat[:-4]
        # flat indices of each row's ghosts and of the nodes they repeat
        starts = np.arange(n_modes)[:, None] * w
        self._ghost_idx = (starts + [0, 1, w - 2, w - 1]).ravel()
        self._source_idx = (starts + [m_points, m_points + 1, 2, 3]).ravel()

    def wrap(self) -> None:
        """Refresh the ghost cells from the nodes."""
        self.flat[self._ghost_idx] = self.flat[self._source_idx]


class _Kernel:
    """The scheme's right-hand side R, applied in place on padded layers,
    and the one blow-up check.

    Holds the two layers (current, intermediate) in one allocation, so one
    screen reads both, and every scratch buffer, so the stage programs and
    the check allocate nothing (past the screen, the check takes the pair's
    max-norm as max(max, -min)). ``program`` binds a stage's calls to these
    buffers once. Scratch buffers are used over flat ranges of whole padded
    rows, so an operation is one contiguous ufunc over the rows it covers;
    constant rows are written whole, ghosts included, so only time layers
    need ``wrap``. Scalar operands are prebuilt 0-d arrays and outputs are
    passed positionally: NumPy converts a Python float, and parses an
    ``out=`` keyword, on every call.

    One scratch buffer holds D1 | D3 | the term slots. Each term with a
    nonzero coefficient gets a slot: the couplings u_k*D1_m in spec order,
    then the advection terms D1_n (times 1). A term's round is its index
    among its own row's terms. Round 0 has N rows; round r > 0 has the rows
    up to the last one with more than r terms. A slot no term fills stays
    +0. D1 and D3 share one divide by a buffer that holds 2h in the D1 rows
    and 2h^3 in the D3 rows, and D3 and the slots share one multiply by a
    buffer that holds e in the D3 rows and each slot's coefficient in its
    row (0 in a slot no term fills).

    The operation order is fixed, and changing it changes the output bits:
    D1 = (u+1 - u-1) / 2h, D3 = ((u+2 - 2u+1) + 2u-1 - u-2) / 2h^3, each
    term's g*(u_k*D1_m) or c_n*(D1_n*1), and e*D3; then acc = 0 + round 0
    and acc + round r for each later round, so each row sums its terms in
    spec order onto a zero (the zero fixes the sign of zero results); then
    R = acc + e*D3. Terms with a zero coefficient are left out. This equals
    (c*D1 + acc) + e*D3 summed over every term bit for bit: x*y == y*x,
    addition commutes, an accumulator that starts at +0 is never -0, and so
    adding a zero term, of either sign, or an empty slot's +0*0 leaves it
    unchanged. The exception is a zero coefficient on a D1 or u_k*D1_m that
    overflows, where 0*inf made a NaN and so a blow-up: that needs layer
    values near 1e307*h or 1e154, inside the blow-up limit only for start
    states within a factor 1e6 of them.
    """

    def __init__(self, spec: SystemSpec, grid: Grid, start: np.ndarray):
        n, m = spec.n_modes, grid.m_points
        w = m + 4
        if start.shape != (n, m):
            raise ValueError(f"state has shape {start.shape}, the run needs {(n, m)}")
        # the gap puts the second layer's first node on a 64-byte boundary too
        gap = -n * w % 8
        self.pair = _aligned(2 * n * w + gap)
        self.layers = (_Layer(n, m, self.pair[:n * w]), _Layer(n, m, self.pair[n * w + gap:]))
        self.two, self.one, self.zero = np.array(2.0), np.array(1.0), np.array(0.0)
        # (k, D1_m row, coef, row added to) per nonzero term: the couplings
        # in spec order, then the advection terms (k is None)
        terms = [(t.k - 1, t.m - 1, t.coef, t.n - 1) for t in spec.nonlinear_terms]
        terms += [(None, i, c, i) for i, c in enumerate(spec.linear_speeds)]
        terms = [t for t in terms if t[2] != 0.0]
        made, rounds = [0] * n, []  # terms per row so far, and each term's round
        for *_, row in terms:
            rounds.append(made[row])
            made[row] += 1
        spans = [n] + [1 + max(i for i in range(n) if made[i] > r) for r in range(1, max(made))]
        firsts = list(itertools.accumulate(spans, initial=2 * n))  # each round's first row
        scratch = _Layer(firsts[-1], m)
        coefs = np.zeros(firsts[-1] - n)  # the multiplier's rows: D3's, then the slots'
        coefs[:n] = effective_dispersion(spec, grid.h)
        self.products = []  # (k, D1_m row, slot) per nonzero term
        for (k, mm, coef, row), r in zip(terms, rounds):
            coefs[firsts[r] + row - n] = coef
            self.products.append((k, scratch.rows[mm], scratch.rows[firsts[r] + row]))
        mult, divisor = _aligned(coefs.size * w), _aligned(2 * n * w)
        mult[:] = np.repeat(coefs, w)
        divisor[:] = np.repeat([2.0 * grid.h, 2.0 * grid.h**3], n * w)
        self.derivs, self.divisor = scratch.flat[2:2 * n * w - 2], divisor[2:-2]
        self.d1, self.d3 = scratch.flat[2:n * w - 2], scratch.flat[n * w + 2:2 * n * w - 2]
        self.scaled, self.mult = scratch.flat[n * w + 2:-2], mult[2:-2]  # D3 | slots, and e | coefs
        acc, twice = _Layer(n, m), _Layer(n, m)
        self.acc = acc.core
        # (acc over the round's rows, the round's slots), round 0 first
        self.rounds = [
            (acc.flat[2:s * w - 2], scratch.flat[a * w + 2:(a + s) * w - 2])
            for a, s in zip(firsts, spans)
        ]
        self.twice, self.twice_up1, self.twice_dn1 = twice.flat, twice.up1, twice.dn1
        # the first layer holds the starting state, whose max-norm sets the blow-up limit
        self.layers[0].values[...] = start
        self.layers[0].wrap()
        initial_max = float(np.max(np.abs(start)))
        if not math.isfinite(initial_max):
            raise ValueError("the starting state is not finite")
        self.limit = BLOWUP_FACTOR * initial_max if initial_max > 0 else math.inf
        # A computed sum of squares s <= limit^2 / 4 proves max < limit: the
        # exact sum S of k squares is at least max^2, and in any order
        # s >= S (1 - k eps) - k 2^-1074 (underflow), so S < limit^2 for
        # k < 2^40 and a normal limit^2 / 4. Where that fails there is no screen.
        screen = self.limit * self.limit / 4.0
        self.screen = screen if 2.0**-1022 <= screen < math.inf else None

    def check(self, step: int, time: float) -> None:
        """Raise :class:`BlowUpError` if either layer is non-finite or above the limit."""
        # the gap holds +0 and ghosts repeat nodes, so the pair's max-norm is
        # the larger layer's; a NaN sum, max or min fails its comparison, as
        # non-finite layers must. vdot, unlike dot, does not warn on overflow
        pair = self.pair
        if self.screen is not None and np.vdot(pair, pair) <= self.screen:
            return
        amax = max(float(pair.max()), -float(pair.min()))
        if not (amax <= self.limit) or not math.isfinite(amax):
            raise BlowUpError(f"blow-up at step {step} (t ~ {time:.6g})", step=step, time=time)

    def program(self, base: _Layer, arg: _Layer, dt: np.ndarray, out: _Layer) -> tuple:
        """The calls ``(f, a, b, o)``, each run as ``f(a, b, o)``, that set ``out``'s
        nodes to ``base - dt * R(arg)``, ``dt`` 0-d; ``out.wrap()`` sets its ghosts.
        ``out`` may be ``base``: all of R is built before ``base`` is read."""
        mul, add, sub = np.multiply, np.add, np.subtract
        d1, d3, rows = self.d1, self.d3, arg.rows
        ops = [
            (mul, arg.flat, self.two, self.twice),
            (sub, arg.up1, arg.dn1, d1),
            (sub, arg.up2, self.twice_up1, d3),
            (add, d3, self.twice_dn1, d3),
            (sub, d3, arg.dn2, d3),
            (np.divide, self.derivs, self.divisor, self.derivs),
        ]
        for k, d1_row, slot in self.products:
            ops.append((mul, d1_row, self.one, slot) if k is None else (mul, rows[k], d1_row, slot))
        # e*D3 and every g*term in one call, then the rounds summed onto zeros
        ops.append((mul, self.scaled, self.mult, self.scaled))
        (acc0, slots0), *later = self.rounds
        ops.append((add, self.zero, slots0, acc0))
        ops += [(add, part, slots, part) for part, slots in later]
        # R = acc + e*D3, built in d3
        ops += [(add, self.acc, d3, d3), (mul, d3, dt, d3)]
        ops.append((sub, base.core, d3, out.core))
        return tuple(ops)


@np.errstate(over="ignore", invalid="ignore")
def advance(
    state: FieldSet,
    spec: SystemSpec,
    grid: Grid,
    n_steps: int,
    observer: Observer | None = None,
) -> FieldSet:
    """Run ``n_steps`` full steps from ``state``; return the final layer.

    ``observer(step, time, values)`` is called after each completed step
    with the 1-based step index, its time and the layer: a read-only view,
    valid only during the call (``FieldSet(values, time)`` keeps a copy).
    A step fails if either of its layers, the intermediate or the completed
    one, is non-finite or has a max-norm above 1e6 times that of ``state``:
    it raises :class:`BlowUpError` with the same step index and time
    whichever layer broke the rule. One sum-of-squares screen of both layers
    clears most steps without the max-norm.
    numpy's overflow and invalid warnings are off (observer included): the check reports them.
    A ``state`` of the wrong shape or with non-finite entries is a :class:`ValueError`.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    kern = _Kernel(spec, grid, state.values)
    cur, half = kern.layers
    tau = grid.tau
    half_dt, dt = np.array(0.5 * tau), np.array(tau)
    half_ops = kern.program(cur, cur, half_dt, half)
    full_ops = kern.program(cur, half, dt, cur)
    t0 = state.time
    for j in range(1, n_steps + 1):
        t = t0 + j * tau
        for f, a, b, o in half_ops:
            f(a, b, o)
        half.wrap()
        for f, a, b, o in full_ops:
            f(a, b, o)
        cur.wrap()
        kern.check(j, t)
        if observer is not None:
            observer(j, t, cur.view)
    return FieldSet(cur.values, t0 + n_steps * tau)


def advise_tau(
    spec: SystemSpec,
    h: float,
    t_end: float,
    rule: str = RULE_DISPERSIVE_CFL,
    safety: float = DEFAULT_SAFETY,
    tau: float | None = None,
) -> StepPlan:
    """Pick a time step for the given grid spacing and run length.

    ``paper_strict`` solves the conservative bound
    ``tau * (3 e_max / h^3)^2 * t_end = safety``; ``dispersive_cfl`` is
    ``tau = safety * h^3 / (3 e_max)``, stable only for bounded step counts
    (module docstring); ``manual`` passes ``tau`` through.
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
        return StepPlan(tau=float(tau), t_end=t_end)
    with np.errstate(over="ignore"):  # the tau check below owns an overflow
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
    return StepPlan(tau=chosen, t_end=t_end)
