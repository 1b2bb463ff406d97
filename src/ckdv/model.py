"""System definitions for N-mode coupled Korteweg-de Vries equations.

A system of N interacting wave modes theta_n(x, t) is

    (theta_n)_t + c_n (theta_n)_x
        + sum over terms g * theta_k * (theta_m)_x
        + d_n (theta_n)_xxx = 0,

with linear speeds c_n, dispersion constants d_n, and a sparse set of
nonlinear coupling coefficients. Mode indices n, k, m are 1-based
everywhere in the public records (matching the usual subscript notation);
array storage inside the solver is 0-based.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, require_positive


def _is_index(value) -> bool:
    # a count or mode index: any integer type, but not a bool
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class NonlinearTerm:
    """One coupling term of mode ``n``'s equation: ``coef * theta_k * (theta_m)_x``.

    ``n`` is the equation the term belongs to, ``k`` the undifferentiated
    factor, ``m`` the differentiated factor. Indices are 1-based.
    """

    n: int
    k: int
    m: int
    coef: float


@dataclass(frozen=True)
class SystemSpec:
    """Coefficients defining an N-mode coupled KdV system.

    Immutable after construction; safe to share across concurrent runs.
    Valid by construction: a malformed system raises :class:`ConfigError`.
    """

    n_modes: int
    linear_speeds: tuple[float, ...]
    dispersions: tuple[float, ...]
    nonlinear_terms: tuple[NonlinearTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "linear_speeds", tuple(float(c) for c in self.linear_speeds))
        object.__setattr__(self, "dispersions", tuple(float(d) for d in self.dispersions))
        object.__setattr__(self, "nonlinear_terms", tuple(self.nonlinear_terms))
        n = self.n_modes
        if not _is_index(n):
            raise ConfigError(f"n_modes must be an integer, got {n!r}", field="n_modes")
        if n < 1:
            raise ConfigError(f"n_modes must be >= 1, got {n}", field="n_modes")
        for field, what, values in (
            ("linear_speeds", "linear speeds", self.linear_speeds),
            ("dispersions", "dispersion constants", self.dispersions),
        ):
            if len(values) != n:
                raise ConfigError(f"expected {n} {what}, got {len(values)}", field=field)
            if not all(map(math.isfinite, values)):
                raise ConfigError(f"{what} must be finite, got {values}", field=field)
        seen: set[tuple[int, int, int]] = set()
        for term in self.nonlinear_terms:
            triple = (term.n, term.k, term.m)
            name = f"term ({term.n},{term.k},{term.m})"
            for label, idx in zip("nkm", triple):
                if not _is_index(idx):
                    msg = f"{name} has {label}={idx!r}, not an integer"
                    raise ConfigError(msg, field="nonlinear_terms")
                if not 1 <= idx <= n:
                    msg = f"index out of range: {name} has {label}={idx} outside [1, {n}]"
                    raise ConfigError(msg, field="nonlinear_terms")
            if not math.isfinite(term.coef):
                msg = f"{name} coefficient must be finite, got {term.coef}"
                raise ConfigError(msg, field="nonlinear_terms")
            if triple in seen:
                msg = f"duplicate {name}; pre-sum repeated coefficients"
                raise ConfigError(msg, field="nonlinear_terms")
            seen.add(triple)


@dataclass(frozen=True)
class Grid:
    """Uniform periodic spatial lattice plus the time step.

    Nodes are ``x_min + i*h`` for ``i in [0, m_points)``; index arithmetic
    wraps modulo ``m_points``, so the right edge is identified with the
    left one.
    """

    x_min: float
    h: float
    m_points: int
    tau: float

    def __post_init__(self):
        require_positive("h", self.h)
        require_positive("tau", self.tau)
        try:
            divisor = 2.0 * self.h**3  # the third-difference stencil's divisor
        except OverflowError:  # float ** raises where * would give inf
            divisor = math.inf
        if not 2.0**-1022 <= divisor < math.inf:
            msg = f"h = {self.h:g} makes the stencil divisor 2h^3 = {divisor:g}, not a normal float"
            raise ConfigError(msg, field="h")
        if not _is_index(self.m_points):
            msg = f"m_points must be an integer, got {self.m_points!r}"
            raise ConfigError(msg, field="m_points")
        if self.m_points < 5:
            msg = f"the stencil needs m_points >= 5, got {self.m_points}"
            raise ConfigError(msg, field="m_points")
        if self.m_points > 2**24:  # a row is then 128 MiB; a 2-mode advance peaks at ~21 rows
            msg = f"m_points = {self.m_points} exceeds 2**24; coarsen h or narrow the domain"
            raise ConfigError(msg, field="m_points")

    @classmethod
    def spanning(cls, x_min: float, x_max: float, h: float, tau: float) -> Grid:
        """The grid of period [x_min, x_max), which must be a whole number of steps h
        (to a relative 1e-9): another span is rejected, not rounded to a new period."""
        require_positive("h", h)
        if not x_max > x_min:
            raise ConfigError("x_max must exceed x_min", field="x_max")
        if not math.isfinite(x_max - x_min):
            msg = f"the span from x_min = {x_min:g} to x_max = {x_max:g} overflows"
            raise ConfigError(msg, field="x_max")
        steps = (x_max - x_min) / h
        m_points = round(steps) if math.isfinite(steps) else 0
        if not abs(steps - m_points) <= 1e-9 * m_points:
            raise ConfigError(f"span {x_max - x_min:g} is not a multiple of h = {h:g}", field="h")
        return cls(x_min, h, m_points, tau)

    def nodes(self) -> np.ndarray:
        return self.x_min + self.h * np.arange(self.m_points)


@dataclass(frozen=True, eq=False)
class FieldSet:
    """Mode amplitudes on the grid at one time level.

    ``values`` has shape (N, M): one row per mode. The array is copied and
    frozen read-only on construction. Non-finite entries are representable
    (they signal blow-up) and are detected by the stepper, not here.
    """

    values: np.ndarray
    time: float

    def __post_init__(self):
        arr = np.array(self.values, dtype=float, copy=True)
        if arr.ndim != 2:
            raise ValueError("FieldSet values must be a 2-D (n_modes, m_points) array")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "time", float(self.time))

    @property
    def n_modes(self) -> int:
        return self.values.shape[0]


def make_hirota_satsuma() -> SystemSpec:
    """The integrable Hirota-Satsuma two-mode system.

        (theta_1)_t - 0.25 (theta_1)_xxx - 1.5 theta_1 (theta_1)_x
                    + 3 theta_2 (theta_2)_x = 0
        (theta_2)_t + 0.5 (theta_2)_xxx + 1.5 theta_1 (theta_2)_x = 0
    """
    return SystemSpec(
        n_modes=2,
        linear_speeds=(0.0, 0.0),
        dispersions=(-0.25, 0.5),
        nonlinear_terms=(
            NonlinearTerm(n=1, k=1, m=1, coef=-1.5),
            NonlinearTerm(n=1, k=2, m=2, coef=3.0),
            NonlinearTerm(n=2, k=1, m=2, coef=1.5),
        ),
    )


def make_perturbed_hs(d1_new: float) -> SystemSpec:
    """Hirota-Satsuma with the first dispersion constant replaced by ``d1_new``.

    Any value other than -0.25 breaks integrability; nearby values give a
    slightly nonintegrable system that still evolves soliton-like states.
    """
    hs = make_hirota_satsuma()
    return dataclasses.replace(hs, dispersions=(float(d1_new), hs.dispersions[1]))


def make_hs_first_kdv() -> SystemSpec:
    """The isolated first Hirota-Satsuma equation as a single-mode KdV: mode 1
    of :func:`make_hirota_satsuma` without its coupling to mode 2.

        theta_t - 0.25 theta_xxx - 1.5 theta theta_x = 0
    """
    hs = make_hirota_satsuma()
    terms = tuple(t for t in hs.nonlinear_terms if t.n == t.k == t.m == 1)
    return SystemSpec(1, hs.linear_speeds[:1], hs.dispersions[:1], terms)


def effective_dispersion(spec: SystemSpec, h: float) -> np.ndarray:
    """Grid-corrected dispersion constants ``e_n = d_n - c_n h^2 / 6``.

    The correction cancels the leading truncation error of the centered
    first-derivative stencil, making the advective part fourth-order
    accurate.
    """
    require_positive("h", h)
    c = np.asarray(spec.linear_speeds, dtype=float)
    d = np.asarray(spec.dispersions, dtype=float)
    return d - c * h * h / 6.0
