"""Closed-form Hirota-Satsuma solutions and the kinds of initial data.

The two-parameter one-soliton solution of the Hirota-Satsuma system is

    theta_1 = -2 m^2 (-1 + d^2 + 2 d sin(l1) sinh(l2)) / (d cos(l1) + cosh(l2))^2
    theta_2 = sqrt(2 + 2 d^2) m^2 / (d cos(l1) + cosh(l2))
    l1 = 0.5 m^3 t + m x,   l2 = 0.5 m^3 t - m x

with real parameters m != 0 and |d| < 1 (for |d| > 1 the denominator can
vanish and poles appear; that regime is rejected). For d = 0 the first
mode reduces to the familiar 2 m^2 sech^2(0.5 m^3 t - m x), a crest moving
right at speed m^2 / 2.

Each kind of initial data has a nominal spatial scale ``width`` and a
``sample(x)`` that returns its two stacked modes at t = 0, shape ``(2, M)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, require_positive
from .model import FieldSet, Grid


@dataclass(frozen=True)
class SolitonParams:
    """Scale parameter m and shape parameter d of the one-soliton solution."""

    m: float
    d: float

    def __post_init__(self):
        # the amplitude scales as m^2 and the speed as m^3: neither may
        # underflow to 0 or overflow
        if self.m * self.m == 0 or not math.isfinite(self.m * self.m * self.m):
            raise ConfigError(
                f"soliton parameter m = {self.m:g} must be nonzero with m^2 > 0 and m^3 finite",
                field="m",
            )
        if not abs(self.d) < 1:  # unlike abs(d) >= 1, also true for d = nan
            raise ConfigError("|d| must be < 1 (pole regime rejected)", field="d")

    @property
    def width(self) -> float:
        return 1.0 / abs(self.m)

    def sample(self, x: np.ndarray) -> np.ndarray:
        return hs_soliton(x, 0.0, self)


@dataclass(frozen=True)
class StretchedSoliton:
    """Decay-run initial data: ``amp_scale * theta(x / width_scale, 0)`` on both modes."""

    soliton: SolitonParams
    width_scale: float
    amp_scale: float

    def __post_init__(self):
        require_positive("width_scale", self.width_scale)
        require_positive("amp_scale", self.amp_scale)

    @property
    def width(self) -> float:
        return self.width_scale / abs(self.soliton.m)

    def sample(self, x: np.ndarray) -> np.ndarray:
        return self.amp_scale * self.soliton.sample(x / self.width_scale)


@dataclass(frozen=True)
class TrianglePulse:
    """Symmetric triangle A * max(0, 1 - |x - center| / half_width) on both modes."""

    amplitude: float
    half_width: float
    center: float = 0.0

    def __post_init__(self):
        for name in ("amplitude", "center"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"triangle {name} must be finite, got {value}", field=name)
        if self.amplitude == 0:
            raise ConfigError("triangle amplitude must be nonzero", field="amplitude")
        require_positive("half_width", self.half_width)

    @property
    def width(self) -> float:
        return self.half_width

    def sample(self, x: np.ndarray) -> np.ndarray:
        profile = self.amplitude * np.maximum(0.0, 1.0 - np.abs(x - self.center) / self.half_width)
        return np.stack([profile, profile])


def _sech(x):
    # 2 e^{-|x|} / (1 + e^{-2|x|}): never overflows, underflows cleanly to 0
    ax = np.abs(x)
    ex = np.exp(-ax)
    return 2.0 * ex / (1.0 + ex * ex)


def hs_soliton(x, t, p: SolitonParams):
    """Evaluate the one-soliton solution at (x, t); returns the stacked modes
    ``[theta_1, theta_2]``, of shape ``(2,) + broadcast(x, t).shape``.

    Accepts scalars or numpy arrays for ``x`` and ``t``. Evaluated in a
    sech-scaled form that stays finite for arbitrarily large |x| and |t|.
    """
    m, d = p.m, p.d
    x = np.asarray(x, dtype=float)
    lam1 = 0.5 * m**3 * t + m * x
    lam2 = 0.5 * m**3 * t - m * x
    s = _sech(lam2)
    # original denominator divided by cosh(lam2)
    den = 1.0 + d * np.cos(lam1) * s
    th1 = -2.0 * m**2 * ((-1.0 + d * d) * s * s + 2.0 * d * np.sin(lam1) * np.tanh(lam2) * s) / (
        den * den
    )
    del lam1, lam2  # freed first, so the stacked copy stays under the peak of th1
    th2 = np.sqrt(2.0 + 2.0 * d * d) * m**2 * s / den
    return np.stack([th1, th2])


def soliton_evaluator(p: SolitonParams, x: np.ndarray) -> Callable[[float], np.ndarray]:
    """Closure evaluating the exact solution on fixed nodes: t -> (2, M) array."""
    x = np.asarray(x, dtype=float)

    def evaluate(t: float) -> np.ndarray:
        return hs_soliton(x, t, p)

    return evaluate


def sample_initial(ic: SolitonParams | StretchedSoliton | TrianglePulse, grid: Grid) -> FieldSet:
    """Sample initial data of any kind on the grid nodes at t = 0."""
    return FieldSet(ic.sample(grid.nodes()), 0.0)
