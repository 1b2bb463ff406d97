"""Measurements of given states: norms, conserved quantities, oracle errors, convergence orders.

All integral diagnostics use the rectangle rule sum(f_i) * h, the discrete
counterpart of the norms the scheme is built around. On a periodic lattice
this rule is spectrally accurate for smooth data, so quadrature error is
negligible next to scheme error at the grid sizes used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import require_positive
from .model import FieldSet

# evaluator protocol: t -> exact (n_modes, m_points) values on the grid nodes
OracleEvaluator = Callable[[float], np.ndarray]


def l2_norm(field_values: Sequence[float], h: float) -> float | np.ndarray:
    """Discrete L2 norm sqrt(sum(f_i^2) * h) of one mode, or of each row of an array."""
    f = np.asarray(field_values, dtype=float)
    return np.sqrt(np.sum(f * f, axis=-1) * h)


def hs_invariant(state: FieldSet, h: float) -> float:
    """The conserved functional Q = sum(0.5 theta_1^2 - theta_2^2) * h.

    Only defined for two-mode states.
    """
    if state.n_modes != 2:
        raise ValueError(f"hs_invariant needs a 2-mode state, got {state.n_modes}")
    th1, th2 = state.values
    return float(np.sum(0.5 * th1 * th1 - th2 * th2) * h)


def mode_mass(state: FieldSet, h: float) -> np.ndarray:
    """Per-mode discrete mass sum(theta_n_i) * h."""
    return np.sum(state.values, axis=1) * h


def percent_error(numeric: FieldSet, oracle_eval: OracleEvaluator, amplitude: float) -> np.ndarray:
    """Per-mode max of |exact - numeric| / amplitude * 100.

    The oracle is evaluated at the state's own time on the grid nodes;
    ``amplitude`` is the initial amplitude the error is related to.
    """
    require_positive("amplitude", amplitude)
    exact = oracle_eval(numeric.time)
    return np.max(np.abs(exact - numeric.values), axis=1) / amplitude * 100.0


def count_peaks(field_values: Sequence[float], threshold: float) -> int:
    """Count strict local maxima above ``threshold`` on the periodic lattice.

    A plateau (run of equal values) flanked by strictly lower values on
    both sides counts once, a plateau across the seam included.
    """
    f = np.asarray(field_values, dtype=float)
    runs = f[f != np.roll(f, 1)]  # each run of equal values once, in periodic order
    before, after = np.roll(runs, 1), np.roll(runs, -1)
    # NaN compares false, so the negated <= tests let a NaN through and the < test does not
    return int(np.count_nonzero(~(runs <= threshold) & ~(runs <= before) & (after < runs)))


@dataclass
class DiagnosticTrace:
    """Time series of run diagnostics, one record per sampled instant.

    ``columns`` maps each ``trace.csv`` header name, in file order, to its
    series: ``t``, then ``l2_<n>`` and ``mass_<n>`` for every mode, ``Q``
    for two-mode states and ``max_pct_err_<n>`` when an oracle is
    attached. All series share one length.
    """

    columns: dict[str, list[float]] = field(default_factory=dict)

    # a state near the float range records inf or nan, as the scheme's
    # blow-up check reports it: numpy's overflow and invalid warnings add nothing
    @np.errstate(over="ignore", invalid="ignore")
    def record(
        self,
        state: FieldSet,
        h: float,
        oracle_eval: OracleEvaluator | None = None,
        amplitude: float | None = None,
    ) -> None:
        n = state.n_modes
        l2 = l2_norm(state.values, h).tolist()
        masses = mode_mass(state, h).tolist()
        row = {"t": state.time}
        row.update((f"l2_{k + 1}", l2[k]) for k in range(n))
        row.update((f"mass_{k + 1}", masses[k]) for k in range(n))
        if n == 2:
            row["Q"] = hs_invariant(state, h)
        if oracle_eval is not None:
            errs = percent_error(state, oracle_eval, amplitude)
            row.update((f"max_pct_err_{k + 1}", float(errs[k])) for k in range(n))
        for name, value in row.items():
            self.columns.setdefault(name, []).append(value)


def level_h(h_coarsest: float, k: int) -> float:
    """Refinement level ``k``'s h: ``h_coarsest / 2**k`` correctly rounded, for any ``k``."""
    return math.ldexp(h_coarsest, -k)


@dataclass(frozen=True)
class ConvergenceReport:
    """Errors against the oracle across a sequence of halved grid spacings."""

    h_coarsest: float
    errors: tuple[float, ...]     # max-norm over all modes and nodes, one per level
    l2_errors: tuple[float, ...]  # vector L2 norm over all modes

    @property
    def h_values(self) -> tuple[float, ...]:
        return tuple(level_h(self.h_coarsest, k) for k in range(len(self.errors)))

    @property
    def observed_orders(self) -> tuple[float, ...]:
        """Empirical orders log2(E_k / E_{k+1}) from successive halvings."""
        return tuple(math.log2(a / b) for a, b in zip(self.errors, self.errors[1:]))
