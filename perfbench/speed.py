"""Machine-speed samples taken while a pass runs.

The machine the benchmark was defined on is a shared virtual machine whose
speed drifts by up to 60% over seconds to minutes, in CPU time as much as in
wall time. A pass's wall time alone therefore measures the machine's phase
as much as the program. While a pass runs, traced or not, a ``SIGALRM``
timer interrupts it every ``INTERVAL_S`` of wall time, between two Python
bytecodes of the main thread, and times one fixed reference sample:
``SAMPLE_STEPS`` two-stage explicit steps of a two-mode KdV-type system on a
2 x 800 grid, written here with ``np.roll`` and independent of ``ckdv``. It
is the same kind of work as the program's stepping (small-array numpy
calls), so the machine slows both alike.

A pass then yields:

* ``program_s``: its wall time minus the time spent in the samples;
* ``sample_hmean_s``: the harmonic mean of its sample times. The samples
  are spread evenly over the pass's wall time and the work done in a moment
  goes as one over its slowdown, so this is the pass's average speed;
* ``scale = REFERENCE_SAMPLE_S / sample_hmean_s`` and
  ``normalized_s = program_s * scale``: the pass's time at the machine
  speed at which one sample takes ``REFERENCE_SAMPLE_S``.

``REFERENCE_SAMPLE_S`` is a fixed unit, so ``normalized_s`` of two commits
compare directly. It is a round figure near the median sample time on the
defining machine, so ``normalized_s`` reads close to that machine's wall
time in a typical phase. A traced pass's span times are scaled the same
way, and each sample is taken out of the span it interrupted (tracing.py).
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.04
SAMPLE_STEPS = 8
REFERENCE_SAMPLE_S = 1.0e-3

_H = 0.05
_TAU = 1e-5
_X = np.linspace(-20.0, 20.0, 800, endpoint=False)
_U0 = np.vstack([2.0 / np.cosh(_X) ** 2, 1.0 / np.cosh(_X) ** 2])


def _rhs(v: np.ndarray) -> np.ndarray:
    up1, dn1 = np.roll(v, -1, axis=1), np.roll(v, 1, axis=1)
    d1 = (up1 - dn1) / (2.0 * _H)
    d3 = (np.roll(v, -2, axis=1) - 2.0 * up1 + 2.0 * dn1 - np.roll(v, 2, axis=1)) / (2.0 * _H**3)
    r = np.array([[-0.25], [0.5]]) * d3
    r[0] += 6.0 * v[0] * d1[0] - 3.0 * v[1] * d1[1]
    r[1] += -3.0 * v[0] * d1[1]
    return r


def reference_sample(steps: int = SAMPLE_STEPS) -> float:
    """``steps`` two-stage steps of a two-mode KdV-type system from a fixed
    start; returns a value of the result so the work cannot be skipped."""
    v = _U0
    for _ in range(steps):
        half = v - (0.5 * _TAU) * _rhs(v)
        v = v - _TAU * _rhs(half)
        if not float(np.max(np.abs(v))) < 1e6:
            raise FloatingPointError("reference sample blew up")
    return float(v[0, 0])


def sample_times(count: int) -> list[float]:
    """Wall times of ``count`` reference samples taken back to back."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        reference_sample()
        times.append(time.perf_counter() - start)
    return times


def hmean(times: list[float]) -> float:
    return len(times) / sum(1.0 / t for t in times)


class Sampler:
    """Context manager: while active, times one reference sample every
    ``INTERVAL_S`` of wall time on ``SIGALRM``."""

    def __init__(self):
        self.samples: list[float] = []
        self.intervals: list[tuple[float, float]] = []  # perf_counter start, end

    def _on_alarm(self, _signum, _frame) -> None:
        start = time.perf_counter()
        reference_sample()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.intervals.append((start, end))

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def summary(self, wall_s: float) -> dict:
        """The pass's figures, from its wall time and the samples taken in it.
        A pass shorter than one interval gets one sample taken after it."""
        program_s = wall_s - sum(self.samples)
        speed_s = hmean(self.samples or sample_times(1))
        return {
            "program_s": program_s,
            "sample_hmean_s": speed_s,
            "samples": len(self.samples),
            "scale": REFERENCE_SAMPLE_S / speed_s,
            "normalized_s": program_s * REFERENCE_SAMPLE_S / speed_s,
        }
