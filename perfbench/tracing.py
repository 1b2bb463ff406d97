"""Spans around ckdv's public calls, installed from outside the package.

The wrappers replace the names the runner and the CLI look up at call time
(``ckdv.runner.advance`` and friends), so a traced pass runs the same code as
an untraced one plus a ``perf_counter`` pair per call. Spans live in memory
as ``[name, start, end, parent]`` rows and are written out when the
benchmark ends. ``_Kernel.rhs`` and the other private internals are not
wrapped.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import statistics
import time
from collections import Counter, defaultdict

import ckdv.cli
import ckdv.runner
from ckdv.diagnostics import DiagnosticTrace

ADVANCE = "stepper.advance"
OBSERVER = "runner.observer"
ORACLE = "analytic.oracle"

# (owner, attribute, span name): each public call as the runner and CLI see it
_WRAPPED = (
    (ckdv.runner, "sample_initial", "analytic.sample_initial"),
    (ckdv.runner, "validate_config", "runner.validate_config"),
    (ckdv.runner, "build_system", "runner.build_system"),
    (ckdv.cli, "load_config", "runner.load_config"),
    (ckdv.cli, "run_experiment", "runner.run_experiment"),
    (DiagnosticTrace, "record", "diagnostics.record"),
    (ckdv.cli, "main", "cli.main"),
)


class Tracer:
    """In-memory span log; ``spans[i]`` is ``[name, start, end, parent index]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()


def _timed(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)

    return wrapper


def _traced_advance(tracer: Tracer, fn):
    # the observer is wrapped too, so step time and snapshot time separate
    @functools.wraps(fn)
    def advance(state, spec, grid, n_steps, observer=None):
        timed_observer = None if observer is None else _timed(tracer, OBSERVER, observer)
        idx = tracer.begin(ADVANCE)
        try:
            return fn(state, spec, grid, n_steps, timed_observer)
        finally:
            tracer.end(idx)

    return advance


def _traced_soliton_evaluator(tracer: Tracer, fn):
    # times both building the evaluator and every evaluation it serves
    @functools.wraps(fn)
    def soliton_evaluator(params, x):
        idx = tracer.begin("analytic.soliton_evaluator")
        try:
            evaluate = fn(params, x)
        finally:
            tracer.end(idx)
        return _timed(tracer, ORACLE, evaluate)

    return soliton_evaluator


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route the wrapped calls through ``tracer`` until the block exits."""
    patches = [(owner, attr, _timed(tracer, name, getattr(owner, attr))) for owner, attr, name in _WRAPPED]
    patches.append((ckdv.runner, "advance", _traced_advance(tracer, ckdv.runner.advance)))
    patches.append(
        (
            ckdv.runner,
            "soliton_evaluator",
            _traced_soliton_evaluator(tracer, ckdv.runner.soliton_evaluator),
        )
    )
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def self_times(
    spans: list[list], excluded: list[tuple[float, float]] = ()
) -> tuple[dict[str, float], Counter]:
    """Per span name: total self time (duration minus child spans) and count.
    Each ``excluded`` interval (a speed sample taken on a timer, see
    speed.py) is taken out of the innermost span it fell in."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    starts = [span[1] for span in spans]
    for start, end in excluded:
        idx = bisect.bisect_right(starts, start) - 1
        while idx >= 0 and spans[idx][2] < end:  # that span closed before it
            idx = spans[idx][3]
        if idx >= 0:
            child[idx] += end - start
    totals: dict[str, float] = defaultdict(float)
    counts: Counter = Counter()
    for idx, (name, start, end, _) in enumerate(spans):
        totals[name] += end - start - child[idx]
        counts[name] += 1
    return totals, counts


def step_gaps(spans: list[list]) -> list[float]:
    """Time between consecutive observer calls of each ``advance`` span:
    the stepping time of one step, with the snapshot work left out."""
    last_end: dict[int, float] = {}
    gaps = []
    for idx, (name, start, end, parent) in enumerate(spans):
        if name == ADVANCE:
            last_end[idx] = start
        elif name == OBSERVER and parent in last_end:
            gaps.append(start - last_end[parent])
            last_end[parent] = end
    return gaps


def layer_metrics(
    spans: list[list], excluded: list[tuple[float, float]], scale: float
) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced pass. Times leave out
    the ``excluded`` speed samples and are multiplied by ``scale``, the
    pass's speed normalization (speed.py); counts are left as they are."""
    self_s, counts = self_times(spans, excluded)
    self_s = defaultdict(float, {name: value * scale for name, value in self_s.items()})
    gaps = [gap * scale for gap in step_gaps(spans)]
    records = counts["diagnostics.record"]
    return {
        "stepper.advance_s": self_s[ADVANCE],
        "stepper.step_us": statistics.median(gaps) * 1e6 if gaps else 0.0,
        "runner.self_s": self_s["runner.run_experiment"],
        "runner.observer_s": self_s[OBSERVER],
        "runner.load_config_s": self_s["runner.load_config"],
        "runner.validate_config_s": self_s["runner.validate_config"],
        "runner.build_system_s": self_s["runner.build_system"],
        "diagnostics.record_s": self_s["diagnostics.record"],
        "diagnostics.records": records,
        "diagnostics.record_us": self_s["diagnostics.record"] / records * 1e6 if records else 0.0,
        "analytic.oracle_s": self_s[ORACLE] + self_s["analytic.soliton_evaluator"],
        "analytic.oracle_evals": counts[ORACLE],
        "analytic.sample_initial_s": self_s["analytic.sample_initial"],
        "cli.self_s": self_s["cli.main"],
        "cli.runs": counts["cli.main"],
    }
