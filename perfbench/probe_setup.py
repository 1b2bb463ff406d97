"""Time ckdv's set-up in a fresh interpreter and print it in seconds.

    PYTHONPATH=src python3 perfbench/probe_setup.py <config> [<config> ...]

Covers ``import ckdv`` and, for each config file, everything
``ckdv run --config <file>`` does before its first step. The program's own
path runs unchanged up to ``runner.advance``, which is replaced by a stub
that notes the time and stops the run.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import ckdv  # noqa: E402
import ckdv.cli  # noqa: E402
import ckdv.runner  # noqa: E402


class _FirstStep(Exception):
    """Raised by the stub in place of the first step."""


def _stop(*_args, **_kwargs):
    raise _FirstStep(time.perf_counter())


def main(paths: list[str]) -> float:
    total = time.perf_counter() - _T0
    ckdv.runner.advance = _stop
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for path in paths:
            start = time.perf_counter()
            try:
                rc = ckdv.cli.main(["run", "--config", path])
            except _FirstStep as reached:
                total += reached.args[0] - start
            else:
                raise SystemExit(f"{path}: exit {rc} before the first step")
    return total


if __name__ == "__main__":
    print(repr(main(sys.argv[1:])))
