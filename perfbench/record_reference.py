"""Record the SHA-256 references that every benchmark run is checked against.

    python3 perfbench/record_reference.py

Runs each workload once at both sizes, sweep_cli once per input set
``0 .. SWEEP_SEEDS - 1``, and rewrites ``perfbench/reference.json``. A run
whose other checks fail is not recorded. Re-record only when a change is
meant to alter the program's output, and say so in that change.
"""

import argparse
import json
import subprocess
import sys

from run import BENCH_DIR, WORK, Bench  # puts src/ on the path first

import workloads  # noqa: E402


def record(workload: str, size: str, seed: int) -> dict:
    args = argparse.Namespace(workload=workload, size=size, seed=seed, corrupt_reference=False)
    bench = Bench(args, WORK / f"reference-{workload}-{size}-{seed}", check_reference=False)
    bench.run_pass()
    if bench.failed:
        raise SystemExit(f"not recording {workload} {size} seed {seed}: {bench.faults}")
    return {
        "state": workloads.combined_digest([d[0] for d in bench.first_digests]),
        "artifacts": workloads.combined_digest([d[1] for d in bench.first_digests]),
    }


def main() -> int:
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True
    ).stdout.strip()
    table: dict = {"recorded_at_commit": commit or "unknown"}
    for name in workloads.WORKLOADS:
        table[name] = {}
        for size in workloads.SIZES:
            if name == "sweep_cli":
                table[name][size] = {
                    str(seed): record(name, size, seed)
                    for seed in range(workloads.SWEEP_SEEDS)
                }
            else:
                table[name][size] = record(name, size, 0)
            print(f"recorded {name} {size}", flush=True)
    (BENCH_DIR / "reference.json").write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
