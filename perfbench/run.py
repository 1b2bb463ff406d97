"""ckdv benchmark: times each workload end to end or, traced, layer by layer.

    python3 perfbench/run.py --workload soliton_fig3 --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root. One invocation builds one workload's inputs
under ``.bench_work/``, then repeats whole passes of the workload for
``--seconds``, with set-up timed in fresh interpreters between them, and
checks every run's output.
It prints a readable report, then, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the ``end_to_end``
metrics of BENCHMARK.json with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``. The times among the ``end_to_end`` metrics are normalized to
a fixed machine speed that is sampled while they are measured (see
``speed.py``); the raw wall times are reported beside them. A traced
invocation alternates untraced and traced passes so it can report the
tracing overhead. ``--smoke`` runs every workload for a
few steps in child processes and checks the harness itself.

The program is imported from ``src/`` of the same checkout and nowhere else;
without it the benchmark exits non-zero and prints no result.
"""

import os

# one process, one thread: pin the BLAS and OpenMP pools before numpy loads
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 15
SETUP_SPEED_SAMPLES = 5  # reference samples just before and just after a probe
CHILD_TIMEOUT_S = 170

# operations per mode-point of one right-hand side: D1 (sub, div), D3 (2 mul,
# 3 add/sub, div), c*D1 + acc + e*D3 (2 mul, 2 add); per layer update u - a*R
# (mul, sub); a step is two right-hand sides and two updates. Each coupling
# term adds (mul, mul, add) per point of its mode, per right-hand side.
FLOPS_PER_MODE_POINT = 2 * (2 + 6 + 4 + 2)
FLOPS_PER_TERM_POINT = 2 * 3

sys.path.insert(0, str(SRC))
try:
    import ckdv
except ImportError as exc:
    raise SystemExit(f"perfbench: cannot import ckdv from {SRC}: {exc}") from None
if not Path(ckdv.__file__).resolve().is_relative_to(SRC.resolve()):
    raise SystemExit(f"perfbench: ckdv was imported from {ckdv.__file__}, not from {SRC}")

import numpy as np  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def machine() -> dict:
    """Read-only facts about the machine and interpreter the run used."""
    model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        "unknown",
    )
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, kind, size = _read(f"{base}/level"), _read(f"{base}/type"), _read(f"{base}/size")
        if level and kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _parse_cache_bytes(size: str) -> int | None:
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if size[-1:] in units and size[:-1].isdigit():
        return int(size[:-1]) * units[size[-1]]
    return None


def probe_setup(config_paths: list[Path]) -> dict:
    """One fresh-interpreter set-up time, from a child process, with the
    machine speed sampled just before and just after it (see speed.py)."""
    before = speed.sample_times(SETUP_SPEED_SAMPLES)
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "probe_setup.py"), *map(str, config_paths)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{done.stderr}")
    wall_s = float(done.stdout.split()[-1])
    speed_s = speed.hmean(before + speed.sample_times(SETUP_SPEED_SAMPLES))
    return {
        "wall_s": wall_s,
        "sample_hmean_s": speed_s,
        "normalized_s": wall_s * speed.REFERENCE_SAMPLE_S / speed_s,
    }


class Bench:
    """One workload in one process: its inputs, passes and checks."""

    def __init__(self, args, work: Path, check_reference: bool = True):
        self.args = args
        shutil.rmtree(work, ignore_errors=True)
        self.workload = workloads.build(args.workload, args.size, args.seed, work)
        self.check_reference = check_reference
        self.reference = self._reference() if check_reference else None
        self.first_digests: list[tuple[str, str]] | None = None
        self.attempted = 0
        self.failed = 0
        self.faults: list[str] = []
        self.facts: list = []

    def _reference(self) -> dict | None:
        table = json.loads((BENCH_DIR / "reference.json").read_text())
        entry = table.get(self.args.workload, {}).get(self.args.size)
        if entry is not None and self.args.workload == "sweep_cli":
            entry = entry.get(str(self.workload.seed))
        if entry is not None and self.args.corrupt_reference:
            entry = dict(entry, state="0" * 64)
        return entry

    def run_pass(self, tracer=None) -> dict:
        for item in self.workload.items:
            shutil.rmtree(item.out_dir, ignore_errors=True)
        rcs, item_s = [], []
        sampler = speed.Sampler()
        traced = tracing.installed(tracer) if tracer else contextlib.nullcontext()
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), traced, sampler:
            start = time.perf_counter()
            for item in self.workload.items:
                t = time.perf_counter()
                try:
                    rcs.append(ckdv.cli.main(["run", "--config", str(item.config)]))
                except Exception as exc:  # the program crashed: a failed run, not ours
                    rcs.append(f"uncaught {exc!r}")
                item_s.append(time.perf_counter() - t)
            run_s = time.perf_counter() - start
        self._check(rcs)
        result = {"run_s": run_s, "item_s": item_s, "traced": tracer is not None}
        result.update(sampler.summary(run_s))
        if tracer is not None:
            result["spans"] = tracer.spans
            result["sample_intervals"] = sampler.intervals
        return result

    def _check(self, rcs: list) -> None:
        pass_faults, facts = [], []
        for item, rc in zip(self.workload.items, rcs):
            fact = None
            try:
                if (item.out_dir / "report.csv").exists():
                    fact = workloads.read_facts(item.out_dir)
                faults = workloads.check_item(self.workload, item, rc, fact)
            except Exception as exc:  # a check that cannot run is a failed check
                faults = [f"check raised {exc!r}"]
            pass_faults.append(faults)
            facts.append(fact)
        digests = [(f.state_sha256, f.artifacts_sha256) if f else ("", "") for f in facts]
        if self.first_digests is None:
            self.first_digests = digests
            self.facts = facts
        for faults, digest, first in zip(pass_faults, digests, self.first_digests):
            if digest != first:
                faults.append("output differs from the first pass of the same inputs")
        if self.check_reference and self.reference is None:
            for faults in pass_faults:
                faults.append("no reference checksum recorded for these inputs")
        elif self.check_reference:
            combined = {
                "state": workloads.combined_digest([d[0] for d in digests]),
                "artifacts": workloads.combined_digest([d[1] for d in digests]),
            }
            for key in ("state", "artifacts"):
                if combined[key] != self.reference[key]:
                    for faults in pass_faults:
                        faults.append(f"{key} SHA-256 differs from the recorded reference")
        for item, faults in zip(self.workload.items, pass_faults):
            self.attempted += 1
            if faults:
                self.failed += 1
                self.faults.append(f"{item.label}: {'; '.join(faults)}")

    def measure(self, seconds: float, traced: bool) -> tuple[list[dict], list[dict]]:
        """Whole passes until the next one would overrun ``seconds``; a traced
        invocation alternates untraced and traced passes, at least one each.
        An untraced one also times ``SETUP_SAMPLES`` set-ups, spread evenly
        over the window between passes, so that they see the same slow and
        fast phases of the machine as the passes. The probes' own time is
        added to the window."""
        configs = [item.config for item in self.workload.items]
        setup: list[dict] = []
        start = time.perf_counter()
        deadline = start + seconds

        def probe_until(due: int) -> None:
            nonlocal deadline
            while len(setup) < due:
                t = time.perf_counter()
                setup.append(probe_setup(configs))
                deadline += time.perf_counter() - t

        passes = []
        while True:
            if not traced:
                # the share of the window already measured, probes excluded
                done = 1.0 - (deadline - time.perf_counter()) / seconds
                probe_until(1 + math.floor((SETUP_SAMPLES - 1) * min(done, 1.0)))
            tracer = tracing.Tracer() if traced and len(passes) % 2 == 1 else None
            passes.append(self.run_pass(tracer))
            typical = statistics.median(p["run_s"] for p in passes)
            if len(passes) >= (2 if traced else 1) and time.perf_counter() + typical > deadline:
                probe_until(0 if traced else SETUP_SAMPLES)
                return passes, setup

    def counts(self) -> dict:
        """Per-pass work, read from the first pass's artifacts."""
        facts = [f for f in self.facts if f is not None]
        updates = sum(f.updates for f in facts)
        flops = 0.0
        for item, fact in zip(self.workload.items, self.facts):
            if fact is None:
                continue
            config = ckdv.runner.load_config(item.config)
            spec = ckdv.runner.build_system(config)
            per_update = FLOPS_PER_MODE_POINT + FLOPS_PER_TERM_POINT * len(
                spec.nonlinear_terms
            ) / spec.n_modes
            flops += per_update * fact.updates
        return {
            "stepper.steps": sum(f.steps_run for f in facts),
            "stepper.updates": updates,
            "stepper.flops_per_update_computed": flops / updates if updates else 0.0,
            "stepper.blowup_step": max((f.blow_up_step or 0 for f in facts), default=0),
            "runner.snapshots": sum(f.snapshots for f in facts),
            "runner.bytes_written": sum(f.bytes_written for f in facts),
            "model.state_bytes_computed": max((f.n_modes * f.m_points * 8 for f in facts), default=0),
        }

    def quality(self) -> dict:
        """Accuracy of the first pass's completed runs: worst mode-1 percent
        error where an oracle is attached, worst relative Q drift on two-mode
        Hirota-Satsuma runs."""
        pct, q = [], []
        for item, fact in zip(self.workload.items, self.facts):
            if fact is None or fact.outcome != "completed":
                continue
            if "max_pct_err_1" in fact.trace:
                pct.append(float(fact.trace["max_pct_err_1"].max()))
            if item.params.get("system", "hirota_satsuma") == "hirota_satsuma" and "Q" in fact.trace:
                q.append(workloads.relative_drift(fact.trace["Q"]))
        return {
            "max_pct_err": max(pct) if pct else None,
            "q_drift": max(q) if q else None,
        }


def end_to_end(passes: list[dict], setup: list[dict], counts: dict) -> dict:
    # both times are speed-normalized (speed.py); the raw wall times are in
    # the results file and the report
    run_s = statistics.median(p["normalized_s"] for p in passes)
    return {
        "run_s": run_s,
        "updates_per_s": counts["stepper.updates"] / run_s,
        "setup_s": statistics.median(p["normalized_s"] for p in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(passes: list[dict], counts: dict) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    layers = [tracing.layer_metrics(p["spans"], p["sample_intervals"], p["scale"]) for p in traced]
    values = {}
    for key in layers[0]:
        samples = [layer[key] for layer in layers]
        # counts repeat exactly from pass to pass; keep them whole numbers
        median = statistics.median_low if isinstance(samples[0], int) else statistics.median
        values[key] = median(samples)
    values.update(counts)
    # speed-normalized like run_s, so the machine's drift between the
    # traced and the untraced passes cancels
    traced_run_s = statistics.median(p["normalized_s"] for p in traced)
    values["trace.run_s"] = traced_run_s
    values["trace.overhead_frac"] = (
        traced_run_s / statistics.median(p["normalized_s"] for p in plain) - 1.0
    )
    return values


def write_spans(path: Path, passes: list[dict]) -> None:
    with open(path, "w") as fh:
        fh.write("pass,index,name,start_s,end_s,parent\n")
        for number, p in enumerate(passes):
            for idx, (name, start, end, parent) in enumerate(p.get("spans", ())):
                fh.write(f"{number},{idx},{name},{start!r},{end!r},{parent}\n")


def run(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = machine()
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    bench = Bench(args, WORK / stem)
    wl = bench.workload

    # warm-up: one smoke-size pass primes imports, caches and first calls
    warm_args = argparse.Namespace(**dict(vars(args), size="smoke"))
    Bench(warm_args, WORK / f"{stem}-warmup").run_pass()
    shutil.rmtree(WORK / f"{stem}-warmup")

    passes, setup = bench.measure(args.seconds, traced=bool(args.trace))
    counts = bench.counts()
    quality = bench.quality()
    plain = [p for p in passes if not p["traced"]]
    shutil.rmtree(WORK / stem)  # the run's inputs and outputs; results stay

    if args.trace:
        values = per_layer(passes, counts)
        section = "per_layer"
    else:
        values = end_to_end(passes, setup, counts)
        section = "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}

    l2 = _parse_cache_bytes(env["l2"])
    working_set = counts["model.state_bytes_computed"]
    env["working_set_bytes"] = working_set
    env["working_set_note"] = (
        f"largest state {working_set} B is {working_set / l2:.1%} of L2: the benchmark "
        "measures dispatch and arithmetic and makes no memory-bandwidth claim"
        if l2 else "L2 size unknown"
    )
    results = {
        "workload": wl.name,
        "size": wl.size,
        "seed": args.seed,
        "input_set": wl.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env,
        "run_s_samples": [p["run_s"] for p in plain],
        "program_s_samples": [p["program_s"] for p in plain],
        "normalized_run_s_samples": [p["normalized_s"] for p in plain],
        "speed_sample_hmean_s": [p["sample_hmean_s"] for p in plain],
        "speed_samples_per_pass": [p["samples"] for p in plain],
        "traced_run_s_samples": [p["run_s"] for p in passes if p["traced"]],
        "setup_s_samples": [p["wall_s"] for p in setup],
        "normalized_setup_s_samples": [p["normalized_s"] for p in setup],
        "item_s_samples": [p["item_s"] for p in plain],
        "quality": quality,
        "failed_frac": bench.failed / bench.attempted,
        "faults": bench.faults,
        "items": [
            {"label": i.label, "expected_rc": i.expected_rc, "expected_blow_up_step": i.expected_blowup,
             **i.params}
            for i in wl.items
        ],
        "values": values,
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{stem}.json").write_text(json.dumps(results, indent=1, default=str) + "\n")
    if args.trace:
        write_spans(results_dir / f"{stem}-spans.csv", passes)

    _print_report(results, metrics)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


def _print_report(results: dict, metrics: dict) -> None:
    env = results["environment"]
    print(f"workload {results['workload']} ({results['size']}), seed {results['seed']} "
          f"(input set {results['input_set']}), "
          f"trace {results['trace']}, {results['seconds']} s window")
    print(f"machine: {env['cpu_model']}, nproc {env['nproc']}, L2 {env['l2']}, L3 {env['l3']}; "
          f"python {env['python']}, numpy {env['numpy']}, BLAS/OpenMP threads pinned to 1")
    print(f"note: {env['working_set_note']}")
    for item in results["items"]:
        expect = (f"exit 2 at blow-up step {item['expected_blow_up_step']}"
                  if item["expected_rc"] == 2 else f"exit {item['expected_rc']}")
        params = ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                           for k, v in item.items() if k not in ("label", "expected_rc",
                                                                 "expected_blow_up_step"))
        print(f"  {item['label']}: {params} -> expect {expect}")
    plain_s = results["run_s_samples"]
    print(f"pass wall time: median {statistics.median(plain_s):.4f} s, max {max(plain_s):.4f} s "
          f"over {len(plain_s)} untraced passes [{', '.join(f'{x:.4f}' for x in plain_s)}]")
    norm_s = ", ".join(f"{x:.4f}" for x in results["normalized_run_s_samples"])
    hmean_ms = ", ".join(f"{x * 1e3:.4f}" for x in results["speed_sample_hmean_s"])
    print(f"speed-normalized pass time: [{norm_s}]; reference sample hmean per pass "
          f"[{hmean_ms}] ms")
    runs = sorted(x for p in results["item_s_samples"] for x in p)
    if len(runs) > 10:
        pct = _tail_percentile(len(runs))
        print(f"per-run wall time: median {statistics.median(runs):.4f} s, p{pct} "
              f"{runs[math.floor((len(runs) - 1) * pct / 100)]:.4f} s over {len(runs)} runs")
    quality = results["quality"]
    print(f"quality: max_pct_err {quality['max_pct_err']}, q_drift {quality['q_drift']}; "
          f"failed_frac {results['failed_frac']:.4g}")
    for fault in results["faults"][:20]:
        print(f"  FAILED {fault}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    if results["trace"]:
        values = results["values"]
        print(f"stepper share of traced run_s = "
              f"{values['stepper.advance_s'] / values['trace.run_s']:.2%}")


def _tail_percentile(n: int) -> int:
    # highest whole percentile with at least ten samples above it
    return math.floor(100 * (n - 10) / n)


def smoke() -> int:
    """Run every workload briefly in a child process and check the harness:
    every metric of BENCHMARK.json appears with its unit, runs pass their
    checks, and a wrong reference checksum is counted as a failure."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def child(workload: str, trace: int, *extra: str) -> dict | None:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "smoke", *extra]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            problems.append(f"{workload} trace {trace}: exit {done.returncode}: {done.stderr[-500:]}")
            return None
        return json.loads(done.stdout.strip().splitlines()[-1])

    # every defined workload, including any that BENCHMARK.json leaves out
    for workload in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = child(workload, trace)
            if result is None:
                continue
            label = f"{workload} trace {trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{label}: checks failed: {result}")
            expected = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != expected:
                problems.append(f"{label}: metrics/units {got} != {expected}")
            for name, metric in result["metrics"].items():
                if not (isinstance(metric.get("value"), (int, float))
                        and math.isfinite(metric["value"])):
                    problems.append(f"{label}: {name} value {metric.get('value')!r}")
            print(f"smoke {label}: attempted {result['attempted']}, failed {result['failed']}")

    first = workloads.WORKLOADS[0]
    result = child(first, 0, "--corrupt-reference")
    if result is not None:
        if result["correct"] or result["failed"] < 1 or result["failed"] > result["attempted"]:
            problems.append(f"wrong reference checksum not counted as failed: {result}")
        print(f"smoke {first} with a wrong reference checksum: attempted "
              f"{result['attempted']}, failed {result['failed']} (expected > 0)")

    for problem in problems:
        print(f"SMOKE FAILURE: {problem}", file=sys.stderr)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="replace the recorded checksum with a wrong one (harness self-test)")
    parser.add_argument("--smoke", action="store_true", help="self-test every workload briefly")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.smoke:
        return smoke()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
