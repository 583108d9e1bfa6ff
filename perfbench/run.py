"""ghznet benchmark: end-to-end timings per workload, or a traced per-layer
breakdown.

    python3 perfbench/run.py --workload finite-thresholds --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each

Run from the root of a checkout; ghznet is imported from its ``src``.  Each
workload runs in its own fresh interpreter (worker.py) with BLAS/OpenMP
limited to one thread.  ``setup_s`` is the median, over several fresh
interpreters, of the time from process start to the first timed unit.
The last stdout line is one JSON object: correct, attempted, failed and
the metrics (end-to-end with --trace 0, per-layer with --trace 1).  A
traced run is not correct when an entry point it wraps is missing or the
layer spans cover less than MIN_COVERAGE of the traced time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("finite-thresholds", "player-profiles", "cli-sweeps", "oracle-check")
SETUP_PROBES = 6
WORKER_TIMEOUT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# A unit ends the tail percentile only if at least this many units lie beyond it.
TAIL_BEYOND = 10
# Share of the traced unit time that layer self times must account for.
MIN_COVERAGE = 0.95


class BenchError(Exception):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args: list[str]) -> tuple[float, dict]:
    """Start worker.py; returns (seconds from spawn to its ready mark, record)."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        env=worker_env(),
        stdout=subprocess.PIPE,
        timeout=WORKER_TIMEOUT_S,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    record = json.loads(lines[-1])
    return record["ready"] - spawned, record


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND units
    beyond it; the maximum when that percentile would not lie above the
    median (fewer than 2 * TAIL_BEYOND units)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}


def measure(workload: str, seed: int, seconds: float, trace: bool, trace_out: str) -> dict:
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        _, record = run_worker(common + ["--trace", "1", "--trace-out", trace_out])
        return record
    setups = []
    for _ in range(SETUP_PROBES):
        setup, _ = run_worker(common + ["--setup-only"])
        setups.append(setup)
    setup, record = run_worker(common)
    setups.append(setup)
    record["setups"] = setups
    return record


def end_to_end(record: dict) -> dict[str, tuple[float, str]]:
    latencies = record["latencies"]
    value, _ = tail(latencies)
    attempted = record["attempted"]
    return {
        # The mean, not the median: the machine's speed changes in phases of
        # seconds to minutes, and a mean over every round averages them.
        "wall_s": (statistics.fmean(record["round_walls"]), "s"),
        "unit_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "unit_tail_ms": (1e3 * value, "ms"),
        "setup_s": (statistics.median(record["setups"]), "s"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
        "ok_frac": ((attempted - len(record["failures"])) / attempted, "ratio"),
    }


def trace_problems(record: dict) -> list[str]:
    """Why a traced run does not measure every layer; empty when it does."""
    problems = [f"entry point not found: {name}" for name in record["missing_entry_points"]]
    coverage = record["layers"]["tracing.coverage"][0]
    if coverage < MIN_COVERAGE:
        problems.append(f"layer spans cover {coverage:.3f} of the traced time, below {MIN_COVERAGE}")
    return problems


def describe(workload: str, record: dict, metrics: dict[str, tuple[float, str]], trace: bool) -> None:
    n = len(record["latencies"])
    if trace:
        print(
            f"{workload}: traced {n} units, untraced {record['untraced_wall_s']:.3f} s, "
            f"traced {record['traced_wall_s']:.3f} s"
        )
        for problem in trace_problems(record):
            print(f"  FAILED {problem}")
    else:
        _, pct = tail(record["latencies"])
        print(
            f"{workload}: {n} units in rounds of "
            + ", ".join(f"{s:.3f}" for s in record["round_walls"])
            + f" s; unit_tail_ms is p{pct:.1f} of {n} units; setup samples "
            + ", ".join(f"{s:.3f}" for s in record["setups"])
            + " s"
        )
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    for failure in record["failures"][:5]:
        print(f"  FAILED {failure.splitlines()[0]}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "ghznet" / "__init__.py").is_file():
        print(f"error: no src/ghznet beside {HERE.name}/; run from a ghznet checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    trace_dir = ROOT / ".perfbench"
    results = {}
    attempted = failed = 0
    traced_ok = True
    try:
        if args.trace:
            trace_dir.mkdir(parents=True, exist_ok=True)
        for name in names:
            trace_out = str(trace_dir / f"spans-{name}-seed{args.seed}.npz")
            record = measure(name, args.seed, args.seconds, bool(args.trace), trace_out)
            metrics = {k: tuple(v) for k, v in record["layers"].items()} if args.trace else end_to_end(record)
            describe(name, record, metrics, bool(args.trace))
            attempted += record["attempted"]
            failed += len(record["failures"])
            traced_ok = traced_ok and not (args.trace and trace_problems(record))
            results[name] = metrics
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    info = machine()
    info["numpy"] = record["numpy"]
    print("machine: " + json.dumps(info))
    if len(names) == 1:
        flat = results[names[0]]
    else:
        flat = {f"{w}.{m}": v for w, ms in results.items() for m, v in ms.items()}
    print(
        json.dumps(
            {
                "correct": failed == 0 and traced_ok,
                "attempted": attempted,
                "failed": failed,
                "metrics": {m: {"value": v, "unit": u} for m, (v, u) in flat.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
