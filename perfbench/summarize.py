"""Run the benchmark over several seeds and summarise it.

    python3 perfbench/summarize.py [--out FILE] [--label TEXT]

For each workload: untraced runs with seeds 1..SEEDS, then one traced run
(seed 1).  Prints each run's report, then, per end-to-end metric, the
median, the quartiles and their spread as a share of the median next to
the metric's bound from BENCHMARK.json (spreads above a third of the bound
are flagged).  With --out, appends everything as one entry to that JSON
list (the trajectory).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    print(f"seed {seed}, trace {trace}:")
    for line in lines[:-1]:
        print(f"  {line}")
    machine = next((line for line in lines if line.startswith("machine: ")), "machine: {}")
    return json.loads(lines[-1]), machine[len("machine: "):]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out")
    parser.add_argument("--label", default="")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    entry: dict = {"label": args.label, "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in workloads:
        seeds = list(range(1, SEEDS + 1))
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in seeds:
            result, machine = run(workload, seed, spec["run_seconds"], 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        entry["machine"] = json.loads(machine)
        summary = {}
        print(f"{workload} ({len(seeds)} seeds, {attempted} units, {failed} failed)")
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / median if median else 0.0
            flag = "  WIDE" if spread > bounds[name] / 3 else ""
            print(f"  {name:14s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:6.3f} (bound {bounds[name]}){flag}")
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": vals}
        record = {"seeds": seeds, "attempted": attempted, "failed": failed, "end_to_end": summary}
        traced, _ = run(workload, 1, spec["run_seconds"], 1)
        record["per_layer_seed"] = 1
        record["per_layer_correct"] = traced["correct"]
        record["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        entry["workloads"][workload] = record
    if args.out:
        out = Path(args.out)
        entries = json.loads(out.read_text()) if out.exists() else []
        entries.append(entry)
        out.write_text(json.dumps(entries, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
