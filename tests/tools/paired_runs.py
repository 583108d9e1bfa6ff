"""Paired benchmark runs of two ghznet checkouts.

    python tests/tools/paired_runs.py --parent DIR --change DIR --workload cli-sweeps --seeds 1-10

Pair i runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
of both checkouts at seed S = A + i, each in a separate process started in
the root of its own checkout.  The two runs alternate: the parent goes
first in odd pairs and the change in even ones, so that a drift in the
machine's speed falls on both sides alike.

The script prints every end-to-end metric of each run, then per metric the
medians, the relative change of the medians, the change's wins out of n
pairs (strictly better, in the direction that the change's BENCHMARK.json
declares) and the interquartile range of the parent's runs.  It reads the
benchmark only through its command line and the JSON object on the last
line of its output.  The file is not a test module; pytest does not
collect it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON record of one benchmark run of `tree`."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: exit {done.returncode}\n{done.stderr}")
    return json.loads(lines[-1])


def higher_is_better(tree: Path) -> set[str]:
    declared = tree / "BENCHMARK.json"
    if not declared.is_file():
        return {"ok_frac"}
    metrics = json.loads(declared.read_text())["end_to_end"]
    return {metric["name"] for metric in metrics if metric["better"] == "higher"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout before the change")
    parser.add_argument("--change", type=Path, required=True, help="checkout with the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="A-B, one pair per seed")
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args()

    higher = higher_is_better(args.change)
    values: dict[str, dict[str, list[float]]] = {"parent": {}, "change": {}}
    for index, seed in enumerate(args.seeds, start=1):
        order = ("parent", "change") if index % 2 else ("change", "parent")
        for side in order:
            record = run(getattr(args, side), args.workload, seed, args.seconds)
            metrics = {name: entry["value"] for name, entry in record["metrics"].items()}
            for name, value in metrics.items():
                values[side].setdefault(name, []).append(value)
            cells = " ".join(f"{name}={value:.6g}" for name, value in metrics.items())
            print(f"pair {index} seed {seed} {side:6s} correct={record['correct']} {cells}", flush=True)

    n = len(args.seeds)
    print(f"\n{args.workload}: {n} pairs, seeds {args.seeds[0]}-{args.seeds[-1]}")
    print(f"{'metric':14s} {'parent':>12s} {'change':>12s} {'change':>8s} {'wins':>6s} {'parent IQR':>12s}")
    for name, before in values["parent"].items():
        after = values["change"][name]
        sign = -1.0 if name in higher else 1.0
        wins = sum(sign * (a - b) < 0.0 for a, b in zip(after, before))
        low, high = (statistics.quantiles(before, n=4)[i] for i in (0, 2)) if n > 1 else (before[0], before[0])
        median_before, median_after = statistics.median(before), statistics.median(after)
        relative = median_after / median_before - 1.0 if median_before else 0.0
        print(
            f"{name:14s} {median_before:12.6g} {median_after:12.6g} {relative:+8.1%} "
            f"{wins:>3d}/{n:<2d} {high - low:12.4g}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
