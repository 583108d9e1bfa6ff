"""One workload in one fresh, single-threaded interpreter.

Started by run.py.  It imports ghznet from the checkout's ``src``, builds
the seeded inputs, records the moment it is ready for the first timed unit
(``time.monotonic``, comparable with the parent's clock), then either exits
(``--setup-only``) or runs the workload:

* untraced: the number of whole rounds that takes about ``--seconds`` on
  the seed commit (``Workload.rounds_for``), so every run of a seed does
  the same work;
* traced: the workload's ``trace_rounds`` rounds untraced, then traced.

Every unit is checked against its reference outside the timed region.  The
last stdout line is a JSON record for run.py.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Keeps a much slower program inside the harness's time limit.
GUARD_S = 75.0


def run_rounds(workload, rounds, ghz, refs, checked, tracer=None):
    """Run whole rounds; returns per-round timed seconds, per-unit latencies
    and failures.  Rounds that would end past GUARD_S are not started.
    `checked` caches check results by (unit, output) across calls."""
    began = time.monotonic()
    round_walls: list[float] = []
    latencies: list[float] = []
    failures: list[str] = []
    for round_units in rounds:
        spent = time.monotonic() - began
        if round_walls and spent + spent / len(round_walls) > GUARD_S:
            print(f"stopped after {len(round_walls)} of {len(rounds)} rounds", file=sys.stderr)
            break
        wall = 0.0
        for unit, inputs in round_units:
            call = lambda: workload.call(inputs, ghz)  # noqa: E731
            error = None
            start = time.perf_counter()
            try:
                output = tracer.run_unit(len(latencies), call) if tracer else call()
            except Exception:
                error = traceback.format_exc()
            elapsed = time.perf_counter() - start
            wall += elapsed
            latencies.append(elapsed)
            if error is None:
                key = (unit.id, repr(output))
                if key not in checked:
                    try:
                        checked[key] = workload.check(unit, inputs, output, refs[unit.id], ghz)
                    except Exception:
                        checked[key] = traceback.format_exc()
                error = checked[key]
            if error is not None:
                failures.append(f"{unit.id}: {error}")
        round_walls.append(wall)
    return round_walls, latencies, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    # Set-up as a user pays it: import the program, build the inputs.
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl

    workload = wl.WORKLOADS[args.workload]
    ghz = wl.load_program(workload.modules)
    n_rounds = workload.trace_rounds if args.trace else workload.rounds_for(args.seconds)
    plan = wl.plan(workload, args.seed, n_rounds, ghz)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    program_file = Path(ghz.pkg.__file__).resolve()
    if ROOT / "src" not in program_file.parents:
        print(f"ghznet imported from {program_file}, not from this checkout", file=sys.stderr)
        return 2
    refs = wl.load_references(workload.name)
    record: dict = {"ready": ready, "numpy": sys.modules["numpy"].__version__}
    checked: dict = {}
    if args.trace:
        import tracing

        plain_walls, plain_latencies, failures = run_rounds(workload, plan, ghz, refs, checked)
        tracer = tracing.Tracer()
        tracer.install()
        traced_walls, latencies, traced_failures = run_rounds(workload, plan, ghz, refs, checked, tracer)
        tracer.uninstall()
        failures += traced_failures
        # Per round, on the scale of wall_s.
        overhead_s = statistics.fmean(traced_walls) - statistics.fmean(plain_walls)
        values = tracing.layer_metrics(tracer, overhead_s)
        record["layers"] = {name: [values[name], unit] for name, unit in tracing.PER_LAYER}
        record["untraced_wall_s"] = sum(plain_walls)
        record["traced_wall_s"] = sum(traced_walls)
        record["missing_entry_points"] = tracer.missing
        if args.trace_out:
            tracer.save(args.trace_out)
        attempted = len(plain_latencies) + len(latencies)
    else:
        round_walls, latencies, failures = run_rounds(workload, plan, ghz, refs, checked)
        record["round_walls"] = round_walls
        attempted = len(latencies)
    record["latencies"] = latencies
    record["attempted"] = attempted
    record["failures"] = failures
    # ru_maxrss is in KiB on Linux
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
