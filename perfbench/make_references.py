"""Write the pinned reference output of every pool entry.

Run from the repository root on the commit whose outputs are the
reference (the benchmark's seed commit):

    python3 perfbench/make_references.py [workload ...]

For memory-assisted outputs the reference also stores the values obtained
with the collective X error rate moved by +-MC_SIGMAS Monte Carlo standard
errors of the dephasing estimate, so that a change of the Monte Carlo
(or its replacement by an exact expectation) passes while real errors fail.
Threshold references are verified here with the advantage predicate.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402


@contextmanager
def shifted_memory_qx(ghz, sign: float):
    """Move q_x of every memory-assisted scenario by sign * MC_SIGMAS
    standard errors of its alpha estimate (q_x = (1 - (1-f)(2 alpha - E))/2)."""
    analysis, memory, network = ghz.analysis, ghz.memory, ghz.network
    original = analysis.scenario_qbers

    def patched(cfg, spec, noise, mc_samples=1000, seed=1):
        qbers = original(cfg, spec, noise, mc_samples, seed)
        if not spec.memories:
            return qbers
        n_formula = network.formula_party_count(cfg, spec)
        cfg_eff = cfg if n_formula == cfg.n_parties else cfg.with_parties(2)
        estimate = memory.expected_alpha_beta(cfg_eff, noise, mc_samples, memory.as_rng([seed, n_formula]))
        delta = sign * wl.MC_SIGMAS * (1.0 - noise.f_depol) * estimate.stderr
        q_x = min(max(qbers.q_x + delta, 0.0), 1.0)
        return ghz.pkg.QberPair(q_x, qbers.q_z)

    targets = [m for m in (analysis, ghz.cli) if getattr(m, "scenario_qbers", None) is original]
    for module in targets:
        module.scenario_qbers = patched
    try:
        yield
    finally:
        for module in targets:
            module.scenario_qbers = original


def build(workload: wl.Workload, ghz) -> dict:
    units: dict = {}
    timings: dict = {}
    for unit in workload.pool():
        inputs = workload.prepare(unit, ghz)
        start = time.perf_counter()
        output = workload.call(inputs, ghz)
        timings[unit.id] = round(time.perf_counter() - start, 4)
        record = workload.digest(unit, output, ghz)
        if isinstance(workload, (wl.PlayerProfiles, wl.CliSweeps)):
            bands = {}
            for label, sign in (("lo", -1.0), ("hi", 1.0)):
                with shifted_memory_qx(ghz, sign):
                    bands[label] = workload.digest(unit, workload.call(inputs, ghz), ghz)["rows"]
            if isinstance(workload, wl.PlayerProfiles):
                if bands["lo"] != record["rows"] or bands["hi"] != record["rows"]:
                    record.update(bands)
            else:
                for label, rows in bands.items():
                    moved = {str(i): row for i, (row, ref) in enumerate(zip(rows, record["rows"])) if row != ref}
                    if moved:
                        record[label] = moved
        units[unit.id] = record
        problem = workload.check(unit, inputs, output, record, ghz)
        if problem is not None:
            raise SystemExit(f"{workload.name} {unit.id}: reference fails its own check: {problem}")
        print(f"{workload.name} {unit.id} {timings[unit.id]:.3f} s", flush=True)
    return {"units": units, "timings_s": timings}


def main(names: list[str]) -> int:
    ghz = wl.load_program(("analysis", "cli", "memory", "network", "tables"))
    for name in names or list(wl.WORKLOADS):
        data = build(wl.WORKLOADS[name], ghz)
        wl.REFERENCE_DIR.mkdir(exist_ok=True)
        path = wl.REFERENCE_DIR / f"{name}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
