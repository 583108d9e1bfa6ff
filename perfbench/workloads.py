"""The four benchmark workloads.

Each workload owns a pinned pool of units (one user-visible operation
each).  The workload seed draws rounds of units from the pool and orders
them; the program only sees the inputs built for those units.  Every unit
output is checked against the reference pinned for its pool entry in
``references/<workload>.json`` (written by ``make_references.py``).

``ghz`` below is a namespace holding the imported ``ghznet`` modules; see
``load_program``.
"""

from __future__ import annotations

import csv
import importlib
import io
import json
import random
import types
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "references"

EPSILON = 1e-10
BLOCKS = (1e6, 1e8, 1e10)
TASKS = ("QSS", "CKA")
MC_SAMPLES = 1000
# Deterministic values may move by this much (relative) before a unit fails.
REL_TOL = 1e-9
# Memory-derived values may move by this many Monte Carlo standard errors.
MC_SIGMAS = 4.0

# fig6/fig7 model constants (asymmetric memory network of the paper panels).
D_A_KM = 50.0
D_B_KM = 4.0
F_DEPOL = 0.01
T2_S = 1.0
TP_S = 2e-6


@dataclass(frozen=True)
class Unit:
    id: str
    params: tuple[tuple[str, Any], ...]

    def get(self, key: str) -> Any:
        return dict(self.params)[key]


def make_unit(uid: str, **params: Any) -> Unit:
    return Unit(uid, tuple(params.items()))


def load_program(modules: tuple[str, ...]) -> types.SimpleNamespace:
    """Import `ghznet` plus the named submodules; the result maps short
    names (``ghz.cli``, ``ghz.tables``) and the package (``ghz.pkg``)."""
    ns = types.SimpleNamespace(pkg=importlib.import_module("ghznet"))
    for name in modules:
        setattr(ns, name, importlib.import_module(f"ghznet.{name}"))
    return ns


def load_references(workload: str) -> dict[str, Any]:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as handle:
        return json.load(handle)["units"]


def _close(value: float, lo: float, hi: float) -> bool:
    """value within [lo, hi] widened by REL_TOL relative to the interval."""
    lo, hi = min(lo, hi), max(lo, hi)
    slack = REL_TOL * max(abs(lo), abs(hi))
    return lo - slack <= value <= hi + slack


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def compare_csv_rows(got: list[str], ref: list[str], lo: list[str], hi: list[str]) -> str | None:
    """Cell-by-cell check of one CSV row: text cells must match exactly,
    numeric cells must lie in the reference's [lo, hi] band."""
    if len(got) != len(ref):
        return f"{len(got)} cells, expected {len(ref)}"
    for col, (g, r, l, h) in enumerate(zip(got, ref, lo, hi)):
        if g == r:
            continue
        if not (_is_number(r) and _is_number(g)):
            return f"cell {col}: {g!r} != {r!r}"
        if not _close(float(g), float(l), float(h)):
            return f"cell {col}: {g} outside [{l}, {h}]"
    return None


def csv_lines(text: str) -> list[str]:
    """Header and data lines of a ghznet CSV table (``#`` lines skipped)."""
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def split_csv(text: str) -> tuple[list[str], list[list[str]]]:
    """Header cells and data rows of a ghznet CSV table."""
    rows = list(csv.reader(csv_lines(text)))
    return rows[0], rows[1:]


class Workload:
    """Interface shared by the workloads."""

    name: str
    modules: tuple[str, ...] = ()
    # Rounds run by a traced run: fixed, so its counts repeat exactly.
    trace_rounds: int = 1
    # One round's time on the seed commit (2-core Xeon, one thread): sets
    # how many rounds an untraced run of --seconds does.
    round_s: float = 1.0

    def rounds_for(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_s))

    def pool(self) -> list[Unit]:
        raise NotImplementedError

    def rounds(self, rng: random.Random) -> Iterator[list[Unit]]:
        """Endless seeded rounds; the default is the whole pool reshuffled."""
        pool = self.pool()
        while True:
            order = list(pool)
            rng.shuffle(order)
            yield order

    def prepare(self, unit: Unit, ghz) -> Any:
        raise NotImplementedError

    def call(self, inputs: Any, ghz) -> Any:
        raise NotImplementedError

    def check(self, unit: Unit, inputs: Any, output: Any, ref: Any, ghz) -> str | None:
        """None when the output matches the reference, else the reason."""
        raise NotImplementedError

    def digest(self, unit: Unit, output: Any, ghz) -> Any:
        """Reference record for one output (used by make_references.py)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# finite-thresholds: fig6's finite-size threshold bisections


THRESHOLD_NS = (3, 4, 5, 6, 8, 10)
THRESHOLD_TARGETS = {
    # target: (fixed value, bracket, xtol) as in the fig6 recipe
    "noise": (4.0, (1e-9, 0.5), 1e-5),
    "distance": (F_DEPOL, (1e-3, 40.0), 1e-4),
}


def advantaged(ghz, query, x: float) -> bool:
    """Multipartite finite-size fraction strictly above the bipartite one
    at scanned value x, evaluated through the public API."""
    pkg = ghz.pkg
    distance = x if query.target == "distance" else query.fixed_distance_km
    f_depol = x if query.target == "noise" else query.fixed_noise
    cfg = pkg.NetworkConfig.make_symmetric(query.n_parties, distance)
    qbers = pkg.memoryless_qber(f_depol, cfg.n_parties)
    fsp = pkg.FiniteSizeParams(epsilon=query.epsilon, block_size=query.block_size)
    if query.task == "CKA":
        _, multi, _ = pkg.best_cka_fraction(cfg, fsp, qbers)
    else:
        _, multi = pkg.optimized_fraction(cfg, pkg.Family.MQSS, fsp, qbers)
    bi = pkg.bipartite_optimal(cfg, pkg.NoiseParams(f_depol=f_depol), fsp)
    return multi.secret_fraction > bi.result.secret_fraction


class FiniteThresholds(Workload):
    name = "finite-thresholds"
    round_s = 8.5

    def pool(self) -> list[Unit]:
        return [
            make_unit(f"{task}/{block:g}/{target}/N{n}", task=task, block=block, target=target, n=n)
            for task in TASKS
            for block in BLOCKS
            for target in THRESHOLD_TARGETS
            for n in THRESHOLD_NS
        ]

    def rounds(self, rng: random.Random) -> Iterator[list[Unit]]:
        """One query per (task, block, target) stratum; the player counts
        are a seeded permutation in which every N appears twice."""
        by_id = {unit.id: unit for unit in self.pool()}
        strata = [(t, b, g) for t in TASKS for b in BLOCKS for g in THRESHOLD_TARGETS]
        while True:
            ns = list(THRESHOLD_NS) * (len(strata) // len(THRESHOLD_NS))
            rng.shuffle(ns)
            units = [by_id[f"{t}/{b:g}/{g}/N{n}"] for (t, b, g), n in zip(strata, ns)]
            rng.shuffle(units)
            yield units

    def prepare(self, unit: Unit, ghz):
        target = unit.get("target")
        fixed, bracket, xtol = THRESHOLD_TARGETS[target]
        fixed_arg = {"fixed_distance_km": fixed} if target == "noise" else {"fixed_noise": fixed}
        query = ghz.pkg.ThresholdQuery(
            target,
            unit.get("n"),
            task=unit.get("task"),
            block_size=unit.get("block"),
            epsilon=EPSILON,
            **fixed_arg,
        )
        return query, bracket, xtol

    def call(self, inputs, ghz):
        query, bracket, xtol = inputs
        return ghz.pkg.find_threshold(query, bracket, xtol=xtol)

    def digest(self, unit, output, ghz):
        return {"status": output.status, "value": output.value}

    def check(self, unit, inputs, output, ref, ghz):
        query, bracket, xtol = inputs
        if output.status != ref["status"]:
            return f"status {output.status!r}, expected {ref['status']!r}"
        if ref["value"] is None or output.value is None:
            return None if output.value == ref["value"] else f"value {output.value!r}, expected {ref['value']!r}"
        if abs(output.value - ref["value"]) > 2.0 * xtol:
            return f"threshold {output.value!r} more than 2*xtol from {ref['value']!r}"
        below = max(output.value - xtol, bracket[0])
        above = min(output.value + xtol, bracket[1])
        if advantaged(ghz, query, below) == advantaged(ghz, query, above):
            return f"advantage predicate does not change across {output.value!r} +- xtol"
        return None


# ---------------------------------------------------------------------------
# player-profiles: fig7's finite-size advantage profiles, tabulated

PROFILE_N_MAX = 20
PROFILE_COLUMNS = [
    "memories", "block_size", "n_parties", "task", "multi_fraction", "bi_fraction", "ratio", "status",
]


class PlayerProfiles(Workload):
    name = "player-profiles"
    modules = ("tables",)
    round_s = 10.5

    def pool(self) -> list[Unit]:
        return [
            make_unit(f"{'mem' if memories else 'nomem'}/{block:g}/{task}", memories=memories, block=block, task=task)
            for memories in (True, False)
            for block in BLOCKS
            for task in TASKS
        ]

    def prepare(self, unit: Unit, ghz):
        pkg = ghz.pkg
        cfg = pkg.NetworkConfig(2, D_A_KM, D_B_KM)
        noise = pkg.NoiseParams(f_depol=F_DEPOL, t2_s=T2_S, prep_time_s=TP_S)
        fsp = pkg.FiniteSizeParams(epsilon=EPSILON, block_size=unit.get("block"), mc_samples=MC_SAMPLES)
        return cfg, noise, fsp, unit.get("memories"), unit.get("task")

    def call(self, inputs, ghz):
        cfg, noise, fsp, memories, task = inputs
        profile = ghz.pkg.advantage_profile(
            cfg, noise, PROFILE_N_MAX, memories=memories, fsp=fsp, task=task, mc_samples=MC_SAMPLES
        )
        table = ghz.tables.ResultTable(PROFILE_COLUMNS, metadata={"figure": "fig7"})
        for row in profile.rows:
            table.add_row(
                memories, fsp.block_size, row.n_parties, task, row.multi_rate, row.bi_rate, row.ratio, row.status
            )
        return profile, table.render()

    def digest(self, unit, output, ghz):
        profile, _ = output
        return {
            "rows": [[r.n_parties, r.status, r.multi_rate, r.bi_rate, r.ratio] for r in profile.rows],
        }

    def check(self, unit, inputs, output, ref, ghz):
        profile, text = output
        rows = ref["rows"]
        lo = ref.get("lo", rows)
        hi = ref.get("hi", rows)
        if len(profile.rows) != len(rows):
            return f"{len(profile.rows)} rows, expected {len(rows)}"
        header, data = split_csv(text)
        if header != PROFILE_COLUMNS or len(data) != len(rows):
            return "rendered table does not match the profile"
        for row, r, l, h in zip(profile.rows, rows, lo, hi):
            n, status, _, _, ratio = r
            where = f"N={n}"
            if row.n_parties != n or row.status != status:
                return f"{where}: status {row.status!r}, expected {status!r}"
            if not _close(row.multi_rate, l[2], h[2]):
                return f"{where}: multi fraction {row.multi_rate!r} outside [{l[2]}, {h[2]}]"
            if not _close(row.bi_rate, l[3], h[3]):
                return f"{where}: bipartite fraction {row.bi_rate!r} outside [{l[3]}, {h[3]}]"
            if (ratio is None) != (row.ratio is None):
                return f"{where}: ratio {row.ratio!r}, expected {ratio!r}"
            if ratio is not None:
                # multi and bi move independently within their bands
                r_lo = min(l[2], h[2]) / max(l[3], h[3])
                r_hi = max(l[2], h[2]) / min(l[3], h[3])
                if not _close(row.ratio, r_lo, r_hi):
                    return f"{where}: ratio {row.ratio!r} outside [{r_lo}, {r_hi}]"
        return None


# ---------------------------------------------------------------------------
# cli-sweeps: in-process `ghznet sweep` invocations

SWEEP_COMMON = (
    "protocol.family=mQSS,mCKA,bQSS,bCKA",
    "protocol.p_key=0.95",
    f"network.d_A_km={D_A_KM:g}",
    f"network.d_B_km={D_B_KM:g}",
    f"noise.f_D={F_DEPOL:g}",
    f"memory.T2_s={T2_S:g}",
    f"memory.Tp_s={TP_S:g}",
    f"mc.samples={MC_SAMPLES}",
)
FINITE = ("finite.block_size=1e8",)
# name: (memories, regime settings, sweep settings)
SWEEPS = {
    "d_A/asymptotic": (True, (), ("sweep.parameter=network.d_A_km", "sweep.from=4", "sweep.to=100", "sweep.steps=97")),
    "d_A/finite": (True, FINITE, ("sweep.parameter=network.d_A_km", "sweep.from=4", "sweep.to=100", "sweep.steps=97")),
    "N/asymptotic": (True, (), ("sweep.parameter=network.N", "sweep.from=2", "sweep.to=30", "sweep.steps=29")),
    "N/finite": (True, FINITE, ("sweep.parameter=network.N", "sweep.from=2", "sweep.to=30", "sweep.steps=29")),
    "N/finite-memoryless": (False, FINITE, ("sweep.parameter=network.N", "sweep.from=2", "sweep.to=30", "sweep.steps=29")),
    "f_D/asymptotic": (True, (), ("sweep.parameter=noise.f_D", "sweep.from=0", "sweep.to=0.08", "sweep.steps=81")),
    "f_D/finite-memoryless": (False, FINITE, ("sweep.parameter=noise.f_D", "sweep.from=0", "sweep.to=0.08", "sweep.steps=81")),
    "block/memory": (True, (), ("sweep.parameter=finite.block_size", "sweep.from=1e4", "sweep.to=1e12", "sweep.steps=65", "sweep.log=true")),
    "block/memoryless": (False, (), ("sweep.parameter=finite.block_size", "sweep.from=1e4", "sweep.to=1e12", "sweep.steps=65", "sweep.log=true")),
}


def sweep_argv(name: str) -> list[str]:
    memories, regime, sweep = SWEEPS[name]
    argv = ["sweep"]
    for setting in SWEEP_COMMON + (f"protocol.memories={str(memories).lower()}",) + regime + sweep:
        argv += ["--set", setting]
    return argv


def run_cli(ghz, argv: list[str]) -> tuple[int, str]:
    """In-process `ghznet ...`; standard output is captured, not printed."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = ghz.cli.main(argv)
    return code, buffer.getvalue()


class CliSweeps(Workload):
    name = "cli-sweeps"
    modules = ("cli",)
    trace_rounds = 8
    round_s = 0.5

    def pool(self) -> list[Unit]:
        return [make_unit(name, sweep=name) for name in SWEEPS]

    def prepare(self, unit: Unit, ghz):
        return sweep_argv(unit.get("sweep"))

    def call(self, inputs, ghz):
        return run_cli(ghz, inputs)

    def digest(self, unit, output, ghz):
        code, text = output
        lines = csv_lines(text)
        return {"exit": code, "header": lines[0], "rows": lines[1:]}

    def check(self, unit, inputs, output, ref, ghz):
        code, text = output
        if code != ref["exit"]:
            return f"exit code {code}, expected {ref['exit']}"
        lines = csv_lines(text)
        if lines[0] != ref["header"]:
            return "CSV header differs"
        if len(lines) - 1 != len(ref["rows"]):
            return f"{len(lines) - 1} rows, expected {len(ref['rows'])}"
        lo = ref.get("lo", {})
        hi = ref.get("hi", {})
        for index, (got, want) in enumerate(zip(lines[1:], ref["rows"])):
            if got == want:
                continue
            key = str(index)
            cells = [next(csv.reader([line])) for line in (got, want, lo.get(key, want), hi.get(key, want))]
            problem = compare_csv_rows(*cells)
            if problem is not None:
                return f"row {index}: {problem}"
        return None


# ---------------------------------------------------------------------------
# oracle-check: the density-matrix, subset-enumeration and sifting oracles

ORACLE_ARGV = ["oracle-check", "--max-n", "4", "--widen-guard"]
ORACLE_VERDICT = "oracle-check: PASS"


class OracleCheck(Workload):
    name = "oracle-check"
    modules = ("cli",)
    round_s = 3.8

    def pool(self) -> list[Unit]:
        return [make_unit("max-n-4", argv=tuple(ORACLE_ARGV))]

    def prepare(self, unit: Unit, ghz):
        return list(unit.get("argv"))

    def call(self, inputs, ghz):
        return run_cli(ghz, inputs)

    def digest(self, unit, output, ghz):
        code, text = output
        return {"exit": code, "verdict": text.strip().splitlines()[-1]}

    def check(self, unit, inputs, output, ref, ghz):
        code, text = output
        if code != 0 or ref["exit"] != 0:
            return f"exit code {code}"
        lines = text.strip().splitlines()
        if not lines or lines[-1] != ORACLE_VERDICT:
            return f"verdict {lines[-1] if lines else ''!r}"
        return None


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (FiniteThresholds(), PlayerProfiles(), CliSweeps(), OracleCheck())
}


def plan(workload: Workload, seed: int, n_rounds: int, ghz) -> list[list[tuple[Unit, Any]]]:
    """The first n_rounds seeded rounds with their inputs built."""
    rng = random.Random(seed)
    rounds = workload.rounds(rng)
    return [[(unit, workload.prepare(unit, ghz)) for unit in next(rounds)] for _ in range(n_rounds)]
