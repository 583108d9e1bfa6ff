"""Figure-style reproduction recipes: pinned parameter grids for the
standard scenario panels, one CSV per panel plus a manifest of the choices.
fig2, fig3, fig4, fig6 and fig7 pivot the rows that the `sweep`, `threshold`
and `profile` commands print for the recipe's invocations."""

from __future__ import annotations

import functools
import os

import numpy as np

from . import __version__
from .analysis import TASK_FAMILIES, multi_models, optimized_fraction, scenario_qbers
from .cli import command_rows
from .config import DEFAULTS
from .finite import BestFraction, FiniteSizeParams, bipartite_optimal
from .network import Family, NetworkConfig, ProtocolSpec
from .noise import NoiseParams
from .optimize import ScalarMaximum
from .rates import asymptotic_rate
from .tables import ResultTable

# Shared parameters of the finite-size and memory panels: the default scenario.
ASYM_D_A_KM = DEFAULTS["network.d_A_km"]
ASYM_D_B_KM = DEFAULTS["network.d_B_km"]
F_DEPOL = DEFAULTS["noise.f_D"]
EPSILON = DEFAULTS["finite.epsilon"]
T2_S = DEFAULTS["memory.T2_s"]
TP_S = DEFAULTS["memory.Tp_s"]
MC_SAMPLES = DEFAULTS["mc.samples"]
DEFAULT_N = DEFAULTS["network.N"]
# the held distance of the noise-threshold panels, the one `ghznet threshold
# --target noise` holds by default
THRESHOLD_D_KM = DEFAULTS["network.d_B_km"]

BLOCK_GRID = tuple(float(b) for b in np.logspace(4, 12, 17))
THRESHOLD_BLOCKS = (1e6, 1e8, 1e10)


def _table(figure: str, seed: int, columns: list[str], **params) -> ResultTable:
    """An empty table whose header records the figure, the seed and `params`."""
    meta = {"ghznet.version": __version__, "figure": figure, "seed": str(seed)}
    for key, value in params.items():
        meta[f"param.{key}"] = f"{value:g}" if isinstance(value, float) else str(value)
    return ResultTable(columns, metadata=meta)


def _rows(command: str, settings: dict, *options: str) -> list[dict]:
    """The rows of `ghznet <command> <options>` with every key of `settings`
    set to its value, keyed by column."""
    return command_rows([command, *options, *(f"--set={key}={value}" for key, value in settings.items())])


def _threshold(target: str, settings: dict) -> tuple[float | None, str]:
    """The threshold and status that `ghznet threshold --target <target>`
    prints for `settings`, under its default bracket and tolerance."""
    (row,) = _rows("threshold", settings, "--target", target)
    return row["threshold"], row["status"]


def _fig2(seed: int) -> dict[str, ResultTable]:
    """Asymptotic rates versus symmetric link distance at 2% depolarization."""
    f_depol = 0.02
    n_values = (3, 4, 5)
    columns = ["d_km"]
    for n in n_values:
        columns += [f"mQSS_N{n}", f"bQSS_N{n}"]
    table = _table("fig2", seed, columns, f_depol=f_depol)
    sweep = {
        "noise.f_D": f_depol, "protocol.family": "mQSS,bQSS", "sweep.parameter": "network.d_km",
        "sweep.from": 0.0, "sweep.to": 20.0, "sweep.steps": 81,
    }
    # each sweep prints an mQSS row, then a bQSS row, at every distance
    sweeps = [_rows("sweep", {"network.N": n, **sweep}) for n in n_values]
    for point in range(0, len(sweeps[0]), 2):
        row = [float(sweeps[0][point]["network.d_km"])]
        for rows in sweeps:
            row += [rows[point]["rate"], rows[point + 1]["rate"]]
        table.rows.append(row)
    return {"fig2_rates_vs_distance.csv": table}


def _fig3(seed: int) -> dict[str, ResultTable]:
    """Asymptotic advantage thresholds versus player number."""
    n_values = range(3, 11)
    noise_table = _table(
        "fig3", seed, ["n_parties", "f_depol_threshold", "status"],
        fixed_d_km=THRESHOLD_D_KM, panel="noise-threshold",
    )
    for n in n_values:
        noise_table.add_row(n, *_threshold("noise", {"network.N": n, "network.d_km": THRESHOLD_D_KM}))
    distance_table = _table(
        "fig3", seed, ["n_parties", "f_depol", "d_km_threshold", "status"],
        panel="distance-threshold", f_depol_values=f"0,{F_DEPOL:g}",
    )
    for f_depol in (0.0, F_DEPOL):
        for n in n_values:
            distance_table.add_row(n, f_depol, *_threshold("distance", {"network.N": n, "noise.f_D": f_depol}))
    return {"fig3_noise_thresholds.csv": noise_table, "fig3_distance_thresholds.csv": distance_table}


def _fig4(seed: int) -> dict[str, ResultTable]:
    """Asymptotic multipartite advantage versus player number, with and
    without memories, in asymmetric networks."""
    table = _table(
        "fig4", seed,
        ["d_a_km", "n_parties", "ratio_memory", "ratio_memoryless", "rate_multi_memory",
         "rate_bi_memory", "rate_multi_memoryless", "rate_bi_memoryless"],
        d_b_km=ASYM_D_B_KM, f_depol=F_DEPOL, t2_s=T2_S, tp_s=TP_S,
        mc_samples=MC_SAMPLES,
    )
    for d_a in (30.0, 50.0):
        settings = {"network.N": 25, "network.d_A_km": d_a, "mc.seed": seed}
        mem = _rows("profile", {**settings, "protocol.memories": True})
        nomem = _rows("profile", {**settings, "protocol.memories": False})
        for row_m, row_n in zip(mem, nomem):
            table.add_row(
                d_a, row_m["n_parties"], row_m["ratio"], row_n["ratio"], row_m["multi_rate"],
                row_m["bi_rate"], row_n["multi_rate"], row_n["bi_rate"],
            )
    return {"fig4_advantage_profiles.csv": table}


def _p_key(opt: ScalarMaximum) -> float | None:
    return None if opt.indeterminate else opt.x


@functools.lru_cache(maxsize=1)
def _block_sweep(seed: int) -> list[dict]:
    """The asymmetric memory network at every BLOCK_GRID block.

    One row of named cells per block, of which the fig5, figC1 and figC2
    tables are column projections: computed once for the seed of a
    `--figure all` run, and read only.
    """
    noise = NoiseParams(f_depol=F_DEPOL, t2_s=T2_S, prep_time_s=TP_S)
    cfg = NetworkConfig(DEFAULT_N, ASYM_D_A_KM, ASYM_D_B_KM)
    spec_multi = ProtocolSpec(Family.MQSS, memories=True)
    spec_bi = ProtocolSpec(Family.BQSS, memories=True)
    qb_multi = scenario_qbers(cfg, spec_multi, noise, MC_SAMPLES, seed)
    qb_bi = scenario_qbers(cfg, spec_bi, noise, MC_SAMPLES, seed)
    asym_multi = asymptotic_rate(cfg, spec_multi, qb_multi).rate
    asym_bi = asymptotic_rate(cfg, spec_bi, qb_bi).rate
    rows = []
    for block in BLOCK_GRID:
        fsp = FiniteSizeParams(epsilon=EPSILON, block_size=block)
        opt_qss, res_qss = optimized_fraction(cfg, Family.MQSS, fsp, qb_multi, memories=True)
        # best_cka_fraction's selection, pre-shared strategy first
        cka = BestFraction(multi_models(cfg, "CKA", fsp, qb_multi, memories=True))
        bi = bipartite_optimal(cfg, noise, fsp, memory_qbers=qb_bi)
        pre, sw = bi.candidates[Family.BCKA, True], bi.candidates[Family.BQSS, True]
        rows.append({
            "block_size": block,
            "mQSS": res_qss.secret_fraction,
            "mCKA": cka.result().secret_fraction,
            "mCKA_strategy": cka.models[cka.winner].strategy.value,
            "p_key_mQSS": _p_key(opt_qss),
            "p_key_mCKA": _p_key(cka.optima[cka.winner]),
            "p_key_mCKA_preshared": _p_key(cka.optima[0]),
            "bipartite_optimal": bi.result.secret_fraction,
            "bipartite_choice": f"{bi.family.value}{'+mem' if bi.memories else ''}",
            "b_preshared": pre.value,
            "b_switching": sw.value,
            "p_key_b_preshared": _p_key(pre),
            "p_key_b_switching": _p_key(sw),
            "asymptote_multi": asym_multi,
            "asymptote_bipartite": asym_bi,
        })
    return rows


def _block_table(
    seed: int, figure: str, cells: list[str], columns: list[str] | None = None, **params
) -> ResultTable:
    """The `_block_sweep` cells named by `cells`, one row per block, under
    the headers `columns` (the cell names by default)."""
    table = _table(
        figure, seed, columns or cells, n_parties=DEFAULT_N, d_a_km=ASYM_D_A_KM,
        d_b_km=ASYM_D_B_KM, f_depol=F_DEPOL, epsilon=EPSILON, memories="true", **params,
    )
    for row in _block_sweep(seed):
        table.add_row(*(row[cell] for cell in cells))
    return table


def _fig5_table(seed: int, bi_cells: list[str]) -> ResultTable:
    """fig5's and figC1's projection: the multipartite cells, `bi_cells`
    and the asymptotes."""
    cells = ["block_size", "mQSS", "mCKA", "mCKA_strategy", "p_key_mQSS", "p_key_mCKA"]
    cells += bi_cells + ["asymptote_multi", "asymptote_bipartite"]
    return _block_table(seed, "fig5/figC1", cells, t2_s=T2_S, tp_s=TP_S, mc_samples=MC_SAMPLES)


def _fig5(seed: int) -> dict[str, ResultTable]:
    """Secret fraction versus block size, bipartite collapsed to its best."""
    return {"fig5_blocksize.csv": _fig5_table(seed, ["bipartite_optimal", "bipartite_choice"])}


def _fig_c1(seed: int) -> dict[str, ResultTable]:
    """Secret fraction versus block size with both bipartite strategies shown."""
    cells = ["b_preshared", "b_switching", "p_key_b_preshared", "p_key_b_switching"]
    return {"figC1_blocksize_full.csv": _fig5_table(seed, cells)}


def _fig_c2(seed: int) -> dict[str, ResultTable]:
    """Optimal key-basis probability versus block size.

    p_key_mCKA is the pre-shared conference-key optimum, which differs from
    the sweep's best mCKA wherever switching wins.
    """
    cells = ["block_size", "p_key_mCKA_preshared", "p_key_mQSS", "p_key_b_preshared", "p_key_b_switching"]
    columns = ["block_size", "p_key_mCKA", "p_key_mQSS", "p_key_bCKA", "p_key_bQSS"]
    return {"figC2_optimal_pkey.csv": _block_table(seed, "figC2", cells, columns)}


def _fig6(seed: int) -> dict[str, ResultTable]:
    """Finite-size advantage thresholds over a symmetric network."""
    n_values = (3, 4, 5, 6, 8, 10)
    tables = {}
    for task, family in TASK_FAMILIES.items():
        noise_table = _table(
            "fig6", seed, ["task", "block_size", "n_parties", "f_depol_threshold", "status"],
            fixed_d_km=THRESHOLD_D_KM, epsilon=EPSILON, panel="noise",
        )
        dist_table = _table(
            "fig6", seed, ["task", "block_size", "n_parties", "d_km_threshold", "status"],
            fixed_f_depol=F_DEPOL, epsilon=EPSILON, panel="distance",
        )
        for block in THRESHOLD_BLOCKS:
            finite = {"protocol.family": family.value, "finite.block_size": block, "finite.epsilon": EPSILON}
            for n in n_values:
                noise = _threshold("noise", {"network.N": n, "network.d_km": THRESHOLD_D_KM, **finite})
                noise_table.add_row(task, block, n, *noise)
                distance = _threshold("distance", {"network.N": n, "noise.f_D": F_DEPOL, **finite})
                dist_table.add_row(task, block, n, *distance)
        tables[f"fig6_noise_thresholds_{task.lower()}.csv"] = noise_table
        tables[f"fig6_distance_thresholds_{task.lower()}.csv"] = dist_table
    return tables


def _fig7(seed: int) -> dict[str, ResultTable]:
    """Finite-size performance versus player number, with and without memories."""
    table = _table(
        "fig7", seed,
        ["memories", "block_size", "n_parties", "task", "multi_fraction", "bi_fraction",
         "ratio", "status"],
        d_a_km=ASYM_D_A_KM, d_b_km=ASYM_D_B_KM, f_depol=F_DEPOL,
        epsilon=EPSILON, t2_s=T2_S, tp_s=TP_S, mc_samples=MC_SAMPLES,
    )
    for memories in (True, False):
        for block in THRESHOLD_BLOCKS:
            for task, family in TASK_FAMILIES.items():
                rows = _rows("profile", {
                    "network.N": 20, "protocol.memories": memories, "finite.block_size": block,
                    "protocol.family": family.value, "mc.seed": seed,
                })
                for row in rows:
                    table.add_row(
                        memories, block, row["n_parties"], task, row["multi_rate"],
                        row["bi_rate"], row["ratio"], row["status"],
                    )
    return {"fig7_player_scaling.csv": table}


RECIPES = {
    "fig2": _fig2,
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "figC1": _fig_c1,
    "figC2": _fig_c2,
}


def run_reproduce(figure_id: str, outdir: str, seed: int = 1) -> list[str]:
    """Write the CSV tables for one figure id and its manifest; returns the
    file names, in the order the recipe returns its tables."""
    if figure_id not in RECIPES:
        raise ValueError(f"unknown figure id {figure_id!r}")
    os.makedirs(outdir, exist_ok=True)
    tables = RECIPES[figure_id](seed)
    for name, table in tables.items():
        table.write(os.path.join(outdir, name))
    manifest_path = os.path.join(outdir, f"MANIFEST_{figure_id}.txt")
    with open(manifest_path, "w", encoding="utf-8") as handle:
        handle.write(f"figure: {figure_id}\nseed: {seed}\nversion: {__version__}\n")
        handle.write("tables:\n")
        for name in tables:
            handle.write(f"  {name}\n")
    return list(tables)
