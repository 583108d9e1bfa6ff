"""Figure-style reproduction recipes: pinned parameter grids for the
standard scenario panels, one CSV per panel plus a manifest of the choices."""

from __future__ import annotations

import math
import os

import numpy as np

from . import __version__
from .analysis import (
    ThresholdQuery,
    advantage_profile,
    find_threshold,
    multi_models,
    optimized_fraction,
    scenario_qbers,
)
from .finite import BestFraction, FiniteSizeParams, bipartite_optimal
from .network import Family, NetworkConfig, ProtocolSpec
from .noise import NoiseParams, memoryless_qber
from .optimize import ScalarMaximum
from .rates import asymptotic_rate
from .tables import ResultTable

# Shared parameters of the finite-size and memory panels.
ASYM_D_A_KM = 50.0
ASYM_D_B_KM = 4.0
F_DEPOL = 0.01
EPSILON = 1e-10
T2_S = 1.0
TP_S = 2e-6
MC_SAMPLES = 1000
DEFAULT_N = 3

BLOCK_GRID = tuple(float(b) for b in np.logspace(4, 12, 17))
THRESHOLD_BLOCKS = (1e6, 1e8, 1e10)


def _meta(figure: str, seed: int, **params) -> dict[str, str]:
    meta = {"ghznet.version": __version__, "figure": figure, "seed": str(seed)}
    for key, value in params.items():
        meta[f"param.{key}"] = f"{value:g}" if isinstance(value, float) else str(value)
    return meta


def _memory_noise() -> NoiseParams:
    return NoiseParams(f_depol=F_DEPOL, t2_s=T2_S, prep_time_s=TP_S)


def _write(table: ResultTable, outdir: str, name: str, manifest: list[str]) -> None:
    path = os.path.join(outdir, name)
    table.write(path)
    manifest.append(name)


def _fig2(outdir: str, seed: int, manifest: list[str]) -> None:
    """Asymptotic rates versus symmetric link distance at 2% depolarization."""
    f_depol = 0.02
    n_values = (3, 4, 5)
    columns = ["d_km"]
    for n in n_values:
        columns += [f"mQSS_N{n}", f"bQSS_N{n}"]
    table = ResultTable(columns, metadata=_meta("fig2", seed, f_depol=f_depol))
    for d_km in np.linspace(0.0, 20.0, 81):
        row = [float(d_km)]
        for n in n_values:
            cfg = NetworkConfig.make_symmetric(n, float(d_km))
            row.append(asymptotic_rate(cfg, ProtocolSpec(Family.MQSS), memoryless_qber(f_depol, n)).rate)
            row.append(asymptotic_rate(cfg, ProtocolSpec(Family.BQSS), memoryless_qber(f_depol, 2)).rate)
        table.rows.append(row)
    _write(table, outdir, "fig2_rates_vs_distance.csv", manifest)


def _fig3(outdir: str, seed: int, manifest: list[str]) -> None:
    """Asymptotic advantage thresholds versus player number."""
    n_values = range(3, 11)
    noise_table = ResultTable(
        ["n_parties", "f_depol_threshold", "status"],
        metadata=_meta("fig3", seed, fixed_d_km=4.0, panel="noise-threshold"),
    )
    for n in n_values:
        res = find_threshold(
            ThresholdQuery("noise", n, fixed_distance_km=4.0), (1e-9, 0.5), xtol=1e-7
        )
        noise_table.add_row(n, res.value, res.status)
    _write(noise_table, outdir, "fig3_noise_thresholds.csv", manifest)
    distance_table = ResultTable(
        ["n_parties", "f_depol", "d_km_threshold", "status"],
        metadata=_meta("fig3", seed, panel="distance-threshold", f_depol_values="0,0.01"),
    )
    for f_depol in (0.0, F_DEPOL):
        for n in n_values:
            res = find_threshold(
                ThresholdQuery("distance", n, fixed_noise=f_depol), (1e-3, 40.0), xtol=1e-5
            )
            distance_table.add_row(n, f_depol, res.value, res.status)
    _write(distance_table, outdir, "fig3_distance_thresholds.csv", manifest)


def _fig4(outdir: str, seed: int, manifest: list[str]) -> None:
    """Asymptotic multipartite advantage versus player number, with and
    without memories, in asymmetric networks."""
    noise = _memory_noise()
    table = ResultTable(
        ["d_a_km", "n_parties", "ratio_memory", "ratio_memoryless", "rate_multi_memory",
         "rate_bi_memory", "rate_multi_memoryless", "rate_bi_memoryless"],
        metadata=_meta(
            "fig4", seed, d_b_km=ASYM_D_B_KM, f_depol=F_DEPOL, t2_s=T2_S, tp_s=TP_S,
            mc_samples=MC_SAMPLES,
        ),
    )
    for d_a in (30.0, 50.0):
        cfg = NetworkConfig(2, d_a, ASYM_D_B_KM)
        mem = advantage_profile(cfg, noise, 25, memories=True, mc_samples=MC_SAMPLES, seed=seed)
        nomem = advantage_profile(cfg, noise, 25, memories=False, mc_samples=MC_SAMPLES, seed=seed)
        for row_m, row_n in zip(mem.rows, nomem.rows):
            table.add_row(
                d_a, row_m.n_parties, row_m.ratio, row_n.ratio, row_m.multi_rate,
                row_m.bi_rate, row_n.multi_rate, row_n.bi_rate,
            )
    _write(table, outdir, "fig4_advantage_profiles.csv", manifest)


def _p_key(opt: ScalarMaximum) -> float | None:
    return None if opt.indeterminate else opt.x


def _block_sweep(seed: int) -> list[dict]:
    """The asymmetric memory network at every BLOCK_GRID block.

    One row of named cells per block, of which the fig5, figC1 and figC2
    tables are column projections.
    """
    noise = _memory_noise()
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
        # an indeterminate link optimum has p_key nan
        pre_p, pre_v = bi.candidates[(Family.BCKA.value, True)]
        sw_p, sw_v = bi.candidates[(Family.BQSS.value, True)]
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
            "b_preshared": pre_v,
            "b_switching": sw_v,
            "p_key_b_preshared": pre_p,
            "p_key_b_switching": sw_p,
            "asymptote_multi": asym_multi,
            "asymptote_bipartite": asym_bi,
        })
    return rows


def _block_table(seed: int, bi_columns: list[str]) -> ResultTable:
    rows = _block_sweep(seed)
    columns = ["block_size", "mQSS", "mCKA", "mCKA_strategy", "p_key_mQSS", "p_key_mCKA"]
    columns += bi_columns + ["asymptote_multi", "asymptote_bipartite"]
    table = ResultTable(
        columns,
        metadata=_meta(
            "fig5/figC1", seed, n_parties=DEFAULT_N, d_a_km=ASYM_D_A_KM, d_b_km=ASYM_D_B_KM,
            f_depol=F_DEPOL, epsilon=EPSILON, t2_s=T2_S, tp_s=TP_S, mc_samples=MC_SAMPLES,
            memories="true",
        ),
    )
    for row in rows:
        table.add_row(*(row[column] for column in columns))
    return table


def _fig5(outdir: str, seed: int, manifest: list[str]) -> None:
    """Secret fraction versus block size, bipartite collapsed to its best."""
    table = _block_table(seed, ["bipartite_optimal", "bipartite_choice"])
    _write(table, outdir, "fig5_blocksize.csv", manifest)


def _fig_c1(outdir: str, seed: int, manifest: list[str]) -> None:
    """Secret fraction versus block size with both bipartite strategies shown."""
    columns = ["b_preshared", "b_switching", "p_key_b_preshared", "p_key_b_switching"]
    _write(_block_table(seed, columns), outdir, "figC1_blocksize_full.csv", manifest)


def _fig_c2(outdir: str, seed: int, manifest: list[str]) -> None:
    """Optimal key-basis probability versus block size.

    p_key_mCKA is the pre-shared conference-key optimum, which differs from
    the sweep's best mCKA wherever switching wins.
    """
    table = ResultTable(
        ["block_size", "p_key_mCKA", "p_key_mQSS", "p_key_bCKA", "p_key_bQSS"],
        metadata=_meta(
            "figC2", seed, n_parties=DEFAULT_N, d_a_km=ASYM_D_A_KM, d_b_km=ASYM_D_B_KM,
            f_depol=F_DEPOL, epsilon=EPSILON, memories="true",
        ),
    )
    for row in _block_sweep(seed):
        p_links = (row["p_key_b_preshared"], row["p_key_b_switching"])
        table.add_row(
            row["block_size"],
            row["p_key_mCKA_preshared"],
            row["p_key_mQSS"],
            *(None if math.isnan(p) else p for p in p_links),
        )
    _write(table, outdir, "figC2_optimal_pkey.csv", manifest)


def _fig6(outdir: str, seed: int, manifest: list[str]) -> None:
    """Finite-size advantage thresholds over a symmetric network."""
    n_values = (3, 4, 5, 6, 8, 10)
    for task in ("QSS", "CKA"):
        noise_table = ResultTable(
            ["task", "block_size", "n_parties", "f_depol_threshold", "status"],
            metadata=_meta("fig6", seed, fixed_d_km=4.0, epsilon=EPSILON, panel="noise"),
        )
        dist_table = ResultTable(
            ["task", "block_size", "n_parties", "d_km_threshold", "status"],
            metadata=_meta("fig6", seed, fixed_f_depol=F_DEPOL, epsilon=EPSILON, panel="distance"),
        )
        for block in THRESHOLD_BLOCKS:
            for n in n_values:
                res = find_threshold(
                    ThresholdQuery(
                        "noise", n, fixed_distance_km=4.0, task=task,
                        block_size=block, epsilon=EPSILON,
                    ),
                    (1e-9, 0.5),
                    xtol=1e-5,
                )
                noise_table.add_row(task, block, n, res.value, res.status)
                res = find_threshold(
                    ThresholdQuery(
                        "distance", n, fixed_noise=F_DEPOL, task=task,
                        block_size=block, epsilon=EPSILON,
                    ),
                    (1e-3, 40.0),
                    xtol=1e-4,
                )
                dist_table.add_row(task, block, n, res.value, res.status)
        _write(noise_table, outdir, f"fig6_noise_thresholds_{task.lower()}.csv", manifest)
        _write(dist_table, outdir, f"fig6_distance_thresholds_{task.lower()}.csv", manifest)


def _fig7(outdir: str, seed: int, manifest: list[str]) -> None:
    """Finite-size performance versus player number, with and without memories."""
    noise = _memory_noise()
    cfg = NetworkConfig(2, ASYM_D_A_KM, ASYM_D_B_KM)
    table = ResultTable(
        ["memories", "block_size", "n_parties", "task", "multi_fraction", "bi_fraction",
         "ratio", "status"],
        metadata=_meta(
            "fig7", seed, d_a_km=ASYM_D_A_KM, d_b_km=ASYM_D_B_KM, f_depol=F_DEPOL,
            epsilon=EPSILON, t2_s=T2_S, tp_s=TP_S, mc_samples=MC_SAMPLES,
        ),
    )
    for memories in (True, False):
        for block in THRESHOLD_BLOCKS:
            fsp = FiniteSizeParams(epsilon=EPSILON, block_size=block)
            for task in ("QSS", "CKA"):
                profile = advantage_profile(
                    cfg, noise, 20, memories=memories, fsp=fsp, task=task,
                    mc_samples=MC_SAMPLES, seed=seed,
                )
                for row in profile.rows:
                    table.add_row(
                        memories, block, row.n_parties, task, row.multi_rate,
                        row.bi_rate, row.ratio, row.status,
                    )
    _write(table, outdir, "fig7_player_scaling.csv", manifest)


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
    """Write the CSV tables for one figure id; returns the file names."""
    if figure_id not in RECIPES:
        raise ValueError(f"unknown figure id {figure_id!r}")
    os.makedirs(outdir, exist_ok=True)
    manifest: list[str] = []
    RECIPES[figure_id](outdir, seed, manifest)
    manifest_path = os.path.join(outdir, f"MANIFEST_{figure_id}.txt")
    with open(manifest_path, "w", encoding="utf-8") as handle:
        handle.write(f"figure: {figure_id}\nseed: {seed}\nversion: {__version__}\n")
        handle.write("tables:\n")
        for name in manifest:
            handle.write(f"  {name}\n")
    return manifest
