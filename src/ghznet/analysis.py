"""Numerical machinery: threshold root-finding, basis-probability
optimization and multipartite-advantage profiles over the player number."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .finite import (
    FiniteSizeParams,
    KeyLengthModel,
    KeyLengthResult,
    bipartite_models,
    bipartite_optimal,
    dead_link_result,
    link_params,
    maximize_stacked,
    refine,
    stacked_fractions,
)
from .memory import as_rng, expected_memory_qbers
from .network import (
    BasisStrategy,
    Family,
    NetworkConfig,
    ProtocolSpec,
    formula_party_count,
)
from .noise import NoiseParams, QberPair, memoryless_qber
from .optimize import UNIT_GRID, ScalarMaximum, grid_peak
from .rates import asymptotic_rate


def scenario_qbers(
    cfg: NetworkConfig,
    spec: ProtocolSpec,
    noise: NoiseParams,
    mc_samples: int = 1000,
    seed: int = 1,
) -> QberPair:
    """Error rates for a protocol on this network.

    Memoryless runs use the closed-form channel model; memory-assisted runs
    sample the dephasing chain with a seed derived from (seed, party count)
    so repeated evaluations are reproducible.
    """
    n_formula = formula_party_count(cfg, spec)
    if not spec.memories:
        return memoryless_qber(noise.f_depol, n_formula)
    cfg_eff = cfg if n_formula == cfg.n_parties else cfg.with_parties(2)
    qbers, _ = expected_memory_qbers(cfg_eff, noise, mc_samples, as_rng([seed, n_formula]))
    return qbers


def optimized_fraction(
    cfg: NetworkConfig,
    family: Family,
    fsp: FiniteSizeParams,
    qbers: QberPair,
    memories: bool = False,
    basis_strategy: BasisStrategy | None = None,
) -> tuple[ScalarMaximum, KeyLengthResult]:
    """Secret fraction of one protocol family, optimized over p_key."""
    model = KeyLengthModel(cfg, family, fsp, qbers, memories, basis_strategy)
    (opt,) = maximize_stacked([model])
    return opt, _optimum_result(model, opt)


def _optimum_result(model: KeyLengthModel, opt: ScalarMaximum) -> KeyLengthResult:
    # an everywhere-dead objective reports a concrete evaluation at p_key = 1/2
    return model.result(0.5 if opt.indeterminate else opt.x)


CKA_STRATEGIES = (BasisStrategy.PRESHARED, BasisStrategy.SWITCHING)


def best_cka_fraction(
    cfg: NetworkConfig,
    fsp: FiniteSizeParams,
    qbers: QberPair,
    memories: bool = False,
) -> tuple[ScalarMaximum, KeyLengthResult, BasisStrategy]:
    """Best multipartite conference-key strategy at one block size.

    Trusted players may use the pre-shared basis string or fall back to
    running the switching secret-sharing protocol as a conference key, so
    the achievable conference rate is the better of the two; they coincide
    wherever switching wins.
    """
    models = {
        strategy: KeyLengthModel(cfg, Family.MCKA, fsp, qbers, memories, strategy)
        for strategy in CKA_STRATEGIES
    }
    optima = maximize_stacked(list(models.values()))
    results = {
        strategy: (opt, _optimum_result(model, opt))
        for (strategy, model), opt in zip(models.items(), optima)
    }
    best = max(results, key=lambda s: results[s][1].secret_fraction)
    opt, result = results[best]
    return opt, result, best


def _multi_fraction(
    cfg: NetworkConfig, task: str, fsp: FiniteSizeParams, qbers: QberPair, memories: bool
) -> tuple[ScalarMaximum, KeyLengthResult]:
    """Best multipartite secret fraction for a task: the better conference
    key strategy for CKA, switching secret sharing for QSS."""
    if task == "CKA":
        opt, result, _ = best_cka_fraction(cfg, fsp, qbers, memories)
        return opt, result
    return optimized_fraction(cfg, Family.MQSS, fsp, qbers, memories)


@dataclass(frozen=True)
class ThresholdQuery:
    """Where do multipartite and bipartite rates cross?

    target "noise" scans the depolarization at fixed symmetric distance;
    target "distance" scans the symmetric link length at fixed noise.
    block_size None means asymptotic rates, otherwise finite-size secret
    fractions with the basis probability optimized at every point.
    """

    target: str
    n_parties: int
    fixed_noise: float | None = None
    fixed_distance_km: float | None = None
    task: str = "QSS"
    block_size: float | None = None
    epsilon: float = 1e-10

    def __post_init__(self) -> None:
        if self.target not in ("noise", "distance"):
            raise ValueError("target must be 'noise' or 'distance'")
        if self.task not in ("QSS", "CKA"):
            raise ValueError("task must be 'QSS' or 'CKA'")
        if self.target == "noise" and self.fixed_distance_km is None:
            raise ValueError("noise threshold needs fixed_distance_km")
        if self.target == "distance" and self.fixed_noise is None:
            raise ValueError("distance threshold needs fixed_noise")


@dataclass(frozen=True)
class ThresholdResult:
    value: float | None
    status: str
    bracket: tuple[float, float]


def _multi_models(
    cfg: NetworkConfig, task: str, fsp: FiniteSizeParams, qbers: QberPair
) -> list[KeyLengthModel]:
    """The memoryless models whose best fraction `_multi_fraction` reports:
    both conference-key strategies for CKA, switching secret sharing for QSS."""
    if task == "CKA":
        return [KeyLengthModel(cfg, Family.MCKA, fsp, qbers, False, s) for s in CKA_STRATEGIES]
    return [KeyLengthModel(cfg, Family.MQSS, fsp, qbers)]


def _grid_bounds(models: list[KeyLengthModel], rows: np.ndarray):
    """Each model's grid stage: the models whose grid finds no positive
    fraction (indeterminate), and (model, row, f(x_grid)) for the rest."""
    dead, live = [], []
    for model, row in zip(models, rows):
        peak = grid_peak(model.fraction, row)
        if peak is None:
            dead.append(model)
        else:
            live.append((model, row, peak[1]))
    return dead, live


class _BestFraction:
    """The best secret fraction among one side's models, bounded below from
    their stacked grid and refined by the optimizer only on demand.

    `fixed` holds exact values (the evaluations reported for dead models);
    `live` the models to refine with their rows and f(x_grid), a value
    `maximize_unit_interval` never returns below.
    """

    def __init__(self, fixed: list[float], live: list) -> None:
        self.fixed = fixed
        self.live = live
        self.lower = max(fixed + [bound for _, _, bound in live])

    def exact(self) -> float:
        return max(self.fixed + [refine(model, row).value for model, row, _ in self.live])


def _exceeds(multi: _BestFraction, bi: _BestFraction) -> bool:
    """multi.exact() > bi.exact(), refining a side only where its lower
    bound cannot settle the verdict: the side with the larger bound
    (bipartite on a tie) stands on it while the other side is refined."""
    if multi.lower > bi.lower:
        bi_value = bi.exact()
        return multi.lower > bi_value or multi.exact() > bi_value
    multi_value = multi.exact()
    return multi_value > bi.lower and multi_value > bi.exact()


def _finite_advantaged(
    cfg: NetworkConfig,
    task: str,
    fsp: FiniteSizeParams,
    fsp_link: FiniteSizeParams,
    qb_multi: QberPair,
    qb_bi: QberPair,
) -> bool:
    """Whether `_multi_fraction`'s secret fraction strictly exceeds
    `bipartite_optimal`'s, both memoryless, from one stacked grid of every
    model.  Dead models keep the values those report: a multipartite model
    its p_key = 1/2 evaluation, an all-dead baseline `dead_link_result`."""
    multi_models = _multi_models(cfg, task, fsp, qb_multi)
    bi_models = list(bipartite_models(cfg, fsp_link, [(False, qb_bi)]).values())
    rows = stacked_fractions(multi_models + bi_models, UNIT_GRID)
    multi_dead, multi_live = _grid_bounds(multi_models, rows[: len(multi_models)])
    _, bi_live = _grid_bounds(bi_models, rows[len(multi_models) :])
    multi = _BestFraction([model.result(0.5).secret_fraction for model in multi_dead], multi_live)
    bi_fixed = [] if bi_live else [dead_link_result(cfg, fsp_link, qb_bi).secret_fraction]
    return _exceeds(multi, _BestFraction(bi_fixed, bi_live))


def _advantage(query: ThresholdQuery) -> Callable[[float], bool]:
    """The advantage predicate at a scanned value: multipartite rate
    strictly above bipartite.

    Asymptotic rates keep their sign (negative raw values carry the
    crossing information); finite-size secret fractions are clamped, so the
    advantage region is located by its boundary rather than a strict sign
    change.  Whatever the scanned value leaves fixed is built once.
    """
    n = query.n_parties
    if query.target == "noise":
        fixed_cfg = NetworkConfig.make_symmetric(n, query.fixed_distance_km)
    else:
        fixed_qbers = memoryless_qber(query.fixed_noise, n), memoryless_qber(query.fixed_noise, 2)

    multi_spec = ProtocolSpec(Family.MQSS if query.task == "QSS" else Family.MCKA)
    bi_spec = ProtocolSpec(Family.BQSS)
    fsp = fsp_link = None
    if query.block_size is not None:
        fsp = FiniteSizeParams(epsilon=query.epsilon, block_size=query.block_size)
        fsp_link = link_params(fsp, n)

    def advantaged(x: float) -> bool:
        if query.target == "noise":
            cfg, qb_multi, qb_bi = fixed_cfg, memoryless_qber(x, n), memoryless_qber(x, 2)
        else:
            cfg, (qb_multi, qb_bi) = NetworkConfig.make_symmetric(n, x), fixed_qbers
        if fsp is None:
            multi = asymptotic_rate(cfg, multi_spec, qb_multi)
            return multi.raw > asymptotic_rate(cfg, bi_spec, qb_bi).raw
        return _finite_advantaged(cfg, query.task, fsp, fsp_link, qb_multi, qb_bi)

    return advantaged


def find_threshold(
    query: ThresholdQuery,
    bracket: tuple[float, float],
    xtol: float = 1e-6,
) -> ThresholdResult:
    """Locate the boundary of the multipartite-advantage region by bisection.

    The bracket must contain the boundary: the advantage predicate
    (multipartite rate strictly above bipartite) must differ between its
    ends, otherwise the result reports no-sign-change, distinguishing
    always-advantage from never-advantage brackets.
    """
    lo, hi = bracket
    if not lo < hi:
        raise ValueError("need bracket lo < hi")
    advantaged = _advantage(query)
    adv_lo = advantaged(lo)
    if adv_lo == advantaged(hi):
        return ThresholdResult(None, "no-sign-change", bracket)

    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if advantaged(mid) == adv_lo:
            lo = mid
        else:
            hi = mid
    return ThresholdResult(0.5 * (lo + hi), "ok", bracket)


@dataclass(frozen=True)
class AdvantageRow:
    n_parties: int
    multi_rate: float
    bi_rate: float
    ratio: float | None
    status: str
    p_key_multi: float | None = None
    bi_choice: str | None = None


@dataclass(frozen=True)
class AdvantageProfile:
    rows: list[AdvantageRow]
    max_n_linear: int | None
    max_n_advantage: int | None


def _profile_extents(rows: list[AdvantageRow]) -> tuple[int | None, int | None]:
    max_linear = None
    previous = None
    for row in rows:
        if row.status != "ok":
            break
        if previous is not None and not row.ratio > previous:
            break
        max_linear = row.n_parties
        previous = row.ratio
    advantaged = [row.n_parties for row in rows if row.status == "ok" and row.ratio > 1.0]
    return max_linear, (max(advantaged) if advantaged else None)


def advantage_profile(
    cfg: NetworkConfig,
    noise: NoiseParams,
    n_max: int,
    memories: bool,
    fsp: FiniteSizeParams | None = None,
    task: str = "QSS",
    mc_samples: int = 1000,
    seed: int = 1,
) -> AdvantageProfile:
    """Multipartite-to-bipartite rate ratio for every player count up to n_max.

    The baseline is the better of the memoryless bipartite implementation
    and, with memories, the memory-assisted one.  Finite-size mode compares
    secret fractions at the block size carried by `fsp`, optimizing p_key on
    both sides.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if task not in ("QSS", "CKA"):
        raise ValueError("task must be 'QSS' or 'CKA'")
    multi_family = Family.MQSS if task == "QSS" else Family.MCKA
    multi_spec = ProtocolSpec(multi_family, memories=memories, p_key=1.0)
    # two-party links: the same draw serves every N
    qb_bi_mem = (
        scenario_qbers(cfg, ProtocolSpec(Family.BQSS, memories=True), noise, mc_samples, seed)
        if memories
        else None
    )
    rows: list[AdvantageRow] = []
    for n in range(2, n_max + 1):
        cfg_n = cfg.with_parties(n)
        qb_multi = scenario_qbers(cfg_n, multi_spec, noise, mc_samples, seed)
        p_key_multi: float | None = None
        bi_choice: str | None = None
        if fsp is None:
            multi_rate = asymptotic_rate(cfg_n, multi_spec, qb_multi).rate
            bi_rates = {}
            if memories:
                spec_mem = ProtocolSpec(Family.BQSS, memories=True)
                bi_rates["memory"] = asymptotic_rate(cfg_n, spec_mem, qb_bi_mem).rate
            spec_nomem = ProtocolSpec(Family.BQSS, memories=False)
            qb_bi = memoryless_qber(noise.f_depol, 2)
            bi_rates["memoryless"] = asymptotic_rate(cfg_n, spec_nomem, qb_bi).rate
            bi_choice, bi_rate = max(bi_rates.items(), key=lambda kv: kv[1])
        else:
            opt, multi_result = _multi_fraction(cfg_n, task, fsp, qb_multi, memories)
            multi_rate = multi_result.secret_fraction
            p_key_multi = None if opt.indeterminate else opt.x
            bi = bipartite_optimal(cfg_n, noise, fsp, memory_qbers=qb_bi_mem)
            bi_rate = bi.result.secret_fraction
            bi_choice = f"{bi.family.value}{'+mem' if bi.memories else ''}"
        if multi_rate <= 0.0 and bi_rate <= 0.0:
            rows.append(AdvantageRow(n, multi_rate, bi_rate, None, "both-zero"))
            continue
        if bi_rate <= 0.0:
            rows.append(AdvantageRow(n, multi_rate, bi_rate, None, "bipartite-dead"))
            continue
        rows.append(
            AdvantageRow(
                n, multi_rate, bi_rate, multi_rate / bi_rate, "ok", p_key_multi, bi_choice
            )
        )
    max_linear, max_advantage = _profile_extents(rows)
    return AdvantageProfile(rows, max_linear, max_advantage)
