"""Numerical machinery: threshold root-finding, basis-probability
optimization and multipartite-advantage profiles over the player number."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .finite import FiniteSizeParams, KeyLengthModel, KeyLengthResult, bipartite_optimal
from .memory import as_rng, expected_memory_qbers
from .network import (
    BasisStrategy,
    Family,
    NetworkConfig,
    ProtocolSpec,
    formula_party_count,
)
from .noise import NoiseParams, QberPair, memoryless_qber
from .optimize import ScalarMaximum, maximize_unit_interval
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
    opt = maximize_unit_interval(model.fraction, model.fractions)
    return opt, model.result(0.5 if opt.indeterminate else opt.x)


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
    results = {}
    for strategy in (BasisStrategy.PRESHARED, BasisStrategy.SWITCHING):
        results[strategy] = optimized_fraction(cfg, Family.MCKA, fsp, qbers, memories, strategy)
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


def _rate_pair(query: ThresholdQuery) -> Callable[[float], tuple[float, float]]:
    """Multipartite and bipartite rates as a function of the scanned parameter.

    Asymptotic rates keep their sign (negative raw values carry the
    crossing information); finite-size secret fractions are clamped, so the
    advantage region is located by its boundary rather than a strict sign
    change.
    """
    multi_family = Family.MQSS if query.task == "QSS" else Family.MCKA

    def rates(x: float) -> tuple[float, float]:
        distance = x if query.target == "distance" else query.fixed_distance_km
        f_depol = x if query.target == "noise" else query.fixed_noise
        cfg = NetworkConfig.make_symmetric(query.n_parties, distance)
        qb_multi = memoryless_qber(f_depol, cfg.n_parties)
        if query.block_size is None:
            qb_bi = memoryless_qber(f_depol, 2)
            rate_multi = asymptotic_rate(cfg, ProtocolSpec(multi_family), qb_multi)
            rate_bi = asymptotic_rate(cfg, ProtocolSpec(Family.BQSS), qb_bi)
            return rate_multi.raw, rate_bi.raw
        noise = NoiseParams(f_depol=f_depol)
        fsp = FiniteSizeParams(epsilon=query.epsilon, block_size=query.block_size)
        _, multi = _multi_fraction(cfg, query.task, fsp, qb_multi, memories=False)
        bi = bipartite_optimal(cfg, noise, fsp)
        return multi.secret_fraction, bi.result.secret_fraction

    return rates


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
    rates = _rate_pair(query)
    lo, hi = bracket
    if not lo < hi:
        raise ValueError("need bracket lo < hi")

    def advantaged(x: float) -> bool:
        multi, bi = rates(x)
        return multi > bi

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
