"""Numerical machinery: threshold root-finding, basis-probability
optimization and multipartite-advantage profiles over the player number."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

from .finite import (
    BestFraction,
    FiniteSizeParams,
    KeyLengthModel,
    KeyLengthResult,
    best_link,
    bipartite_models,
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
from .optimize import ScalarMaximum, itp_bracket
from .rates import asymptotic_rate


# An entry holds a NetworkConfig, a NoiseParams and a QberPair with its key
# tuple: about 700 bytes by tracemalloc over 4096 distinct entries, so a
# full memo stays below 3 MB.
_MEMORY_DRAWS = 4096


@functools.lru_cache(maxsize=_MEMORY_DRAWS, typed=True)
def _memory_qbers(cfg: NetworkConfig, noise: NoiseParams, mc_samples: int, seed: int) -> QberPair:
    # a draw is a pure function of its stream, so equal inputs share it;
    # typed, so a float sample count or seed, which cannot draw, gets no int's entry
    qbers, _ = expected_memory_qbers(cfg, noise, mc_samples, as_rng([seed, cfg.n_parties]))
    return qbers


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
    so repeated evaluations are reproducible.  The error rates depend on
    the family only through the formula party count, and not at all on
    p_key or the block size, so each distinct (network at that party count,
    noise, samples, seed) is drawn once per process and kept in a bounded
    memo of the most recent draws.
    """
    n_formula = formula_party_count(cfg, spec)
    if not spec.memories:
        return memoryless_qber(noise.f_depol, n_formula)
    cfg_eff = cfg if n_formula == cfg.n_parties else cfg.with_parties(2)
    return _memory_qbers(cfg_eff, noise, mc_samples, seed)


def optimized_fraction(
    cfg: NetworkConfig,
    family: Family,
    fsp: FiniteSizeParams,
    qbers: QberPair,
    memories: bool = False,
    basis_strategy: BasisStrategy | None = None,
) -> tuple[ScalarMaximum, KeyLengthResult]:
    """Secret fraction of one protocol family, optimized over p_key."""
    best = BestFraction([KeyLengthModel(cfg, family, fsp, qbers, memories, basis_strategy)])
    return best.optima[0], best.result()


CKA_STRATEGIES = (BasisStrategy.PRESHARED, BasisStrategy.SWITCHING)
# the multipartite family of each task
TASK_FAMILIES = {"QSS": Family.MQSS, "CKA": Family.MCKA}


def multi_models(
    cfg: NetworkConfig, task: str, fsp: FiniteSizeParams, qbers: QberPair, memories: bool = False
) -> list[KeyLengthModel]:
    """The models a task's multipartite fraction is the best of: both
    conference-key strategies for CKA, switching secret sharing for QSS."""
    if task == "CKA":
        return [KeyLengthModel(cfg, Family.MCKA, fsp, qbers, memories, s) for s in CKA_STRATEGIES]
    return [KeyLengthModel(cfg, Family.MQSS, fsp, qbers, memories)]


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
    best = BestFraction(multi_models(cfg, "CKA", fsp, qbers, memories))
    # the pre-shared strategy wins a tie and stands for a dead pair
    return best.optima[best.winner], best.result(), best.models[best.winner].strategy


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
        if self.task not in TASK_FAMILIES:
            raise ValueError("task must be 'QSS' or 'CKA'")
        if self.target == "noise" and self.fixed_distance_km is None:
            raise ValueError("noise threshold needs fixed_distance_km")
        if self.target == "distance" and self.fixed_noise is None:
            raise ValueError("distance threshold needs fixed_noise")


@dataclass(frozen=True)
class ThresholdResult:
    value: float | None
    status: str


def _advantage(
    cfg: NetworkConfig,
    task: str,
    fsp: FiniteSizeParams | None,
    qb_multi: QberPair,
    link_modes: list[tuple[bool, QberPair]],
    memories: bool = False,
) -> tuple[float, float]:
    """The task's best multipartite rate and the best bipartite one over
    `link_modes` (memories, error rates), both clamped at 0: asymptotic
    rates without `fsp`, else the secret fractions that `best_cka_fraction`
    (CKA) or `optimized_fraction` (QSS) and `bipartite_optimal` select,
    from one stacked grid of every model of both sides."""
    if fsp is None:
        multi = asymptotic_rate(cfg, ProtocolSpec(TASK_FAMILIES[task], memories), qb_multi)
        links = (asymptotic_rate(cfg, ProtocolSpec(Family.BQSS, mem), qbers) for mem, qbers in link_modes)
        return multi.rate, max(link.rate for link in links)
    multi = multi_models(cfg, task, fsp, qb_multi, memories)
    links = bipartite_models(cfg, fsp, link_modes)
    rows = stacked_fractions(multi + list(links.values()))
    return BestFraction(multi, rows[: len(multi)]).exact(), best_link(links, rows[len(multi) :]).exact()


def _gap(query: ThresholdQuery) -> Callable[[float], float]:
    """The advantage gap at a scanned value: the best multipartite rate
    minus the best bipartite one, positive exactly where multipartite wins.

    Both rates are clamped at 0, so where neither side yields key the gap
    is 0 and shows no advantage.  Whatever the scanned value leaves fixed
    is built once.
    """
    n = query.n_parties
    if query.target == "noise":
        fixed_cfg = NetworkConfig.make_symmetric(n, query.fixed_distance_km)
    else:
        fixed_qbers = memoryless_qber(query.fixed_noise, n), memoryless_qber(query.fixed_noise, 2)
    fsp = None
    if query.block_size is not None:
        fsp = FiniteSizeParams(epsilon=query.epsilon, block_size=query.block_size)

    def gap(x: float) -> float:
        if query.target == "noise":
            cfg, qb_multi, qb_bi = fixed_cfg, memoryless_qber(x, n), memoryless_qber(x, 2)
        else:
            cfg, (qb_multi, qb_bi) = NetworkConfig.make_symmetric(n, x), fixed_qbers
        multi, bi = _advantage(cfg, query.task, fsp, qb_multi, [(False, qb_bi)])
        return multi - bi

    return gap


def find_threshold(
    query: ThresholdQuery,
    bracket: tuple[float, float],
    xtol: float = 1e-6,
) -> ThresholdResult:
    """Locate the boundary of the multipartite-advantage region by ITP search.

    The bracket must contain the boundary: the advantage predicate
    (multipartite rate strictly above bipartite, a positive gap) must
    differ between its ends, otherwise the result reports no-sign-change,
    distinguishing always-advantage from never-advantage brackets.  The
    search never takes more than one gap evaluation beyond bisection and
    returns the midpoint of a final bracket no wider than xtol.
    """
    lo, hi = bracket
    if not (math.isfinite(hi - lo) and lo < hi):
        raise ValueError(f"need a finite bracket with lo < hi, got {bracket!r}")
    if not (math.isfinite(xtol) and xtol > 0.0):
        raise ValueError(f"xtol must be a positive finite number, got {xtol!r}")
    gap = _gap(query)
    gap_lo, gap_hi = gap(lo), gap(hi)
    if (gap_lo > 0.0) == (gap_hi > 0.0):
        return ThresholdResult(None, "no-sign-change")
    lo, hi = itp_bracket(gap, (lo, hi), gap_lo, gap_hi, xtol)
    return ThresholdResult(0.5 * (lo + hi), "ok")


@dataclass(frozen=True)
class AdvantageRow:
    n_parties: int
    multi_rate: float
    bi_rate: float
    ratio: float | None
    status: str


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
    if task not in TASK_FAMILIES:
        raise ValueError("task must be 'QSS' or 'CKA'")
    multi_spec = ProtocolSpec(TASK_FAMILIES[task], memories)
    # two-party links: the same draw serves every N
    link_modes = [(False, memoryless_qber(noise.f_depol, 2))]
    if memories:
        spec_mem = ProtocolSpec(Family.BQSS, memories=True)
        link_modes.append((True, scenario_qbers(cfg, spec_mem, noise, mc_samples, seed)))
    rows: list[AdvantageRow] = []
    for n in range(2, n_max + 1):
        cfg_n = cfg.with_parties(n)
        qb_multi = scenario_qbers(cfg_n, multi_spec, noise, mc_samples, seed)
        multi_rate, bi_rate = _advantage(cfg_n, task, fsp, qb_multi, link_modes, memories)
        if multi_rate <= 0.0 and bi_rate <= 0.0:
            rows.append(AdvantageRow(n, multi_rate, bi_rate, None, "both-zero"))
            continue
        if bi_rate <= 0.0:
            rows.append(AdvantageRow(n, multi_rate, bi_rate, None, "bipartite-dead"))
            continue
        rows.append(AdvantageRow(n, multi_rate, bi_rate, multi_rate / bi_rate, "ok"))
    max_linear, max_advantage = _profile_extents(rows)
    return AdvantageProfile(rows, max_linear, max_advantage)
