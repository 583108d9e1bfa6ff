"""Composable finite-size key lengths: statistical penalties, one expected
key-length model for both protocol styles, the security budget and the
bipartite baseline optimized over strategy and basis probability."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import binary_entropy
from .network import (
    BasisStrategy,
    Family,
    NetworkConfig,
    ProtocolSpec,
    formula_party_count,
    sifting_fractions,
    yields,
)
from .noise import NoiseParams, QberPair, memoryless_qber
from .optimize import UNIT_GRID, ScalarMaximum, maximize_unit_interval


# The Hoeffding (xi1: m samples of a pre-characterized distribution) and
# Serfling (xi2: k checks bound the error of the other m rounds) penalties of
# Tomamichel et al., Nat. Commun. 3, 634 (2012), in natural log.
# KeyLengthModel works out log(1/eps) once and passes np.sqrt on its array path.
def _hoeffding(log_inv_eps, m, sqrt=math.sqrt):
    return sqrt(log_inv_eps / m)


def _serfling(log_inv_eps, m, k, sqrt=math.sqrt):
    # (m+k)(k+1)/(m k^2), factored to avoid overflow for huge k
    ratio = (1.0 + k / m) * ((k + 1.0) / k / k)
    return sqrt(ratio * log_inv_eps)


@dataclass(frozen=True)
class EpsilonBudget:
    eps_c: float
    eps_pa: float
    eps_pe: float


@dataclass(frozen=True)
class FiniteSizeParams:
    """Finite-run description: the target block size (expected key-basis
    detections) plus the security parameter epsilon."""

    epsilon: float
    block_size: float
    # Read by nothing in ghznet; kept only because the benchmark's
    # player-profiles workload passes it.
    mc_samples: int = 1000

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not (math.isfinite(self.block_size) and self.block_size >= 1):
            raise ValueError("block_size must be finite and >= 1")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")
        self.budget()  # raises when the split underflows the key-length log term

    def budget(self) -> EpsilonBudget:
        """eps_c + eps_pa + 2*eps_pe = epsilon with the 1/2, 1/4, 1/8 weights."""
        budget = EpsilonBudget(
            eps_c=self.epsilon / 2.0, eps_pa=self.epsilon / 4.0, eps_pe=self.epsilon / 8.0
        )
        # KeyLengthModel's log term is log2 of 1/(eps_c * eps_pa**2)
        if not 2.0 * budget.eps_c * budget.eps_pa**2 > 0.0:
            raise ValueError(
                f"epsilon={self.epsilon!r} is too small: "
                "eps_c * eps_pa**2 underflows to 0 in the key-length log term"
            )
        total = budget.eps_c + budget.eps_pa + 2.0 * budget.eps_pe
        if abs(total - self.epsilon) > 1e-12 * self.epsilon:
            raise AssertionError("security budget does not add up")
        return budget


STATUS_OK = "ok"
STATUS_ABORT = "abort"
STATUS_INSUFFICIENT = "insufficient-detections"


@dataclass(frozen=True)
class KeyLengthResult:
    """Expected extractable key length and its term-by-term breakdown."""

    ell: float
    raw: float
    rounds: float
    secret_fraction: float
    status: str
    m: float
    k: float
    q_x_eff: float
    q_z_eff: float
    pe_term: float
    ec_term: float
    log_term: float
    preshared_term: float


def _entropy_penalty(q_eff: float) -> float:
    # A penalized error rate at or beyond 1/2 saturates the bound; the
    # inverted comparison also routes non-finite values to the cap.  Below
    # it, q_eff is a checked QBER plus a non-negative penalty, so h2 needs
    # no range check of its own.
    if not q_eff < 0.5:
        return 1.0
    if q_eff == 0.0:
        return 0.0
    return -q_eff * math.log2(q_eff) - (1.0 - q_eff) * math.log2(1.0 - q_eff)


def _entropy_array(q: np.ndarray) -> np.ndarray:
    """binary_entropy over an array of probabilities, 0 at both ends.  The
    caller holds np.errstate for log2(0) at the ends."""
    h = -q * np.log2(q) - (1.0 - q) * np.log2(1.0 - q)
    return np.where((q > 0.0) & (q < 1.0), h, 0.0)


def _entropy_penalty_array(q_eff: np.ndarray) -> np.ndarray:
    return np.where(q_eff < 0.5, _entropy_array(q_eff), 1.0)


def _raw(eps_c, m, pe_pen, ec_pen, preshared_term, log_term):
    # floats, or a models x p_key stack with per-model columns, alike
    return (1.0 - eps_c) * (m * (1.0 - pe_pen - ec_pen) - preshared_term - log_term)


class KeyLengthModel:
    """Expected key length of one protocol as a function of p_key alone.

    Everything that does not depend on the key-basis probability is worked
    out once: the formula party count, the security budget, the yield, the
    basis whose check rounds take the Serfling penalty (xi2) and the basis
    that takes the Hoeffding penalty (xi1), their log(1/eps) factors, the
    log term and whether a pre-shared basis string is charged.

    The two protocol styles differ only in those choices.  A pre-shared
    conference key lives in Z: the collective X parity checks take xi2 at
    eps_pe, the per-Bob union bound gives Z xi1 at eps_c/sqrt(N-1) and the
    basis string consumes h2(p_key) bits per network use.  Basis-switching
    secret sharing keeps the key in X: the per-Bob Z checks take xi2 at
    eps_pe/sqrt(N-1), X takes xi1 at eps_c and no basis string exists to
    replenish.

    `result` evaluates one p_key in float arithmetic with its breakdown (the
    path of every single-point call); `fraction` reads the same float terms
    but returns only the secret fraction (the optimizer's refinement).
    `stacked_fractions` evaluates it on the optimizer's UNIT_GRID for
    several models at once.
    """

    def __init__(
        self,
        cfg: NetworkConfig,
        family: Family,
        fsp: FiniteSizeParams,
        qbers: QberPair,
        memories: bool = False,
        basis_strategy: BasisStrategy | None = None,
    ) -> None:
        spec = ProtocolSpec(family, memories, basis_strategy)
        n_formula = formula_party_count(cfg, spec)
        budget = fsp.budget()
        self.strategy = spec.basis_strategy
        self.n_formula = n_formula
        self.block_size = fsp.block_size
        self.per_use = yields(cfg, spec)
        # eps_c also plays the two roles that lie outside the secrecy budget:
        # the robustness (the 1 - eps_c factor and the Hoeffding penalty) and
        # the error correction (the log term)
        self.eps_c = budget.eps_c
        self.preshared = self.strategy is BasisStrategy.PRESHARED
        if self.preshared:
            self.q_pe, self.q_ec = qbers.q_x, qbers.q_z
            eps_pe, eps_ec = budget.eps_pe, budget.eps_c / math.sqrt(n_formula - 1)
        else:
            self.q_pe, self.q_ec = qbers.q_z, qbers.q_x
            eps_pe, eps_ec = budget.eps_pe / math.sqrt(n_formula - 1), budget.eps_c
        self.log_pe = math.log(1.0 / eps_pe)
        self.log_ec = math.log(1.0 / eps_ec)
        # log2((n-1) / (2 eps_c eps_pa^2)) as a sum of logs: the quotient
        # overflows once the baseline splits a tiny epsilon over many links
        self.log_term = (
            math.log2(n_formula - 1) - 1.0 - math.log2(budget.eps_c) - 2.0 * math.log2(budget.eps_pa)
        )

    def _terms(self, p_key: float) -> tuple:
        """rounds, m, k, both effective error rates, both penalties, the log
        term and the basis-string charge at one p_key, in float arithmetic."""
        eta_key, eta_check = sifting_fractions(self.strategy, self.n_formula, p_key)
        per_key = eta_key * self.per_use
        rounds = max(self.block_size / per_key, 1.0) if per_key > 0.0 else math.inf
        if not math.isfinite(rounds):
            return rounds, 0.0, 0.0, self.q_pe, self.q_ec, 1.0, 1.0, 0.0, 0.0
        m = per_key * rounds
        k = eta_check * self.per_use * rounds
        preshared_term = rounds * binary_entropy(p_key) if self.preshared else 0.0
        if m <= 0.0 or k <= 0.0:
            return rounds, m, k, self.q_pe, self.q_ec, 1.0, 1.0, self.log_term, preshared_term
        m_pen = max(m, 1.0)
        q_pe_eff = self.q_pe + _serfling(self.log_pe, m_pen, max(k, 1.0))
        q_ec_eff = self.q_ec + _hoeffding(self.log_ec, m_pen)
        return (
            rounds,
            m,
            k,
            q_pe_eff,
            q_ec_eff,
            _entropy_penalty(q_pe_eff),
            _entropy_penalty(q_ec_eff),
            self.log_term,
            preshared_term,
        )

    def result(self, p_key: float) -> KeyLengthResult:
        return self._assemble(*self._terms(p_key))

    def fraction(self, p_key: float) -> float:
        """result(p_key).secret_fraction without building the breakdown."""
        rounds, m, _, _, _, pe_pen, ec_pen, log_term, preshared_term = self._terms(p_key)
        if not math.isfinite(rounds):
            return 0.0
        raw = _raw(self.eps_c, m, pe_pen, ec_pen, preshared_term, log_term)
        return raw / rounds if raw > 0.0 else 0.0

    def _assemble(
        self,
        rounds: float,
        m: float,
        k: float,
        q_pe_eff: float,
        q_ec_eff: float,
        pe_pen: float,
        ec_pen: float,
        log_term: float,
        preshared_term: float,
    ) -> KeyLengthResult:
        raw = _raw(self.eps_c, m, pe_pen, ec_pen, preshared_term, log_term)
        # +0.0 also when raw is -0.0 (no rounds at all), where max(raw, 0.0)
        # would keep the sign
        ell = raw if raw > 0.0 else 0.0
        if m < 1.0 or k < 1.0:
            status = STATUS_INSUFFICIENT
        elif ell > 0.0:
            status = STATUS_OK
        else:
            status = STATUS_ABORT
        q_x_eff, q_z_eff = (q_pe_eff, q_ec_eff) if self.preshared else (q_ec_eff, q_pe_eff)
        return KeyLengthResult(
            ell=ell,
            raw=raw,
            rounds=rounds,
            secret_fraction=ell / rounds if math.isfinite(rounds) else 0.0,
            status=status,
            m=m,
            k=k,
            q_x_eff=q_x_eff,
            q_z_eff=q_z_eff,
            pe_term=m * pe_pen,
            ec_term=m * ec_pen,
            log_term=log_term,
            preshared_term=preshared_term,
        )


@functools.lru_cache(maxsize=None)
def _grid_sifting(strategy: BasisStrategy, n_formula: int) -> tuple:
    # read-only by convention: stacked_fractions copies the rows it stacks
    return sifting_fractions(strategy, n_formula, UNIT_GRID)


_GRID_ENTROPY = _entropy_array(UNIT_GRID)


def stacked_fractions(models: Sequence[KeyLengthModel]) -> np.ndarray:
    """Secret fractions of several models on the optimizer's UNIT_GRID, as
    a (models x p_key) array from one numpy pass.

    Each model's p_key-independent terms broadcast as a column; the sifting
    rows per (strategy, party count) and the basis-string entropy are cached
    across calls.  Row i is bit for bit the row of model i on its own.
    """
    rows = [_grid_sifting(model.strategy, model.n_formula) for model in models]
    eta_key = np.array([eta for eta, _ in rows])
    eta_check = np.array([eta for _, eta in rows])
    per_use, block_size, log_pe, log_ec, q_pe, q_ec, eps_c, log_term = np.array(
        [
            (m.per_use, m.block_size, m.log_pe, m.log_ec, m.q_pe, m.q_ec, m.eps_c, m.log_term)
            for m in models
        ]
    ).T[:, :, None]
    preshared = np.array([[model.preshared] for model in models])
    per_key = eta_key * per_use
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rounds = np.where(per_key > 0.0, np.maximum(block_size / per_key, 1.0), np.inf)
        m = per_key * rounds
        k = eta_check * per_use * rounds
        m_pen = np.maximum(m, 1.0)
        pe_pen = _entropy_penalty_array(q_pe + _serfling(log_pe, m_pen, np.maximum(k, 1.0), np.sqrt))
        ec_pen = _entropy_penalty_array(q_ec + _hoeffding(log_ec, m_pen, np.sqrt))
        preshared_term = np.where(preshared, rounds * _GRID_ENTROPY, 0.0)
        # Without key or check detections the penalties need no mask:
        # one check round already saturates the Serfling penalty and the
        # log term is positive, so raw < 0 there as in `result`.
        raw = _raw(eps_c, m, pe_pen, ec_pen, preshared_term, log_term)
        return np.where(np.isfinite(rounds), np.maximum(raw, 0.0) / rounds, 0.0)


def maximize_stacked(models: Sequence[KeyLengthModel]) -> list[ScalarMaximum]:
    """The p_key maximum of each model, all grids evaluated in one stack."""
    rows = stacked_fractions(models)
    return [maximize_unit_interval(model.fraction, row) for model, row in zip(models, rows)]


def expected_key_length(
    cfg: NetworkConfig, spec: ProtocolSpec, fsp: FiniteSizeParams, qbers: QberPair
) -> KeyLengthResult:
    """Expected key length of one protocol at the spec's p_key."""
    model = KeyLengthModel(cfg, spec.family, fsp, qbers, spec.memories, spec.basis_strategy)
    return model.result(spec.p_key)


@dataclass(frozen=True)
class BipartiteOptimum:
    """Best bipartite baseline over strategy, memory use and p_key."""

    result: KeyLengthResult
    family: Family
    memories: bool
    p_key: float
    indeterminate: bool
    candidates: dict


def link_params(fsp: FiniteSizeParams, n_parties: int) -> FiniteSizeParams:
    """Budget of each of the N-1 parallel links of the bipartite baseline:
    epsilon/(N-1) per link."""
    return replace(fsp, epsilon=fsp.epsilon / (n_parties - 1)) if n_parties > 2 else fsp


def bipartite_models(
    cfg: NetworkConfig, fsp_link: FiniteSizeParams, modes: list[tuple[bool, QberPair]]
) -> dict[tuple[Family, bool], KeyLengthModel]:
    """The baseline's candidate link models, keyed (family, memories): bCKA
    then bQSS, each in every (memories, error rates) mode."""
    return {
        (family, memories): KeyLengthModel(cfg, family, fsp_link, qbers, memories)
        for family in (Family.BCKA, Family.BQSS)
        for memories, qbers in modes
    }


def bipartite_optimal(
    cfg: NetworkConfig,
    noise: NoiseParams,
    fsp: FiniteSizeParams,
    memory_qbers: QberPair | None = None,
) -> BipartiteOptimum:
    """N-1 parallel two-party links as the baseline for an N-party task.

    Each link runs with security parameter epsilon/(N-1); the basis
    probability is optimized independently for the pre-shared and the
    switching strategy, without memories and, where error rates for the
    memory-assisted link are supplied, with them.  The candidates' grids
    are evaluated in one stack.
    """
    fsp_link = link_params(fsp, cfg.n_parties)
    modes = [(False, memoryless_qber(noise.f_depol, 2))]
    if memory_qbers is not None:
        modes.append((True, memory_qbers))
    models = bipartite_models(cfg, fsp_link, modes)
    candidates: dict = {}
    best: tuple[float, KeyLengthModel, Family, bool, float] | None = None
    optima = maximize_stacked(list(models.values()))
    for ((family, memories), model), opt in zip(models.items(), optima):
        candidates[(family.value, memories)] = (opt.x, opt.value)
        # opt.value is model.fraction(opt.x), the winner's secret fraction
        if not opt.indeterminate and (best is None or opt.value > best[0]):
            best = (opt.value, model, family, memories, opt.x)
    if best is None:
        # every strategy aborts: report the memoryless bQSS link at p_key = 1/2
        result = models[Family.BQSS, False].result(0.5)
        return BipartiteOptimum(result, Family.BQSS, False, math.nan, True, candidates)
    _, model, family, memories, p_key = best
    return BipartiteOptimum(model.result(p_key), family, memories, p_key, False, candidates)
