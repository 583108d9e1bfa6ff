"""Composable finite-size key lengths: statistical penalties, one expected
key-length model for both protocol styles, the security budget and the
bipartite baseline optimized over strategy and basis probability."""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace
from types import SimpleNamespace
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
from .optimize import UNIT_GRID, maximize_unit_interval


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
class FiniteSizeParams:
    """Finite-run description: the target block size (expected key-basis
    detections) plus the security parameter epsilon."""

    epsilon: float
    block_size: float
    # Read and checked by nothing in ghznet; kept only because the
    # benchmark's player-profiles workload passes it.
    mc_samples: int = 1000

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not (math.isfinite(self.block_size) and self.block_size >= 1):
            raise ValueError("block_size must be finite and >= 1")
        # KeyLengthModel's log term is log2 of 1/(eps_c * eps_pa**2)
        if not 2.0 * self.eps_c * self.eps_pa**2 > 0.0:
            raise ValueError(
                f"epsilon={self.epsilon!r} is too small: "
                "eps_c * eps_pa**2 underflows to 0 in the key-length log term"
            )

    # The security budget eps_c + eps_pa + 2*eps_pe = epsilon, with the
    # 1/2, 1/4, 1/8 weights: powers of two, so the split is exact.
    @property
    def eps_c(self) -> float:
        return self.epsilon / 2.0

    @property
    def eps_pa(self) -> float:
        return self.epsilon / 4.0

    @property
    def eps_pe(self) -> float:
        return self.epsilon / 8.0


STATUS_OK = "ok"
STATUS_ABORT = "abort"
STATUS_INSUFFICIENT = "insufficient-detections"


@dataclass(frozen=True)
class KeyLengthResult:
    """Expected extractable key length and its term-by-term breakdown; from
    `expected_key_length`, each field is a column with one entry per row."""

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


def _key_terms(
    model, per_key, per_check, rounds, charge, maximum=max, sqrt=math.sqrt, penalty=_entropy_penalty
):
    """m, k, both effective error rates, both entropy penalties and the raw
    key length, from the key and check detections per network use, the
    rounds and the basis-string charge.  `model` holds the p_key-independent
    terms: a KeyLengthModel's floats, or per-model columns of a stack with
    the numpy operations passed in."""
    m = per_key * rounds
    k = per_check * rounds
    m_pen = maximum(m, 1.0)
    q_pe_eff = model.q_pe + _serfling(model.log_pe, m_pen, maximum(k, 1.0), sqrt)
    q_ec_eff = model.q_ec + _hoeffding(model.log_ec, m_pen, sqrt)
    pe_pen = penalty(q_pe_eff)
    ec_pen = penalty(q_ec_eff)
    raw = (1.0 - model.eps_c) * (m * (1.0 - pe_pen - ec_pen) - charge - model.log_term)
    return m, k, q_pe_eff, q_ec_eff, pe_pen, ec_pen, raw


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

    `expected_key_length` evaluates several models, each at its own p_key,
    with the breakdown, and `result` is its one-row view; `fraction` returns
    only the secret fraction (the optimizer's refinement); `stacked_fractions`
    evaluates the optimizer's UNIT_GRID for several models in one numpy
    pass.  All of them take the counts at p_key to the key length through
    one expression, `_key_terms`.
    """

    def __init__(self, cfg: NetworkConfig, spec: ProtocolSpec, fsp: FiniteSizeParams, qbers: QberPair) -> None:
        n_formula = formula_party_count(cfg, spec)
        self.strategy = spec.basis_strategy
        self.n_formula = n_formula
        self.block_size = fsp.block_size
        self.per_use = yields(cfg, spec)
        # eps_c also plays the two roles that lie outside the secrecy budget:
        # the robustness (the 1 - eps_c factor and the Hoeffding penalty) and
        # the error correction (the log term)
        self.eps_c = fsp.eps_c
        self.preshared = self.strategy is BasisStrategy.PRESHARED
        if self.preshared:
            self.q_pe, self.q_ec = qbers.q_x, qbers.q_z
            eps_pe, eps_ec = fsp.eps_pe, fsp.eps_c / math.sqrt(n_formula - 1)
        else:
            self.q_pe, self.q_ec = qbers.q_z, qbers.q_x
            eps_pe, eps_ec = fsp.eps_pe / math.sqrt(n_formula - 1), fsp.eps_c
        self.log_pe = math.log(1.0 / eps_pe)
        self.log_ec = math.log(1.0 / eps_ec)
        # log2((n-1) / (2 eps_c eps_pa^2)) as a sum of logs: the quotient
        # overflows once the baseline splits a tiny epsilon over many links
        self.log_term = (
            math.log2(n_formula - 1) - 1.0 - math.log2(fsp.eps_c) - 2.0 * math.log2(fsp.eps_pa)
        )

    def _counts(self, p_key: float) -> tuple:
        """Key and check detections per network use, the rounds the block
        takes and the basis-string charge at one p_key."""
        eta_key, eta_check = sifting_fractions(self.strategy, self.n_formula, p_key)
        per_key = eta_key * self.per_use
        rounds = self.block_size / per_key if per_key > 0.0 else math.inf
        charge = rounds * binary_entropy(p_key) if self.preshared else 0.0
        return per_key, eta_check * self.per_use, rounds, charge

    def result(self, p_key: float) -> KeyLengthResult:
        """The one-row view of `expected_key_length`."""
        columns = expected_key_length([self], [p_key])
        return KeyLengthResult(**{name: column[0] for name, column in vars(columns).items()})

    def fraction(self, p_key: float) -> float:
        """result(p_key).secret_fraction without building the breakdown."""
        per_key, per_check, rounds, charge = self._counts(p_key)
        if not math.isfinite(rounds):
            return 0.0
        raw = _key_terms(self, per_key, per_check, rounds, charge)[-1]
        return raw / rounds if raw > 0.0 else 0.0


@functools.lru_cache(maxsize=None)
def _grid_sifting(strategy: BasisStrategy, n_formula: int) -> tuple:
    rows = sifting_fractions(strategy, n_formula, UNIT_GRID)
    for row in rows:
        row.flags.writeable = False
    return rows


_GRID_ENTROPY = _entropy_array(UNIT_GRID)
_GRID_ENTROPY.flags.writeable = False
# the model attributes stacked_fractions broadcasts as columns
_COLUMNS = ("per_use", "block_size", "eps_c", "q_pe", "q_ec", "log_pe", "log_ec", "log_term")
_column_values = operator.attrgetter(*_COLUMNS)


def stacked_fractions(models: Sequence[KeyLengthModel]) -> np.ndarray:
    """Secret fractions of several models on the optimizer's UNIT_GRID, as
    a (models x p_key) array from one numpy pass of `_key_terms`.

    Each model's p_key-independent terms broadcast as a column; the sifting
    rows per (strategy, party count) and the basis-string entropy are cached
    across calls.  Row i is bit for bit the row of model i on its own.
    """
    rows = [_grid_sifting(model.strategy, model.n_formula) for model in models]
    eta_key = np.array([eta for eta, _ in rows])
    eta_check = np.array([eta for _, eta in rows])
    columns = np.array([_column_values(model) for model in models]).T[:, :, None]
    terms = SimpleNamespace(**dict(zip(_COLUMNS, columns)))
    preshared = np.array([[model.preshared] for model in models])
    per_key = eta_key * terms.per_use
    per_check = eta_check * terms.per_use
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rounds = np.where(per_key > 0.0, terms.block_size / per_key, np.inf)
        charge = np.where(preshared, rounds * _GRID_ENTROPY, 0.0)
        # Without key or check detections the penalties need no mask:
        # one check round already saturates the Serfling penalty and the
        # log term is positive, so raw < 0 there as in `result`.
        raw = _key_terms(
            terms, per_key, per_check, rounds, charge, np.maximum, np.sqrt, _entropy_penalty_array
        )[-1]
        return np.where(np.isfinite(rounds), np.maximum(raw, 0.0) / rounds, 0.0)


def _penalties(q_eff: np.ndarray) -> np.ndarray:
    # per element through math: numpy's log2 differs in the last place
    return np.array([_entropy_penalty(q) for q in q_eff.tolist()])


def expected_key_length(models: Sequence[KeyLengthModel], p_keys: Sequence[float]) -> KeyLengthResult:
    """Expected key lengths of several models, model i at p_keys[i], as a
    KeyLengthResult whose fields are columns of Python scalars, from one
    numpy pass of `_key_terms`.  Row i is bit for bit the arithmetic of
    model i on its own: numpy does only the IEEE-exact operations, and
    every log and pow goes through the scalar math calls, the sifting
    fractions and h2(p_key) once per distinct (strategy, party count, p_key)
    and the entropy penalties per element.

    A row without key detections takes infinitely many rounds and reports
    zero counts and terms.  A row without key or check detections shows the
    unpenalized error rates and saturated penalties; its raw length is <= 0.
    """
    keys = [(model.strategy, model.n_formula, p_key) for model, p_key in zip(models, p_keys)]
    sifted = {}
    for strategy, n_formula, p_key in set(keys):
        entropy = binary_entropy(p_key) if strategy is BasisStrategy.PRESHARED else 0.0
        sifted[strategy, n_formula, p_key] = (*sifting_fractions(strategy, n_formula, p_key), entropy)
    eta_key, eta_check, entropy = np.array([sifted[key] for key in keys]).T
    terms = SimpleNamespace(**dict(zip(_COLUMNS, np.array([_column_values(model) for model in models]).T)))
    preshared = np.array([model.preshared for model in models])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        per_key = eta_key * terms.per_use
        rounds = np.where(per_key > 0.0, terms.block_size / per_key, np.inf)
        charge = rounds * entropy
        m, k, q_pe_eff, q_ec_eff, pe_pen, ec_pen, raw = _key_terms(
            terms, per_key, eta_check * terms.per_use, rounds, charge, np.maximum, np.sqrt, _penalties
        )
        finite = np.isfinite(rounds)
        m, k, raw, log_term, charge = (np.where(finite, c, 0.0) for c in (m, k, raw, terms.log_term, charge))
        dead = (m <= 0.0) | (k <= 0.0)
        q_pe_eff, q_ec_eff = np.where(dead, terms.q_pe, q_pe_eff), np.where(dead, terms.q_ec, q_ec_eff)
        pe_pen, ec_pen = np.where(dead, 1.0, pe_pen), np.where(dead, 1.0, ec_pen)
        ell = np.where(raw > 0.0, raw, 0.0)
        status = np.where(ell > 0.0, STATUS_OK, STATUS_ABORT)
        status = np.where((m < 1.0) | (k < 1.0), STATUS_INSUFFICIENT, status)
        q_x_eff, q_z_eff = np.where(preshared, q_pe_eff, q_ec_eff), np.where(preshared, q_ec_eff, q_pe_eff)
        columns = (ell, raw, rounds, ell / rounds, status, m, k, q_x_eff, q_z_eff)
        columns += (m * pe_pen, m * ec_pen, log_term, charge)
    return KeyLengthResult(*(column.tolist() for column in columns))


class BestFraction:
    """The largest secret fraction among several models: each model's p_key
    optimum and, over them, the winning protocol variant, both selected
    when it is built.

    `rows` are the models' `stacked_fractions` rows, stacked here when not
    given.  A model whose row has no positive fraction is dead.  `winner`
    indexes the first live model with the largest refined fraction; when
    every model is dead it is `fallback`, whose p_key = 1/2 evaluation
    `result` reports.
    """

    def __init__(
        self, models: Sequence[KeyLengthModel], rows: np.ndarray | None = None, fallback: int = 0
    ) -> None:
        self.models = list(models)
        self.rows = stacked_fractions(self.models) if rows is None else rows
        self.optima = [maximize_unit_interval(model.fraction, row) for model, row in zip(self.models, self.rows)]
        live = [i for i, opt in enumerate(self.optima) if not opt.indeterminate]
        # max keeps the first of equal fractions
        self.winner = max(live, key=lambda i: self.optima[i].value, default=fallback)

    def exact(self) -> float:
        return self.optima[self.winner].value

    def result(self) -> KeyLengthResult:
        opt = self.optima[self.winner]
        return self.models[self.winner].result(0.5 if opt.indeterminate else opt.x)


@dataclass(frozen=True)
class BipartiteOptimum:
    """Best bipartite baseline over strategy, memory use and p_key."""

    result: KeyLengthResult
    family: Family
    memories: bool
    p_key: float
    indeterminate: bool
    candidates: dict


def bipartite_models(
    cfg: NetworkConfig, fsp: FiniteSizeParams, modes: list[tuple[bool, QberPair]]
) -> dict[tuple[Family, bool], KeyLengthModel]:
    """The baseline's candidate link models, keyed (family, memories): bCKA
    then bQSS, each in every (memories, error rates) mode.  Each of the N-1
    parallel links runs with security parameter epsilon/(N-1)."""
    fsp_link = replace(fsp, epsilon=fsp.epsilon / (cfg.n_parties - 1))
    return {
        (family, memories): KeyLengthModel(cfg, ProtocolSpec(family, memories), fsp_link, qbers)
        for family in (Family.BCKA, Family.BQSS)
        for memories, qbers in modes
    }


def best_link(links: dict, rows: np.ndarray | None = None) -> BestFraction:
    """BestFraction over the links; the memoryless bQSS link stands for a dead baseline."""
    return BestFraction(links.values(), rows, list(links).index((Family.BQSS, False)))


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
    are evaluated in one stack.  A dead baseline is indeterminate, p_key nan.
    """
    modes = [(False, memoryless_qber(noise.f_depol, 2))]
    if memory_qbers is not None:
        modes.append((True, memory_qbers))
    links = bipartite_models(cfg, fsp, modes)
    best = best_link(links)
    keys = list(links)
    candidates = {(f.value, mem): (opt.x, opt.value) for (f, mem), opt in zip(keys, best.optima)}
    family, memories = keys[best.winner]
    opt = best.optima[best.winner]
    return BipartiteOptimum(best.result(), family, memories, opt.x, opt.indeterminate, candidates)
